"""Desk-scale ensemble simulator used to validate every bound.

Samples random parity-check codes (exhaustive null-space enumeration,
so block lengths are capped at 24) or fixed-composition codebooks,
transmits over the channel, runs the threshold-set decoder and reports
a word-error rate with a Wilson 99% interval.

Per trial a fresh code, message and noise realization are drawn, which
matches the triple average the bounds control. Ties (more than one
codeword inside the decoding set) are counted as errors by default;
that pessimistic convention keeps the empirical rate on the bounded
side of the union event.

Randomness comes from the counter-based Philox generator keyed by
(seed, shard index), one generator per block of 4096 trials. Each trial
is drawn as a single trial would be, and each slice of a shard's trials
is then decoded at once in numpy; the output depends only on (seed,
trials), not on the slice size.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chn
from .numkit import philox_rng, q_inv

GALLAGER_N_CAP = 24
FIXED_TYPE_N_CAP = 20
FIXED_TYPE_BOOK_CAP = 2 ** 12
_SHARD = 4096
_SLICE_CELLS = 1 << 16     # codeword letters drawn and decoded together
_JAR_SLACK = 1e-12
_TIE_BREAKS = ("pessimistic", "random")
_WILSON_Z99 = q_inv(0.005)


def wilson_interval(hits: int, trials: int):
    """Wilson score 99% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = hits / trials
    z = _WILSON_Z99
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class GallagerCode:
    """A sampled parity-check code with its null space enumerated."""
    n: int
    k: int
    parity: np.ndarray            # (n-k) x n binary matrix
    codewords: tuple              # sorted ints, bit 0 of the word = x_1 (MSB-first)

    @property
    def rank(self) -> int:
        return self.n - int(math.log2(len(self.codewords)))


@dataclass(frozen=True)
class SimReport:
    trials: int
    errors: int
    ties_broken: int
    empirical_pe: float
    wilson_99_interval: tuple
    seed: int


@dataclass(frozen=True)
class GallagerSpec:
    n: int
    k: int


@dataclass(frozen=True)
class FixedTypeSpec:
    n: int
    k: int
    t: chn.InputType


def _rref_nullspace(rows, n):
    """Null space of a GF(2) matrix given as bit-row ints (x_1 is the MSB)."""
    rows = [r for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        bit = 1 << (n - 1 - col)
        pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = 1 << (n - 1 - fc)
        for i, pc in enumerate(pivots):
            if rows[i] & (1 << (n - 1 - fc)):
                vec |= 1 << (n - 1 - pc)
        basis.append(vec)
    return basis


def _enumerate_nullspace(basis):
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    words.sort()
    return words


def sample_gallager(n: int, k: int, seed: int,
                    rng: np.random.Generator | None = None) -> GallagerCode:
    """Draw a parity-check matrix with i.i.d. fair bits and enumerate its null space."""
    if not 1 <= k < n <= GALLAGER_N_CAP:
        raise ValueError(f"need 1 <= k < n <= {GALLAGER_N_CAP}, got n={n}, k={k}")
    if rng is None:
        rng = philox_rng(seed, 0)
    bits = rng.integers(0, 2, size=(n - k, n), dtype=np.int64)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = [int(r) for r in bits @ weights]
    basis = _rref_nullspace(rows, n)
    words = _enumerate_nullspace(basis)
    parity = bits.copy()
    parity.setflags(write=False)
    return GallagerCode(n=n, k=k, parity=parity, codewords=tuple(words))


def _words_to_bits(words, n):
    """Letters (..., n) of packed words, x_1 first."""
    arr = np.asarray(words, dtype=np.int64)
    bits = np.empty(arr.shape + (n,), dtype=np.uint8)
    for j in range(n):
        bits[..., j] = (arr >> (n - 1 - j)) & 1
    return bits


def _gf2_rank(rows):
    """Rank of GF(2) bit-row ints, by insertion keyed on each row's leading bit."""
    basis = [0] * (GALLAGER_N_CAP + 1)     # indexed by leading-bit position
    rank = 0
    for r in rows:
        while r:
            top = r.bit_length()
            if not basis[top]:
                basis[top] = r
                rank += 1
                break
            r ^= basis[top]
    return rank


def _nullspaces(rows, n):
    """Sorted null space of every trial's parity rows, grouped by dimension.

    rows is a (trials, n-k) array of bit-row ints (x_1 is the MSB).
    Gauss-Jordan elimination runs over all trials at once, one column per
    step. Yields (trial indices, words) per null-space dimension d, with
    words of shape (len(indices), 2**d) sorted as `_enumerate_nullspace`
    sorts them.
    """
    rows = rows.T.copy()                          # (n-k, trials)
    trials = np.arange(rows.shape[1])
    unused = np.ones(rows.shape, dtype=bool)      # rows not yet holding a pivot
    pivot_row = np.full((n, trials.size), -1)     # row holding each column's pivot
    for col in range(n):
        bit = 1 << (n - 1 - col)
        has = (rows & bit) != 0
        cand = has & unused
        found = cand.any(axis=0)
        src = cand.argmax(axis=0)
        piv = rows[src, trials]
        rows ^= (has & found) * piv               # clears the bit, in the pivot row too
        rows[src, trials] = piv
        unused[src, trials] &= ~found
        pivot_row[col] = np.where(found, src, -1)
    col_bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    free = (pivot_row < 0).T
    reduced = np.where(free, 0, rows[np.maximum(pivot_row, 0), trials].T)
    # free column f: its own bit plus the pivot bit of every row that has bit f
    basis = col_bits + np.stack(
        [((reduced >> (n - 1 - f)) & 1) @ col_bits for f in range(n)], axis=1)
    dims = free.sum(axis=1)
    for d in np.unique(dims):
        idx = np.flatnonzero(dims == d)
        vecs = basis[idx][free[idx]].reshape(idx.size, d)
        words = np.zeros((idx.size, 1), dtype=np.int64)
        for j in range(d):
            words = np.concatenate([words, words ^ vecs[:, j:j + 1]], axis=1)
        words.sort(axis=1)
        yield idx, words


@dataclass(frozen=True)
class JarOutcome:
    decoded: int | None   # index into the codebook, None on error
    error: bool
    tie: bool


def jar_decode(ch, y, delta: float, jar_kind, codebook_bits: np.ndarray,
               transmitted: int) -> JarOutcome:
    """Threshold-set decoding of one received word.

    jar_kind is ("cond_entropy",) for the parity-check decoder (metric
    threshold H(X|Y) + delta) or ("rel_entropy", t) for the
    fixed-composition decoder (threshold -I(t;P) + delta, strict).
    Success requires the transmitted word to be the only codeword in the
    set; any tie counts as an error (the pessimistic convention, matching
    the union event the bounds control). This is the one-trial case of the
    decoder `simulate_pe` runs on whole slices.
    """
    scores = _letter_scores(ch, jar_kind)(np.asarray(y)[None])
    inside, differs = _jar_sets(scores, np.asarray(codebook_bits)[None],
                                np.array([transmitted]), *_jar_limit(ch, jar_kind, delta))
    inside, differs = inside[0], differs[0]
    member_idx = np.flatnonzero(inside)
    if not inside[transmitted]:
        return JarOutcome(decoded=int(member_idx[0]) if member_idx.size else None,
                          error=True, tie=False)
    if not differs[member_idx].any():
        return JarOutcome(decoded=transmitted, error=False, tie=False)
    return JarOutcome(decoded=None, error=True, tie=True)


def _letter_scores(ch, jar_kind):
    """Map received words (..., n) to each input letter's scores (|X|, ..., n).

    A letter's score at an output y is ln p(y|x) less the jar's reference:
    ln sum_x p(y|x) for the parity-check decoder, ln q_t(y) for the
    fixed-composition one. A discrete channel reads one (|X|, |Y|) table.
    """
    cond = jar_kind[0] == "cond_entropy"
    if isinstance(ch, chn.DiscreteChannel):
        m = ch.matrix
        with np.errstate(divide="ignore"):
            ref = np.log(m[0] + m[1]) if cond else np.log(chn.mixture_output(ch, jar_kind[1]))
            table = np.log(m) - ref
        return lambda ys: table[:, ys]

    def scores(ys):
        ll = np.stack([ch.log_likelihood(ys, x) for x in range(2)])
        ref = (np.logaddexp(ll[0], ll[1]) if cond
               else chn.biawgn_log_mixture(ch, jar_kind[1], ys))
        return ll - ref
    return scores


def _jar_limit(ch, jar_kind, delta):
    """The decoding set's metric limit, slack included, and whether it is strict."""
    if jar_kind[0] == "cond_entropy":
        thr, strict = chn.cond_entropy(ch) + delta, False
    else:
        thr, strict = -chn.mutual_info(ch, jar_kind[1]) + delta, True
    return thr + _JAR_SLACK * max(1.0, abs(thr)), strict


def _jar_sets(scores, books, sent, limit, strict):
    """Decoding sets of a batch of trials that share a codebook size.

    scores (|X|, G, n) come from `_letter_scores`, books (G, M, n) hold
    letters and sent (G,) the transmitted indices. The metric of a word is
    -(1/n) times its summed scores. Returns (inside, differs), both (G, M):
    set membership, and whether a word differs from the transmitted one
    (fixed-composition codebooks can repeat a word).
    """
    picked = scores[-1][:, None, :]
    for x in range(len(scores) - 1):
        picked = np.where(books == x, scores[x][:, None, :], picked)
    metrics = -picked.sum(axis=-1) / books.shape[-1]
    inside = metrics < limit if strict else metrics <= limit
    words = books[np.arange(sent.size), sent]
    return inside, (books != words[:, None, :]).any(axis=-1)


def _transmit(ch, x_bits, noise):
    """Channel outputs for inputs (..., n), from noise drawn by `_noise_draw`."""
    if isinstance(ch, chn.DiscreteChannel):
        cdf = np.cumsum(ch.matrix, axis=1)
        return (noise[..., None] > cdf[x_bits]).sum(axis=-1)
    signs = np.where(x_bits == 0, 1.0, -1.0)
    return signs * ch.amplitude + noise


def _noise_draw(ch, rng):
    """The generator method whose draws `_transmit` turns into outputs."""
    return rng.random if isinstance(ch, chn.DiscreteChannel) else rng.standard_normal


def _sample_fixed_type(t: chn.InputType, n: int, size: int, rng):
    """size codewords drawn uniformly from the composition class of t."""
    counts = t.counts(n)
    symbols = np.repeat(np.arange(len(counts)), counts).astype(np.int64)
    book = np.empty((size, n), dtype=np.int64)
    for i in range(size):
        book[i] = rng.permutation(symbols)
    return book


def _draw_slice(ch, spec, size, rng):
    """Draw `size` trials, each in the order of a single trial.

    Per trial: the code (the parity bits, or the codebook's permutations),
    the message index, then the noise. The parity-check message space
    excludes the all-zero word, and its size needs the rank, so the rank
    is the one thing computed inside the loop. Returns the codebooks as
    (trial indices, letters) batches of one codebook size, the message
    indices and the noise.
    """
    n, k = spec.n, spec.k
    draw_noise = _noise_draw(ch, rng)
    sent = np.empty(size, dtype=np.int64)
    noise = np.empty((size, n))
    if isinstance(spec, GallagerSpec):
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        rows = np.empty((size, n - k), dtype=np.int64)
        for i in range(size):
            rows[i] = rng.integers(0, 2, size=(n - k, n), dtype=np.int64) @ weights
            sent[i] = rng.integers(1, 1 << (n - _gf2_rank(rows[i].tolist())))
            draw_noise(out=noise[i])
        return _gallager_books(rows, n), sent, noise
    books = np.empty((size, 1 << k, n), dtype=np.min_scalar_type(len(spec.t.probs) - 1))
    for i in range(size):
        books[i] = _sample_fixed_type(spec.t, n, 1 << k, rng)
        sent[i] = rng.integers(0, 1 << k)
        draw_noise(out=noise[i])
    return [(np.arange(size), books)], sent, noise


def _gallager_books(rows, n):
    """The sorted null-space codebooks of a slice, at most _SLICE_CELLS letters a batch."""
    for idx, words in _nullspaces(rows, n):
        step = max(1, _SLICE_CELLS // words[0].size // n)
        for lo in range(0, idx.size, step):
            yield idx[lo:lo + step], _words_to_bits(words[lo:lo + step], n)


def simulate_pe(ch, spec, delta: float, trials: int, seed: int,
                tie_break: str = "pessimistic") -> SimReport:
    """Empirical word-error rate of the ensemble under threshold-set decoding.

    Every trial draws a fresh code, a fresh message (the all-zero word is
    excluded from the parity-check message space) and fresh noise. Each
    shard draws its trials in slices of about _SLICE_CELLS codeword
    letters and decodes a slice at once. Under tie_break="random" a tied
    trial's pick is drawn from the shard's generator after all of the
    shard's trials, in trial order, so the trials themselves are those of
    a pessimistic run at the same seed.
    """
    if trials < 1000:
        raise ValueError("use at least 1000 trials")
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    if isinstance(spec, GallagerSpec):
        n, k = spec.n, spec.k
        if n > GALLAGER_N_CAP:
            raise ValueError(f"parity-check simulation capped at n={GALLAGER_N_CAP}")
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n <= {GALLAGER_N_CAP}, got n={n}, k={k}")
        jar_kind = ("cond_entropy",)
    elif isinstance(spec, FixedTypeSpec):
        n, k = spec.n, spec.k
        if n > FIXED_TYPE_N_CAP or 2 ** k > FIXED_TYPE_BOOK_CAP:
            raise ValueError("fixed-composition simulation size cap exceeded")
        jar_kind = ("rel_entropy", spec.t)
    else:
        raise TypeError(f"unknown ensemble spec {spec!r}")

    scores = _letter_scores(ch, jar_kind)
    limit, strict = _jar_limit(ch, jar_kind, delta)
    per_slice = max(1, _SLICE_CELLS // (n << k))
    missed = ties = wrong_picks = 0
    for shard, start in enumerate(range(0, trials, _SHARD)):
        rng = philox_rng(seed, shard)
        m = min(_SHARD, trials - start)
        tied = []             # per tied trial, whether each set member is wrong
        for lo in range(0, m, per_slice):
            batches, sent, noise = _draw_slice(ch, spec, min(per_slice, m - lo), rng)
            slice_tied = {}
            for idx, books in batches:
                at = np.arange(idx.size)
                tx = sent[idx]
                ys = _transmit(ch, books[at, tx], noise[idx])
                inside, differs = _jar_sets(scores(ys), books, tx, limit, strict)
                tx_in = inside[at, tx]
                tie = tx_in & (inside & differs).any(axis=1)
                missed += int(np.count_nonzero(~tx_in))
                ties += int(np.count_nonzero(tie))
                if tie_break == "random":
                    for j in np.flatnonzero(tie):
                        slice_tied[idx[j]] = differs[j][inside[j]]
            tied += [slice_tied[i] for i in sorted(slice_tied)]
        for wrong in tied:
            wrong_picks += bool(wrong[rng.integers(0, wrong.size)])
    errors = missed + (ties if tie_break == "pessimistic" else wrong_picks)
    lo, hi = wilson_interval(errors, trials)
    return SimReport(trials=trials, errors=errors, ties_broken=ties,
                     empirical_pe=errors / trials,
                     wilson_99_interval=(lo, hi), seed=seed)
