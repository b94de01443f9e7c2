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
(seed, shard index), one generator per block of 1024 trials. A shard
draws each kind of random value in one call, and each slice of its
trials is decoded at once in numpy; the output depends only on (seed,
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
_SHARD = 1024
_SLICE_CELLS = 1 << 16     # codeword letters decoded together
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


def _words_to_bits(words, n):
    """Letters (..., n) of packed words, x_1 first."""
    arr = np.asarray(words, dtype=np.int64)
    bits = np.empty(arr.shape + (n,), dtype=np.uint8)
    for j in range(n):
        bits[..., j] = (arr >> (n - 1 - j)) & 1
    return bits


def _eliminate(rows, n):
    """Null-space basis of every trial's parity rows, by one elimination.

    rows is a (trials, n-k) array of bit-row ints (x_1 is the MSB).
    Gauss-Jordan elimination runs over all trials at once, one column per
    step. Returns (basis, free), both (trials, n): free marks the columns
    without a pivot, and at a free column f basis holds the null-space
    vector with bit f and no other free bit.
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
    return basis, free


def _nullspaces(basis, free):
    """Sorted null space of every trial of an `_eliminate` result.

    Yields (trial indices, words) per null-space dimension d, with words
    of shape (len(indices), 2**d) in ascending order, the all-zero word
    first.
    """
    dims = free.sum(axis=1)
    for d in np.unique(dims):
        idx = np.flatnonzero(dims == d)
        vecs = basis[idx][free[idx]].reshape(idx.size, d)
        words = np.zeros((idx.size, 1), dtype=np.int64)
        for j in range(d):
            words = np.concatenate([words, words ^ vecs[:, j:j + 1]], axis=1)
        words.sort(axis=1)
        yield idx, words


def _draw_shard(ch, spec, size, rng):
    """Draw a shard's codes, message indices and noise, one call per kind.

    A parity-check shard draws its parity rows first, since its message
    space (the null space less the all-zero word) needs the rank, and its
    code is the `_eliminate` result. A fixed-composition shard's code is
    None: `_slice_books` draws its codebooks after the noise.
    """
    n, k = spec.n, spec.k
    code = None
    if isinstance(spec, GallagerSpec):
        code = _eliminate(rng.integers(0, 1 << n, size=(size, n - k)), n)
        sent = rng.integers(1, 1 << code[1].sum(axis=1))
    else:
        sent = rng.integers(0, 1 << k, size=size)
    return code, sent, _noise_draw(ch, rng)(size=(size, n))


def _slice_books(spec, code, lo, hi, rng):
    """Codebooks of a shard's trials lo..hi-1, as (trial indices, letters)
    batches of one codebook size.

    Fixed-composition codebooks are drawn here, each codeword a
    permutation of the type's symbols; `permuted` shuffles lane by lane,
    so the draws do not depend on how trials are split into slices.
    """
    n = spec.n
    if code is None:
        counts = spec.t.counts(n)
        letters = np.arange(len(counts), dtype=np.min_scalar_type(len(counts) - 1))
        yield np.arange(lo, hi), rng.permuted(
            np.broadcast_to(np.repeat(letters, counts), (hi - lo, 1 << spec.k, n)), axis=-1)
        return
    basis, free = code
    for idx, words in _nullspaces(basis[lo:hi], free[lo:hi]):
        yield lo + idx, _words_to_bits(words, n)


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


def simulate_pe(ch, spec, delta: float, trials: int, seed: int,
                tie_break: str = "pessimistic") -> SimReport:
    """Empirical word-error rate of the ensemble under threshold-set decoding.

    Every trial draws a fresh code, a fresh message (the all-zero word is
    excluded from the parity-check message space) and fresh noise, by
    `_draw_shard` and `_slice_books`, and slices of about _SLICE_CELLS
    codeword letters are decoded at once. Under tie_break="random" the
    tied trials' picks are drawn in one call after all of a shard's
    trials, so the trials are those of a pessimistic run at the same seed.
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
        code, sent, noise = _draw_shard(ch, spec, m, rng)
        tied = {}             # per tied trial, whether each set member is wrong
        for lo in range(0, m, per_slice):
            for idx, books in _slice_books(spec, code, lo, min(m, lo + per_slice), rng):
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
                        tied[idx[j]] = differs[j][inside[j]]
        if tied:
            wrong = [tied[i] for i in sorted(tied)]
            picks = rng.integers(0, [w.size for w in wrong])
            wrong_picks += sum(bool(w[p]) for w, p in zip(wrong, picks))
    errors = missed + (ties if tie_break == "pessimistic" else wrong_picks)
    lo, hi = wilson_interval(errors, trials)
    return SimReport(trials=trials, errors=errors, ties_broken=ties,
                     empirical_pe=errors / trials,
                     wilson_99_interval=(lo, hi), seed=seed)
