"""Desk-scale ensemble simulator used to validate every bound.

Samples random parity-check codes (exhaustive null-space enumeration,
so block lengths are capped at 24) or fixed-composition codebooks,
transmits over the channel, runs the threshold-set decoder and reports
a word-error rate with a Wilson 99% interval.

Per trial a fresh code, message and noise realization are drawn, which
matches the triple average the bounds control. Ties (more than one
codeword inside the decoding set) are counted as errors by default;
that pessimistic convention keeps the empirical rate on the bounded
side of the union event. Randomness comes from the counter-based
Philox generator keyed by (seed, shard), so results are identical for
any sharding of the trial loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chn
from .numkit import philox_rng
from .tail import wilson_interval

GALLAGER_N_CAP = 24
FIXED_TYPE_N_CAP = 20
FIXED_TYPE_BOOK_CAP = 2 ** 12
_SHARD = 4096
_JAR_SLACK = 1e-12


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
    arr = np.array(words, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    return (arr[:, None] >> shifts[None, :]) & 1


@dataclass(frozen=True)
class JarOutcome:
    decoded: int | None   # index into the codebook, None on error
    error: bool
    tie: bool


def jar_decode(ch, y, delta: float, jar_kind, codebook_bits: np.ndarray,
               transmitted: int, tie_break: str = "pessimistic",
               rng: np.random.Generator | None = None) -> JarOutcome:
    """Threshold-set decoding of one received word.

    jar_kind is ("cond_entropy",) for the parity-check decoder (metric
    threshold H(X|Y) + delta) or ("rel_entropy", t) for the
    fixed-composition decoder (threshold -I(t;P) + delta, strict).
    Success requires the transmitted word to be the only codeword in the
    set; under the default pessimistic convention any tie counts as an
    error (matching the union event the bounds control).
    """
    metrics = _jar_metrics(ch, y, jar_kind, codebook_bits)
    thr = _jar_threshold(ch, jar_kind, delta)
    if jar_kind[0] == "cond_entropy":
        inside = metrics <= thr + _JAR_SLACK * max(1.0, abs(thr))
    else:
        inside = metrics < thr + _JAR_SLACK * max(1.0, abs(thr))
    member_idx = np.flatnonzero(inside)
    tx_in = bool(inside[transmitted])
    others = [i for i in member_idx if not np.array_equal(
        codebook_bits[i], codebook_bits[transmitted])]
    tie = tx_in and len(others) > 0
    if not tx_in:
        return JarOutcome(decoded=int(member_idx[0]) if member_idx.size else None,
                          error=True, tie=False)
    if not others:
        return JarOutcome(decoded=transmitted, error=False, tie=False)
    if tie_break == "pessimistic":
        return JarOutcome(decoded=None, error=True, tie=True)
    pick = int(member_idx[rng.integers(0, member_idx.size)])
    same = np.array_equal(codebook_bits[pick], codebook_bits[transmitted])
    return JarOutcome(decoded=pick, error=not same, tie=True)


def _jar_metrics(ch, y, jar_kind, codebook_bits):
    """Per-codeword decoding metric, -(1/n) of the summed log score."""
    n = codebook_bits.shape[1]
    if isinstance(ch, chn.DiscreteChannel):
        m = ch.matrix
        with np.errstate(divide="ignore"):
            log_rows = np.log(m)
        per_pos = log_rows[:, y]                      # (|X|, n)
    else:
        per_pos = np.stack([ch.log_likelihood(y, x) for x in range(2)])
    if jar_kind[0] == "cond_entropy":
        denom = _log_output_sum(ch, y)
        score = per_pos - denom[None, :]
    else:
        t = jar_kind[1]
        if isinstance(ch, chn.DiscreteChannel):
            q = chn.mixture_output(ch, t)
            with np.errstate(divide="ignore"):
                log_q = np.log(q)[y]
        else:
            log_q = chn.biawgn_log_mixture(ch, t, y)
        score = per_pos - log_q[None, :]
    picked = np.take_along_axis(score, codebook_bits, axis=0)
    return -picked.sum(axis=1) / n


def _log_output_sum(ch, y):
    if isinstance(ch, chn.DiscreteChannel):
        s = ch.matrix[0] + ch.matrix[1]
        return np.log(s)[y]
    return np.logaddexp(ch.log_likelihood(y, 0), ch.log_likelihood(y, 1))


def _jar_threshold(ch, jar_kind, delta):
    if jar_kind[0] == "cond_entropy":
        return chn.cond_entropy(ch) + delta
    return -chn.mutual_info(ch, jar_kind[1]) + delta


def _transmit(ch, x_bits, rng):
    n = x_bits.size
    if isinstance(ch, chn.DiscreteChannel):
        u = rng.random(n)
        cdf = np.cumsum(ch.matrix, axis=1)
        return (u[:, None] > cdf[x_bits]).sum(axis=1)
    signs = np.where(x_bits == 0, 1.0, -1.0)
    return signs * ch.amplitude + rng.standard_normal(n)


def _sample_fixed_type(t: chn.InputType, n: int, size: int, rng):
    """size codewords drawn uniformly from the composition class of t."""
    counts = t.counts(n)
    symbols = np.repeat(np.arange(len(counts)), counts).astype(np.int64)
    book = np.empty((size, n), dtype=np.int64)
    for i in range(size):
        book[i] = rng.permutation(symbols)
    return book


def simulate_pe(ch, spec, delta: float, trials: int, seed: int,
                tie_break: str = "pessimistic") -> SimReport:
    """Empirical word-error rate of the ensemble under threshold-set decoding.

    Every trial draws a fresh code, a fresh message (the all-zero word is
    excluded from the parity-check message space) and fresh noise.
    """
    if trials < 1000:
        raise ValueError("use at least 1000 trials")
    if isinstance(spec, GallagerSpec):
        n, k = spec.n, spec.k
        if n > GALLAGER_N_CAP:
            raise ValueError(f"parity-check simulation capped at n={GALLAGER_N_CAP}")
        jar_kind = ("cond_entropy",)
    elif isinstance(spec, FixedTypeSpec):
        n, k = spec.n, spec.k
        if n > FIXED_TYPE_N_CAP or 2 ** k > FIXED_TYPE_BOOK_CAP:
            raise ValueError("fixed-composition simulation size cap exceeded")
        jar_kind = ("rel_entropy", spec.t)
    else:
        raise TypeError(f"unknown ensemble spec {spec!r}")

    errors = 0
    ties = 0
    done = 0
    shard_index = 0
    while done < trials:
        m = min(_SHARD, trials - done)
        rng = philox_rng(seed, shard_index)
        for _ in range(m):
            if isinstance(spec, GallagerSpec):
                code = sample_gallager(n, k, seed, rng=rng)
                q = int(rng.integers(1, len(code.codewords)))
                book = _words_to_bits(code.codewords, n)
            else:
                book = _sample_fixed_type(spec.t, n, 2 ** k, rng)
                q = int(rng.integers(0, book.shape[0]))
            y = _transmit(ch, book[q], rng)
            out = jar_decode(ch, y, delta, jar_kind, book, q,
                             tie_break=tie_break, rng=rng)
            errors += out.error
            ties += out.tie
        done += m
        shard_index += 1
    lo, hi = wilson_interval(errors, trials)
    return SimReport(trials=trials, errors=errors, ties_broken=ties,
                     empirical_pe=errors / trials,
                     wilson_99_interval=(lo, hi), seed=seed)
