"""Exact and Monte-Carlo evaluation of the deviation probabilities.

The single-letter statistics of a discrete channel (channel.statistic,
one row per input in use) take finitely many values; when those values
share a common lattice step the n-fold sum lives on an integer grid and
its tail can be computed exactly by a log-domain convolution (binomial
weights for a two-point row), within a fixed state budget. That
distribution depends on neither the deviation nor the rate, so it is
built once per (channel, composition, n), kept in a small memo with the
statistic's mean, and every deviation is read off the same array as one
slice. Otherwise a seeded Monte-Carlo estimate (with a Wilson 99%
interval; `TailBudget` holds its sample count and seed) stands in, and
continuous-output channels fall back to the two-sided sandwich from the
tilted-measure module.

Inequality conventions follow the two deviation events literally: the
conditional-entropy event is a strict upper tail (borderline lattice
atoms stay in the decoding set), the relative-entropy event is a
non-strict lower tail. Threshold comparisons get a 1e-9 lattice-step
slack toward the decoding set so float noise cannot flip an atom.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp

from . import channel as chn
from . import nep
from .estimates import TailEstimate
from .numkit import philox_rng, q_inv, rationalize_step

_WILSON_Z99 = q_inv(0.005)
_MERGE_TOL = 1e-12
_SLACK = 1e-9
_MAX_LATTICE_STATES = 10 ** 7   # states of one exact lattice distribution
_MC_SHARD = 65536               # Monte-Carlo samples per generator key


class LatticeInfeasibleError(ValueError):
    """No common lattice step, or the DP state count exceeds the budget."""


@dataclass(frozen=True)
class TailBudget:
    """Sample count and seed of the Monte-Carlo tail estimate."""
    mc_samples: int = 10 ** 6
    seed: int = 20240817


@dataclass(frozen=True)
class LatticeSpec:
    """Single-letter distribution: distinct real atoms with probabilities."""
    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and probs must be matching 1-D arrays")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        order = np.argsort(v)
        v, p = v[order], p[order]
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_atoms(cls, values, probs) -> "LatticeSpec":
        """Build a spec, merging duplicate atoms."""
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        keep_v, keep_p = [], []
        for v, p in sorted(zip(values, probs)):
            if p <= 0:
                continue
            if keep_v and abs(v - keep_v[-1]) <= _MERGE_TOL * max(1.0, abs(v)):
                keep_p[-1] += p
            else:
                keep_v.append(v)
                keep_p.append(p)
        return cls(np.array(keep_v), np.array(keep_p))


def _lattice_step(rows):
    """Common lattice step of rows (LatticeSpec, count); 0.0 for a fixed sum."""
    diffs = [d for ls, _ in rows for d in np.diff(ls.values)]
    if not diffs:
        return 0.0
    step = rationalize_step(diffs)
    if step is None:
        raise LatticeInfeasibleError("atom values share no common lattice step")
    return step


def _row_pmf_on_lattice(ls: LatticeSpec, step: float):
    """(base value, log-pmf array over lattice indices) for one row."""
    base = float(ls.values[0])
    if ls.values.size == 1:
        return base, np.array([0.0])
    idx = np.round((ls.values - base) / step).astype(int)
    if np.any(np.abs(idx * step - (ls.values - base)) >
              _SLACK * np.maximum(step, np.abs(ls.values - base))):
        raise LatticeInfeasibleError("atom values do not sit on the lattice")
    logp = np.full(idx.max() + 1, -np.inf)
    logp[idx] = np.log(ls.probs)
    return base, logp


def _convolve_log(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Log-domain linear convolution of two log-pmf arrays."""
    out = np.full(a.size + b.size - 1, -np.inf)
    for j in range(b.size):
        if b[j] == -np.inf:
            continue
        out[j:j + a.size] = np.logaddexp(out[j:j + a.size], a + b[j])
    return out


def _power_log(logp: np.ndarray, n: int) -> np.ndarray:
    """n-fold log-domain self-convolution of a row's log-pmf (mass at both ends).

    A two-point law gets binomial weights on multiples of its atoms'
    distance; three or more points go stage by stage.
    """
    span = (logp.size - 1) * n + 1
    if span > _MAX_LATTICE_STATES:
        raise LatticeInfeasibleError(
            f"lattice DP needs {span} states, budget is {_MAX_LATTICE_STATES}")
    if logp.size > 1 and np.all(logp[1:-1] == -np.inf):
        j = np.arange(n + 1)
        out = np.full(span, -np.inf)
        out[::logp.size - 1] = (gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
                                + (n - j) * logp[0] + j * logp[-1])
        return out
    acc = np.array([0.0])
    for _ in range(n):
        acc = _convolve_log(acc, logp)
    return acc


def _sum_distribution(rows):
    """Distribution of the total sum: (offset, step, log-pmf over indices)."""
    step = _lattice_step(rows)
    offset = 0.0
    acc = np.array([0.0])
    for ls, cnt in rows:
        base, logp = _row_pmf_on_lattice(ls, step if step else 1.0)
        offset += cnt * base
        if logp.size > 1:
            acc = _convolve_log(acc, _power_log(logp, cnt))
            if acc.size > _MAX_LATTICE_STATES:
                raise LatticeInfeasibleError("lattice DP exceeded state budget")
    return offset, step, acc


def _tail_from_distribution(offset, step, log_pmf, threshold, side):
    """Tail mass of the lattice sum; side is 'gt' (strict) or 'le'."""
    if step == 0.0 or log_pmf.size == 1:
        edge = threshold + _SLACK * max(1.0, abs(threshold))
        hit = offset > edge if side == "gt" else offset <= edge
        return 0.0 if hit else -math.inf
    # index k corresponds to value offset + k*step; k <= x exactly when k < cut
    kappa = (threshold - offset) / step
    x = kappa + _SLACK * max(1.0, abs(kappa))
    cut = 0 if x < 0 else log_pmf.size if x >= log_pmf.size else math.floor(x) + 1
    part = log_pmf[cut:] if side == "gt" else log_pmf[:cut]
    if part.size == log_pmf.size:
        return 0.0  # the whole distribution, whatever its rounding
    return float(logsumexp(part))  # -inf when empty


def exact_tail_rows(rows, threshold: float, side: str = "gt") -> TailEstimate:
    """Exact tail of an independent sum drawn row-wise (count copies of each
    row's spec) via lattice convolution.

    side='gt' gives P{sum > threshold} (strict), side='le' gives
    P{sum <= threshold}. Raises LatticeInfeasibleError when the atoms do
    not share a lattice or the state budget is exceeded.
    """
    if side not in ("gt", "le"):
        raise ValueError(f"side must be 'gt' or 'le', got {side!r}")
    offset, step, log_pmf = _sum_distribution(rows)
    return _exact_estimate(
        _tail_from_distribution(offset, step, log_pmf, threshold, side))


def _exact_estimate(log_tail: float) -> TailEstimate:
    """The exact TailEstimate of a log tail mass."""
    value = math.exp(log_tail) if log_tail > -745.0 else 0.0
    return TailEstimate(kind="exact", value=min(value, 1.0), log_value=log_tail)


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


def mc_tail_rows(rows, threshold: float, samples: int, seed: int,
                 side: str = "gt") -> TailEstimate:
    """Monte-Carlo estimate, with a 99% Wilson interval, of the tail that
    exact_tail_rows computes.

    Sampling is sharded into blocks of _MC_SHARD samples with per-shard
    generators derived from (seed, shard index), so the result is
    bit-identical no matter how shards are scheduled.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    slack = _SLACK * max(1.0, abs(threshold))
    hits = 0
    done = 0
    shard_index = 0
    while done < samples:
        m = min(_MC_SHARD, samples - done)
        rng = philox_rng(seed, shard_index)
        total = np.zeros(m)
        for ls, cnt in rows:
            if ls.values.size == 1:
                total += cnt * ls.values[0]
                continue
            counts = rng.multinomial(cnt, ls.probs, size=m)
            total += counts @ ls.values
        if side == "gt":
            hits += int(np.count_nonzero(total > threshold + slack))
        else:
            hits += int(np.count_nonzero(total <= threshold + slack))
        done += m
        shard_index += 1
    lo, hi = wilson_interval(hits, samples)
    return TailEstimate(kind="mc", value=hits / samples, lower=lo, upper=hi,
                        samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# deviation probabilities of the two families
# ---------------------------------------------------------------------------

def _statistic_rows(ch: chn.DiscreteChannel, t, n: int):
    """Rows (spec, count) of the conditional-entropy sum (t None, n copies of
    one row) or of the relative-entropy sum (n t(x) copies of input x's row)
    for the n-type t."""
    groups = chn.statistic(ch, t)
    counts = [n] if t is None else [c for c in t.counts(n) if c > 0]
    return [(LatticeSpec.from_atoms(g.values, g.probs), c)
            for g, c in zip(groups, counts)]


def _centre(ch, t) -> float:
    """Per-letter mean of the statistic: H(X|Y) (t None) or I(t;P)."""
    return chn.cond_entropy(ch) if t is None else chn.mutual_info(ch, t)


def _deviation_event(centre: float, t, delta: float, n: int):
    """(threshold, side) of the deviation event of the n-letter sum."""
    if t is None:
        return n * (centre + delta), "gt"
    return n * (centre - delta), "le"


# One distribution per (channel, composition, n); channels hash by
# identity, compositions by value. The rate curves walk one key at a time,
# and an entry can hold as many states as the budget allows, so the memo
# stays small. LatticeInfeasibleError is raised, not cached.
@lru_cache(maxsize=4)
def _lattice_distribution(ch, t, n: int):
    """(offset, step, log-pmf, per-letter centre) of the n-letter sum."""
    offset, step, log_pmf = _sum_distribution(_statistic_rows(ch, t, n))
    log_pmf.setflags(write=False)
    return offset, step, log_pmf, _centre(ch, t)


def lattice_tail(ch: chn.DiscreteChannel, t: chn.InputType | None, delta: float,
                 n: int) -> TailEstimate:
    """Exact deviation probability of pdelta (t None) or ptdelta (type t).

    Reads the tail off the memoised lattice distribution of the n-letter
    sum. Raises LatticeInfeasibleError when the atoms share no lattice or
    the distribution needs more than _MAX_LATTICE_STATES states.
    """
    offset, step, log_pmf, centre = _lattice_distribution(ch, t, n)
    threshold, side = _deviation_event(centre, t, delta, n)
    return _exact_estimate(
        _tail_from_distribution(offset, step, log_pmf, threshold, side))


def _discrete_tail(ch, t, delta, n, budget):
    """The exact lattice tail, else a Monte-Carlo estimate of the same event."""
    budget = budget or TailBudget()
    try:
        return lattice_tail(ch, t, delta, n)
    except LatticeInfeasibleError:
        threshold, side = _deviation_event(_centre(ch, t), t, delta, n)
        return mc_tail_rows(_statistic_rows(ch, t, n), threshold, budget.mc_samples,
                            budget.seed, side=side)


def pdelta(ch, delta: float, n: int,
           budget: TailBudget | None = None) -> TailEstimate:
    """Deviation probability of the conditional-entropy sum.

    P{ -(1/n) sum ln p(X_i|Z_i) > H(X|Y) + delta } under uniform input.
    Dispatch: exact lattice DP (its distribution built once per channel
    and n, and reused for every delta), then Monte Carlo,
    then the tilted-measure sandwich for continuous-output channels.
    """
    if isinstance(ch, chn.BiAwgn):
        return nep.tail_bounds(nep.cond_entropy_family(ch), delta, n)
    return _discrete_tail(ch, None, delta, n, budget)


def ptdelta(ch, t: chn.InputType, delta: float, n: int,
            budget: TailBudget | None = None) -> TailEstimate:
    """Deviation probability of the relative-entropy sum for an n-type t.

    P{ sum ln(p(Y_i|x_i)/q_t(Y_i)) <= n (I(t;P) - delta) } for any fixed
    input of composition t (the law depends on the input only through t).
    The same dispatch as pdelta; the lattice distribution is built once
    per (channel, t, n) and reused for every delta.
    """
    if isinstance(ch, chn.BiAwgn):
        return nep.tail_bounds(nep.rel_entropy_family(ch, t), delta, n)
    return _discrete_tail(ch, t, delta, n, budget)
