"""Exact evaluation of the deviation probabilities.

The single-letter statistics of a discrete channel (channel.statistic,
one row per input in use, its atoms sorted and merged) take finitely
many values, so the n-letter sum has an exact law: a log-domain
convolution when the values share a lattice step (binomial weights for
a two-point row), else an enumeration of exact types (each count vector
of a row's atoms with its multinomial weight, rows combined by outer
sum), within a fixed state budget. The law depends on neither the
deviation nor the rate, so it is built once per (channel, composition,
n) into one record: the ascending atoms and the cumulative log mass of
the deviation event's side at every cut between them (and, for the
conditional-entropy sum, thm1's cumulative union weight, from which
thm1 and the BSC and BEC readouts take their minimum), memoised with
the statistic's mean, or None past the budget. Every deviation is one
cut of it, found by a binary search, and one array read. Past the
budget, and on continuous-output channels, the tail is the
tilted-measure sandwich.

Inequality conventions follow the two deviation events literally: the
conditional-entropy event is a strict upper tail (borderline atoms stay
in the decoding set), the relative-entropy event is a non-strict lower
tail. Threshold comparisons get a slack toward the decoding set of 1e-9
of the distance from the lowest atom (and at least 1e-9 of a lattice
step, or of a nat off a lattice), so float noise cannot flip an atom.
Type atoms closer than four slacks merge into the highest of them for an
upper tail and the lowest for a lower one, which can only raise the tail.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from . import channel as chn
from . import nep
from .nep import TailEstimate
from .numkit import rationalize_step

_MERGE_TOL = 1e-12
_SLACK = 1e-9
_MAX_LATTICE_STATES = 10 ** 7   # states of one exact law, on a lattice or by types


class LatticeInfeasibleError(ValueError):
    """No exact law within the state budget (of a lattice alone: no common step)."""


def _merged(g: chn.StatGroup) -> chn.StatGroup:
    """g's atoms ascending, those within 1e-12 (relative above 1) of the one
    below merged into it."""
    keep_v, keep_p = [], []
    for v, p in sorted(zip(g.values, g.probs)):
        if keep_v and abs(v - keep_v[-1]) <= _MERGE_TOL * max(1.0, abs(v)):
            keep_p[-1] += p
        else:
            keep_v.append(v)
            keep_p.append(p)
    return chn.StatGroup(g.weight, np.array(keep_p), np.array(keep_v))


@dataclass(frozen=True)
class Law:
    """Exact law of an n-letter sum, read from one side: atoms offset + points
    (ascending, points from 0) and, at each cut k, the log mass log_tail[k]
    of atoms k and above (an upper law) or below k, 0 for the whole law.
    scale, the lattice step or 1, is the readout slack's unit. For thm1's
    sum S, log_charged[k] = ln E[e^S 1{0 < S < atom k}]."""
    offset: float
    scale: float
    points: np.ndarray
    log_tail: np.ndarray
    log_charged: np.ndarray | None = None

    @classmethod
    def of_atoms(cls, offset, scale, points, log_p, up: bool, charged: bool = False) -> "Law":
        """The record of atoms offset + points with log masses log_p, read
        from above (up) or below; each sum accumulates atom by atom."""
        if up:
            log_tail = np.r_[0.0, np.logaddexp.accumulate(log_p[::-1])[-2::-1], -np.inf]
        else:
            log_tail = np.r_[-np.inf, np.logaddexp.accumulate(log_p)[:-1], 0.0]
        log_charged = None
        if charged:
            atoms = offset + points
            log_charged = np.r_[-np.inf, np.logaddexp.accumulate(
                np.where(atoms > scale * 1e-9, log_p + atoms, -np.inf))]
        for a in (points, log_tail, log_charged):
            if a is not None:
                a.setflags(write=False)
        return cls(offset, scale, points, log_tail, log_charged)

    def cut(self, threshold: float) -> int:
        """Number of atoms at or below threshold, plus the slack."""
        y = threshold - self.offset
        return int(np.searchsorted(self.points, y + _SLACK * max(self.scale, abs(y)),
                                   side="right"))

    def tail(self, threshold: float) -> TailEstimate:
        """Exact P{sum > threshold} (an upper law) or P{sum <= threshold}."""
        log_tail = float(self.log_tail[self.cut(threshold)])
        return TailEstimate(kind="exact", value=min(math.exp(log_tail), 1.0), log_value=log_tail)


def _lattice_step(rows):
    """Common lattice step of rows (StatGroup, count); a fixed sum has none."""
    step = rationalize_step([d for g, _ in rows for d in np.diff(g.values)])
    if step is None:
        raise LatticeInfeasibleError("atom values share no common lattice step")
    return step


def _row_pmf_on_lattice(g: chn.StatGroup, step: float):
    """(base value, log-pmf array over lattice indices) for one row."""
    base = float(g.values[0])
    if g.values.size == 1:
        return base, np.array([0.0])
    idx = np.round((g.values - base) / step).astype(int)
    if np.any(np.abs(idx * step - (g.values - base)) >
              _SLACK * np.maximum(step, np.abs(g.values - base))):
        raise LatticeInfeasibleError("atom values do not sit on the lattice")
    logp = np.full(idx.max() + 1, -np.inf)
    logp[idx] = np.log(g.probs)
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


def _lattice_law(rows):
    """(offset, step, points, log masses) of the atoms on the rows' common
    lattice, by log-domain convolution."""
    step = _lattice_step(rows)
    offset = 0.0
    acc = np.array([0.0])
    for g, cnt in rows:
        base, logp = _row_pmf_on_lattice(g, step)
        offset += cnt * base
        if logp.size > 1:
            power = _power_log(logp, cnt)
            # a one-point law convolves as a shift, logaddexp(-inf, x) = x
            acc = _convolve_log(acc, power) if acc.size > 1 else acc[0] + power
            if acc.size > _MAX_LATTICE_STATES:
                raise LatticeInfeasibleError("lattice DP exceeded state budget")
    live = np.flatnonzero(acc > -np.inf)
    return offset, step, step * live, acc[live]


def _row_types(g: chn.StatGroup, count: int):
    """(value above count times the lowest atom, log multinomial weight) of
    each type of count draws from one row: each count vector of its atoms."""
    log_fact = gammaln(np.arange(count + 1) + 1.0)
    left, value, log_w = np.array([count]), np.array([0.0]), log_fact[-1:]
    for v, lp in zip(g.values[1:] - g.values[0], np.log(g.probs[1:])):
        idx = np.repeat(np.arange(left.size), left + 1)
        k = np.arange(idx.size)
        k -= np.repeat(np.cumsum(left + 1) - left - 1, left + 1)
        left, value, log_w = left[idx], value[idx], log_w[idx]
        left -= k
        value += k * v
        log_w += k * lp - log_fact[k]
    return value, log_w + left * math.log(g.probs[0]) - log_fact[left]


def _merge_types(points, log_w, up: bool):
    """Points (>= 0) ascending with their log masses; points closer than four
    readout slacks become one, the highest of them when up, else the lowest."""
    order = np.argsort(points)
    points, log_w = points[order], log_w[order]
    gaps = np.diff(points) > 4 * _SLACK * np.maximum(1.0, points[1:])
    starts = np.flatnonzero(np.r_[True, gaps])
    keep = np.r_[starts[1:] - 1, points.size - 1] if up else starts
    return points[keep], np.logaddexp.reduceat(log_w, starts)


def _types_law(rows, up: bool):
    """(offset, 1, points, log masses) of the atoms enumerated by exact
    types, rows combined by outer sum."""
    states = math.prod(math.comb(cnt + g.values.size - 1, cnt) for g, cnt in rows)
    if states > _MAX_LATTICE_STATES:
        raise LatticeInfeasibleError(
            f"exact types need {states} states, budget is {_MAX_LATTICE_STATES}")
    offset, points, log_w = 0.0, np.array([0.0]), np.array([0.0])
    for g, cnt in rows:
        v, w = _row_types(g, cnt)
        offset += cnt * float(g.values[0])
        points, log_w = _merge_types((points[:, None] + v).ravel(),
                                     (log_w[:, None] + w).ravel(), up)
    return offset, 1.0, points, log_w


def _sum_distribution(rows, up: bool, charged: bool = False) -> Law:
    """Exact law of the total sum, read from above (up) or below, on the rows'
    lattice or else by types; LatticeInfeasibleError past the state budget."""
    try:
        atoms = _lattice_law(rows)
    except LatticeInfeasibleError:
        atoms = _types_law(rows, up)
    return Law.of_atoms(*atoms, up, charged)


# ---------------------------------------------------------------------------
# deviation probabilities of the two families
# ---------------------------------------------------------------------------

def _statistic_rows(ch: chn.DiscreteChannel, t, n: int):
    """Rows (merged StatGroup, count) of the conditional-entropy sum (t None,
    n copies of one row) or of the relative-entropy sum (n t(x) copies of
    input x's row) for the n-type t."""
    groups = chn.statistic(ch, t)
    counts = [n] if t is None else [c for c in t.counts(n) if c > 0]
    return [(_merged(g), c) for g, c in zip(groups, counts)]


# One record per (channel, composition, n), None past the state budget so
# that a key is refused once; channels hash by identity, compositions by
# value. The rate curves walk one key at a time, and an entry can hold as
# many states as the budget allows, so the memo stays small.
@lru_cache(maxsize=4)
def exact_law(ch, t, n: int):
    """(exact law read from its event's side, per-letter centre H(X|Y) or
    I(t;P)) of the n-letter deviation sum, or None (continuous output, or past
    the budget)."""
    if not isinstance(ch, chn.DiscreteChannel):
        return None
    try:
        law = _sum_distribution(_statistic_rows(ch, t, n), up=t is None, charged=t is None)
    except LatticeInfeasibleError:
        return None
    return law, chn.cond_entropy(ch) if t is None else chn.mutual_info(ch, t)


def lattice_tail(ch: chn.DiscreteChannel, t: chn.InputType | None, delta: float,
                 n: int) -> TailEstimate:
    """Exact deviation probability of pdelta (t None) or ptdelta (type t), read
    off the memoised exact law of the n-letter sum. Raises
    LatticeInfeasibleError when that law needs more than _MAX_LATTICE_STATES states.
    """
    record = exact_law(ch, t, n)
    if record is None:
        raise LatticeInfeasibleError(f"no exact law within {_MAX_LATTICE_STATES} states")
    law, centre = record
    return law.tail(n * (centre + delta) if t is None else n * (centre - delta))


def pdelta(ch, delta: float, n: int) -> TailEstimate:
    """Deviation probability of the conditional-entropy sum.

    P{ -(1/n) sum ln p(X_i|Z_i) > H(X|Y) + delta } under uniform input.
    Dispatch: the exact law (built once per channel and n, and reused for
    every delta), else, past its state budget or for continuous-output
    channels, the tilted-measure sandwich.
    """
    if exact_law(ch, None, n) is not None:
        return lattice_tail(ch, None, delta, n)
    return nep.tail_bounds(nep.cond_entropy_family(ch), delta, n)


def ptdelta(ch, t: chn.InputType, delta: float, n: int) -> TailEstimate:
    """Deviation probability of the relative-entropy sum for an n-type t.

    P{ sum ln(p(Y_i|x_i)/q_t(Y_i)) <= n (I(t;P) - delta) } for any fixed
    input of composition t (the law depends on the input only through t).
    The same dispatch as pdelta; the exact law is built once per
    (channel, t, n) and reused for every delta.
    """
    if exact_law(ch, t, n) is not None:
        return lattice_tail(ch, t, delta, n)
    return nep.tail_bounds(nep.rel_entropy_family(ch, t), delta, n)
