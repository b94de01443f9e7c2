"""Channel models and the information functionals the bounds consume.

Two channel kinds are supported: finite transition matrices (row
stochastic, |X| x |Y|) and binary-input AWGN with a linear snr parameter.
The AWGN convention maps inputs {0, 1} to signals {+sqrt(snr), -sqrt(snr)}
with unit-variance noise, i.e. snr = signal power / noise variance; this
only fixes labeling and does not affect any bound value.

Both ensembles decode by thresholding one single-letter statistic:
-ln p(X|Y) for the parity-check ensemble and ln p(Y|x)/q_t(Y) for the
fixed-composition one. statistic() is the one place their laws are
built; the information moments here, the lattice tails and the tilt
families all read its groups.

All information quantities are in nats. Expectations run over the support
of the joint law and of the composition, so zero transition probabilities
and unused inputs contribute nothing. BiAWGN expectations use the rule of
the tilted laws at zero tilt: 16-point Gauss-Legendre panels of width
0.5 over the output's mean plus or minus 12.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numkit import LOG_SQRT_2PI, central_moments, composite_gauss_legendre

_ROW_SUM_TOL = 1e-12


class DegenerateChannelError(ValueError):
    """The single-letter statistic has zero variance (e.g. noiseless channel)."""


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Memoryless channel given by a row-stochastic transition matrix."""
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
            raise ValueError(f"transition matrix must be |X|x|Y| with |X|>=2, got {m.shape}")
        if np.any(m < 0):
            raise ValueError("negative transition probability")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            raise ValueError(f"row sums deviate from 1 beyond {_ROW_SUM_TOL}: {sums}")
        m = m / sums[:, None]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def input_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class BiAwgn:
    """Binary-input AWGN channel; snr is linear (signal power over noise variance)."""
    snr: float

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")

    @property
    def amplitude(self) -> float:
        return math.sqrt(self.snr)

    def log_likelihood(self, y, x: int):
        """ln p(y|x) for input bit x (0 -> +a, 1 -> -a)."""
        s = self.amplitude if x == 0 else -self.amplitude
        y = np.asarray(y, dtype=float)
        return -0.5 * (y - s) ** 2 - LOG_SQRT_2PI


ChannelModel = DiscreteChannel | BiAwgn


def bsc(p: float) -> DiscreteChannel:
    """Binary symmetric channel with crossover probability p."""
    return DiscreteChannel(np.array([[1 - p, p], [p, 1 - p]]))


def bec(p: float) -> DiscreteChannel:
    """Binary erasure channel; outputs ordered (0, erasure, 1)."""
    return DiscreteChannel(np.array([[1 - p, p, 0.0], [0.0, p, 1 - p]]))


def zchannel(p: float) -> DiscreteChannel:
    """Z channel: input 0 flips to output 1 with probability p, input 1 is clean."""
    return DiscreteChannel(np.array([[1 - p, p], [0.0, 1.0]]))


def as_bsc(ch: ChannelModel):
    """Crossover probability if ch is a BSC in standard layout, else None."""
    if not isinstance(ch, DiscreteChannel) or ch.matrix.shape != (2, 2):
        return None
    m = ch.matrix
    p = 0.5 * (m[0, 1] + m[1, 0])
    if abs(m[0, 0] - m[1, 1]) < 1e-12 and abs(m[0, 1] - m[1, 0]) < 1e-12 and p < 0.5:
        return p
    return None


def as_bec(ch: ChannelModel):
    """Erasure probability if ch is a BEC up to output reordering, else None."""
    if not isinstance(ch, DiscreteChannel) or ch.matrix.shape != (2, 3):
        return None
    m = ch.matrix
    shared = [j for j in range(3) if m[0, j] > 0 and m[1, j] > 0]
    if len(shared) != 1:
        return None
    e = shared[0]
    if abs(m[0, e] - m[1, e]) > 1e-12:
        return None
    own0 = [j for j in range(3) if j != e and m[0, j] > 0]
    own1 = [j for j in range(3) if j != e and m[1, j] > 0]
    if len(own0) == 1 and len(own1) == 1 and own0[0] != own1[0]:
        return float(m[0, e])
    return None


def as_zchannel(ch: ChannelModel):
    """Flip probability if ch is a Z channel in standard layout, else None."""
    if not isinstance(ch, DiscreteChannel) or ch.matrix.shape != (2, 2):
        return None
    m = ch.matrix
    if m[1, 0] == 0.0 and abs(m[1, 1] - 1.0) < 1e-12 and 0 < m[0, 1] < 1:
        return float(m[0, 1])
    return None


@dataclass(frozen=True)
class InputType:
    """Input composition: exact rational probabilities over the input alphabet.

    denominator = n ties the type to a block length (all n*t(x) integers);
    denominator = 0 means a free distribution not bound to any n.
    """
    probs: tuple
    denominator: int = 0

    def __post_init__(self):
        fr = tuple(Fraction(p) for p in self.probs)
        if sum(fr) != 1:
            raise ValueError(f"type probabilities must sum to 1 exactly, got {fr}")
        if any(p < 0 for p in fr):
            raise ValueError("negative type probability")
        if not any(p > 0 for p in fr):
            raise ValueError("empty support")
        if self.denominator:
            for p in fr:
                if (p * self.denominator).denominator != 1:
                    raise ValueError(
                        f"{p} is not a multiple of 1/{self.denominator}")
        object.__setattr__(self, "probs", fr)

    @classmethod
    def uniform(cls, k: int) -> "InputType":
        return cls(tuple(Fraction(1, k) for _ in range(k)))

    @classmethod
    def from_counts(cls, counts) -> "InputType":
        n = sum(counts)
        return cls(tuple(Fraction(c, n) for c in counts), denominator=n)

    def counts(self, n: int):
        """Per-symbol counts n*t(x); raises unless t is an n-type."""
        out = []
        for p in self.probs:
            c = p * n
            if c.denominator != 1:
                raise ValueError(f"type {self.probs} is not an n-type for n={n}")
            out.append(int(c))
        return out

    def as_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs])

    @property
    def support(self):
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    def entropy(self) -> float:
        t = self.as_floats()
        t = t[t > 0]
        return float(-(t * np.log(t)).sum())


def log_type_class_size(t: InputType, n: int) -> float:
    """ln of the number of length-n sequences with composition t."""
    counts = t.counts(n)
    from .numkit import log_multinom
    return log_multinom(counts)


# ---------------------------------------------------------------------------
# the decoding statistic of each ensemble
# ---------------------------------------------------------------------------

def _require_binary(ch: ChannelModel):
    if isinstance(ch, DiscreteChannel) and ch.input_size != 2:
        raise ValueError(f"binary-input channel required, |X|={ch.input_size}")


def _check_support(ch: ChannelModel, t: InputType):
    size = ch.matrix.shape[0] if isinstance(ch, DiscreteChannel) else 2
    if len(t.probs) != size:
        raise ValueError(f"type has {len(t.probs)} symbols, channel has {size}")


def _posterior_laws(ch: DiscreteChannel):
    """Law of -ln p(x|Y) given X = x under uniform input, for x = 0 and 1:
    one (values, probs) pair per input, over the support of p(.|x)."""
    _require_binary(ch)
    m = ch.matrix
    denom = m[0] + m[1]
    laws = []
    for x in range(2):
        ys = [y for y in range(ch.output_size) if m[x, y] > 0]
        laws.append((np.array([math.log(denom[y]) - math.log(m[x, y]) for y in ys]),
                     m[x, ys]))
    return laws


def mixture_output(ch: ChannelModel, t: InputType):
    """Output law q_t(y) = sum_x t(x) p(y|x): a probability vector, summed
    over the inputs t uses and the outputs they reach (a product's rounding
    depends on its shape, so an unused input would move it), for discrete
    channels; the signal amplitude/weights pair for BiAwgn."""
    _check_support(ch, t)
    tf = t.as_floats()
    if isinstance(ch, DiscreteChannel):
        used = list(t.support)
        m = ch.matrix[used]
        reach = m.sum(axis=0) > 0
        q = np.zeros(ch.output_size)
        q[reach] = tf[used] @ m[:, reach]
        return q
    return ch.amplitude, tf


def biawgn_log_mixture(ch: BiAwgn, t: InputType, y: np.ndarray) -> np.ndarray:
    """ln q_t(y) for the BiAwgn two-component mixture."""
    tf = t.as_floats()
    terms = []
    for x, w in enumerate(tf):
        if w > 0:
            terms.append(math.log(w) + ch.log_likelihood(y, x))
        else:
            terms.append(np.full_like(np.asarray(y, dtype=float), -np.inf))
    return np.logaddexp(terms[0], terms[1])


@dataclass(frozen=True, eq=False)
class StatGroup:
    """The law of the statistic given one input, and that input's weight.

    probs/values are its atoms: exact on a discrete channel, and on
    BiAwgn the composite Gauss-Legendre nodes on centre +- 12, weighted by
    the output's unit-variance Gaussian at `centre`. There value_fn(y) is
    the statistic at output y, for integrands the fixed nodes do not
    resolve (the tilted laws).
    """
    weight: float
    probs: np.ndarray
    values: np.ndarray
    centre: float | None = None
    value_fn: object = None


def _gaussian_group(weight: float, centre: float, value_fn) -> StatGroup:
    y, w = composite_gauss_legendre(centre - 12.0, centre + 12.0, panel_width=0.5, points=16)
    probs = w * np.exp(-0.5 * (y - centre) ** 2)
    return StatGroup(weight, probs / probs.sum(), value_fn(y), centre, value_fn)


def statistic(ch: ChannelModel, t: InputType | None = None) -> list:
    """Single-letter law of the decoding statistic, as StatGroups.

    t None: -ln p(X|Y) under uniform binary input, the parity-check
    ensemble's statistic, as one group of weight 1. Otherwise
    ln(p(Y|x)/q_t(Y)), the fixed-composition ensemble's, as one group of
    weight t(x) for each x in the support of t; so an input that t leaves
    unused never enters.
    """
    if t is None:
        if isinstance(ch, DiscreteChannel):
            (v0, p0), (v1, p1) = _posterior_laws(ch)
            return [StatGroup(1.0, 0.5 * np.concatenate([p0, p1]), np.concatenate([v0, v1]))]
        a = ch.amplitude
        # -ln p(0|y) in the symmetric representation: softplus(-2 a y)
        return [_gaussian_group(1.0, a, lambda y: np.logaddexp(0.0, -2.0 * a * y))]
    _check_support(ch, t)
    tf = t.as_floats()
    if isinstance(ch, BiAwgn):
        return [_gaussian_group(
                    float(tf[x]), ch.amplitude if x == 0 else -ch.amplitude,
                    lambda y, x=x: ch.log_likelihood(y, x) - biawgn_log_mixture(ch, t, y))
                for x in t.support]
    q = mixture_output(ch, t)
    groups = []
    for x in t.support:
        row = ch.matrix[x]
        mask = row > 0
        groups.append(StatGroup(float(tf[x]), row[mask],
                                np.log(row[mask]) - np.log(q[mask])))
    return groups


def _moments(groups):
    """Mean of the statistic, and the weighted variance and third absolute
    central moment of its law given each input."""
    mean = var = m3 = 0.0
    for g in groups:
        g_mean, g_var, g_m3 = central_moments(g.values, g.probs)
        mean += g.weight * g_mean
        var += g.weight * g_var
        m3 += g.weight * g_m3
    return mean, var, m3


def cond_entropy(ch: ChannelModel) -> float:
    """H(X|Y) in nats under uniform binary input."""
    return _moments(statistic(ch))[0]


def linear_capacity(ch: ChannelModel) -> float:
    """ln 2 - H(X|Y), the rate scale of the parity-check ensemble bounds."""
    return math.log(2.0) - cond_entropy(ch)


def mutual_info(ch: ChannelModel, t: InputType) -> float:
    """I(t; P) = sum over the support of t of t(x) D(p(.|x) || q_t), in nats."""
    return _moments(statistic(ch, t))[0]


def statistic_moments(groups, t: InputType | None = None):
    """Mean, variance and third moment of statistic(ch, t)'s groups.

    Raises DegenerateChannelError when the variance vanishes.
    """
    mean, var, m3 = _moments(groups)
    if not var > 1e-14:
        raise DegenerateChannelError(
            "conditional-entropy statistic has zero variance" if t is None
            else "divergence statistic has zero variance for this composition")
    return mean, var, m3


def is_symmetric(ch: ChannelModel) -> bool:
    """True when -ln p(0|Y)|X=0 and -ln p(1|Y)|X=1 are equidistributed.

    For such channels the message-puncturing factor 1/(1 - 2^-n) in the
    parity-check ensemble bounds can be dropped.
    """
    if isinstance(ch, BiAwgn):
        return True

    def law(values, probs):
        pairs = {}
        for v, p in zip(values, probs):
            key = round(float(v), 12)
            pairs[key] = pairs.get(key, 0.0) + p
        return pairs

    l0, l1 = (law(*vp) for vp in _posterior_laws(ch))
    if set(l0) != set(l1):
        return False
    return all(abs(l0[k] - l1[k]) < 1e-10 for k in l0)

