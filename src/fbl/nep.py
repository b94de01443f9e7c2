"""Two-sided non-asymptotic tail bounds for empirical information sums.

Two exponential-tilt families are implemented on top of a common core:

* conditional-entropy family: the i.i.d. sum of -ln p(X|Y) under a
  uniform binary input, whose upper tail controls the miss probability
  of the parity-check-ensemble decoder;
* relative-entropy family: the independent, non-identically distributed
  sum of ln(p(Y|x)/q_t(Y)) along a fixed-composition input, whose lower
  tail plays the same role for fixed-type codebooks.

Both read the statistic's law from channel.statistic as weighted groups
(exact atoms, or a Gaussian output on BiAWGN) and differ only in a
sign: +1 for an upper-tail event, -1 for a lower-tail one. The tilted
moments, the deviation ceiling and the rate function are each one
weighted sum over the groups. For each family the module exposes the
tilted moments, the convex rate function with its parametric slope
identity, Berry-Esseen-corrected sandwich factors, and a plain
central-limit interval. A deviation's tilt is solved by safeguarded
Newton, with the tilted variance as slope. Probabilities are assembled
in the log domain so block lengths in the thousands stay representable.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import channel as chn
from .numkit import (central_moments, composite_gauss_legendre, logsumexp, q_func,
                     q_inv, scaled_gauss_tail)

# Berry-Esseen constants: i.i.d. summands vs independent non-identical.
BERRY_ESSEEN_IID = 0.4784
BERRY_ESSEEN_INID = 0.56

_LAMBDA_CAP_CONTINUOUS = 1e3
_NEWTON_MAX_ITER = 400


@dataclass(frozen=True)
class TailEstimate:
    """One evaluation of a tail probability.

    kind is "exact" (value is the probability) or "sandwich" (lower/upper
    enclose it). log_value carries an exact value's log, so callers can
    keep working below the float underflow line.
    """
    kind: str
    value: float | None = None
    lower: float | None = None
    upper: float | None = None
    log_value: float | None = None
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        lo = self.lower if self.lower is not None else 0.0
        hi = self.upper if self.upper is not None else 1.0
        mid = self.value if self.value is not None else lo
        if not (-1e-12 <= lo <= mid + 1e-12 and mid <= hi + 1e-12 and hi <= 1.0 + 1e-12):
            raise ValueError(f"inconsistent tail estimate: {lo}, {self.value}, {hi}")

    @property
    def pessimistic(self) -> float:
        """Largest probability consistent with the estimate (used by bounds)."""
        if self.kind == "exact":
            return self.value
        return self.upper


class TiltRangeError(ValueError):
    """Requested deviation is outside (0, delta_star) for this family."""

    def __init__(self, msg, delta_star=None):
        super().__init__(msg)
        self.delta_star = delta_star


@dataclass(frozen=True)
class TiltedStats:
    """Moments of the single-letter statistic under the lambda-tilted law."""
    lam: float
    delta: float
    sigma2: float
    m3: float
    log_mgf: float


@dataclass(frozen=True)
class RatePoint:
    """Rate function value at one deviation, with the solving tilt as slope."""
    delta: float
    rate_value: float
    slope_lambda: float


@dataclass(frozen=True)
class XiFactors:
    """Sub-exponential sandwich factors; lower is 0 when degenerate."""
    lower: float
    upper: float
    degenerate_lower: bool


def _tilted_discrete(logp, values, sign, lam):
    """Tilted log-normalizer and central moments for one atom group.

    The tilt multiplies the base law by exp(sign * lam * value).
    """
    logw = logp + sign * lam * values
    log_z = logsumexp(logw)
    return (log_z, *central_moments(values, np.exp(logw - log_z)))


def _biawgn_tilted(center, value_fn, sign, lam):
    """Tilted moments for a unit-variance Gaussian base at `center`.

    The tilt exp(sign lam v(y)) grows like exp(-2 center lam y) for either
    sign, which moves the mass toward center - 2 center lam, so the
    composite rule covers both modes.
    """
    shifted = center - 2.0 * center * lam
    lo = min(center, shifted) - 12.0
    hi = max(center, shifted) + 12.0
    y, w = composite_gauss_legendre(lo, hi, panel_width=0.5, points=16)
    log_base = -0.5 * (y - center) ** 2 - 0.5 * math.log(2.0 * math.pi)
    v = value_fn(y)
    logw = log_base + np.log(w) + sign * lam * v
    log_z = logsumexp(logw)
    return (log_z, *central_moments(v, np.exp(logw - log_z)))


def _group_tilt(g: chn.StatGroup, sign: float):
    """(tilted moments as a function of lambda, sup of sign * value) of one group."""
    if g.value_fn is None:
        return (partial(_tilted_discrete, np.log(g.probs), g.values, sign),
                float(np.max(sign * g.values)))
    return partial(_biawgn_tilted, g.centre, g.value_fn, sign), math.inf


class TiltFamily:
    """A channel bound to one of the two tilt families.

    family is "cond_entropy" (uniform binary input; t ignored) or
    "rel_entropy" (requires an input composition t). sign is +1 when the
    family's deviation event is the upper tail of its statistic and -1
    when it is the lower tail; the deviation at tilt lambda is then
    sign * (tilted mean - center). Instances cache tilted statistics
    keyed by lambda, so sweeps and root solves reuse quadrature work.
    """

    def __init__(self, family: str, ch, t: chn.InputType | None = None):
        if family not in ("cond_entropy", "rel_entropy"):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.channel = ch
        self.t = t
        self._cache: dict = {}
        rel = family == "rel_entropy"
        if rel and t is None:
            raise ValueError("rel_entropy family needs an input composition")
        self.sign = -1.0 if rel else 1.0
        self.be_const = BERRY_ESSEEN_INID if rel else BERRY_ESSEEN_IID
        stat_t = t if rel else None
        groups = chn.statistic(ch, stat_t)
        # center is the mean of the statistic
        self.center, self.sigma2, self.m3 = chn.statistic_moments(groups, stat_t)
        self._groups = [(g.weight, self.sign * g.weight, *_group_tilt(g, self.sign))
                        for g in groups]
        self.lambda_cap = (math.inf if self.delta_star() < math.inf
                           else _LAMBDA_CAP_CONTINUOUS)

    def tilted_stats(self, lam: float) -> TiltedStats:
        """Deviation, variance, third moment and log-MGF at tilt lambda.

        Each is the weighted sum of the groups' tilted values.
        """
        if lam < 0:
            raise TiltRangeError("tilt parameter must be nonnegative")
        hit = self._cache.get(lam)
        if hit is not None:
            return hit
        log_mgf = var = m3 = 0.0
        delta = -self.sign * self.center
        for weight, signed_weight, tilt, _ in self._groups:
            log_z, mean, g_var, g_m3 = tilt(lam)
            log_mgf += weight * log_z
            delta += signed_weight * mean
            var += weight * g_var
            m3 += weight * g_m3
        out = TiltedStats(lam, delta, var, m3, log_mgf)
        if len(self._cache) > 4096:
            self._cache.clear()
        self._cache[lam] = out
        return out

    def delta_star(self) -> float:
        """Supremum of reachable deviations (finite for discrete alphabets)."""
        out = -self.sign * self.center
        for weight, _, _, reach in self._groups:
            out += weight * reach
        return out

    def rate_value(self, stats: TiltedStats) -> float:
        """Rate function evaluated at the deviation reached by stats.lam:
        lambda sign (center + sign delta) - log-MGF, a Legendre transform."""
        return stats.lam * self.sign * (self.center + self.sign * stats.delta) - stats.log_mgf

    def solve_lambda(self, delta: float) -> TiltedStats:
        """Tilt lambda with delta(lambda) = delta, by safeguarded Newton from
        0.5 hi in a doubling bracket [0, hi], whose last step lands on the
        tilt cap: a step out of the bracket, or a zero variance, bisects.
        Stops at |delta(lambda) - delta| <= 1e-12 max(1, delta) or a bracket
        under 1e-14 (relative above 1)."""
        if delta <= 0:
            raise TiltRangeError("deviation must be positive")
        dstar = self.delta_star()
        if delta >= dstar:
            raise TiltRangeError(
                f"deviation {delta} is at or beyond the reachable maximum {dstar}",
                delta_star=dstar)
        hi = 1.0
        while self.tilted_stats(hi).delta < delta:
            if hi >= self.lambda_cap:
                raise TiltRangeError(
                    f"deviation {delta} needs a tilt beyond the cap {self.lambda_cap}",
                    delta_star=self.tilted_stats(hi).delta)
            hi = min(2.0 * hi, self.lambda_cap)
        ftol = 1e-12 * max(1.0, delta)
        lo, lam = 0.0, 0.5 * hi
        for _ in range(_NEWTON_MAX_ITER):
            stats = self.tilted_stats(lam)
            miss = stats.delta - delta
            if abs(miss) <= ftol:
                return stats
            lo, hi = (lam, hi) if miss < 0 else (lo, lam)
            if hi - lo <= 1e-14 * max(1.0, lam):
                break
            step = lam - miss / stats.sigma2 if stats.sigma2 > 0 else lo
            lam = step if lo < step < hi else 0.5 * (lo + hi)
        return self.tilted_stats(0.5 * (lo + hi))


# One family per (channel, composition): achievability, the tail dispatch
# and the CLI share it and its lambda cache. Channels hash by identity.
@lru_cache(maxsize=64)
def cond_entropy_family(ch) -> TiltFamily:
    return TiltFamily("cond_entropy", ch)


@lru_cache(maxsize=64)
def rel_entropy_family(ch, t: chn.InputType) -> TiltFamily:
    return TiltFamily("rel_entropy", ch, t)


def rate_function(fam: TiltFamily, delta: float) -> RatePoint:
    """Rate function r(delta) with its slope lambda (parametric identity)."""
    stats = fam.solve_lambda(delta)
    # Evaluate the parametric expression at the requested delta: the
    # residual |delta(lam) - delta| <= 1e-12 enters linearly via lam.
    rate = fam.rate_value(replace(stats, delta=delta))
    return RatePoint(delta=delta, rate_value=max(rate, 0.0), slope_lambda=stats.lam)


def xi_factors(fam: TiltFamily, lam: float, n: int) -> XiFactors:
    """Sandwich correction factors at tilt lambda and block length n.

    The upper factor can exceed 1 for small sqrt(n)*lambda; tail_bounds
    guards the reported bound with the plain exponential bound, which
    that regime cannot beat. The lower factor degenerates (flagged, and
    reported as 0) when 2*C*M / (sqrt(n) sigma^3) >= 1/2.
    """
    stats = fam.tilted_stats(lam)
    sigma = math.sqrt(stats.sigma2)
    ratio = fam.be_const * stats.m3 / (math.sqrt(n) * sigma ** 3)
    big_a = math.sqrt(n) * lam * sigma
    rho_up = q_inv(min(ratio, 0.5)) if ratio < 0.5 else 0.0
    upper = 2.0 * ratio + (scaled_gauss_tail(big_a)
                           - scaled_gauss_tail(big_a, rho_up))
    degenerate = 2.0 * ratio >= 0.5
    if degenerate:
        lower = 0.0
    else:
        rho_low = q_inv(0.5 - 2.0 * ratio)
        lower = scaled_gauss_tail(big_a, rho_low)
    return XiFactors(lower=lower, upper=upper, degenerate_lower=degenerate)


def tail_bounds(fam: TiltFamily, delta: float, n: int) -> TailEstimate:
    """Two-sided sandwich on the deviation probability at (delta, n).

    upper = min(1, xi_upper, 1) * exp(-n r(delta)) with the plain
    exponential bound as a guard; lower = xi_lower * exp(-n r(delta)),
    or 0 when the lower factor is degenerate at this n.
    """
    rp = rate_function(fam, delta)
    xi = xi_factors(fam, rp.slope_lambda, n)
    log_chernoff = -n * rp.rate_value
    log_upper = min(log_chernoff,
                    log_chernoff + math.log(xi.upper) if xi.upper > 0 else -math.inf,
                    0.0)
    log_lower = (log_chernoff + math.log(xi.lower)) if xi.lower > 0 else -math.inf
    log_lower = min(log_lower, log_upper)
    return TailEstimate(
        kind="sandwich",
        lower=math.exp(log_lower) if log_lower > -700 else 0.0,
        upper=math.exp(log_upper) if log_upper > -700 else 0.0,
        flags={"rate": rp.rate_value, "lambda": rp.slope_lambda,
               "xi_lower": xi.lower, "xi_upper": xi.upper,
               "degenerate_lower": xi.degenerate_lower,
               "log_chernoff": log_chernoff})


def tail_clt(fam: TiltFamily, delta: float, n: int) -> TailEstimate:
    """Central-limit interval Q(delta sqrt(n)/sigma) +- C M/(sqrt(n) sigma^3).

    Sharp only for deviations up to about sigma*sqrt(ln n / n); the
    in_regime flag records whether delta is inside that window, the
    interval itself is evaluated (and valid) for any delta.
    """
    sigma = math.sqrt(fam.sigma2)
    mid = q_func(delta * math.sqrt(n) / sigma)
    halfwidth = fam.be_const * fam.m3 / (math.sqrt(n) * sigma ** 3)
    in_regime = delta <= sigma * math.sqrt(math.log(n) / n)
    return TailEstimate(
        kind="sandwich",
        lower=max(0.0, mid - halfwidth),
        upper=min(1.0, mid + halfwidth),
        flags={"center": mid, "halfwidth": halfwidth, "in_regime": in_regime})
