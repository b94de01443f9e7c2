"""Two-sided non-asymptotic tail bounds for empirical information sums.

Two exponential-tilt families are implemented on top of a common core:

* conditional-entropy family: the i.i.d. sum of -ln p(X|Y) under a
  uniform binary input, whose upper tail controls the miss probability
  of the parity-check-ensemble decoder;
* relative-entropy family: the independent, non-identically distributed
  sum of ln(p(Y|x)/q_t(Y)) along a fixed-composition input, whose lower
  tail plays the same role for fixed-type codebooks.

For each family the module exposes the tilted moments, the convex rate
function with its parametric slope identity, Berry-Esseen-corrected
sandwich factors, and a plain central-limit interval. Probabilities are
assembled in the log domain so block lengths in the thousands stay
representable.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from . import channel as chn
from .estimates import TailEstimate
from .numkit import (central_moments, composite_gauss_legendre, q_func,
                     q_inv, scaled_gauss_tail, solve_monotone)

# Berry-Esseen constants: i.i.d. summands vs independent non-identical.
BERRY_ESSEEN_IID = 0.4784
BERRY_ESSEEN_INID = 0.56

_LAMBDA_CAP_CONTINUOUS = 1e3


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
    delta_star: float


@dataclass(frozen=True)
class XiFactors:
    """Sub-exponential sandwich factors; lower is 0 when degenerate."""
    lower: float
    upper: float
    degenerate_lower: bool


def _tilted_discrete(logp, values, lam, sign):
    """Tilted log-normalizer and central moments for one atom group.

    The tilt multiplies the base law by exp(sign * lam * value).
    """
    logw = logp + sign * lam * values
    log_z = float(logsumexp(logw))
    return (log_z, *central_moments(values, np.exp(logw - log_z)))


def _biawgn_tilted(center, lam_shift, log_tilt, value_fn):
    """Tilted moments for a unit-variance Gaussian base at `center`.

    log_tilt(y) is the log of the tilting factor; its dominant linear
    behaviour moves the mass toward center + lam_shift, so the composite
    rule covers both modes.
    """
    lo = min(center, center + lam_shift) - 12.0
    hi = max(center, center + lam_shift) + 12.0
    y, w = composite_gauss_legendre(lo, hi, panel_width=0.5, points=16)
    log_base = -0.5 * (y - center) ** 2 - 0.5 * math.log(2.0 * math.pi)
    logw = log_base + np.log(w) + log_tilt(y)
    log_z = float(logsumexp(logw))
    return (log_z, *central_moments(value_fn(y), np.exp(logw - log_z)))


class TiltFamily:
    """A channel bound to one of the two tilt families.

    family is "cond_entropy" (uniform binary input; t ignored) or
    "rel_entropy" (requires an input composition t). Instances cache
    tilted statistics keyed by lambda, so sweeps and root solves reuse
    quadrature work.
    """

    def __init__(self, family: str, ch, t: chn.InputType | None = None,
                 be_const: float | None = None):
        if family not in ("cond_entropy", "rel_entropy"):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.channel = ch
        self.t = t
        self._cache: dict = {}
        if family == "cond_entropy":
            self.be_const = BERRY_ESSEEN_IID if be_const is None else be_const
            summary = chn.moment_summary(ch)
            self.center = summary.cond_entropy_nats  # mean of the statistic
            self.sigma2 = summary.sigma2_h
            self.m3 = summary.m3_h
            if isinstance(ch, chn.DiscreteChannel):
                v, p = chn.posterior_atoms(ch)
                self._groups = [(1.0, np.log(p), v)]
            else:
                self._groups = None
        else:
            if t is None:
                raise ValueError("rel_entropy family needs an input composition")
            self.be_const = BERRY_ESSEEN_INID if be_const is None else be_const
            summary = chn.moment_summary(ch, t)
            self.center = summary.mutual_info_nats
            self.sigma2 = summary.sigma2_d
            self.m3 = summary.m3_d
            if isinstance(ch, chn.DiscreteChannel):
                q = chn.mixture_output(ch, t)
                tf = t.as_floats()
                groups = []
                for x in t.support:
                    row = ch.matrix[x]
                    mask = row > 0
                    u = np.log(row[mask]) - np.log(q[mask])
                    groups.append((float(tf[x]), np.log(row[mask]), u))
                self._groups = groups
            else:
                self._groups = None
        if not self.sigma2 > 0:
            raise chn.DegenerateChannelError("zero-variance family")

    # -- single-letter tilted statistics ------------------------------------

    def _stats_discrete(self, lam):
        if self.family == "cond_entropy":
            weight, logp, v = self._groups[0]
            log_z, mean, var, m3 = _tilted_discrete(logp, v, lam, sign=+1.0)
            return TiltedStats(lam, mean - self.center, var, m3, log_z)
        log_mgf = 0.0
        delta_acc = self.center
        var_acc = 0.0
        m3_acc = 0.0
        for weight, logp, u in self._groups:
            log_z, mean, var, m3 = _tilted_discrete(logp, u, lam, sign=-1.0)
            log_mgf += weight * log_z
            delta_acc -= weight * mean
            var_acc += weight * var
            m3_acc += weight * m3
        return TiltedStats(lam, delta_acc, var_acc, m3_acc, log_mgf)

    def _stats_biawgn(self, lam):
        ch = self.channel
        a = ch.amplitude
        if self.family == "cond_entropy":
            def value_fn(y):
                return np.logaddexp(0.0, -2.0 * a * y)

            log_z, mean, var, m3 = _biawgn_tilted(
                a, -2.0 * a * lam, lambda y: lam * value_fn(y), value_fn)
            return TiltedStats(lam, mean - self.center, var, m3, log_z)
        t = self.t
        tf = t.as_floats()
        log_mgf = 0.0
        delta_acc = self.center
        var_acc = 0.0
        m3_acc = 0.0
        for x in t.support:
            s = a if x == 0 else -a

            def value_fn(y, x=x):
                return ch.log_likelihood(y, x) - chn.biawgn_log_mixture(ch, t, y)

            log_z, mean, var, m3 = _biawgn_tilted(
                s, -2.0 * s * lam, lambda y, x=x: -lam * value_fn(y, x), value_fn)
            log_mgf += tf[x] * log_z
            delta_acc -= tf[x] * mean
            var_acc += tf[x] * var
            m3_acc += tf[x] * m3
        return TiltedStats(lam, delta_acc, var_acc, m3_acc, log_mgf)

    def tilted_stats(self, lam: float) -> TiltedStats:
        """Deviation, variance, third moment and log-MGF at tilt lambda."""
        if lam < 0:
            raise TiltRangeError("tilt parameter must be nonnegative")
        hit = self._cache.get(lam)
        if hit is not None:
            return hit
        if self._groups is not None:
            out = self._stats_discrete(lam)
        else:
            out = self._stats_biawgn(lam)
        if len(self._cache) > 4096:
            self._cache.clear()
        self._cache[lam] = out
        return out

    # -- rate function -------------------------------------------------------

    def delta_star(self) -> float:
        """Supremum of reachable deviations (finite for discrete alphabets)."""
        if self._groups is None:
            return math.inf
        if self.family == "cond_entropy":
            _, _, v = self._groups[0]
            return float(v.max() - self.center)
        out = self.center
        for weight, _, u in self._groups:
            out -= weight * float(u.min())
        return out

    @property
    def lambda_cap(self) -> float:
        return math.inf if self._groups is not None else _LAMBDA_CAP_CONTINUOUS

    def rate_value(self, stats: TiltedStats) -> float:
        """Rate function evaluated at the deviation reached by stats.lam."""
        if self.family == "cond_entropy":
            return stats.lam * (self.center + stats.delta) - stats.log_mgf
        return stats.lam * (stats.delta - self.center) - stats.log_mgf

    def solve_lambda(self, delta: float) -> TiltedStats:
        """Tilt lambda with delta(lambda) = delta, by monotone bisection."""
        if delta <= 0:
            raise TiltRangeError("deviation must be positive")
        dstar = self.delta_star()
        if delta >= dstar:
            raise TiltRangeError(
                f"deviation {delta} is at or beyond the reachable maximum {dstar}",
                delta_star=dstar)
        hi = 1.0
        while self.tilted_stats(hi).delta < delta:
            hi *= 2.0
            if hi > self.lambda_cap:
                raise TiltRangeError(
                    f"deviation {delta} needs a tilt beyond the cap {self.lambda_cap}",
                    delta_star=self.tilted_stats(self.lambda_cap).delta)
        lam = solve_monotone(lambda l: self.tilted_stats(l).delta, delta,
                             0.0, hi, rtol=1e-12)
        return self.tilted_stats(lam)


# One family per (channel, composition): achievability, the tail dispatch
# and the CLI share it and its lambda cache. Channels hash by identity.
@lru_cache(maxsize=64)
def cond_entropy_family(ch, be_const=None) -> TiltFamily:
    return TiltFamily("cond_entropy", ch, be_const=be_const)


@lru_cache(maxsize=64)
def rel_entropy_family(ch, t: chn.InputType, be_const=None) -> TiltFamily:
    return TiltFamily("rel_entropy", ch, t, be_const=be_const)


def rate_function(fam: TiltFamily, delta: float) -> RatePoint:
    """Rate function r(delta) with its slope lambda (parametric identity)."""
    stats = fam.solve_lambda(delta)
    # Evaluate the parametric expression at the requested delta: the
    # residual |delta(lam) - delta| <= 1e-12 enters linearly via lam.
    if fam.family == "cond_entropy":
        rate = stats.lam * (fam.center + delta) - stats.log_mgf
    else:
        rate = stats.lam * (delta - fam.center) - stats.log_mgf
    return RatePoint(delta=delta, rate_value=max(rate, 0.0),
                     slope_lambda=stats.lam, delta_star=fam.delta_star())


def xi_factors(fam: TiltFamily, lam: float, n: int,
               be_const: float | None = None) -> XiFactors:
    """Sandwich correction factors at tilt lambda and block length n.

    The upper factor can exceed 1 for small sqrt(n)*lambda; tail_bounds
    guards the reported bound with the plain exponential bound, which
    that regime cannot beat. The lower factor degenerates (flagged, and
    reported as 0) when 2*C*M / (sqrt(n) sigma^3) >= 1/2.
    """
    stats = fam.tilted_stats(lam)
    c = fam.be_const if be_const is None else be_const
    sigma = math.sqrt(stats.sigma2)
    ratio = c * stats.m3 / (math.sqrt(n) * sigma ** 3)
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
        log_lower=log_lower, log_upper=log_upper,
        flags={"rate": rp.rate_value, "lambda": rp.slope_lambda,
               "xi_lower": xi.lower, "xi_upper": xi.upper,
               "degenerate_lower": xi.degenerate_lower,
               "log_chernoff": log_chernoff})


def tail_clt(fam: TiltFamily, delta: float, n: int,
             be_const: float | None = None) -> TailEstimate:
    """Central-limit interval Q(delta sqrt(n)/sigma) +- C M/(sqrt(n) sigma^3).

    Sharp only for deviations up to about sigma*sqrt(ln n / n); the
    in_regime flag records whether delta is inside that window, the
    interval itself is evaluated (and valid) for any delta.
    """
    c = fam.be_const if be_const is None else be_const
    sigma = math.sqrt(fam.sigma2)
    mid = q_func(delta * math.sqrt(n) / sigma)
    halfwidth = c * fam.m3 / (math.sqrt(n) * sigma ** 3)
    in_regime = delta <= sigma * math.sqrt(math.log(n) / n)
    return TailEstimate(
        kind="sandwich",
        lower=max(0.0, mid - halfwidth),
        upper=min(1.0, mid + halfwidth),
        flags={"center": mid, "halfwidth": halfwidth, "in_regime": in_regime})
