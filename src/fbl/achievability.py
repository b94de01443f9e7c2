"""Achievability bounds for the two random code ensembles.

Covers the parity-check-ensemble bound (tail + union term) with its
analytic tilted/central-limit variants, the fixed-composition ensemble
bound with the type-class correction, exact closed forms for the BSC,
BEC and Z channels, a random-coding error-exponent baseline, and the
rate inversions used to draw rate-vs-blocklength curves.

Rates are nats per channel use internally; the CLI converts to bits.
Every reported error bound is clamped to [0, 1]; the pre-clamp tail and
union components are kept on the result for auditing.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from . import channel as chn
from . import nep, tail
from .numkit import (composite_gauss_legendre, golden_min, log_binom, q_func,
                     q_inv, solve_monotone)

LN2 = math.log(2.0)


class InfeasibleRateError(ValueError):
    """No positive rate meets the requested error target."""


@dataclass(frozen=True)
class CodeParams:
    """Block length and rate of a code ensemble.

    Exactly one of k (information bits) or rate_nats must be given.
    t selects the fixed-composition ensemble; t=None means the random
    parity-check ensemble.
    """
    n: int
    k: int | None = None
    rate_nats: float | None = None
    t: chn.InputType | None = None

    def __post_init__(self):
        if (self.k is None) == (self.rate_nats is None):
            raise ValueError("give exactly one of k or rate_nats")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def rate(self) -> float:
        return self.k / self.n * LN2 if self.k is not None else self.rate_nats

    @property
    def log_m(self) -> float:
        """ln of the codebook size implied by the rate."""
        return self.n * self.rate


@dataclass
class BoundResult:
    """One evaluated bound point."""
    theorem: str
    n: int
    rate_nats: float
    error_ub: float
    delta: float | None = None
    lambda_or_c: float | None = None
    tail_kind: str = ""
    components: tuple | None = None  # (tail term, union term) before clamping
    extras: dict = field(default_factory=dict)

    @property
    def rate_bits(self) -> float:
        return self.rate_nats / LN2


def _sym_factor(ch, n, symmetric=None) -> float:
    """Zero-message puncturing factor; drops to 1 for symmetric channels."""
    sym = chn.is_symmetric(ch) if symmetric is None else symmetric
    if sym:
        return 1.0
    return 1.0 / (1.0 - 2.0 ** (-n)) if n < 1060 else 1.0


def _type_defect(t, n) -> float:
    """n H(t) - ln |type class of t|: what the fixed-composition bounds lose
    against an i.i.d. codebook."""
    return n * t.entropy() - chn.log_type_class_size(t, n)


def _exp(x: float) -> float:
    return math.exp(x) if x < 700.0 else math.inf


# ---------------------------------------------------------------------------
# parity-check ensemble: tail + union bound and its closed forms
# ---------------------------------------------------------------------------

def thm1_bound(ch, cp: CodeParams, delta: float,
               budget: tail.TailBudget | None = None,
               symmetric: bool | None = None) -> BoundResult:
    """Tail + union bound for the parity-check ensemble at deviation delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    n, rate = cp.n, cp.rate
    cap = chn.linear_capacity(ch)
    pd = tail.pdelta(ch, delta, n, budget)
    factor = _sym_factor(ch, n, symmetric)
    tail_term = factor * pd.pessimistic
    union = _exp(-n * (cap - delta - rate))
    return BoundResult(
        theorem="thm1", n=n, rate_nats=rate,
        error_ub=min(1.0, tail_term + union),
        delta=delta, tail_kind=pd.kind, components=(tail_term, union),
        extras={"linear_capacity": cap})


def _min_over_delta(objective, hi):
    """Deviation minimizing objective on [1e-6, hi]: log grid, then golden section."""
    return golden_min(objective, np.geomspace(1e-6, hi, 64), 60)[0]


def thm1_optimized(ch, cp: CodeParams,
                   budget: tail.TailBudget | None = None,
                   symmetric: bool | None = None) -> BoundResult:
    """thm1_bound minimized over delta.

    For the BSC and BEC the optimum is available in closed form (the
    per-weight minimum of likelihood against the codebook density), and
    that exact expression is returned, together with the breakpoint
    deviation that attains it.
    """
    p = chn.as_bsc(ch)
    if p is not None:
        return _bsc_optimized(p, cp)
    p = chn.as_bec(ch)
    if p is not None:
        return _bec_optimized(p, cp)
    n, rate = cp.n, cp.rate
    cap = chn.linear_capacity(ch)
    summary = chn.moment_summary(ch)
    sigma = math.sqrt(summary.sigma2_h)
    hi = max(cap - rate, 0.0) + max(0.1, 2.0 * sigma)
    if isinstance(ch, chn.DiscreteChannel):
        fam = nep.cond_entropy_family(ch)
        hi = min(hi, 0.999 * fam.delta_star())

    def objective(d):
        return thm1_bound(ch, cp, d, budget, symmetric).error_ub

    return thm1_bound(ch, cp, _min_over_delta(objective, hi), budget, symmetric)


def _bsc_breakpoint(p, n, log_m):
    """Largest weight whose likelihood still dominates the codebook density."""
    ratio = math.log((1 - p) / p)
    w_bar = (n * LN2 + n * math.log(1 - p) - log_m) / ratio
    return math.floor(w_bar), ratio


def _bsc_optimized(p, cp: CodeParams) -> BoundResult:
    n, log_m = cp.n, cp.log_m
    w_star, ratio = _bsc_breakpoint(p, n, log_m)
    value = _bsc_min_form(p, n, log_m)
    w = np.arange(n + 1)
    log_c = gammaln(n + 1) - gammaln(w + 1) - gammaln(n - w + 1)
    log_like = w * math.log(p) + (n - w) * math.log(1 - p)
    tail_term = float(np.exp(logsumexp(log_c[w > w_star] + log_like[w > w_star]))) \
        if w_star < n else 0.0
    union_term = 0.0
    if w_star >= 0:
        sel = w <= w_star
        union_term = float(np.exp(logsumexp(log_c[sel]) - n * LN2 + log_m))
    delta = max(ratio * ((w_star + 0.5) / n - p), 1e-12)
    return BoundResult(theorem="thm1", n=n, rate_nats=cp.rate,
                       error_ub=min(1.0, value), delta=delta,
                       tail_kind="exact", components=(tail_term, union_term),
                       extras={"closed_form": "bsc", "breakpoint": w_star})


def _bec_optimized(p, cp: CodeParams) -> BoundResult:
    n, log_m = cp.n, cp.log_m
    log2_m = log_m / LN2
    tau = math.ceil(n - log2_m) - 1  # largest t with 2^(t-n) M < 1
    value = _bec_min_form(p, n, log_m)
    t = np.arange(1, n + 1)
    log_c = gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)
    log_like = t * math.log(p) + (n - t) * math.log(1 - p)
    tail_sel = t > tau
    tail_term = float(np.exp(logsumexp(log_c[tail_sel] + log_like[tail_sel]))) \
        if np.any(tail_sel) else 0.0
    union_sel = t <= tau
    union_term = 0.0
    if np.any(union_sel):
        union_term = float(np.exp(logsumexp(
            log_c[union_sel] + log_like[union_sel]
            + (t[union_sel].astype(float) - n) * LN2 + log_m)))
    delta = max(LN2 * ((tau + 0.5) / n - p), 1e-12)
    return BoundResult(theorem="thm1", n=n, rate_nats=cp.rate,
                       error_ub=min(1.0, value), delta=delta,
                       tail_kind="exact", components=(tail_term, union_term),
                       extras={"closed_form": "bec", "breakpoint": tau})


def _log_m_value(M, dt_variant: bool) -> float:
    """ln of the codebook-size constant, optionally in the (M-1)/2 variant.

    Accepts int, float or Fraction so 2^k stays exact for any k.
    """
    from fractions import Fraction

    def ln(x):
        if isinstance(x, Fraction):
            a, b = x.numerator, x.denominator
            return math.log(a) - math.log(b)
        return math.log(x)

    if dt_variant:
        if M < 2:
            raise ValueError("variant needs M >= 2")
        if isinstance(M, int):
            return math.log(M - 1) - LN2
        return ln(M - 1) - LN2
    return ln(M)


def _resolve_log_m(M, log_m, dt_variant: bool) -> float:
    """ln of the codebook constant from either an exact M or ln M."""
    if (M is None) == (log_m is None):
        raise ValueError("give exactly one of M or log_m")
    if M is not None:
        return _log_m_value(M, dt_variant)
    if dt_variant:
        # ln((M-1)/2) from ln M, stable for any magnitude
        if log_m < 36.0:
            return math.log(math.expm1(log_m)) - LN2
        return log_m - LN2
    return log_m


def _bsc_min_form(p, n, log_m) -> float:
    w = np.arange(n + 1)
    log_c = gammaln(n + 1) - gammaln(w + 1) - gammaln(n - w + 1)
    log_like = w * math.log(p) + (n - w) * math.log(1 - p)
    log_union = log_m - n * LN2
    terms = log_c + np.minimum(log_like, log_union)
    return min(1.0, float(np.exp(logsumexp(terms))))


def bsc_closed_form(p: float, n: int, M=None, dt_variant: bool = False,
                    log_m: float | None = None) -> float:
    """Optimized-deviation bound on the BSC: sum_w C(n,w) min{p^w q^(n-w), 2^-n M}.

    The codebook size can be given exactly (M, any int/Fraction) or in
    the log domain (log_m = ln M) when it would overflow a float.
    """
    if not 0 < p < 0.5:
        raise ValueError("BSC closed form needs p in (0, 0.5)")
    return _bsc_min_form(p, n, _resolve_log_m(M, log_m, dt_variant))


def _bec_min_form(p, n, log_m, from_zero: bool = False) -> float:
    t = np.arange(0 if from_zero else 1, n + 1)
    log_c = gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)
    log_like = t * math.log(p) + (n - t) * math.log(1 - p)
    log2_m = log_m / LN2
    exponent = -LN2 * np.maximum(n - t - log2_m, 0.0)
    return min(1.0, float(np.exp(logsumexp(log_c + log_like + exponent))))


def bec_closed_form(p: float, n: int, M=None, dt_variant: bool = False,
                    log_m: float | None = None) -> float:
    """Optimized-deviation bound on the BEC.

    sum_{t>=1} C(n,t) p^t q^(n-t) 2^-[n-t-log2 M]^+; the variant flag
    switches to the (M-1)/2 constant and starts the sum at t=0.
    """
    if not 0 < p < 1:
        raise ValueError("BEC closed form needs p in (0, 1)")
    return _bec_min_form(p, n, _resolve_log_m(M, log_m, dt_variant),
                         from_zero=dt_variant)


def zchannel_closed_form(p: float, t: chn.InputType, n: int, M=None,
                         log_m: float | None = None) -> float:
    """Consistency-decoder bound for the Z channel with composition t.

    m = n*t(0) inputs can flip; with i flips the (M-1) competing
    codewords each collide with probability C(n-m+i, i)/C(n, m).
    """
    if not 0 < p < 1:
        raise ValueError("Z-channel parameter must be in (0,1)")
    m = t.counts(n)[0]
    if (M is None) == (log_m is None):
        raise ValueError("give exactly one of M or log_m")
    if M is not None:
        log_m1 = math.log(M - 1) if M > 1 else -math.inf
    elif log_m < 36.0:
        log_m1 = math.log(math.expm1(log_m)) if log_m > 0 else -math.inf
    else:
        log_m1 = log_m
    log_cnm = log_binom(n, m)
    terms = []
    for i in range(m + 1):
        log_bin = (log_binom(m, i) + (m - i) * math.log(1 - p)
                   + i * math.log(p))
        log_collide = min(0.0, log_m1 + log_binom(n - m + i, i) - log_cnm)
        terms.append(log_bin + log_collide)
    return min(1.0, float(np.exp(logsumexp(terms))))


# ---------------------------------------------------------------------------
# analytic variants (tilted sandwich / central-limit forms)
# ---------------------------------------------------------------------------

# defect is the type-class defect of the fixed-composition ensemble (0 for
# the parity-check ensemble); f0 the puncturing factor (1 when it is absent).

def _tilted_rate(n, cap, delta, rate_value, lam, xi_upper, defect=0.0):
    """Tilted-form rate C - delta - r(delta) + (ln(lambda xi) - defect)/n."""
    return cap - delta - rate_value + (math.log(lam * xi_upper) - defect) / n


def _tilted_error(n, rate_value, lam, xi_upper, f0=1.0):
    """Tilted-form error (f0 + lambda) xi exp(-n r(delta))."""
    return (f0 + lam) * xi_upper * _exp(-n * rate_value)


def _clt_rate(n, c, cap, sigma2, defect=0.0):
    """Central-limit rate
    C - c/sqrt(n) - ln n/(2n) - (c^2/(2 sigma^2) + ln(sqrt(2 pi) sigma) + defect)/n."""
    return (cap - c / math.sqrt(n) - math.log(n) / (2 * n)
            - (c * c / (2 * sigma2) + math.log(math.sqrt(2 * math.pi) * math.sqrt(sigma2))
               + defect) / n)


def _clt_error_terms(n, c, sigma2, m3, be_const, f0=1.0):
    """The two terms of the central-limit error: f0 Q(c/sigma) and
    (B m3/sigma^3 + exp(-c^2/(2 sigma^2))/(sqrt(2 pi) sigma))/sqrt(n)."""
    sigma = math.sqrt(sigma2)
    corr = (be_const * m3 / sigma ** 3
            + math.exp(-c * c / (2 * sigma2)) / (math.sqrt(2 * math.pi) * sigma))
    return f0 * q_func(c / sigma), corr / math.sqrt(n)


def _clt_c_for_rate(n, rate_nats, cap, sigma2, defect=0.0):
    """The c at which the central-limit rate equals rate_nats."""
    return solve_monotone(lambda c: -_clt_rate(n, c, cap, sigma2, defect),
                          -rate_nats, -0.9 * sigma2 * math.sqrt(n),
                          60.0 * math.sqrt(sigma2), rtol=1e-12)


def thm2_rate_and_error(ch, n: int, delta: float | None = None,
                        c: float | None = None,
                        symmetric: bool | None = None) -> BoundResult:
    """Analytic rate/error pair for the parity-check ensemble.

    Exactly one of delta (tilted large-deviation form, rates away from
    capacity) or c (central-limit form, rates near or above capacity)
    selects the variant. The returned rate is the largest rate at which
    the returned error bound is guaranteed.
    """
    if (delta is None) == (c is None):
        raise ValueError("give exactly one of delta or c")
    cap = chn.linear_capacity(ch)
    f0 = _sym_factor(ch, n, symmetric)
    if delta is not None:
        fam = nep.cond_entropy_family(ch)
        rp = nep.rate_function(fam, delta)
        lam = rp.slope_lambda
        xi = nep.xi_factors(fam, lam, n)
        env = _exp(-n * rp.rate_value)
        err = _tilted_error(n, rp.rate_value, lam, xi.upper, f0)
        return BoundResult(
            theorem="thm2p1", n=n,
            rate_nats=_tilted_rate(n, cap, delta, rp.rate_value, lam, xi.upper),
            error_ub=min(1.0, err), delta=delta, lambda_or_c=lam,
            tail_kind="sandwich",
            components=(f0 * xi.upper * env, lam * xi.upper * env),
            extras={"rate_fn": rp.rate_value, "xi_upper": xi.upper})
    summary = chn.moment_summary(ch)
    tail_term, corr = _clt_error_terms(n, c, summary.sigma2_h, summary.m3_h,
                                       nep.BERRY_ESSEEN_IID, f0)
    return BoundResult(
        theorem="thm2p2", n=n, rate_nats=_clt_rate(n, c, cap, summary.sigma2_h),
        error_ub=min(1.0, tail_term + corr), delta=c / math.sqrt(n),
        lambda_or_c=c, tail_kind="clt", components=(tail_term, corr),
        extras={"sigma_h": math.sqrt(summary.sigma2_h)})


def thm2_part2_at_rate(ch, n: int, rate_nats: float,
                       symmetric: bool | None = None,
                       use_exact_tail: bool = True,
                       budget: tail.TailBudget | None = None) -> BoundResult:
    """Central-limit-form bound at a prescribed rate (possibly above capacity).

    Solves the rate condition for c, then reports the error either from
    the analytic form or, when the channel admits an exact deviation
    probability, from tail + union at delta = c/sqrt(n) (tighter, same
    guarantee).
    """
    summary = chn.moment_summary(ch)
    sigma = math.sqrt(summary.sigma2_h)
    cap = summary.linear_capacity_nats
    c = _clt_c_for_rate(n, rate_nats, cap, summary.sigma2_h)
    delta = c / math.sqrt(n)
    analytic = thm2_rate_and_error(ch, n, c=c, symmetric=symmetric)
    if use_exact_tail and isinstance(ch, chn.DiscreteChannel):
        # the deviation may be negative above capacity; the exact lattice
        # tail handles that case as an ordinary head probability
        pd = tail.pdelta(ch, delta, n, budget)
        if pd.kind == "exact":
            f0 = _sym_factor(ch, n, symmetric)
            union = _exp(-n * (cap - delta - rate_nats))
            err = f0 * pd.value + union
            return BoundResult(
                theorem="thm2p2", n=n, rate_nats=rate_nats,
                error_ub=min(1.0, err), delta=delta, lambda_or_c=c,
                tail_kind="exact", components=(f0 * pd.value, union),
                extras={"sigma_h": sigma, "analytic_error": analytic.error_ub})
    return BoundResult(
        theorem="thm2p2", n=n, rate_nats=rate_nats, error_ub=analytic.error_ub,
        delta=delta, lambda_or_c=c, tail_kind="clt",
        components=analytic.components, extras={"sigma_h": sigma})


def _tilted_rate_curve(fam, n, defect=0.0):
    """The tilted-form rate as a function of the tilt, and the largest tilt to use.

    The largest tilt keeps clear of the blow-up near the deviation ceiling.
    """
    cap = LN2 - fam.center if fam.family == "cond_entropy" else fam.center

    def rate(lam):
        st = fam.tilted_stats(lam)
        xi = nep.xi_factors(fam, lam, n)
        return _tilted_rate(n, cap, st.delta, fam.rate_value(st), lam, xi.upper,
                            defect)

    lam_hi = min(fam.lambda_cap, 1e6)
    if fam.delta_star() < math.inf:
        while fam.tilted_stats(lam_hi).delta > 0.995 * fam.delta_star() \
                and lam_hi > 1.0:
            lam_hi /= 2.0
    return rate, lam_hi


def _part1_at_rate(fam, n, rate_nats, defect=0.0):
    """Tilt solving rate(lambda) = rate on the decreasing branch.

    rate(lambda) rises from -inf (log lambda term), peaks, then falls as
    the deviation and rate function grow; the useful solution is the one
    past the peak, where the error bound is smallest.
    """
    rate, lam_hi = _tilted_rate_curve(fam, n, defect)
    grid = np.geomspace(1e-6, lam_hi, 128)
    rates = [rate(l) for l in grid]
    i_peak = int(np.argmax(rates))
    if rates[i_peak] < rate_nats:
        raise InfeasibleRateError(
            f"rate {rate_nats} exceeds the largest certifiable rate "
            f"{rates[i_peak]:.6g} at n={n}")
    return solve_monotone(lambda l: -rate(l), -rate_nats,
                          grid[i_peak], lam_hi, rtol=1e-11)


def thm2_part1_at_rate(ch, n: int, rate_nats: float,
                       symmetric: bool | None = None) -> BoundResult:
    """Tilted-form bound at a prescribed rate below the certifiable peak."""
    fam = nep.cond_entropy_family(ch)
    lam = _part1_at_rate(fam, n, rate_nats)
    st = fam.tilted_stats(lam)
    out = thm2_rate_and_error(ch, n, delta=st.delta, symmetric=symmetric)
    out.rate_nats = rate_nats
    return out


# ---------------------------------------------------------------------------
# fixed-composition ensemble
# ---------------------------------------------------------------------------

def thm3_bound(ch, cp: CodeParams, delta: float,
               budget: tail.TailBudget | None = None) -> BoundResult:
    """Tail + union bound for the fixed-composition ensemble at deviation delta."""
    if cp.t is None:
        raise ValueError("fixed-composition bound needs CodeParams.t")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n, rate, t = cp.n, cp.rate, cp.t
    mi = chn.mutual_info(ch, t)
    pt = tail.ptdelta(ch, t, delta, n, budget)
    correction = _type_defect(t, n)
    union = _exp(-n * (mi - delta - rate) + correction)
    tail_term = pt.pessimistic
    return BoundResult(
        theorem="thm3", n=n, rate_nats=rate,
        error_ub=min(1.0, tail_term + union),
        delta=delta, tail_kind=pt.kind, components=(tail_term, union),
        extras={"mutual_info": mi, "type_correction": correction})


def thm3_optimized(ch, cp: CodeParams,
                   budget: tail.TailBudget | None = None) -> BoundResult:
    """thm3_bound minimized over delta (coarse grid plus golden section)."""
    t = cp.t
    mi = chn.mutual_info(ch, t)
    if isinstance(ch, chn.DiscreteChannel):
        fam = nep.rel_entropy_family(ch, t)
        hi = 0.999 * fam.delta_star()
    else:
        summary = chn.moment_summary(ch, t)
        hi = max(mi - cp.rate, 0.0) + max(0.1, 2.0 * math.sqrt(summary.sigma2_d))

    def objective(d):
        return thm3_bound(ch, cp, d, budget).error_ub

    return thm3_bound(ch, cp, _min_over_delta(objective, hi), budget)


def thm4_rate_and_error(ch, t: chn.InputType, n: int,
                        delta: float | None = None,
                        c: float | None = None) -> BoundResult:
    """Analytic rate/error pair for the fixed-composition ensemble."""
    if (delta is None) == (c is None):
        raise ValueError("give exactly one of delta or c")
    mi = chn.mutual_info(ch, t)
    correction = _type_defect(t, n)
    if delta is not None:
        fam = nep.rel_entropy_family(ch, t)
        rp = nep.rate_function(fam, delta)
        lam = rp.slope_lambda
        xi = nep.xi_factors(fam, lam, n)
        env = _exp(-n * rp.rate_value)
        err = _tilted_error(n, rp.rate_value, lam, xi.upper)
        return BoundResult(
            theorem="thm4p1", n=n,
            rate_nats=_tilted_rate(n, mi, delta, rp.rate_value, lam, xi.upper,
                                   correction),
            error_ub=min(1.0, err), delta=delta, lambda_or_c=lam,
            tail_kind="sandwich",
            components=(xi.upper * env, lam * xi.upper * env),
            extras={"rate_fn": rp.rate_value, "type_correction": correction})
    summary = chn.moment_summary(ch, t)
    tail_term, corr = _clt_error_terms(n, c, summary.sigma2_d, summary.m3_d,
                                       nep.BERRY_ESSEEN_INID)
    return BoundResult(
        theorem="thm4p2", n=n,
        rate_nats=_clt_rate(n, c, mi, summary.sigma2_d, correction),
        error_ub=min(1.0, tail_term + corr), delta=c / math.sqrt(n),
        lambda_or_c=c, tail_kind="clt", components=(tail_term, corr),
        extras={"sigma_d": math.sqrt(summary.sigma2_d),
                "type_correction": correction})


def thm4_part1_at_rate(ch, t: chn.InputType, n: int,
                       rate_nats: float) -> BoundResult:
    """Tilted-form fixed-composition bound at a prescribed rate."""
    fam = nep.rel_entropy_family(ch, t)
    lam = _part1_at_rate(fam, n, rate_nats, _type_defect(t, n))
    st = fam.tilted_stats(lam)
    out = thm4_rate_and_error(ch, t, n, delta=st.delta)
    out.rate_nats = rate_nats
    return out


def thm4_part2_at_rate(ch, t: chn.InputType, n: int,
                       rate_nats: float) -> BoundResult:
    """Central-limit-form fixed-composition bound at a prescribed rate."""
    summary = chn.moment_summary(ch, t)
    c = _clt_c_for_rate(n, rate_nats, summary.mutual_info_nats,
                        summary.sigma2_d, _type_defect(t, n))
    out = thm4_rate_and_error(ch, t, n, c=c)
    out.rate_nats = rate_nats
    return out


# ---------------------------------------------------------------------------
# error-exponent baseline
# ---------------------------------------------------------------------------

def gallager_e0(ch, input_dist: chn.InputType, rho: float) -> float:
    """E0(rho) = -ln sum_y [sum_x q(x) p(y|x)^(1/(1+rho))]^(1+rho)."""
    q = input_dist.as_floats()
    if isinstance(ch, chn.DiscreteChannel):
        inner = (q[:, None] * ch.matrix ** (1.0 / (1.0 + rho))).sum(axis=0)
        return -math.log(float((inner ** (1.0 + rho)).sum()))
    a = ch.amplitude
    y, w = composite_gauss_legendre(-a - 12.0, a + 12.0, panel_width=0.5, points=16)
    inner = np.zeros_like(y)
    for x, qx in enumerate(q):
        if qx > 0:
            inner += qx * np.exp(ch.log_likelihood(y, x) / (1.0 + rho))
    return -math.log(float(w @ inner ** (1.0 + rho)))


def error_exponent(ch, input_dist: chn.InputType, rate_nats: float) -> float:
    """Random-coding exponent max_{rho in [0,1]} [E0(rho) - rho R]."""
    def neg(rho):
        return -(gallager_e0(ch, input_dist, rho) - rho * rate_nats)

    _, best = golden_min(neg, np.linspace(0.0, 1.0, 33), 60)
    return max(0.0, -best)


def error_exponent_baseline(ch, input_dist: chn.InputType, n: int,
                            rate_nats: float) -> float:
    """exp(-n E_r(R)) comparison curve for the random-coding exponent."""
    return min(1.0, math.exp(-n * error_exponent(ch, input_dist, rate_nats)))


# ---------------------------------------------------------------------------
# rate inversion: largest rate with bound <= eps
# ---------------------------------------------------------------------------

def _bisect_rate(err_of_rate, eps, lo, hi, iters=50):
    """Largest rate with err_of_rate(rate) <= eps; err is nondecreasing."""
    if err_of_rate(lo) > eps:
        raise InfeasibleRateError(
            f"error target {eps} unreachable even at rate {lo}")
    while err_of_rate(hi) <= eps:
        hi *= 1.5
        if hi > 10.0:
            return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if err_of_rate(mid) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


def _part1_rate_at_eps(fam, n, eps, f0, defect=0.0):
    """Largest tilted-form rate with error <= eps."""
    def err(lam):
        st = fam.tilted_stats(lam)
        xi = nep.xi_factors(fam, lam, n)
        return _tilted_error(n, fam.rate_value(st), lam, xi.upper, f0)

    rate, lam_hi = _tilted_rate_curve(fam, n, defect)
    lam_lo = 1e-8
    if err(lam_lo) <= eps:
        lam_eps = lam_lo
    elif err(lam_hi) > eps:
        raise InfeasibleRateError(f"error target {eps} unreachable at n={n}")
    else:
        lo, hi = lam_lo, lam_hi
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if err(mid) > eps:
                lo = mid
            else:
                hi = mid
        lam_eps = hi
    lam_hi = max(lam_hi, lam_eps * 1.001)
    lam, neg_rate = golden_min(lambda l: -rate(l),
                               np.geomspace(lam_eps, lam_hi, 96), 50)
    return -neg_rate, lam, err(lam)


def _part2_rate_at_eps(n, eps, cap, sigma2, m3, f0, be_const, defect=0.0):
    """Largest central-limit-form rate with error <= eps."""
    sigma = math.sqrt(sigma2)
    floor = be_const * m3 / (sigma ** 3 * math.sqrt(n))
    if floor >= eps:
        raise InfeasibleRateError(
            f"central-limit error floor {floor:.3g} exceeds target {eps}")

    def err(c):
        tail_term, corr = _clt_error_terms(n, c, sigma2, m3, be_const, f0)
        return tail_term + corr

    # solve_monotone stops within its tolerance on either side of its aim;
    # aiming one tolerance below eps keeps err(c) <= eps
    rtol = 1e-12
    c = solve_monotone(lambda x: -err(x), -eps + rtol, -8.0 * sigma,
                       60.0 * sigma, rtol=rtol)
    return _clt_rate(n, c, cap, sigma2, defect), c, err(c)


def max_rate_at_eps(ch, n: int, eps: float, method: str,
                    t: chn.InputType | None = None,
                    budget: tail.TailBudget | None = None) -> BoundResult:
    """Largest rate whose optimized bound stays below eps, per method.

    Also reports the square-root-law reference rate
    C - (sigma/sqrt(n)) Qinv(eps) in extras["second_order_rate"].
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    fixed_type = method in ("thm3", "thm4p1", "thm4p2")
    if fixed_type and t is None:
        raise ValueError(f"method {method} needs an input composition")
    if fixed_type:
        summary = chn.moment_summary(ch, t)
        cap, sigma2 = summary.mutual_info_nats, summary.sigma2_d
    else:
        summary = chn.moment_summary(ch, t) if t is not None else chn.moment_summary(ch)
        cap, sigma2 = summary.linear_capacity_nats, summary.sigma2_h
    ref = cap - math.sqrt(sigma2 / n) * q_inv(eps)
    delta_opt = lam_or_c = None
    err = None
    tail_kind = "exact"

    if method == "thm1":
        def err_of_rate(r):
            return thm1_optimized(ch, CodeParams(n, rate_nats=r), budget).error_ub
        rate = _bisect_rate(err_of_rate, eps, 1e-9, max(cap, 1e-3))
        res = thm1_optimized(ch, CodeParams(n, rate_nats=rate), budget)
        delta_opt, err, tail_kind = res.delta, res.error_ub, res.tail_kind
    elif method == "thm3":
        def err_of_rate(r):
            return thm3_optimized(ch, CodeParams(n, rate_nats=r, t=t), budget).error_ub
        rate = _bisect_rate(err_of_rate, eps, 1e-9, max(cap, 1e-3))
        res = thm3_optimized(ch, CodeParams(n, rate_nats=rate, t=t), budget)
        delta_opt, err, tail_kind = res.delta, res.error_ub, res.tail_kind
    elif method == "thm2p1":
        rate, lam_or_c, err = _part1_rate_at_eps(
            nep.cond_entropy_family(ch), n, eps, _sym_factor(ch, n))
        tail_kind = "sandwich"
    elif method == "thm4p1":
        rate, lam_or_c, err = _part1_rate_at_eps(
            nep.rel_entropy_family(ch, t), n, eps, 1.0, _type_defect(t, n))
        tail_kind = "sandwich"
    elif method == "thm2p2":
        rate, lam_or_c, err = _part2_rate_at_eps(
            n, eps, cap, sigma2, summary.m3_h, _sym_factor(ch, n),
            nep.BERRY_ESSEEN_IID)
        tail_kind = "clt"
    elif method == "thm4p2":
        rate, lam_or_c, err = _part2_rate_at_eps(
            n, eps, cap, sigma2, summary.m3_d, 1.0,
            nep.BERRY_ESSEEN_INID, _type_defect(t, n))
        tail_kind = "clt"
    elif method == "ee":
        dist = t if t is not None else chn.InputType.uniform(
            2 if isinstance(ch, chn.BiAwgn) else ch.input_size)
        mi = chn.mutual_info(ch, dist)
        target = -math.log(eps) / n
        if error_exponent(ch, dist, 1e-9) < target:
            raise InfeasibleRateError("exponent target unreachable")
        # solve_monotone stops within its tolerance on either side of its aim;
        # aiming one tolerance above the target keeps E_r(rate) >= target, so
        # exp(-n E_r) stays <= eps
        rtol = 1e-10
        rate = solve_monotone(
            lambda r: -error_exponent(ch, dist, r),
            -target - rtol * max(1.0, target), 1e-9, mi, rtol=rtol)
        err = error_exponent_baseline(ch, dist, n, rate)
        tail_kind = "exponent"
    else:
        raise ValueError(f"unknown method {method!r}")

    return BoundResult(
        theorem=method, n=n, rate_nats=rate, error_ub=err,
        delta=delta_opt, lambda_or_c=lam_or_c, tail_kind=tail_kind,
        extras={"second_order_rate": ref, "eps": eps})
