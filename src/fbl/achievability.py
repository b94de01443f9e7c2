"""Achievability bounds for the two random code ensembles.

The paper proves each bound for the random parity-check ensemble (thm1,
thm2) and again for the fixed-composition ensemble (thm3, thm4); the
proofs differ only in what an `Ensemble` record holds, so each bound is
written once over it, one record per (channel, composition, n).
`THEOREMS`, the theorem table, maps every bound name (those, the BSC
and BEC readouts, the Z closed form and the error-exponent baseline
`ee`) to its ensemble, error-at-rate and rate-at-eps, and
`bound_at_rate` and `max_rate_at_eps` are the one way into each row.
Within the budget of the statistic's exact law, thm1's and thm3's minima
over the deviation are exact, atom by atom, and so is the largest rate
that meets eps: both are read off the breakpoints between atoms, in the
cumulative arrays of the law's one memoised record (`tail.exact_law`).
Their deviation is signed, so the row names the decoder it covers.
Elsewhere the deviation is searched, and a rate at eps is checked at the
searched deviation. thm1's minimum equals PPV 2010's BSC and BEC sums in
any layout; `bscform`/`becform` read it at M = 2^k, and with
`dt_variant` give PPV's DT bound.

Rates are nats per channel use internally; the CLI converts to bits.
Every reported error bound is clamped to [0, 1]; the pre-clamp tail and
union components are kept on the result for auditing.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import channel as chn
from . import nep, tail
from .numkit import (composite_gauss_legendre, golden_min, log_binom, logsumexp, q_func,
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
        if not 0 < self.rate < math.inf:  # refuses nan too
            raise ValueError(f"rate must be finite and positive, got {self.rate}")

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


def _exp(x: float) -> float:
    return math.exp(x) if x < 700.0 else math.inf


# ---------------------------------------------------------------------------
# the two ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """What the parity-check (t None) and fixed-composition bounds differ in, at length n.

    family() is the tilt family of the decoding statistic; its sigma2, m3
    and be_const are the h or d moments and the i.i.d. or non-identical
    Berry-Esseen constant. tail(delta) is tail.pdelta or tail.ptdelta; both
    look the function up when called, so a cached record never pins it.
    """
    names: tuple        # (tail + union, tilted, central-limit) theorem names
    ch: object
    t: chn.InputType | None
    n: int
    capacity: float     # linear capacity, or I(t;P)
    f0: float           # puncturing factor; 1 if symmetric or fixed composition
    defect: float       # n H(t) - ln |T_t|; 0 for the parity-check ensemble

    def family(self) -> nep.TiltFamily:
        if self.t is None:
            return nep.cond_entropy_family(self.ch)
        return nep.rel_entropy_family(self.ch, self.t)

    def tail(self, delta):
        if self.t is None:
            return tail.pdelta(self.ch, delta, self.n)
        return tail.ptdelta(self.ch, self.t, delta, self.n)


# One record per (channel, composition, n), shared by every deviation and
# rate a curve point tries; channels hash by identity, compositions by value.
@lru_cache(maxsize=64)
def _ensemble(ch, t, n) -> Ensemble:
    """The parity-check ensemble (t None) or the fixed-composition ensemble of type t."""
    if t is None:
        f0 = 1.0 if chn.is_symmetric(ch) or n >= 1060 else 1.0 / (1.0 - 2.0 ** (-n))
        return Ensemble(("thm1", "thm2p1", "thm2p2"), ch, None, n,
                        chn.linear_capacity(ch), f0, 0.0)
    return Ensemble(("thm3", "thm4p1", "thm4p2"), ch, t, n, chn.mutual_info(ch, t), 1.0,
                    n * t.entropy() - chn.log_type_class_size(t, n))


# ---------------------------------------------------------------------------
# tail + union bound and its minimum over the deviation
# ---------------------------------------------------------------------------

def _tail_union(ens: Ensemble, rate, delta) -> BoundResult:
    """f0 P(deviation > delta) + exp(-n (C - delta - R) + defect).

    delta may be negative: a threshold below the statistic's mean (thm1's
    exact optimum can sit there) or a rate above capacity (the
    central-limit refinement, on an exact law only). The BiAWGN sandwich
    rejects delta <= 0 (nep.TiltRangeError).
    """
    n = ens.n
    pd = ens.tail(delta)
    tail_term = ens.f0 * pd.pessimistic
    union = _exp(-n * (ens.capacity - delta - rate) + ens.defect)
    return BoundResult(
        theorem=ens.names[0], n=n, rate_nats=rate,
        error_ub=min(1.0, tail_term + union),
        delta=delta, tail_kind=pd.kind, components=(tail_term, union))


def thm1_bound(ch, cp: CodeParams, delta: float) -> BoundResult:
    """Tail + union bound for the parity-check ensemble at deviation delta."""
    return _tail_union(_ensemble(ch, None, cp.n), cp.rate, delta)


def thm3_bound(ch, cp: CodeParams, delta: float) -> BoundResult:
    """Tail + union bound for the fixed-composition ensemble at deviation delta."""
    if cp.t is None:
        raise ValueError("fixed-composition bound needs CodeParams.t")
    return _tail_union(_ensemble(ch, cp.t, cp.n), cp.rate, delta)


def _delta_grid(ens: Ensemble, rate):
    """Log grid of deviations up to the sigma rule, or 0.999 delta* on a discrete
    channel (capped by the sigma rule for the parity-check ensemble)."""
    fam = ens.family()
    hi = max(ens.capacity - rate, 0.0) + max(0.1, 2.0 * math.sqrt(fam.sigma2))
    if isinstance(ens.ch, chn.DiscreteChannel):
        star = 0.999 * fam.delta_star()
        hi = min(hi, star) if ens.t is None else star
    return np.geomspace(1e-6, hi, 64)


def _breakpoints(ens: Ensemble):
    """(ln T_j, ln W_j, j -> delta_j) per gap j between atoms of the n-letter
    statistic, read off its exact law record (tail.exact_law: T_j is its
    cumulative tail at cut j), or None where it has none within budget.

    Tail + union at any threshold in gap j is at least f0 T_j + M W_j, and
    reaches (thm1) or tends to (thm3) it at delta_j. So its minimum over
    delta is min_j f0 T_j + M W_j; the largest M meeting eps, max_j
    (eps - f0 T_j) / W_j.

    thm1, s_{j-1} <= thr < s_j: the jar of y holds the x with
    S = -ln p(x|y) <= thr; the sent word misses it w.p. f0 P(S >= s_j)
    (f0 the message-puncturing factor). Under uniform input
    p(y) = p(x,y) e^S, so the jar's other words number
    E[(e^S - 1) 1{S <= thr}] on average (the paper bounds |jar| by e^thr):
    at most e^s per atom s > 0, none at s = 0, where p(x^n|y^n) = 1. Each
    is a codeword w.p. 2^-n: W_j = 2^-n E[e^S 1{0 < S < s_j}] (the record
    holds the cumulative expectation); on the BSC and BEC the minimum is
    PPV 2010's sum (the BEC's from t = 1), which bscform/becform read.
    delta_j puts n (H + delta) midway between the atoms.

    thm3, d_{j-1} <= thr < d_j: P(D <= thr) = T_j = P(D < d_j) and the
    union term M e^(-thr + defect) falls towards M W_j = M e^(-d_j + defect),
    an infimum of bounds and so a bound (past the last atom T = 1: no gap,
    so a row whose bound is 1 still names a decoder that can succeed).
    delta_j puts n (I - delta) below d_j by 1e-7 of its distance from the
    lowest atom (at least 1e-7 of a step, or of a nat off a lattice), 100
    times the tail readout's slack, and by at most half the gap to the
    atom below, so thm3_bound at delta_j has the row's tail term.
    """
    record = tail.exact_law(ens.ch, ens.t, ens.n)
    if record is None:
        return None
    (law, centre), n = record, ens.n
    atom, gap, top = (lambda k: law.offset + law.points[k]), law.scale, law.points.size - 1
    if ens.t is None:
        def delta(j):
            lo = atom(j - 1) if j > 0 else atom(0) - gap
            return 0.5 * (lo + (atom(j) if j <= top else atom(top) + gap)) / n - centre

        return law.log_tail, law.log_charged - n * LN2, delta

    def delta(j):
        below = 0.5 * (atom(j) - atom(j - 1)) if j > 0 else math.inf
        return centre - (atom(j) - min(1e-7 * max(gap, atom(j) - law.offset), below)) / n

    return law.log_tail[:-1], ens.defect - (law.offset + law.points), delta


def _optimized(ens: Ensemble, bound, cp: CodeParams) -> BoundResult:
    """bound(ch, cp, delta) minimised over delta. On an exact law: the smallest
    f0 T_j + M W_j (ties, to 1e-12 relative, to the lowest threshold); else
    a log grid and golden section, calling the public bound once per delta."""
    bp = _breakpoints(ens)
    if bp is None:
        delta, _ = golden_min(lambda d: bound(ens.ch, cp, d).error_ub,
                              _delta_grid(ens, cp.rate), 60)
        return bound(ens.ch, cp, delta)
    log_tail, log_union = math.log(ens.f0) + bp[0], cp.log_m + bp[1]
    total = np.logaddexp(log_tail, log_union)
    j = int(np.argmax(total <= total.min() + 1e-12))
    tail_term, union = ens.f0 * min(math.exp(bp[0][j]), 1.0), _exp(log_union[j])  # as Law.tail
    return BoundResult(theorem=ens.names[0], n=cp.n, rate_nats=cp.rate,
                       error_ub=min(1.0, tail_term + union), delta=float(bp[2](j)),
                       tail_kind="exact", components=(tail_term, union))


def thm1_optimized(ch, cp: CodeParams) -> BoundResult:
    """thm1_bound minimised over delta (see _optimized)."""
    return _optimized(_ensemble(ch, None, cp.n), thm1_bound, cp)


def thm3_optimized(ch, cp: CodeParams) -> BoundResult:
    """thm3_bound minimised over delta (see _optimized)."""
    if cp.t is None:
        raise ValueError("fixed-composition bound needs CodeParams.t")
    return _optimized(_ensemble(ch, cp.t, cp.n), thm3_bound, cp)


def _ln(x) -> float:
    """ln of an int, float or Fraction; exact operands keep 2^k exact for any k."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _log_m_minus_1(M, log_m) -> float:
    """ln(M - 1) from exactly one of M (int, float or Fraction) or ln M; -inf for M <= 1."""
    if (M is None) == (log_m is None):
        raise ValueError("give exactly one of M or log_m")
    if M is not None:
        return _ln(M - 1) if M > 1 else -math.inf
    if log_m >= 36.0:
        return log_m  # M - 1 rounds to M
    return math.log(math.expm1(log_m)) if log_m > 0 else -math.inf


def zchannel_closed_form(p: float, t: chn.InputType, n: int, M=None,
                         log_m: float | None = None) -> float:
    """Consistency-decoder bound for the Z channel with composition t.

    m = n*t(0) inputs can flip; with i flips the (M-1) competing
    codewords each collide with probability C(n-m+i, i)/C(n, m).
    """
    if not 0 < p < 1:
        raise ValueError("Z-channel parameter must be in (0,1)")
    m = t.counts(n)[0]
    log_m1 = _log_m_minus_1(M, log_m)
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

def _tilted_rate(ens: Ensemble, delta, rate_value, lam, xi_upper):
    """Tilted-form rate C - delta - r(delta) + (ln(lambda xi) - defect)/n."""
    return (ens.capacity - delta - rate_value
            + (math.log(lam * xi_upper) - ens.defect) / ens.n)


def _tilted_error(ens: Ensemble, rate_value, lam, xi_upper):
    """Tilted-form error (f0 + lambda) xi exp(-n r(delta))."""
    return (ens.f0 + lam) * xi_upper * _exp(-ens.n * rate_value)


def _tilted(ens: Ensemble, delta) -> BoundResult:
    """Tilted-form rate and error at deviation delta (part 1)."""
    n, fam = ens.n, ens.family()
    rp = nep.rate_function(fam, delta)
    lam = rp.slope_lambda
    xi = nep.xi_factors(fam, lam, n)
    env = _exp(-n * rp.rate_value)
    return BoundResult(
        theorem=ens.names[1], n=n,
        rate_nats=_tilted_rate(ens, delta, rp.rate_value, lam, xi.upper),
        error_ub=min(1.0, _tilted_error(ens, rp.rate_value, lam, xi.upper)),
        delta=delta, lambda_or_c=lam, tail_kind="sandwich",
        components=(ens.f0 * xi.upper * env, lam * xi.upper * env),
        extras={"rate_fn": rp.rate_value, "xi_upper": xi.upper})


def _clt_rate(ens: Ensemble, c):
    """Central-limit rate
    C - c/sqrt(n) - ln n/(2n) - (c^2/(2 sigma^2) + ln(sqrt(2 pi) sigma) + defect)/n."""
    n, sigma2 = ens.n, ens.family().sigma2
    return (ens.capacity - c / math.sqrt(n) - math.log(n) / (2 * n)
            - (c * c / (2 * sigma2) + math.log(math.sqrt(2 * math.pi) * math.sqrt(sigma2))
               + ens.defect) / n)


def _clt_error_terms(ens: Ensemble, c):
    """The two terms of the central-limit error: f0 Q(c/sigma) and
    (B m3/sigma^3 + exp(-c^2/(2 sigma^2))/(sqrt(2 pi) sigma))/sqrt(n)."""
    fam = ens.family()
    sigma = math.sqrt(fam.sigma2)
    corr = (fam.be_const * fam.m3 / sigma ** 3
            + math.exp(-c * c / (2 * fam.sigma2)) / (math.sqrt(2 * math.pi) * sigma))
    return ens.f0 * q_func(c / sigma), corr / math.sqrt(ens.n)


def _central_limit(ens: Ensemble, c) -> BoundResult:
    """Central-limit-form rate and error at c (part 2)."""
    tail_term, corr = _clt_error_terms(ens, c)
    return BoundResult(
        theorem=ens.names[2], n=ens.n, rate_nats=_clt_rate(ens, c),
        error_ub=min(1.0, tail_term + corr), delta=c / math.sqrt(ens.n),
        lambda_or_c=c, tail_kind="clt", components=(tail_term, corr))


def _tilted_rate_curve(ens: Ensemble):
    """The tilted-form rate and error as functions of the tilt, and the largest
    tilt to use, which keeps clear of the blow-up near the deviation ceiling."""
    fam, n = ens.family(), ens.n

    def rate(lam):
        st = fam.tilted_stats(lam)
        xi = nep.xi_factors(fam, lam, n)
        return _tilted_rate(ens, st.delta, fam.rate_value(st), lam, xi.upper)

    def err(lam):
        st = fam.tilted_stats(lam)
        return _tilted_error(ens, fam.rate_value(st), lam, nep.xi_factors(fam, lam, n).upper)

    lam_hi = min(fam.lambda_cap, 1e6)
    if fam.delta_star() < math.inf:
        while fam.tilted_stats(lam_hi).delta > 0.995 * fam.delta_star() \
                and lam_hi > 1.0:
            lam_hi /= 2.0
    return rate, err, lam_hi


def _tilted_at_rate(ens: Ensemble, rate_nats) -> BoundResult:
    """Tilted form at a prescribed rate below the certifiable peak.

    rate(lambda) rises from -inf (log lambda term), peaks, then falls as
    the deviation and rate function grow; the useful solution is the one
    past the peak, where the error bound is smallest.
    """
    rate, _, lam_hi = _tilted_rate_curve(ens)
    grid = np.geomspace(1e-6, lam_hi, 128)
    rates = [rate(l) for l in grid]
    i_peak = int(np.argmax(rates))
    if rates[i_peak] < rate_nats:
        raise InfeasibleRateError(
            f"rate {rate_nats} exceeds the largest certifiable rate "
            f"{rates[i_peak]:.6g} at n={ens.n}")
    lam = solve_monotone(lambda l: -rate(l), -rate_nats,
                         grid[i_peak], lam_hi, rtol=1e-11)
    out = _tilted(ens, ens.family().tilted_stats(lam).delta)
    out.rate_nats = rate_nats
    return out


def _clt_c_for_rate(ens: Ensemble, rate_nats):
    """The c where the central-limit rate, falling in c, equals R: the larger root
    of c^2/(2 sigma^2 n) + c/sqrt(n) + k = 0, k = R - rate(0), as -2k/(1/sqrt(n)
    + sqrt(D)), D = (1 - 2k/sigma^2)/n, free of cancellation. D < 0: R is above the peak."""
    n, sigma2 = ens.n, ens.family().sigma2
    k = rate_nats - _clt_rate(ens, 0.0)
    disc = (1.0 - 2.0 * k / sigma2) / n
    if disc < 0:
        raise InfeasibleRateError(
            f"rate {rate_nats} is outside the central-limit range at n={n}")
    return -2.0 * k / (1.0 / math.sqrt(n) + math.sqrt(disc))


def _clt_at_rate(ens: Ensemble, rate_nats, exact_tail=True) -> BoundResult:
    """Central-limit-form bound at a prescribed rate (possibly above capacity).

    Solves the rate condition for c, then reports the error from the
    analytic form or, when the deviation sum has an exact law within
    budget, from tail + union at delta = c/sqrt(n). That union term is
    the analytic exp(-c^2/(2 sigma^2))/(sqrt(2 pi n) sigma) term, and
    Berry-Esseen bounds the exact tail by the rest (up to f0 - 1 times it).
    """
    c = _clt_c_for_rate(ens, rate_nats)
    out = _central_limit(ens, c)
    out.rate_nats = rate_nats
    if exact_tail and tail.exact_law(ens.ch, ens.t, ens.n) is not None:
        exact = _tail_union(ens, rate_nats, out.delta)
        exact.theorem, exact.lambda_or_c = out.theorem, c
        return exact
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
    _, best = golden_min(lambda rho: rho * rate_nats - gallager_e0(ch, input_dist, rho),
                         np.linspace(0.0, 1.0, 33), 60)
    return max(0.0, -best)


# ---------------------------------------------------------------------------
# rate inversion: largest rate with bound <= eps
# ---------------------------------------------------------------------------

def _tail_union_at_rate(ch, t, n, rate, delta=None, **_):
    """thm1 (t None) or thm3 at a rate: minimised over delta, or at the given delta."""
    cp = CodeParams(n, rate_nats=rate, t=t)
    bound, optimized = ((thm1_bound, thm1_optimized) if t is None
                        else (thm3_bound, thm3_optimized))
    return optimized(ch, cp) if delta is None else bound(ch, cp, delta)


# Rate-at-eps entries return the row at its largest rate with error <= eps,
# and the capacity and variance of the row's information statistic.

def _step_down(row, rate, eps, refusal):
    """row(rate) at the first rate, stepping down 1, 2, 4, ... ulps, with error_ub <= eps."""
    ulps = 1
    while rate > 0:
        res = row(rate)
        if res.error_ub <= eps:
            return res
        rate -= ulps * math.ulp(rate)
        ulps *= 2
    raise InfeasibleRateError(refusal)


def _tail_union_rate_at_eps(ch, t, n, eps):
    """The largest rate meeting eps: max_j ln((eps - f0 T_j) / W_j) / n on an
    exact law (capped at 10 nats: W_j = 0 takes any M), else the maximum of C -
    delta + (ln(eps - f0 T(delta)) - defect)/n, searched on the widest grid.
    Returns the row at that rate (the breakpoint minimum, or tail + union at
    the searched delta), stepped down by doubling ulps until error_ub <= eps."""
    ens = _ensemble(ch, t, n)
    bp, delta = _breakpoints(ens), None
    if bp is not None:
        room = eps - ens.f0 * np.exp(bp[0])
        ok = room > 0
        rate = min(float(np.max(np.log(room[ok]) - bp[1][ok], initial=-np.inf)) / n, 10.0)
    else:
        def neg_rate(d):
            room = eps - ens.f0 * ens.tail(d).pessimistic
            return math.inf if room <= 0 else d - ens.capacity - (math.log(room) - ens.defect) / n

        delta, neg = golden_min(neg_rate, _delta_grid(ens, 0.0), 60)
        rate = -float(neg)
    res = _step_down(lambda r: _tail_union_at_rate(ch, t, n, r, delta), rate, eps,
                     f"no positive rate meets {eps} at n={n}")
    return res, ens.capacity, ens.family().sigma2


def _tilted_rate_at_eps(ch, t, n, eps):
    """The tilted form's largest rate meeting eps, over the tilts from lambda_eps
    on (the error falls in the tilt). -ln err(e^u) = -ln eps is solved over
    u = ln lambda, ln 0 read as -inf, then lambda is raised by doubling ulps
    until err <= eps."""
    ens = _ensemble(ch, t, n)
    rate, err, lam_hi = _tilted_rate_curve(ens)

    def neg_log_err(u):
        e = err(math.exp(u))
        return -math.log(e) if e > 0 else math.inf

    lam_eps = 1e-8
    if err(lam_eps) > eps:
        if err(lam_hi) > eps:
            raise InfeasibleRateError(f"error target {eps} unreachable at n={n}")
        lam_eps = math.exp(solve_monotone(neg_log_err, -math.log(eps), math.log(lam_eps),
                                          math.log(lam_hi), rtol=1e-12))
        ulps = 1
        while err(lam_eps) > eps:
            lam_eps += ulps * math.ulp(lam_eps)
            ulps *= 2
    lam_hi = max(lam_hi, lam_eps * 1.001)
    lam, neg_rate = golden_min(lambda l: -rate(l),
                               np.geomspace(lam_eps, lam_hi, 96), 50)
    res = BoundResult(theorem=ens.names[1], n=n, rate_nats=-neg_rate,
                      error_ub=err(lam), lambda_or_c=lam, tail_kind="sandwich")
    return res, ens.capacity, ens.family().sigma2


def _clt_rate_at_eps(ch, t, n, eps):
    ens = _ensemble(ch, t, n)
    fam = ens.family()
    sigma = math.sqrt(fam.sigma2)
    floor = fam.be_const * fam.m3 / (sigma ** 3 * math.sqrt(n))
    if floor >= eps:
        raise InfeasibleRateError(
            f"central-limit error floor {floor:.3g} exceeds target {eps}")

    def err(c):
        tail_term, corr = _clt_error_terms(ens, c)
        return tail_term + corr

    # solve_monotone stops within its tolerance on either side of its aim;
    # aiming one tolerance below eps keeps err(c) <= eps
    rtol = 1e-12
    c = solve_monotone(lambda x: -err(x), -eps + rtol, -8.0 * sigma,
                       60.0 * sigma, rtol=rtol)
    res = BoundResult(theorem=ens.names[2], n=n, rate_nats=_clt_rate(ens, c),
                      error_ub=err(c), lambda_or_c=c, tail_kind="clt")
    return res, ens.capacity, fam.sigma2


def _ee_rate_at_eps(ch, t, n, eps):
    """The largest rate meeting eps: E_r(R) >= E* = -ln(eps)/n exactly when R <=
    (E0(rho) - E*)/rho for some rho in (0, 1], a ratio unimodal in rho (E0 is
    concave) whose optimum rho* ~ sqrt(2 E*/V) a geometric grid brackets however
    small. Returns the ee row there, stepped down by doubling ulps until error_ub <= eps."""
    target = -math.log(eps) / n
    _, neg_rate = golden_min(lambda rho: (target - gallager_e0(ch, t, rho)) / rho,
                             np.geomspace(1e-8, 1.0, 33), 40)
    res = _step_down(partial(_ee_row, ch, t, n), -float(neg_rate), eps,
                     "exponent target unreachable")
    fam = nep.rel_entropy_family(ch, t)
    return res, fam.center, fam.sigma2


# ---------------------------------------------------------------------------
# the theorem table
# ---------------------------------------------------------------------------

def _tilted_row(ch, t, n, rate, delta=None, **_):
    ens = _ensemble(ch, t, n)
    return _tilted(ens, delta) if delta is not None else _tilted_at_rate(ens, rate)


def _clt_row(ch, t, n, rate, c=None, exact_tail=True, **_):
    ens = _ensemble(ch, t, n)
    return _central_limit(ens, c) if c is not None else _clt_at_rate(ens, rate, exact_tail)


def _form_row(name, ch, t, n, rate, k=None, dt_variant=False, **_):
    """bscform/becform: thm1's breakpoint minimum at ln M = k ln 2, or n R
    (the minimum itself: the row names no decoder). dt_variant takes
    (M - 1)/2 for M and charges the S = 0 atom too, W_j + 2^-n P(S = 0) at
    thresholds from 0 on: PPV's DT bound, whose BEC sum starts at t = 0."""
    spec, as_channel = {"bscform": ("bsc", chn.as_bsc), "becform": ("bec", chn.as_bec)}[name]
    if as_channel(ch) is None:
        raise ValueError(f"{name} needs a {spec}:p channel")
    ens = _ensemble(ch, None, n)
    bp = _breakpoints(ens)
    if bp is None:
        raise ValueError(f"{name} needs the exact law, past its state budget at n={n}")
    log_weight = bp[1]
    if not dt_variant:
        log_m = k * LN2 if k is not None else n * rate
    else:
        log_m = (_log_m_minus_1(2 ** k, None) if k is not None
                 else _log_m_minus_1(None, n * rate)) - LN2
        letter = chn.statistic(ch)[0]
        zero = float(letter.probs[letter.values == 0.0].sum())  # P(S = 0) = zero^n
        if zero > 0:
            log_weight = np.r_[log_weight[0],
                               np.logaddexp(log_weight[1:], n * (math.log(zero) - LN2))]
    total = np.logaddexp(math.log(ens.f0) + bp[0], log_m + log_weight)
    return BoundResult(theorem=name, n=n, rate_nats=rate, tail_kind="exact",
                       error_ub=min(1.0, _exp(float(total.min()))))


def _zform_row(ch, t, n, rate, k=None, **_):
    p = chn.as_zchannel(ch)
    if p is None:
        raise ValueError("zform needs a z:p channel")
    err = zchannel_closed_form(p, t, n, log_m=k * LN2 if k is not None else n * rate)
    return BoundResult(theorem="zform", n=n, rate_nats=rate, error_ub=err,
                       tail_kind="exact")


def _ee_row(ch, t, n, rate, **_):
    """The exponent reference exp(-n E_r(R)) of the input distribution t."""
    return BoundResult(theorem="ee", n=n, rate_nats=rate,
                       error_ub=min(1.0, math.exp(-n * error_exponent(ch, t, rate))),
                       tail_kind="exponent")


@dataclass(frozen=True)
class Theorem:
    """One row of the theorem table.

    ensemble: "parity" (no composition), "fixed" (needs one) or "iid" (ee:
    the given input distribution, uniform by default). at_rate(ch, t, n,
    rate, **options) is the error at a rate, at_eps(ch, t, n, eps) the
    rate-at-eps (see above; None: no inversion). parameter: the option
    ("delta" or "c") that, when given, sets the row's rate instead.
    """
    ensemble: str
    at_rate: Callable
    at_eps: Callable | None = None
    parameter: str | None = None


THEOREMS = {
    "thm1": Theorem("parity", _tail_union_at_rate, _tail_union_rate_at_eps),
    "thm2p1": Theorem("parity", _tilted_row, _tilted_rate_at_eps, "delta"),
    "thm2p2": Theorem("parity", _clt_row, _clt_rate_at_eps, "c"),
    "thm3": Theorem("fixed", _tail_union_at_rate, _tail_union_rate_at_eps),
    "thm4p1": Theorem("fixed", _tilted_row, _tilted_rate_at_eps, "delta"),
    "thm4p2": Theorem("fixed", _clt_row, _clt_rate_at_eps, "c"),
    "zform": Theorem("fixed", _zform_row),
    "bscform": Theorem("parity", partial(_form_row, "bscform")),
    "becform": Theorem("parity", partial(_form_row, "becform")),
    "ee": Theorem("iid", _ee_row, _ee_rate_at_eps),
}


def _lookup(name, ch, t):
    """The table row of name and the input composition it uses."""
    th = THEOREMS.get(name)
    if th is None:
        raise ValueError(f"unknown theorem {name!r}")
    if th.ensemble == "parity":
        return th, None
    if th.ensemble == "fixed" and t is None:
        raise ValueError(f"{name} needs an input composition")
    if t is None:
        t = chn.InputType.uniform(2 if isinstance(ch, chn.BiAwgn) else ch.input_size)
    return th, t


def bound_at_rate(name: str, ch, n: int, rate_nats: float | None,
                  t: chn.InputType | None = None, **options) -> BoundResult:
    """Error bound of the named table row at a rate (nats).

    options: delta (thm1/thm3 at that deviation, not the optimum), the
    row's parameter (delta of thm2p1/thm4p1, c of thm2p2/thm4p2: it sets
    the rate, and rate_nats may be None), exact_tail, k (closed forms at
    M = 2^k) and dt_variant.
    """
    th, t = _lookup(name, ch, t)
    if rate_nats is not None:
        CodeParams(n, rate_nats=rate_nats)  # every row's rate passes its check
    return th.at_rate(ch, t, n, rate_nats, **options)


def max_rate_at_eps(ch, n: int, eps: float, method: str,
                    t: chn.InputType | None = None) -> BoundResult:
    """Largest positive rate whose bound stays below eps, per table row.

    Also reports the square-root-law reference rate
    C - (sigma/sqrt(n)) Qinv(eps) of the row's information statistic in
    extras["second_order_rate"].
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    th, t = _lookup(method, ch, t)
    if th.at_eps is None:
        raise ValueError(f"{method} has no rate-at-eps inversion")
    res, cap, sigma2 = th.at_eps(ch, t, n, eps)
    if not res.rate_nats > 0:
        raise InfeasibleRateError(
            f"no positive rate meets {eps} at n={n} (best {res.rate_nats:.6g} nats)")
    res.extras.update(second_order_rate=cap - math.sqrt(sigma2 / n) * q_inv(eps),
                      eps=eps)
    return res
