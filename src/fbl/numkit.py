"""Shared numeric utilities: Gaussian tails, log-sum-exp, log-domain
combinatorics, monotone root finding, golden-section minimization, weighted
moments, quadrature rules and the counter-based random generator.

Everything here is a pure function of its arguments; all probability
work is done in the log domain so callers can chain results at block
lengths where raw probabilities underflow.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcinv, erfcx

_SQRT2 = math.sqrt(2.0)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SOLVE_XTOL = 1e-14
_SOLVE_MAX_ITER = 400
_MAX_DENOMINATOR = 10 ** 6
_STEP_RTOL = 1e-9
_MAX_MULTIPLIER = 10 ** 4


class BracketError(ValueError):
    """Target lies outside the bracket handed to solve_monotone."""


def q_func(x):
    """Upper Gaussian tail Q(x) = P{N(0,1) > x}.

    Implemented through the complementary error function; accurate to
    ~1e-15 relative over the range where the result is representable.
    Accepts scalars or arrays.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2) if np.ndim(x) else 0.5 * math.erfc(x / _SQRT2)


def log_q(x: float) -> float:
    """ln Q(x), stable in both deep tails.

    For x >= 0 uses the scaled complementary error function, so it stays
    finite far beyond the point where Q itself underflows.
    """
    if x < 0.0:
        # Q(x) = 1 - Q(-x); Q(-x) is tiny only for very negative x.
        return math.log1p(-q_func(-x)) if x > -37.0 else -math.exp(log_q(-x))
    return math.log(0.5 * erfcx(x / _SQRT2)) - 0.5 * x * x


def scaled_gauss_tail(a: float, s: float = 0.0) -> float:
    """exp(a^2/2) * Q(a + s) without overflow, for a >= 0, s >= 0."""
    z = (a + s) / _SQRT2
    return 0.5 * math.exp(-a * s - 0.5 * s * s) * erfcx(z)


def q_inv(eps: float) -> float:
    """Inverse of q_func on (0, 1).

    Seeds from erfcinv and applies one Newton polish step (falling back
    to the seed when the step would leave the feasible range), which
    keeps q_func(q_inv(eps)) = eps to ~1e-12 relative even for eps near
    the underflow edge.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"q_inv requires eps in (0,1), got {eps}")
    x = _SQRT2 * erfcinv(2.0 * eps)
    # Newton on log Q for symmetric accuracy at both ends.
    lf = log_q(x) - math.log(eps)
    dlog = -math.exp(-0.5 * x * x - LOG_SQRT_2PI - log_q(x))
    if dlog != 0.0 and math.isfinite(dlog):
        step = lf / dlog
        if abs(step) < 0.5:
            x = x - step
    return float(x)


def logsumexp(a) -> float:
    """ln sum exp(a) over a 1-D array, float for float scipy's logsumexp:
    log1p(sum of the others / m) + ln m + max, m the count of maximal
    entries. A non-finite maximum is returned as it is."""
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    if not math.isfinite(a_max):
        return float(a_max)
    at_max = a == a_max
    terms = np.exp(a - a_max)
    terms[at_max] = 0.0
    m = np.float64(np.count_nonzero(at_max))
    return float(np.log1p(terms.sum() / m) + np.log(m) + a_max)


def log_binom(n: int, w: int) -> float:
    """ln C(n, w); exact integer arithmetic for small n, log-gamma beyond."""
    if w < 0 or w > n:
        raise ValueError(f"log_binom needs 0 <= w <= n, got n={n}, w={w}")
    if n <= 60:
        return math.log(math.comb(n, w))
    return math.lgamma(n + 1) - math.lgamma(w + 1) - math.lgamma(n - w + 1)


def log_multinom(counts) -> float:
    """ln of the multinomial coefficient (sum counts)! / prod counts!."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("negative count in multinomial coefficient")
    n = sum(counts)
    if n <= 60:
        num = math.factorial(n)
        for c in counts:
            num //= math.factorial(c)
        return math.log(num)
    return math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)


def solve_monotone(f, target: float, lo: float, hi: float,
                   rtol: float = 1e-10) -> float:
    """Solve f(x) = target for nondecreasing f on [lo, hi] by bisection.

    Stops when |f(x) - target| <= rtol * max(1, |target|), when the
    bracket width drops below _SOLVE_XTOL (absolute, or relative for
    large x), or after _SOLVE_MAX_ITER steps.
    Raises BracketError when the target is not enclosed.
    """
    ftol = rtol * max(1.0, abs(target))
    flo, fhi = f(lo), f(hi)
    if flo > target + ftol or fhi < target - ftol:
        raise BracketError(
            f"target {target} outside [f(lo), f(hi)] = [{flo}, {fhi}]")
    for _ in range(_SOLVE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - target) <= ftol:
            return mid
        if fm < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _SOLVE_XTOL * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, grid, iters: int):
    """Minimize f: best point of a coarse grid, then golden section around it.

    The section runs on the bracket formed by the grid neighbours of the
    best grid point. The best point seen is kept with a strict <, so on
    ties (common for piecewise-constant objectives) the first best grid
    point wins, then the probes in the order checked: after each
    iteration the left probe before the right one. For iters >= 1 the
    result is the smallest value f returned. Maximize by minimizing -f,
    which is exact. Returns (x, f(x)).
    """
    vals = [f(x) for x in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = grid[i], vals[i]
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        for x, fx in ((x1, f1), (x2, f2)):
            if fx < best_f:
                best_x, best_f = x, fx
    return best_x, best_f


def central_moments(values, probs):
    """Mean, variance and E|X - mean|^3 of weighted atoms (probs sum to 1)."""
    mean = float(probs @ values)
    dev = values - mean
    var = float(probs @ dev ** 2)
    m3 = float(probs @ np.abs(dev) ** 3)
    return mean, var, m3


def philox_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, index).

    Each shard of a sampling loop gets its own key, so results do not
    depend on how shards are scheduled.
    """
    key = np.array([seed % (2 ** 64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@lru_cache(maxsize=128)
def _gl_panel(points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    return x, w


def composite_gauss_legendre(lo: float, hi: float, panel_width: float = 0.5,
                             points: int = 20):
    """Composite Gauss-Legendre nodes/weights on [lo, hi].

    Splits the interval into panels of at most panel_width and applies a
    fixed-order rule on each; machine precision for integrands that are
    smooth on the panel scale (e.g. Gaussians times exponentials).
    """
    if hi <= lo:
        raise ValueError("empty integration interval")
    x0, w0 = _gl_panel(points)
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def rationalize_step(diffs):
    """Common lattice step for a set of positive reals, or None.

    Uses continued-fraction rationalization of each ratio against the
    smallest difference (denominators up to _MAX_DENOMINATOR);
    succeeds when every input is an integer multiple of the returned step
    to within _STEP_RTOL relative. Steps that would give any input a
    multiplier above _MAX_MULTIPLIER are rejected: a
    genuine lattice has small multipliers, while irrational ratios can
    always be faked with astronomically fine steps.
    """
    diffs = [float(d) for d in diffs if d > 0.0]
    if not diffs:
        return None
    base = min(diffs)
    denom_lcm = 1
    for d in diffs:
        r = d / base
        frac = Fraction(r).limit_denominator(_MAX_DENOMINATOR)
        if frac.numerator == 0 or abs(r - float(frac)) > _STEP_RTOL * r:
            return None
        denom_lcm = denom_lcm * frac.denominator // math.gcd(denom_lcm, frac.denominator)
        if denom_lcm > _MAX_DENOMINATOR:
            return None
    step = base / denom_lcm
    for d in diffs:
        k = round(d / step)
        if k == 0 or k > _MAX_MULTIPLIER or abs(k * step - d) > _STEP_RTOL * max(step, d):
            return None
    return step
