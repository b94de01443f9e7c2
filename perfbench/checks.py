"""Correctness checks on the CSV a workload prints.

The references here are computed independently of the program (scipy
and numpy only, never `fbl`), and each check holds for any correct
implementation, so a faster program cannot pass by being wrong and a
correct speed-up cannot fail:

* every run: exit 0, the exact header, the expected rows, and a finite
  error_ub in [0, 1];
* bsc-curve: error_ub <= eps on every bound row, and each thm1 row
  equals sum_w C(n,w) min(p^w q^(n-w), 2^-n M) at its reported rate.
  The ee row is the exponent reference exp(-n E_r(R)), not a bound; the
  program solves E_r(R) = -ln(eps)/n to |E - target| <= 1e-10, so an ee
  row may exceed eps by the factor exp(n 1e-10) and is held to that;
* lattice-curve: each zform row equals the Z-channel binomial sum; each
  thm3 row is no greater than tail + union at its reported delta (a
  tighter bound passes); error_ub never decreases as the rate grows;
* tilt-curve: error_ub never decreases as the rate grows, and each
  thm1 row lies between tail + union at its reported delta with the
  tail taken two ways from an independent quadrature of the BiAWGN
  information density: no less than 0.95 times the Lugannani-Rice
  approximation of the tail (relative error O(1/n), far below 5% at
  n = 1000; a tail bound cannot be below the tail), and no greater
  than the Chernoff bound (the program's tail bound is capped by it);
* sim: the lower Wilson limit is no greater than the tail + union bound
  of the same decoder at the same (n, k, delta), and the empirical rate
  lies inside its interval.

Printed values carry 12 significant digits, so a check that recomputes
a value from a printed rate or delta widens its relative tolerance by
the rounding that the exponent n*rate (or n*delta) can amplify.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, log_ndtr
from scipy.stats import binom

LN2 = math.log(2.0)
HEADER = ("n,rate_bits,rate_nats,error_ub,ci_low,ci_high,theorem,delta,"
          "lambda_or_c,tail_kind")
REL_TOL = 1e-9
PRINT_REL = 1e-11   # twice the .12g rounding, per unit of amplifying exponent
FLOAT_SLACK = 1e-10   # lattice steps
EPS = 1e-3
EE_SOLVE_TOL = 1e-10
LR_SLACK = 0.05


class Report:
    """Rows attempted and the reasons rows failed."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failures = {}   # row index (or -1 for the whole run) -> reason

    def fail(self, index: int, reason: str):
        self.failures.setdefault(index, reason)

    @property
    def failed(self) -> int:
        if -1 in self.failures:
            return self.attempted
        return len(self.failures)


def _float(text: str):
    return float(text) if text != "" else None


def parse(text: str):
    """(header line, list of row dicts) from CSV text."""
    lines = text.rstrip("\n").split("\n") if text else []
    if not lines:
        return "", []
    names = lines[0].split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
    return lines[0], rows


def _log_binom(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _logsumexp(x):
    x = np.asarray(x, dtype=float)
    top = float(np.max(x))
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.sum(np.exp(x - top))))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _boundary_slack(n: int, delta: float, step: float) -> float:
    """Lattice steps within which an atom counts as on the threshold.

    The threshold is taken at face value: only the 12-digit rounding of
    the printed delta (and float noise here) moves it. Atoms that close
    count toward the larger tail, so the reference is never tighter
    than tail + union at the program's unrounded delta.
    """
    return n * abs(delta) * PRINT_REL / step + FLOAT_SLACK


# -- independent references -------------------------------------------------

def bsc_min_form(p: float, n: int, log_m: float) -> float:
    """sum_w C(n,w) min(p^w (1-p)^(n-w), 2^-n M), clamped to 1."""
    w = np.arange(n + 1)
    log_like = w * math.log(p) + (n - w) * math.log1p(-p)
    terms = _log_binom(n, w) + np.minimum(log_like, log_m - n * LN2)
    return min(1.0, math.exp(_logsumexp(terms)))


def zchannel_form(p: float, n: int, m: int, log_m: float) -> float:
    """Z-channel closed form: m flippable inputs, (M-1) competitors."""
    log_m1 = math.log(math.expm1(log_m)) if log_m < 36.0 else log_m
    i = np.arange(m + 1)
    log_flip = _log_binom(m, i) + (m - i) * math.log1p(-p) + i * math.log(p)
    log_collide = np.minimum(0.0, log_m1 + _log_binom(n - m + i, i)
                             - _log_binom(n, m))
    return min(1.0, math.exp(_logsumexp(log_flip + log_collide)))


def zchannel_thm3(p: float, n: int, rate_nats: float, delta: float) -> float:
    """Fixed-composition tail + union at delta, Z channel, t = (1/2, 1/2).

    The x=1 half is noiseless; on the x=0 half each flip moves the
    relative-entropy sum down by ln2 - ln(2p/(1+p)), so the tail is a
    binomial upper tail in the number of flips.
    """
    m0 = m1 = n // 2
    q1 = 0.5 * (1.0 + p)
    a0, a1, c1 = LN2, math.log(p / q1), -math.log(q1)
    mi = 0.5 * ((1.0 - p) * a0 + p * a1) + 0.5 * c1
    threshold = n * (mi - delta)
    kappa = (m1 * c1 + m0 * a0 - threshold) / (a0 - a1)
    k_min = math.ceil(kappa - _boundary_slack(n, delta, a0 - a1))
    tail = float(binom.sf(k_min - 1, m0, p))
    correction = n * LN2 - float(_log_binom(n, m0))
    log_union = -n * (mi - delta - rate_nats) + correction
    union = math.exp(log_union) if log_union < 700 else math.inf
    return min(1.0, tail + union)


def bsc_threshold_bound(p: float, n: int, k: int, delta: float) -> float:
    """Tail + union bound of the BSC threshold decoder at delta.

    The decoder keeps the words within Hamming distance kappa of the
    output; the tail is P{W > kappa}, W ~ Bin(n, p), and the union term
    counts the kept words exactly: 2^(k-n) |{z : wt(z) <= kappa}|. (The
    Chernoff union term of thm1 exceeds 1 at the simulator's n, which
    would leave nothing to check.) No puncturing factor: the BSC is
    symmetric.
    """
    h = -(1.0 - p) * math.log1p(-p) - p * math.log(p)
    step = math.log((1.0 - p) / p)
    kappa = (n * (h + delta) + n * math.log1p(-p)) / step
    slack = _boundary_slack(n, delta, step)
    tail = float(binom.sf(math.ceil(kappa - slack) - 1, n, p))
    w = np.arange(math.floor(kappa + slack) + 1)
    union = math.exp((k - n) * LN2 + _logsumexp(_log_binom(n, w)))
    return min(1.0, tail + union)


class BiawgnDensity:
    """Cumulants of i = -ln p(X|Y) = softplus(-2aY), Y ~ N(a, 1), X uniform.

    The snr is in dB, a = sqrt(snr). Expectations are trapezoid sums on
    a fixed grid wide enough for tilts up to LAM_MAX; the integrands are
    smooth and Gaussian-tailed, so the sums converge geometrically.
    """

    LAM_MAX = 8.0

    def __init__(self, snr_db: float, step: float = 1e-3):
        a = math.sqrt(10.0 ** (snr_db / 10.0))
        y = np.arange(a - 2.0 * a * self.LAM_MAX - 14.0, a + 14.0, step)
        self.i = np.logaddexp(0.0, -2.0 * a * y)
        self.log_w = -0.5 * (y - a) ** 2 + math.log(step / math.sqrt(2.0 * math.pi))
        self.h = self.moments(0.0)[1]

    def moments(self, lam: float):
        """(K(lam), K'(lam), K''(lam)) of the log-mgf K of i."""
        x = self.log_w + lam * self.i
        log_k = _logsumexp(x)
        p = np.exp(x - log_k)
        mean = float(p @ self.i)
        return log_k, mean, float(p @ (self.i - mean) ** 2)

    def tail(self, n: int, delta: float):
        """(Lugannani-Rice approximation, Chernoff bound) of P{sum i > n(h+delta)}.

        The approximation is 0, a trivial lower value, where w < 1: near
        the mean its two last terms cancel.
        """
        x = self.h + delta
        lam = brentq(lambda t: self.moments(t)[1] - x, 0.0, self.LAM_MAX,
                     xtol=1e-14, rtol=1e-14)
        log_k, _, var = self.moments(lam)
        exponent = max(0.0, n * (lam * x - log_k))
        w, u = math.sqrt(2.0 * exponent), lam * math.sqrt(n * var)
        if w < 1.0:
            return 0.0, math.exp(-exponent)
        log_phi = -0.5 * w * w - 0.5 * math.log(2.0 * math.pi)
        mills = math.exp(float(log_ndtr(-w)) - log_phi)
        lr = math.exp(log_phi) * (mills + 1.0 / u - 1.0 / w)
        return lr, math.exp(-exponent)


# -- the checks ---------------------------------------------------------------

def check(workload, exit_code: int, text: str) -> Report:
    """Check one invocation's CSV against the workload's expectations."""
    rep = Report(len(workload.expected))
    if exit_code != 0:
        rep.fail(-1, f"exit code {exit_code}")
        return rep
    header, rows = parse(text)
    if header != HEADER:
        rep.fail(-1, f"header {header!r}")
        return rep
    vals = []
    for i, want in enumerate(workload.expected):
        if i >= len(rows):
            rep.fail(i, "row missing")
            vals.append(None)
            continue
        row = rows[i]
        try:
            v = {k: _float(row[k]) for k in ("n", "rate_bits", "rate_nats",
                                            "error_ub", "ci_low", "ci_high",
                                            "delta", "lambda_or_c")}
        except (KeyError, ValueError) as exc:
            rep.fail(i, f"unparsable row: {exc}")
            vals.append(None)
            continue
        theorem, n, rate_bits = want
        v["theorem"] = row.get("theorem")
        if v["theorem"] != theorem or v["n"] != n or (
                rate_bits is not None and (v["rate_bits"] is None or not _close(
                    v["rate_bits"], rate_bits, REL_TOL))):
            rep.fail(i, f"row {row} is not {want}")
            v = None
        elif v["error_ub"] is None or not 0.0 <= v["error_ub"] <= 1.0:
            rep.fail(i, f"error_ub {v['error_ub']} not a probability")
            v = None
        vals.append(v)
    if len(rows) > len(workload.expected):
        rep.fail(-1, f"{len(rows)} rows, expected {len(workload.expected)}")
    _SPECIFIC[workload.name](workload, vals, rep)
    return rep


def _check_bsc_curve(w, vals, rep):
    p = w.param
    for i, v in enumerate(vals):
        if v is None:
            continue
        n = int(v["n"])
        limit = EPS * math.exp(n * EE_SOLVE_TOL) if v["theorem"] == "ee" else EPS
        if v["error_ub"] > limit:
            rep.fail(i, f"error_ub {v['error_ub']} above eps")
        if v["theorem"] == "thm1":
            rate = v["rate_nats"]
            want = bsc_min_form(p, n, n * rate)
            if not _close(v["error_ub"], want, REL_TOL + n * rate * PRINT_REL):
                rep.fail(i, f"thm1 {v['error_ub']} != binomial sum {want}")


def _check_lattice_curve(w, vals, rep):
    p = w.param
    for i, (v, want) in enumerate(zip(vals, w.expected)):
        if v is None:
            continue
        theorem, n, rate_bits = want
        rate = rate_bits * LN2
        err = v["error_ub"]
        if theorem == "zform":
            ref = zchannel_form(p, n, n // 2, n * rate)
            if not _close(err, ref, REL_TOL):
                rep.fail(i, f"zform {err} != binomial sum {ref}")
        elif v["delta"] is None:
            rep.fail(i, "thm3 row has no delta")
        else:
            delta = v["delta"]
            ref = zchannel_thm3(p, n, rate, delta)
            if err > ref * (1.0 + REL_TOL + n * abs(delta) * PRINT_REL):
                rep.fail(i, f"thm3 {err} above tail+union {ref} at its delta")
    _check_nondecreasing(w, vals, rep)


def _check_nondecreasing(w, vals, rep):
    """Per theorem, error_ub must not decrease as the rate grows."""
    last = {}
    for i, (v, want) in enumerate(zip(vals, w.expected)):
        if v is None:
            continue
        theorem, err = want[0], v["error_ub"]
        if theorem in last and err < last[theorem] * (1.0 - REL_TOL):
            rep.fail(i, f"{theorem} error_ub decreased as the rate grew")
        last[theorem] = err


def _check_tilt_curve(w, vals, rep):
    density = BiawgnDensity(w.param)
    cap = LN2 - density.h
    for i, (v, want) in enumerate(zip(vals, w.expected)):
        if v is None or want[0] != "thm1":
            continue
        n, rate, delta = want[1], want[2] * LN2, v["delta"]
        if delta is None or not delta > 0:
            rep.fail(i, f"thm1 row has delta {delta}")
            continue
        try:
            lr, chernoff = density.tail(n, delta)
        except ValueError:
            rep.fail(i, f"no tail reference at thm1's delta {delta}")
            continue
        union = math.exp(min(700.0, -n * (cap - delta - rate)))
        lo, hi = min(1.0, lr + union), min(1.0, chernoff + union)
        tol = REL_TOL + n * (delta + rate) * PRINT_REL
        if v["error_ub"] < (1.0 - LR_SLACK) * lo:
            rep.fail(i, f"thm1 {v['error_ub']} below tail+union {lo} at its delta")
        elif v["error_ub"] > hi * (1.0 + tol):
            rep.fail(i, f"thm1 {v['error_ub']} above Chernoff+union {hi} at its delta")
    _check_nondecreasing(w, vals, rep)


def _check_sim(w, vals, rep):
    v = vals[0]
    if v is None:
        return
    lo, hi, pe = v["ci_low"], v["ci_high"], v["error_ub"]
    if lo is None or hi is None or v["delta"] is None or not lo <= pe <= hi:
        rep.fail(0, f"empirical rate {pe} outside its interval [{lo}, {hi}]")
        return
    n = int(v["n"])
    k = round(v["rate_bits"] * n)
    bound = bsc_threshold_bound(w.param, n, k, v["delta"])
    if lo > bound:
        rep.fail(0, f"Wilson lower limit {lo} above the tail+union bound {bound}")


_SPECIFIC = {
    "bsc-curve": _check_bsc_curve,
    "lattice-curve": _check_lattice_curve,
    "tilt-curve": _check_tilt_curve,
    "sim": _check_sim,
}
