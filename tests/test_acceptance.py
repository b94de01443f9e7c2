"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to
see them all). Every tolerance is fixed here, not configurable.

Criterion 9(a) compares the optimized tail+union bound with the
error-exponent baseline on BSC(0.11) at target error 1e-3. Theory gives
tail+union the higher rate only past a crossover: its gap to capacity
is sigma Qinv(eps)/sqrt(n) + O(log n / n), the exponent's is
sigma sqrt(2 ln(1/eps))/sqrt(n) + O(1/n). Here the crossover lies
between n=250 and n=300, so the exponent is ahead at n=200. The check
asserts a single crossover, tail+union ahead at every grid n >= 400,
both rows meeting the target, and both certified rates matching
references computed in the test. The suite is expected to be green.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom, chi2

import closed_forms
from fbl import achievability as ach
from fbl import channel as chn
from fbl import montecarlo as mc
from fbl import nep, tail
from fbl.numkit import philox_rng, q_inv

LN2 = math.log(2.0)
UNIF = chn.InputType.uniform(2)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}".rstrip())
    return ok


def test_criterion_1_bsc_closed_form_equivalence():
    ok = True
    detail = []
    for n in (200, 1000, 3000):
        k = n // 2
        res = ach.thm1_optimized(chn.bsc(0.11), ach.CodeParams(n, k=k))
        direct = closed_forms.bsc_closed_form(0.11, n, 2 ** k)
        rel = abs(res.error_ub - direct) / direct
        ok &= rel <= 1e-12
        detail.append(f"n={n} rel={rel:.2e}")
        m = 2 ** k
        dt = closed_forms.bsc_closed_form(0.11, n, m, dt_variant=True)
        half = closed_forms.bsc_closed_form(0.11, n, Fraction(m - 1, 2))
        ok &= dt == half
    assert report(1, ok, "; ".join(detail))


def test_criterion_2_bec_closed_form_equivalence():
    ok = True
    detail = []
    for n in (200, 1000, 3000):
        k = n // 2
        res = ach.thm1_optimized(chn.bec(0.5), ach.CodeParams(n, k=k))
        direct = closed_forms.bec_closed_form(0.5, n, 2 ** k)
        rel = abs(res.error_ub - direct) / direct
        ok &= rel <= 1e-12
        detail.append(f"n={n} rel={rel:.2e}")
        # variant flag: (M-1)/2 constant with the sum started at zero
        m = 2 ** k
        dt = closed_forms.bec_closed_form(0.5, n, m, dt_variant=True)
        log_m = math.log(m - 1) - LN2
        t = np.arange(0, n + 1)
        from scipy.special import gammaln, logsumexp
        log_c = gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)
        log_like = t * math.log(0.5) + (n - t) * math.log(0.5)
        expo = -LN2 * np.maximum(n - t - log_m / LN2, 0.0)
        oracle = min(1.0, float(np.exp(logsumexp(log_c + log_like + expo))))
        ok &= abs(dt - oracle) <= 1e-15
    assert report(2, ok, "; ".join(detail))


def test_criterion_3_above_capacity_anchor():
    ch = chn.bsc(0.12)
    cap = chn.linear_capacity(ch)
    res = ach.bound_at_rate("thm2p2", ch, 1000, 1.0021 * cap)
    ok = 0.60 <= res.error_ub <= 0.70 and res.tail_kind == "exact"
    assert report(3, ok, f"error_ub={res.error_ub:.4f} (target [0.60, 0.70])")


def test_criterion_4_sandwich_validity():
    violations = 0
    checked = clt_checked = 0
    for ch in (chn.bsc(0.11), chn.bec(0.5)):
        fam = nep.cond_entropy_family(ch)
        sigma = math.sqrt(fam.sigma2)
        for n in (200, 500, 1000):
            for j in range(1, 21):
                d = 0.15 * j / 20
                exact = tail.pdelta(ch, d, n).value
                sb = nep.tail_bounds(fam, d, n)
                if not sb.flags["degenerate_lower"]:
                    checked += 1
                    if not sb.lower <= exact <= sb.upper:
                        violations += 1
                if d <= 0.5 * sigma * math.sqrt(math.log(n) / n):
                    clt = nep.tail_clt(fam, d, n)
                    clt_checked += 1
                    if not clt.lower <= exact <= clt.upper:
                        violations += 1
    ok = violations == 0 and checked == 120 and clt_checked > 0
    assert report(4, ok, f"{checked} sandwich + {clt_checked} clt points, "
                         f"{violations} violations")


def test_criterion_5_quadratic_rate_law():
    ok = True
    detail = []
    families = [
        ("bsc-cond", nep.cond_entropy_family(chn.bsc(0.11))),
        ("bsc-rel", nep.rel_entropy_family(chn.bsc(0.11), UNIF)),
        ("z-cond", nep.cond_entropy_family(chn.zchannel(0.5))),
        ("z-rel", nep.rel_entropy_family(chn.zchannel(0.5), UNIF)),
    ]
    for name, fam in families:
        sigma = math.sqrt(fam.sigma2)
        errs = []
        for d in (sigma / 50, sigma / 100, sigma / 200):
            r = nep.rate_function(fam, d).rate_value
            errs.append(abs(r * 2 * fam.sigma2 / d ** 2 - 1.0))
        ok &= errs[0] <= 0.1
        ok &= errs[0] > errs[1] > errs[2]
        detail.append(f"{name}:{errs[0]:.2e}>{errs[1]:.2e}>{errs[2]:.2e}")
    assert report(5, ok, "; ".join(detail))


def test_criterion_6_parametric_slope_identity():
    h = 1e-5
    worst = 0.0
    for ch in (chn.bsc(0.11), chn.bec(0.5)):
        fam = nep.cond_entropy_family(ch)
        for j in range(1, 21):
            d = 0.15 * j / 20
            rp = nep.rate_function(fam, d)
            fd = (nep.rate_function(fam, d + h).rate_value
                  - nep.rate_function(fam, d - h).rate_value) / (2 * h)
            worst = max(worst, abs(fd - rp.slope_lambda))
    ok = worst <= 1e-5
    assert report(6, ok, f"max |fd - lambda| = {worst:.2e}")


def test_criterion_7_simulation_soundness():
    trials = 100000
    ok = True
    detail = []

    ch = chn.bsc(0.11)
    opt = ach.thm1_optimized(ch, ach.CodeParams(16, k=4))
    rep = mc.simulate_pe(ch, mc.GallagerSpec(16, 4), opt.delta, trials, seed=11)
    se = math.sqrt(max(rep.empirical_pe * (1 - rep.empirical_pe), 1e-12) / trials)
    ok &= rep.empirical_pe <= opt.error_ub + 3 * se
    detail.append(f"bsc {rep.empirical_pe:.4f}<={opt.error_ub:.4f}")

    ch = chn.bec(0.5)
    opt = ach.thm1_optimized(ch, ach.CodeParams(16, k=6))
    rep = mc.simulate_pe(ch, mc.GallagerSpec(16, 6), opt.delta, trials, seed=12)
    se = math.sqrt(max(rep.empirical_pe * (1 - rep.empirical_pe), 1e-12) / trials)
    ok &= rep.empirical_pe <= opt.error_ub + 3 * se
    detail.append(f"bec {rep.empirical_pe:.4f}<={opt.error_ub:.4f}")

    ch = chn.zchannel(0.5)
    bound = ach.zchannel_closed_form(0.5, UNIF, 8, M=4)
    mi = chn.mutual_info(ch, UNIF)
    delta = mi - 0.5 * (math.log(2 / 3) + math.log(4 / 3)) + 0.05
    rep = mc.simulate_pe(ch, mc.FixedTypeSpec(8, 2, UNIF), delta, trials, seed=13)
    se = math.sqrt(max(rep.empirical_pe * (1 - rep.empirical_pe), 1e-12) / trials)
    ok &= rep.empirical_pe <= bound + 3 * se
    detail.append(f"z {rep.empirical_pe:.4f}<={bound:.4f}")

    # codeword-law uniformity over the nonzero words, 0.1% significance
    # (transmitted codewords drawn as simulate_pe draws them)
    counts = np.zeros(256, dtype=np.int64)
    for shard, start in enumerate(range(0, trials, mc._SHARD)):
        m = min(mc._SHARD, trials - start)
        (basis, free), sent, _ = mc._draw_shard(chn.bsc(0.11), mc.GallagerSpec(8, 4), m,
                                                philox_rng(99, shard))
        for idx, words in mc._nullspaces(basis, free):
            np.add.at(counts, words[np.arange(idx.size), sent[idx]], 1)
    expect = trials / 255.0
    stat = float(((counts[1:] - expect) ** 2 / expect).sum())
    crit = float(chi2.isf(0.001, 254))
    ok &= counts[0] == 0 and stat < crit
    detail.append(f"chi2 {stat:.1f}<{crit:.1f}")
    assert report(7, ok, "; ".join(detail))


def test_criterion_8_zchannel_dominance():
    worst = -math.inf
    points = 0
    for p in (0.5, 0.9):
        ch = chn.zchannel(p)
        mi = chn.mutual_info(ch, UNIF)
        for n in (100, 500, 1000):
            for frac in np.linspace(0.1, 0.95, 10):
                rate = frac * mi
                zf = ach.zchannel_closed_form(p, UNIF, n, math.exp(n * rate))
                t3 = ach.thm3_optimized(
                    ch, ach.CodeParams(n, rate_nats=rate, t=UNIF))
                worst = max(worst, zf - t3.error_ub)
                points += 1
    ok = worst <= 1e-12 and points == 60
    assert report(8, ok, f"{points} points, max(closed - generic) = {worst:.2e}")


def test_criterion_9_ordering_reproduction():
    # (a) optimized tail+union vs exponent baseline, eps = 1e-3. Both
    # certified rates must match in-test references and meet eps, and the
    # lead may change hands once, from the exponent to tail+union, which
    # must be ahead from n=400 on (the crossover lies between 250 and 300).
    ch = chn.bsc(0.11)
    eps = 1e-3
    rho = np.linspace(0.0, 1.0, 100001)[1:]
    s = 1.0 / (1.0 + rho)
    e0 = rho * LN2 - (1.0 + rho) * np.log(0.11 ** s + 0.89 ** s)
    grid = range(200, 3001, 200)
    leads, ee_ahead, problems = [], [], []
    for n in grid:
        # thm1 reference: bisect sum_w min{P_p(w), M P_1/2(w)} = eps in R
        w = np.arange(n + 1)
        log_pw, log_uw = binom.logpmf(w, n, 0.11), binom.logpmf(w, n, 0.5)
        lo, hi = 0.0, LN2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if math.exp(logsumexp(np.minimum(log_pw, log_uw + n * mid))) <= eps:
                lo = mid
            else:
                hi = mid
        ref_1 = lo
        # ee reference: max_rho [E0(rho) - rho R] >= -ln(eps)/n exactly
        # when R <= (E0(rho) + ln(eps)/n) / rho for some rho
        ref_e = float(np.max((e0 + math.log(eps) / n) / rho))
        r1 = ach.max_rate_at_eps(ch, n, eps, "thm1")
        re = ach.max_rate_at_eps(ch, n, eps, "ee")
        for name, res, ref in (("thm1", r1, ref_1), ("ee", re, ref_e)):
            if abs(res.rate_nats - ref) > 1e-8:
                problems.append(f"n={n} {name} rate {res.rate_nats:.10f} "
                                f"!= reference {ref:.10f}")
            if res.error_ub > eps:
                problems.append(f"n={n} {name} error_ub {res.error_ub:.10e} > eps")
        leads.append(r1.rate_nats > re.rate_nats)
        if not leads[-1]:
            ee_ahead.append(f"n={n} (thm1 {r1.rate_nats:.6f} <= "
                            f"ee {re.rate_nats:.6f} nats)")
    ok_a = (not problems and leads == sorted(leads)
            and all(lead for n, lead in zip(grid, leads) if n >= 400))
    # (b) tilted form beats the central-limit form below 0.9 capacity
    awgn = chn.BiAwgn(1.0)
    cap = chn.linear_capacity(awgn)
    ok_b = True
    for frac in np.linspace(0.3, 0.9, 10):
        rate = frac * cap
        e1 = ach.bound_at_rate("thm2p1", awgn, 1000, rate).error_ub
        e2 = ach.bound_at_rate("thm2p2", awgn, 1000, rate, exact_tail=False).error_ub
        if e1 >= e2:
            ok_b = False
    for eps in (0.05, 0.07):
        r1 = ach.max_rate_at_eps(awgn, 1000, eps, "thm2p1")
        r2 = ach.max_rate_at_eps(awgn, 1000, eps, "thm2p2")
        if max(r1.rate_nats, r2.rate_nats) < 0.9 * cap:
            ok_b &= r1.rate_nats > r2.rate_nats
    detail = (f"exponent ahead at {', '.join(ee_ahead) or 'no n'}; "
              f"{'; '.join(problems) or 'rates match references, all meet eps'}; "
              f"tilted-vs-clt ordering ok={ok_b}")
    assert report(9, ok_a and ok_b, detail)


def test_criterion_10_second_order_scaling():
    ch = chn.bsc(0.11)
    sigma = math.sqrt(nep.cond_entropy_family(ch).sigma2)
    cap = chn.linear_capacity(ch)
    scale = sigma * q_inv(1e-3)
    ok = True
    detail = []
    for n in (1000, 2000, 4000):
        res = ach.max_rate_at_eps(ch, n, 1e-3, "thm1")
        ratio = (cap - res.rate_nats) * math.sqrt(n) / scale
        ok &= 0.8 <= ratio <= 1.5
        detail.append(f"n={n}: {ratio:.3f}")
    assert report(10, ok, "; ".join(detail))


def test_criterion_11_deterministic_csv():
    commands = [
        ["compare", "--channel", "bsc:0.11", "--eps", "1e-3",
         "--n", "200:600:200", "--bounds", "thm1,ee"],
        ["simulate", "--channel", "bsc:0.11", "--ensemble", "gallager",
         "--n", "12", "--k", "3", "--trials", "5000", "--seed", "3"],
    ]
    outs = []
    for _ in range(2):
        for argv in commands:
            run = subprocess.run([sys.executable, "-m", "fbl.cli", *argv],
                                 capture_output=True, text=True)
            assert run.returncode == 0
            outs.append(run.stdout)
    half = len(commands)
    ok = outs[:half] == outs[half:] and all(outs)
    assert report(11, ok, f"{sum(map(len, outs[:half]))} bytes, identical across runs")
