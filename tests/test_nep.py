import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import binom

from fbl import channel as chn
from fbl import nep
from fbl.numkit import solve_monotone

UNIF = chn.InputType.uniform(2)


def bsc_family():
    return nep.cond_entropy_family(chn.bsc(0.11))


def z_rel_family():
    return nep.rel_entropy_family(chn.zchannel(0.5), UNIF)


def bsc_exact_tail(p, n, delta):
    """Binomial oracle for the conditional-entropy deviation probability."""
    ratio = math.log((1 - p) / p)
    return float(binom.sf(math.floor(n * (p + delta / ratio)), n, p))


class TestTiltedStats:
    def test_zero_tilt_matches_base_moments(self):
        fam = bsc_family()
        st = fam.tilted_stats(0.0)
        _, var, m3 = chn.statistic_moments(chn.statistic(chn.bsc(0.11)))
        assert st.delta == pytest.approx(0.0, abs=1e-12)
        assert st.sigma2 == pytest.approx(var, rel=1e-12)
        assert st.m3 == pytest.approx(m3, rel=1e-12)
        assert st.log_mgf == pytest.approx(0.0, abs=1e-12)

    def test_deviation_slope_at_zero_is_variance(self):
        fam = bsc_family()
        h = 1e-6
        slope = fam.tilted_stats(h).delta / h
        assert slope == pytest.approx(fam.sigma2, rel=1e-4)

    def test_deviation_strictly_increasing(self):
        fam = bsc_family()
        lam = np.linspace(0.0, 3.0, 40)
        deltas = [fam.tilted_stats(l).delta for l in lam]
        assert np.all(np.diff(deltas) > 0)

    def test_rel_family_against_brute_force(self):
        # tilt the three Z-channel transitions by hand at lambda = 0.5
        fam = z_rel_family()
        lam = 0.5
        p = 0.5
        q0, q1 = 0.25, 0.75
        u0 = np.array([math.log((1 - p) / q0), math.log(p / q1)])
        w0 = np.array([1 - p, p]) * np.exp(-lam * u0)
        z0 = w0.sum()
        w0 /= z0
        mean0 = float(w0 @ u0)
        var0 = float(w0 @ (u0 - mean0) ** 2)
        m30 = float(w0 @ np.abs(u0 - mean0) ** 3)
        u1 = math.log(1.0 / q1)
        z1 = math.exp(-lam * u1)
        mi = chn.mutual_info(chn.zchannel(p), UNIF)
        st = fam.tilted_stats(lam)
        assert st.log_mgf == pytest.approx(0.5 * math.log(z0) + 0.5 * math.log(z1),
                                           rel=1e-12)
        assert st.delta == pytest.approx(mi - 0.5 * (mean0 + u1), rel=1e-12)
        assert st.sigma2 == pytest.approx(0.5 * var0, rel=1e-12)
        assert st.m3 == pytest.approx(0.5 * m30, rel=1e-12)

    def test_negative_tilt_rejected(self):
        with pytest.raises(nep.TiltRangeError):
            bsc_family().tilted_stats(-0.1)

    def test_degenerate_family_rejected(self):
        with pytest.raises(chn.DegenerateChannelError):
            nep.cond_entropy_family(chn.bsc(0.5))

    def test_biawgn_zero_tilt(self):
        fam = nep.cond_entropy_family(chn.BiAwgn(1.0))
        st = fam.tilted_stats(0.0)
        assert st.delta == pytest.approx(0.0, abs=1e-9)
        assert st.sigma2 == pytest.approx(fam.sigma2, rel=1e-9)


class TestRateFunction:
    def test_quadratic_behaviour_near_zero(self):
        for fam in (bsc_family(), z_rel_family()):
            sigma = math.sqrt(fam.sigma2)
            d = sigma / 100
            rp = nep.rate_function(fam, d)
            assert rp.rate_value * 2 * fam.sigma2 / d ** 2 == pytest.approx(
                1.0, abs=0.05)

    def test_against_dense_grid_legendre_oracle(self):
        fam = bsc_family()
        delta = 0.05
        # direct sup over a dense tilt grid of the same objective
        lam_grid = np.linspace(0.0, 2.0, 200001)
        [letter] = chn.statistic(chn.bsc(0.11))
        v, logp = letter.values, np.log(letter.probs)
        h = fam.center
        vals = lam_grid * (h + delta) - np.array(
            [np.logaddexp.reduce(logp + l * v) for l in lam_grid])
        oracle = float(vals.max())
        rp = nep.rate_function(fam, delta)
        assert rp.rate_value == pytest.approx(oracle, abs=1e-9)

    def test_slope_is_finite_difference_derivative(self):
        h = 1e-5
        for fam in (bsc_family(), z_rel_family()):
            for delta in (0.02, 0.05, 0.1):
                rp = nep.rate_function(fam, delta)
                fd = (nep.rate_function(fam, delta + h).rate_value
                      - nep.rate_function(fam, delta - h).rate_value) / (2 * h)
                assert abs(fd - rp.slope_lambda) <= 1e-5

    def test_parametric_consistency(self):
        fam = bsc_family()
        for lam in (0.05, 0.3, 1.0):
            st = fam.tilted_stats(lam)
            rp = nep.rate_function(fam, st.delta)
            assert rp.slope_lambda == pytest.approx(lam, abs=1e-8)

    def test_convexity_on_grid(self):
        fam = bsc_family()
        grid = np.linspace(0.01, 0.5, 60)
        r = np.array([nep.rate_function(fam, d).rate_value for d in grid])
        assert np.all(np.diff(r, 2) >= -1e-10)

    def test_range_errors(self):
        fam = bsc_family()
        with pytest.raises(nep.TiltRangeError):
            nep.rate_function(fam, -0.1)
        err = None
        try:
            nep.rate_function(fam, fam.delta_star() + 0.1)
        except nep.TiltRangeError as exc:
            err = exc
        assert err is not None and err.delta_star == pytest.approx(
            fam.delta_star())

    def test_delta_star_values(self):
        fam = bsc_family()
        # largest single-letter surprisal minus the mean
        expect = -math.log(0.11) - chn.cond_entropy(chn.bsc(0.11))
        assert fam.delta_star() == pytest.approx(expect, rel=1e-12)
        famz = z_rel_family()
        mi = chn.mutual_info(chn.zchannel(0.5), UNIF)
        expect = mi - 0.5 * (math.log(2 / 3) + math.log(4 / 3))
        assert famz.delta_star() == pytest.approx(expect, rel=1e-12)


def newton_cases():
    """Fresh families with the top of their deviation grids: seeded random
    2x2 to 3x4 channels in both families, then BiAWGN at -1, 0 and 1 dB.

    The stop rule fixes lambda only to 1e-12 max(1, delta) / sigma2(lambda),
    so channels whose statistic has a variance below 1e-3 (rows nearly
    equal) are redrawn. The BiAWGN deviation has no ceiling; its grid stops
    at the deviation of tilt 16 (49-78 nats), beyond which lambda delta,
    of order 1e3 there, is no longer resolved to 1e-12 in a double.
    """
    rng = np.random.default_rng(2026)
    for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)) * 3:
        ch = chn.DiscreteChannel(rng.dirichlet(np.ones(cols), size=rows))
        fams = [nep.TiltFamily("rel_entropy", ch, chn.InputType.uniform(rows))]
        if rows == 2:
            fams.append(nep.TiltFamily("cond_entropy", ch))
        yield from ((f, f.delta_star()) for f in fams if f.sigma2 >= 1e-3)
    for snr_db in (-1, 0, 1):
        ch = chn.BiAwgn(10 ** (snr_db / 10))
        for fam in (nep.TiltFamily("cond_entropy", ch), nep.TiltFamily("rel_entropy", ch, UNIF)):
            yield fam, fam.tilted_stats(16.0).delta


class TestNewtonSolve:
    def test_meets_stop_rule_and_matches_bisection(self):
        evals = []
        for fam, top in newton_cases():
            stats_at = fam.tilted_stats
            calls = [0]

            def counted(lam, stats_at=stats_at, calls=calls):
                calls[0] += 1
                return stats_at(lam)
            fam.tilted_stats = counted
            for delta in np.linspace(0.0, 0.98 * top, 21)[1:]:
                calls[0] = 0
                st = fam.solve_lambda(delta)
                evals.append(calls[0])
                assert abs(st.delta - delta) <= 1e-12 * max(1.0, delta)
                hi = 1.0
                while stats_at(hi).delta < delta:
                    hi *= 2.0
                ref = stats_at(solve_monotone(lambda l: stats_at(l).delta, delta, 0.0, hi,
                                              rtol=0.0))
                assert st.lam == pytest.approx(ref.lam, rel=1e-9)
                assert nep.rate_function(fam, delta).rate_value <= max(
                    fam.rate_value(replace(ref, delta=delta)), 0.0) + 1e-12
        # bisection to the same stop rule takes about 41
        assert np.mean(evals) <= 10

    @pytest.mark.parametrize("snr_db", [0, 1])
    def test_bracket_reaches_the_tilt_cap(self, snr_db):
        # BiAWGN's deviation has no ceiling, so the tilt stops at the cap of
        # 1000: every deviation up to delta(cap) solves, and a refusal names a
        # delta_star that the solver reaches at 0.999 of it. Near the cap the
        # quadrature's noise is above the 1e-12 tolerance, and the bracket
        # rule ends the solve.
        fam = nep.TiltFamily("cond_entropy", chn.BiAwgn(10 ** (snr_db / 10)))
        top = fam.tilted_stats(fam.lambda_cap).delta
        st = fam.solve_lambda(0.9 * top)
        assert st.lam < fam.lambda_cap
        assert st.delta == pytest.approx(0.9 * top, rel=1e-9)
        with pytest.raises(nep.TiltRangeError) as refused:
            fam.solve_lambda(1.001 * top)
        reach = 0.999 * refused.value.delta_star
        assert fam.solve_lambda(reach).delta == pytest.approx(reach, rel=1e-9)


class TestXiFactors:
    def test_ordering_and_positivity(self):
        fam = bsc_family()
        xi = nep.xi_factors(fam, 0.1, 1000)
        assert 0 < xi.lower <= xi.upper
        assert not xi.degenerate_lower

    def test_upper_matches_quadrature_of_exponential_average(self):
        # the bracket term equals int_0^{rho*} phi(rho) e^{-A rho} d rho
        fam = bsc_family()
        lam, n = 0.15, 500
        st = fam.tilted_stats(lam)
        sigma = math.sqrt(st.sigma2)
        ratio = fam.be_const * st.m3 / (math.sqrt(n) * sigma ** 3)
        big_a = math.sqrt(n) * lam * sigma
        from fbl.numkit import q_inv
        rho_star = q_inv(ratio)
        bracket, _ = quad(
            lambda r: math.exp(-r * r / 2 - big_a * r) / math.sqrt(2 * math.pi),
            0.0, rho_star)
        xi = nep.xi_factors(fam, lam, n)
        assert xi.upper == pytest.approx(2 * ratio + bracket, abs=1e-8)

    def test_vanishing_tilt_factors_converge(self):
        # upper/lower -> 1 when the tilt shrinks with n (but stays above
        # the 1/sqrt(n) scale); both track 1/(sqrt(2 pi n) lam sigma)
        fam = bsc_family()
        ratios = []
        for n in (10 ** 4, 10 ** 6, 10 ** 8):
            lam = n ** -0.3
            xi = nep.xi_factors(fam, lam, n)
            ratios.append(xi.upper / xi.lower)
            st = fam.tilted_stats(lam)
            scale = 1.0 / (math.sqrt(2 * math.pi * n) * lam * math.sqrt(st.sigma2))
            assert xi.upper == pytest.approx(scale, rel=0.35)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] == pytest.approx(1.0, abs=0.05)

    def test_degenerate_flag_small_n(self):
        fam = bsc_family()
        xi = nep.xi_factors(fam, 0.1, 1)
        assert xi.degenerate_lower
        assert xi.lower == 0.0
        assert xi.upper > 0.0


class TestTailBounds:
    def test_sandwich_contains_exact_binomial(self):
        fam = bsc_family()
        for n in (200, 500, 1000):
            for delta in (0.02, 0.05, 0.1, 0.15):
                est = nep.tail_bounds(fam, delta, n)
                exact = bsc_exact_tail(0.11, n, delta)
                assert est.lower <= exact <= est.upper

    def test_bec_sandwich_contains_erasure_tail(self):
        fam = nep.cond_entropy_family(chn.bec(0.5))
        n, delta = 500, 0.04
        est = nep.tail_bounds(fam, delta, n)
        exact = float(binom.sf(math.floor(n * (0.5 + delta / math.log(2))), n, 0.5))
        assert est.lower <= exact <= est.upper

    def test_upper_never_beats_plain_exponential(self):
        fam = bsc_family()
        for n in (50, 200, 1000):
            for delta in (0.02, 0.08, 0.2):
                est = nep.tail_bounds(fam, delta, n)
                assert est.upper <= math.exp(-n * est.flags["rate"]) + 1e-15
                assert est.lower <= est.upper

    def test_degenerate_lower_reports_zero(self):
        fam = bsc_family()
        est = nep.tail_bounds(fam, 0.05, 2)
        assert est.flags["degenerate_lower"]
        assert est.lower == 0.0


class TestTailClt:
    def test_zero_deviation_centers_at_half(self):
        fam = bsc_family()
        n = 400
        est = nep.tail_clt(fam, 0.0, n)
        hw = fam.be_const * fam.m3 / (math.sqrt(n) * fam.sigma2 ** 1.5)
        assert est.flags["center"] == pytest.approx(0.5)
        assert est.upper - est.lower == pytest.approx(2 * hw, rel=1e-12)

    def test_contains_exact_binomial(self):
        fam = bsc_family()
        for n in (200, 1000):
            est = nep.tail_clt(fam, 0.01, n)
            exact = bsc_exact_tail(0.11, n, 0.01)
            assert est.lower <= exact <= est.upper

    def test_halfwidth_scaling(self):
        fam = bsc_family()
        hw400 = nep.tail_clt(fam, 0.0, 400).flags["halfwidth"]
        hw1600 = nep.tail_clt(fam, 0.0, 1600).flags["halfwidth"]
        assert hw400 == pytest.approx(2 * hw1600, rel=1e-12)

    def test_regime_flag(self):
        fam = bsc_family()
        n = 1000
        sigma = math.sqrt(fam.sigma2)
        edge = sigma * math.sqrt(math.log(n) / n)
        assert nep.tail_clt(fam, 0.5 * edge, n).flags["in_regime"]
        assert not nep.tail_clt(fam, 2.0 * edge, n).flags["in_regime"]

    def test_family_constants(self):
        assert nep.BERRY_ESSEEN_IID == 0.4784
        assert nep.BERRY_ESSEEN_INID == 0.56
        assert bsc_family().be_const == nep.BERRY_ESSEEN_IID
        assert z_rel_family().be_const == nep.BERRY_ESSEEN_INID


class TestBiAwgnFamily:
    def test_sandwich_brackets_monte_carlo(self):
        ch = chn.BiAwgn(1.0)
        fam = nep.cond_entropy_family(ch)
        n, delta = 300, 0.06
        est = nep.tail_bounds(fam, delta, n)
        h = fam.center
        rng = np.random.default_rng(42)
        hits = 0
        trials = 200000
        for _ in range(10):
            z = rng.standard_normal((trials // 10, n))
            v = np.logaddexp(0.0, -2.0 * (1.0 + z)).sum(axis=1)
            hits += int((v > n * (h + delta)).sum())
        phat = hits / trials
        se = math.sqrt(phat * (1 - phat) / trials)
        assert est.lower - 4 * se <= phat <= est.upper + 4 * se

    def test_rel_family_matches_cond_for_symmetric_channel(self):
        # BiAwgn with a uniform composition: the divergence statistic is
        # the mirror of the conditional-entropy statistic
        ch = chn.BiAwgn(1.0)
        fc = nep.cond_entropy_family(ch)
        fr = nep.rel_entropy_family(ch, UNIF)
        assert fr.sigma2 == pytest.approx(fc.sigma2, rel=1e-9)
        assert fr.center == pytest.approx(math.log(2) - fc.center, rel=1e-9)

    @pytest.mark.parametrize("family", ["cond_entropy", "rel_entropy"])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 3.0])
    def test_tilted_stats_match_adaptive_quadrature(self, family, lam):
        a = 1.0
        if family == "cond_entropy":
            fam = nep.cond_entropy_family(chn.BiAwgn(a * a))
            # -ln p(0|y) for y ~ N(a, 1), tilted upward
            groups = [(1.0, a, lambda y: float(np.logaddexp(0.0, -2.0 * a * y)))]
            sign = 1.0
        else:
            fam = nep.rel_entropy_family(chn.BiAwgn(a * a), UNIF)

            def info(s):
                # ln p(y|s) - ln(p(y|a)/2 + p(y|-a)/2) for y ~ N(s, 1)
                return lambda y: float(-0.5 * (y - s) ** 2 - np.logaddexp(
                    math.log(0.5) - 0.5 * (y - a) ** 2, math.log(0.5) - 0.5 * (y + a) ** 2))
            groups = [(0.5, a, info(a)), (0.5, -a, info(-a))]
            sign = -1.0
        center = sum(w * quad_tilted(c, v, 0.0, sign)[1] for w, c, v in groups)
        parts = [(w, quad_tilted(c, v, lam, sign)) for w, c, v in groups]
        st = fam.tilted_stats(lam)
        log_mgf = sum(w * p[0] for w, p in parts)
        delta = sign * (sum(w * p[1] for w, p in parts) - center)
        assert st.log_mgf == pytest.approx(log_mgf, rel=0.0, abs=1e-12)
        assert st.delta == pytest.approx(delta, rel=1e-12)
        assert st.sigma2 == pytest.approx(sum(w * p[2] for w, p in parts), rel=1e-12)
        assert st.m3 == pytest.approx(sum(w * p[3] for w, p in parts), rel=1e-7)


def quad_tilted(centre, value_fn, lam, sign):
    """ln Z, mean, variance and E|v - mean|^3 of v(Y) for Y ~ N(centre, 1)
    tilted by exp(sign lam v(y)), by adaptive quadrature; the third
    moment's kink, where v(y) equals the mean, is a breakpoint."""
    shift = centre - 2.0 * centre * lam   # where the tilt moves the mode
    lo, hi = min(centre, shift) - 14.0, max(centre, shift) + 14.0

    def dens(y):
        return math.exp(-0.5 * (y - centre) ** 2 + sign * lam * value_fn(y)
                        ) / math.sqrt(2.0 * math.pi)

    def integral(f, points=None):
        return quad(lambda y: f(y) * dens(y), lo, hi, points=points,
                    epsabs=0.0, epsrel=1e-13, limit=500)[0]

    z = integral(lambda y: 1.0)
    mean = integral(value_fn) / z
    var = integral(lambda y: (value_fn(y) - mean) ** 2) / z
    kink = brentq(lambda y: value_fn(y) - mean, lo, hi, xtol=1e-14)
    m3 = integral(lambda y: abs(value_fn(y) - mean) ** 3, points=[kink]) / z
    return math.log(z), mean, var, m3
