import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp as scipy_logsumexp

from fbl.numkit import (BracketError, composite_gauss_legendre, golden_min, log_binom,
                        log_q, logsumexp, q_func, q_inv, rationalize_step,
                        scaled_gauss_tail, solve_monotone)


def gaussian_tail_oracle(x):
    """Adaptive quadrature of the standard normal density."""
    val, _ = quad(lambda u: math.exp(-u * u / 2) / math.sqrt(2 * math.pi),
                  x, max(x + 50.0, 50.0))
    return val


class TestQFunc:
    def test_symmetry_at_zero(self):
        assert q_func(0.0) == 0.5

    def test_matches_quadrature_oracle(self):
        for x in (0.5, 1.0, 2.0, 3.0902, 5.0):
            assert q_func(x) == pytest.approx(gaussian_tail_oracle(x), rel=1e-10)

    def test_deep_tail_below_asymptote(self):
        x = 10.0
        val = q_func(x)
        assert 0.0 < val < 1e-20
        assert val <= math.exp(-x * x / 2) / (x * math.sqrt(2 * math.pi)) * (1 + 1e-12)

    def test_complement(self):
        for x in (-3.0, -0.7, 0.3, 2.5):
            assert q_func(x) + q_func(-x) == pytest.approx(1.0, abs=1e-14)

    def test_log_q_consistency(self):
        for x in (-5.0, -1.0, 0.0, 1.0, 8.0, 30.0):
            assert log_q(x) == pytest.approx(math.log(q_func(x)), rel=1e-12)
        # far past the underflow point the log version keeps going
        assert log_q(50.0) == pytest.approx(-50.0 ** 2 / 2, rel=0.01)

    def test_scaled_tail_identity(self):
        for a in (0.0, 0.5, 3.0):
            for s in (0.0, 0.3, 2.0):
                expect = math.exp(a * a / 2) * q_func(a + s)
                assert scaled_gauss_tail(a, s) == pytest.approx(expect, rel=1e-12)


class TestQInv:
    def test_center(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip(self):
        for eps in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6):
            assert q_func(q_inv(eps)) == pytest.approx(eps, rel=1e-10)

    def test_known_point_against_bisection(self):
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if q_func(mid) > 1e-3:
                lo = mid
            else:
                hi = mid
        assert q_inv(1e-3) == pytest.approx((lo + hi) / 2, abs=1e-9)
        assert q_inv(1e-3) == pytest.approx(3.0902, abs=1e-4)

    def test_symmetry(self):
        assert q_inv(0.9) == pytest.approx(-q_inv(0.1), rel=1e-12)
        assert q_inv(0.9) < 0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                q_inv(bad)


class TestLogSumExp:
    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 2000),
           scale=st.floats(1.0, 1e3), ties=st.integers(0, 4), neg_inf=st.integers(0, 4),
           case=st.sampled_from(["finite", "all -inf", "+inf"]))
    def test_equals_scipy(self, seed, size, scale, ties, neg_inf, case):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal(size)
        a[rng.integers(0, size, ties)] = a.max()
        a[rng.integers(0, size, neg_inf)] = -np.inf
        if case == "all -inf":
            a[:] = -np.inf
        elif case == "+inf":
            a[rng.integers(0, size)] = np.inf
        assert logsumexp(a) == float(scipy_logsumexp(a))


class TestLogBinom:
    def test_small_exact(self):
        assert log_binom(4, 2) == pytest.approx(math.log(6), rel=1e-15)
        for n in range(31):
            for w in range(n + 1):
                assert math.exp(log_binom(n, w)) == pytest.approx(
                    math.comb(n, w), rel=1e-12)

    def test_edges(self):
        assert log_binom(17, 0) == 0.0
        assert log_binom(17, 17) == 0.0

    def test_large_against_lgamma_oracle(self):
        oracle = (math.lgamma(1001) - 2 * math.lgamma(501))
        assert log_binom(1000, 500) == pytest.approx(oracle, rel=1e-9)

    def test_pascal_identity_log_domain(self):
        for n, w in ((10, 3), (30, 15), (61, 20), (500, 222), (1000, 499)):
            lhs = np.logaddexp(log_binom(n - 1, w - 1), log_binom(n - 1, w))
            rhs = log_binom(n, w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_binom(3, 4)


class TestSolveMonotone:
    def test_identity(self):
        assert solve_monotone(lambda x: x, 0.3, 0.0, 1.0) == pytest.approx(0.3)

    def test_square(self):
        x = solve_monotone(lambda x: x * x, 2.0, 0.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_against_q_inv(self):
        # q_func decreases; negate to fit the increasing contract
        x = solve_monotone(lambda x: -q_func(x), -0.1, 0.0, 10.0)
        assert x == pytest.approx(q_inv(0.1), abs=1e-9)
        assert x == pytest.approx(1.2816, abs=1e-4)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x, 5.0, 0.0, 1.0)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def recorded(f):
    """f, plus the list of every value it returned, in call order."""
    seen = []

    def g(x):
        seen.append(f(x))
        return seen[-1]
    return g, seen


class TestGoldenMin:
    @settings(deadline=None)
    @given(center=st.floats(0.0, 1.0), power=st.floats(1.0, 3.0),
           left=st.floats(0.1, 10.0), right=st.floats(0.1, 10.0),
           points=st.integers(3, 64), iters=st.integers(1, 40))
    def test_unimodal(self, center, power, left, right, points, iters):
        def f(x):
            d = x - center
            return (left if d < 0 else right) * abs(d) ** power

        grid = np.linspace(0.0, 1.0, points)
        g, seen = recorded(f)
        x, fx = golden_min(g, grid, iters)
        assert fx == f(x) == min(seen)
        assert fx <= min(f(p) for p in grid)
        # the section starts on the grid neighbours of the best grid point
        # and shrinks that bracket by the golden ratio per iteration
        width = 2.0 / (points - 1) * GOLDEN ** iters
        assert abs(x - center) <= width * (1 + 1e-9) + 1e-15

    @settings(deadline=None)
    @given(breaks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           levels=st.lists(st.integers(0, 3), min_size=13, max_size=13),
           points=st.integers(3, 64), iters=st.integers(1, 40))
    def test_step_function(self, breaks, levels, points, iters):
        breaks = np.sort(breaks)

        def f(x):
            return float(levels[int(np.searchsorted(breaks, x))])

        g, seen = recorded(f)
        x, fx = golden_min(g, np.geomspace(1e-6, 1.0, points), iters)
        assert fx == f(x) == min(seen)

    def test_ties_keep_the_earliest_grid_point(self):
        grid = np.linspace(0.0, 1.0, 9)
        assert golden_min(lambda x: 0.0, grid, 20) == (grid[0], 0.0)
        x, _ = golden_min(lambda x: 0.0 if 0.3 < x < 0.7 else 1.0, grid, 20)
        assert x == grid[3]

    def test_maximize_by_negation(self):
        x, neg = golden_min(lambda r: -(math.sin(3 * r)), np.linspace(0, 1, 17), 60)
        assert x == pytest.approx(math.pi / 6, abs=1e-7)
        assert -neg == pytest.approx(1.0, abs=1e-15)


class TestQuadrature:
    def test_composite_legendre_gaussian_integral(self):
        y, w = composite_gauss_legendre(-12.0, 12.0)
        val = float(w @ np.exp(-y * y / 2)) / math.sqrt(2 * math.pi)
        assert val == pytest.approx(1.0, rel=1e-13)


class TestRationalize:
    def test_simple_lattice(self):
        step = rationalize_step([0.2, 0.6, 1.0])
        assert step == pytest.approx(0.2, rel=1e-9)

    def test_log_ratios_are_not_lattice(self):
        assert rationalize_step([math.log(2), math.log(3)]) is None

    def test_scaled_integers(self):
        v = math.log(3.0)
        assert rationalize_step([v, 3 * v, 7 * v]) == pytest.approx(v, rel=1e-9)
