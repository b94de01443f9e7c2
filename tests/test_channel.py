import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from fbl import channel as chn

LN2 = math.log(2.0)


def binary_entropy(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def moments(ch, t=None):
    """(mean, variance, third moment) of statistic(ch, t)."""
    return chn.statistic_moments(chn.statistic(ch, t), t)


def random_binary_channel(rng, ny):
    m = rng.random((2, ny)) + 0.02
    return chn.DiscreteChannel(m / m.sum(axis=1, keepdims=True))


class TestConstruction:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            chn.DiscreteChannel(np.array([[0.6, 0.3], [0.5, 0.5]]))

    def test_row_renormalization(self):
        m = np.array([[0.5 + 2e-13, 0.5], [0.25, 0.75]])
        ch = chn.DiscreteChannel(m)
        assert np.allclose(ch.matrix.sum(axis=1), 1.0, atol=1e-15)

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            chn.DiscreteChannel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_biawgn_needs_positive_snr(self):
        with pytest.raises(ValueError):
            chn.BiAwgn(0.0)

    def test_detectors(self):
        assert chn.as_bsc(chn.bsc(0.11)) == pytest.approx(0.11)
        assert chn.as_bec(chn.bec(0.5)) == pytest.approx(0.5)
        assert chn.as_zchannel(chn.zchannel(0.3)) == pytest.approx(0.3)
        assert chn.as_bsc(chn.zchannel(0.3)) is None
        assert chn.as_bec(chn.bsc(0.11)) is None


class TestInputType:
    def test_exact_rational_sum(self):
        t = chn.InputType((Fraction(1, 3), Fraction(2, 3)))
        assert sum(t.probs) == 1

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            chn.InputType((Fraction(1, 3), Fraction(1, 3)))

    def test_counts(self):
        t = chn.InputType.uniform(2)
        assert t.counts(8) == [4, 4]
        with pytest.raises(ValueError):
            t.counts(5)

    def test_from_counts(self):
        t = chn.InputType.from_counts([3, 5])
        assert t.denominator == 8
        assert t.counts(8) == [3, 5]

    def test_entropy(self):
        assert chn.InputType.uniform(2).entropy() == pytest.approx(LN2)


class TestCondEntropy:
    def test_noiseless_bsc(self):
        assert chn.cond_entropy(chn.bsc(0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_bec_half(self):
        # erased positions carry one bit of uncertainty each
        assert chn.cond_entropy(chn.bec(0.5)) == pytest.approx(0.5 * LN2, rel=1e-12)

    def test_bsc_closed_form(self):
        assert chn.cond_entropy(chn.bsc(0.11)) == pytest.approx(
            binary_entropy(0.11), rel=1e-12)
        assert binary_entropy(0.11) == pytest.approx(0.34651, abs=1e-5)

    def test_requires_binary_input(self):
        tri = chn.DiscreteChannel(np.eye(3))
        with pytest.raises(ValueError):
            chn.cond_entropy(tri)


class TestLinearCapacity:
    def test_useless_channel(self):
        assert chn.linear_capacity(chn.bsc(0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_bsc(self):
        assert chn.linear_capacity(chn.bsc(0.12)) == pytest.approx(
            LN2 - binary_entropy(0.12), rel=1e-12)

    def test_biawgn_zero_db(self):
        # reported value for the 0 dB soft-input curve; the snr convention
        # (signal power over noise variance) puts quadrature at 0.48594
        cap_bits = chn.linear_capacity(chn.BiAwgn(1.0)) / LN2
        assert cap_bits == pytest.approx(0.4847, abs=2e-3)

    def test_biawgn_quadrature_convergence(self):
        # the library's rule against a 250-point Gauss-Hermite rule:
        # -ln p(0|y) is softplus(-2 a y) with y ~ N(a, 1)
        x, w = np.polynomial.hermite.hermgauss(250)
        a = 1.0
        y = a + math.sqrt(2.0) * x
        h2 = float(w @ np.logaddexp(0.0, -2.0 * a * y)) / math.sqrt(math.pi)
        assert abs(chn.cond_entropy(chn.BiAwgn(a ** 2)) - h2) < 1e-9

    @pytest.mark.parametrize("snr_db", [0, 1])
    def test_biawgn_third_moment_matches_adaptive_quadrature(self, snr_db):
        # E|v - H|^3 has a kink where v(y) = H; adaptive quadrature split
        # there integrates both smooth halves
        ch = chn.BiAwgn(10 ** (snr_db / 10))
        a = ch.amplitude

        def v(y):
            return float(np.logaddexp(0.0, -2.0 * a * y))

        def integral(f, pieces):
            return sum(quad(lambda y: f(y) * math.exp(-0.5 * (y - a) ** 2)
                            / math.sqrt(2 * math.pi), lo, hi,
                            epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in pieces)

        mean = integral(v, [(-np.inf, np.inf)])
        kink = brentq(lambda y: v(y) - mean, -50.0, 50.0, xtol=1e-15)
        m3 = integral(lambda y: abs(v(y) - mean) ** 3, [(-np.inf, kink), (kink, np.inf)])
        assert moments(ch)[2] == pytest.approx(m3, rel=1e-8)


class TestMixtureOutput:
    def test_z_channel_uniform(self):
        q = chn.mixture_output(chn.zchannel(0.5), chn.InputType.uniform(2))
        assert q == pytest.approx([0.25, 0.75])

    def test_degenerate_type_returns_row(self):
        ch = chn.bec(0.3)
        t = chn.InputType((Fraction(1), Fraction(0)))
        assert chn.mixture_output(ch, t) == pytest.approx(ch.matrix[0])

    def test_bsc_uniform_is_uniform(self):
        q = chn.mixture_output(chn.bsc(0.23), chn.InputType.uniform(2))
        assert q == pytest.approx([0.5, 0.5])

    def test_mixture_identity_log_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ch = random_binary_channel(rng, 4)
            t = chn.InputType((Fraction(1, 4), Fraction(3, 4)))
            q = chn.mixture_output(ch, t)
            direct = 0.25 * ch.matrix[0] + 0.75 * ch.matrix[1]
            assert np.allclose(np.log(q), np.log(direct), atol=1e-12)


class TestMutualInfo:
    def test_z_channel_value(self):
        # direct finite-sum oracle over the 3 transitions
        p = 0.5
        q0, q1 = 0.25, 0.75
        oracle = 0.5 * (0.5 * math.log(0.5 / q0) + 0.5 * math.log(0.5 / q1)) \
            + 0.5 * math.log(1.0 / q1)
        got = chn.mutual_info(chn.zchannel(p), chn.InputType.uniform(2))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.21576, abs=1e-5)

    def test_noiseless_identity(self):
        ch = chn.DiscreteChannel(np.eye(2))
        assert chn.mutual_info(ch, chn.InputType.uniform(2)) == pytest.approx(LN2)

    def test_degenerate_type(self):
        t = chn.InputType((Fraction(0), Fraction(1)))
        assert chn.mutual_info(chn.bsc(0.2), t) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ch = random_binary_channel(rng, 3)
            mi = chn.mutual_info(ch, chn.InputType.uniform(2))
            assert mi >= -1e-13

    def test_zero_iff_rows_match_mixture(self):
        row = np.array([0.2, 0.5, 0.3])
        same = chn.DiscreteChannel(np.vstack([row, row]))
        assert chn.mutual_info(same, chn.InputType.uniform(2)) == pytest.approx(
            0.0, abs=1e-14)
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = random_binary_channel(rng, 3)
            if np.max(np.abs(ch.matrix[0] - ch.matrix[1])) > 1e-3:
                assert chn.mutual_info(ch, chn.InputType.uniform(2)) > 1e-9


class TestStatisticMoments:
    def test_bsc_sigma_h(self):
        expect = 0.11 * 0.89 * math.log(0.89 / 0.11) ** 2
        assert moments(chn.bsc(0.11))[1] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.4279, abs=1e-4)

    def test_bsc_divergence_matches_entropy_variance(self):
        var_d = moments(chn.bsc(0.11), chn.InputType.uniform(2))[1]
        assert var_d == pytest.approx(moments(chn.bsc(0.11))[1], rel=1e-12)

    def test_noiseless_degenerate(self):
        with pytest.raises(chn.DegenerateChannelError):
            moments(chn.bsc(0.0))

    def test_useless_degenerate(self):
        with pytest.raises(chn.DegenerateChannelError):
            moments(chn.bsc(0.5))

    def test_divergence_variance_below_entropy_variance(self):
        # dispersion of the information density never exceeds the
        # conditional-entropy variance for binary-input channels
        rng = np.random.default_rng(7)
        unif = chn.InputType.uniform(2)
        for _ in range(60):
            ch = random_binary_channel(rng, int(rng.integers(2, 5)))
            assert moments(ch, unif)[1] <= moments(ch)[1] + 1e-12

    def test_biawgn_fields(self):
        ch = chn.BiAwgn(1.0)
        _, var_h, m3_h = moments(ch)
        assert var_h > 0 and m3_h > 0
        var_d = moments(ch, chn.InputType.uniform(2))[1]
        assert var_d == pytest.approx(var_h, rel=1e-9)  # symmetric

    def test_symmetry_detection(self):
        assert chn.is_symmetric(chn.bsc(0.11))
        assert chn.is_symmetric(chn.bec(0.5))
        assert chn.is_symmetric(chn.BiAwgn(2.0))
        assert not chn.is_symmetric(chn.zchannel(0.5))
        # outputs 0 and 3 are reached by one input each; the two laws match
        assert chn.is_symmetric(chn.DiscreteChannel(np.array(
            [[0.7, 0.2, 0.1, 0.0], [0.0, 0.1, 0.2, 0.7]])))
        # input 0 has two atoms at ln 1.5; input 1 has atoms at ln 3 and 0
        assert not chn.is_symmetric(chn.DiscreteChannel(np.array(
            [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])))


class TestTypeClassSize:
    def test_single_sequence(self):
        t = chn.InputType((Fraction(1), Fraction(0)))
        assert chn.log_type_class_size(t, 5) == pytest.approx(0.0, abs=1e-14)

    def test_weight_two_of_four(self):
        t = chn.InputType.uniform(2)
        assert chn.log_type_class_size(t, 4) == pytest.approx(math.log(6), rel=1e-12)

    def test_entropy_defect_bound(self):
        t = chn.InputType.uniform(2)
        n = 1000
        defect = n * t.entropy() - chn.log_type_class_size(t, n)
        assert 0.0 < defect <= 2 * math.log(n + 1)

    def test_non_type_rejected(self):
        t = chn.InputType((Fraction(1, 3), Fraction(2, 3)))
        with pytest.raises(ValueError):
            chn.log_type_class_size(t, 1000)
