import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import binom

import closed_forms
from fbl import achievability as ach
from fbl import channel as chn
from fbl import tail
from fbl.numkit import q_inv

LN2 = math.log(2.0)
UNIF = chn.InputType.uniform(2)


class TestCodeParams:
    def test_rate_from_k(self):
        cp = ach.CodeParams(200, k=100)
        assert cp.rate == pytest.approx(0.5 * LN2)

    def test_exactly_one_rate_spec(self):
        with pytest.raises(ValueError):
            ach.CodeParams(100, k=10, rate_nats=0.1)
        with pytest.raises(ValueError):
            ach.CodeParams(100)

    @pytest.mark.parametrize("rate", [-0.1, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("name, ch", [
        ("bscform", chn.bsc(0.11)), ("becform", chn.bec(0.5)),
        ("zform", chn.zchannel(0.5)), ("thm1", chn.bsc(0.11))])
    def test_every_row_refuses_a_rate_not_finite_and_positive(self, name, ch, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            ach.bound_at_rate(name, ch, 100, rate, t=UNIF if name == "zform" else None)


class TestThm1Bound:
    def test_bsc_is_tail_plus_union(self):
        p, n, k, delta = 0.11, 200, 100, 0.05
        res = ach.thm1_bound(chn.bsc(p), ach.CodeParams(n, k=k), delta)
        ratio = math.log((1 - p) / p)
        tail_term = float(binom.sf(math.floor(n * (p + delta / ratio)), n, p))
        cap = LN2 - chn.cond_entropy(chn.bsc(p))
        union = math.exp(-n * (cap - delta - k / n * LN2))
        assert res.error_ub == pytest.approx(min(1.0, tail_term + union), rel=1e-12)
        assert res.components[0] == pytest.approx(tail_term, rel=1e-12)
        assert res.components[1] == pytest.approx(union, rel=1e-12)

    def test_asymmetric_channel_gets_puncturing_factor(self):
        z = chn.zchannel(0.5)
        n, delta = 10, 0.05
        res = ach.thm1_bound(z, ach.CodeParams(n, k=2), delta)
        pd = tail.pdelta(z, delta, n)
        assert res.components[0] == pytest.approx(
            pd.pessimistic / (1 - 2.0 ** -n), rel=1e-12)

    def test_union_dominates_above_capacity_gap(self):
        ch = chn.bsc(0.11)
        cap = chn.linear_capacity(ch)
        rate = 0.5 * LN2
        res = ach.thm1_bound(ch, ach.CodeParams(1000, rate_nats=rate),
                             delta=cap - rate + 0.01)
        assert res.error_ub == 1.0

    def test_vanishes_with_blocklength(self):
        ch = chn.bsc(0.11)
        vals = [ach.thm1_bound(ch, ach.CodeParams(n, rate_nats=0.2), 0.05).error_ub
                for n in (200, 800, 3200)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3
        # beyond the tail the union term is already negligible here
        assert vals[2] == pytest.approx(
            tail.pdelta(ch, 0.05, 3200).value, rel=1e-6)

    def test_clamped_components_still_reported(self):
        ch = chn.bsc(0.11)
        res = ach.thm1_bound(ch, ach.CodeParams(100, rate_nats=0.5), 0.3)
        assert res.error_ub == 1.0
        assert res.components[0] + res.components[1] >= res.error_ub - 1e-12


class TestClosedForms:
    def test_bsc_optimized_equals_min_form(self):
        for n in (200, 1000, 3000):
            k = n // 2
            res = ach.thm1_optimized(chn.bsc(0.11), ach.CodeParams(n, k=k))
            direct = closed_forms.bsc_closed_form(0.11, n, 2 ** k)
            assert res.error_ub == pytest.approx(direct, rel=1e-12)
            assert res.components[0] + res.components[1] == pytest.approx(
                direct, rel=1e-12)

    def test_bec_optimized_equals_min_form(self):
        for n in (200, 1000):
            k = n // 2
            res = ach.thm1_optimized(chn.bec(0.5), ach.CodeParams(n, k=k))
            direct = closed_forms.bec_closed_form(0.5, n, 2 ** k)
            assert res.error_ub == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n, k, value", [(200, 60, 0.00340188), (1000, 400, None)])
    def test_relabelled_bsc_equals_min_form(self, n, k, value):
        ch = chn.DiscreteChannel([[0.11, 0.89], [0.89, 0.11]])
        res = ach.thm1_optimized(ch, ach.CodeParams(n, k=k))
        direct = closed_forms.bsc_closed_form(0.11, n, 2 ** k)
        assert res.error_ub == pytest.approx(direct, rel=1e-12)
        if value is not None:
            assert res.error_ub == pytest.approx(value, rel=1e-6)

    def test_bsc_small_case_enumeration(self):
        # n = 1, M = 2: the min picks the codebook density on the clean
        # outcome and the likelihood on the flip
        p = 0.11
        got = closed_forms.bsc_closed_form(p, 1, 2)
        # direct two-outcome evaluation
        expect = min(1 - p, 2 * 0.5) + min(p, 2 * 0.5)
        assert got == pytest.approx(min(1.0, expect), rel=1e-12)

    def test_bsc_total_probability_when_codebook_huge(self):
        # M so large the likelihood always wins the min: the sum is 1
        assert closed_forms.bsc_closed_form(0.11, 20, 2 ** 60) == pytest.approx(1.0)

    def test_dt_variant_relation(self):
        n, M = 200, 2 ** 100
        assert closed_forms.bsc_closed_form(0.11, n, M, dt_variant=True) == \
            closed_forms.bsc_closed_form(0.11, n, (M - 1) / 2)

    def test_bec_enumeration_small(self):
        p, n, M = 0.3, 6, 2
        got = closed_forms.bec_closed_form(p, n, M)
        expect = sum(
            math.comb(n, t) * p ** t * (1 - p) ** (n - t)
            * 2.0 ** -max(n - t - math.log2(M), 0.0)
            for t in range(1, n + 1))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_bec_dt_variant_starts_at_zero(self):
        p, n, M = 0.5, 50, 2 ** 20
        got = closed_forms.bec_closed_form(p, n, M, dt_variant=True)
        half = (M - 1) / 2
        expect = sum(
            math.comb(n, t) * p ** t * (1 - p) ** (n - t)
            * 2.0 ** -max(n - t - math.log2(half), 0.0)
            for t in range(0, n + 1))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_bec_vanishes_with_erasure_probability(self):
        vals = [closed_forms.bec_closed_form(p, 40, 2 ** 10) for p in (0.2, 0.05, 0.01)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6


def _golden_lattice_channel(i, j):
    """A Z-shaped channel whose -ln p(X|Y) has the three atoms 0, i s, j s.

    Output 0 comes from input 0 alone; output 1 has posteriors x^j and x^i
    with x^i + x^j = 1, so its atoms are j s and i s with s = -ln x.
    """
    x = brentq(lambda x: x ** i + x ** j - 1.0, 1e-9, 1.0)
    w = x ** j  # p(0|1) = (1 - a) / (2 - a) for the row [a, 1 - a]
    a = (1.0 - 2.0 * w) / (1.0 - w)
    return [[a, 1.0 - a], [0.0, 1.0]]


def _layout(matrix, swap_inputs, outputs):
    m = np.asarray(matrix, dtype=float)[:, list(outputs)]
    return chn.DiscreteChannel(m[::-1] if swap_inputs else m)


class TestThm1LatticeMinimum:
    """thm1_optimized reads the exact minimum off the lattice distribution,
    whatever the channel's layout."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["bsc", "bec", "golden"]),
           n=st.integers(1, 300), frac=st.floats(0.01, 1.0))
    def test_layouts_agree_and_stay_below_tail_plus_union(self, data, kind, n, frac):
        if kind == "golden":
            i = data.draw(st.integers(1, 3), label="i")
            matrix = _golden_lattice_channel(i, data.draw(st.integers(i + 1, 4), label="j"))
        else:
            p = data.draw(st.floats(0.01, 0.49), label="p")
            matrix = (chn.bsc if kind == "bsc" else chn.bec)(p).matrix
        width = len(matrix[0])
        layouts = [(False, tuple(range(width)))] + [
            (data.draw(st.booleans(), label="swap"),
             tuple(data.draw(st.permutations(range(width)), label="outputs")))
            for _ in range(2)]
        k = max(1, round(frac * n))
        cp = ach.CodeParams(n, k=k)
        results = [ach.thm1_optimized(_layout(matrix, *lay), cp) for lay in layouts]
        assert all(r.tail_kind == "exact" for r in results)
        ref = results[0].error_ub
        assert all(r.error_ub == pytest.approx(ref, rel=1e-12, abs=1e-300)
                   for r in results)
        if kind != "golden":
            form = closed_forms.bsc_closed_form if kind == "bsc" else closed_forms.bec_closed_form
            assert ref == pytest.approx(form(p, n, 2 ** k), rel=1e-12, abs=1e-300)
            # the bscform/becform rows read the same minimum, at M = 2^k or ln M = n R,
            # and the DT bound with dt_variant
            for dt_variant in (False, True):
                for size in ({"M": 2 ** k}, {"log_m": n * cp.rate}):
                    row = ach.bound_at_rate(
                        kind + "form", _layout(matrix, *layouts[0]), n, cp.rate,
                        k=k if "M" in size else None, dt_variant=dt_variant)
                    assert row.error_ub == pytest.approx(
                        form(p, n, dt_variant=dt_variant, **size), rel=1e-12, abs=1e-300)
        # the minimum over delta is no larger than tail + union at any delta
        ch = _layout(matrix, *layouts[-1])
        for delta in np.geomspace(1e-4, 1.0, 25):
            assert ref <= ach.thm1_bound(ch, cp, delta).error_ub * (1 + 1e-12)

    def test_components_and_breakpoint(self):
        # asymmetric: f0 = 1/(1 - 2^-n) scales the tail side
        ch = chn.DiscreteChannel(_golden_lattice_channel(1, 2))
        n, k = 60, 6
        res = ach.thm1_optimized(ch, ach.CodeParams(n, k=k))
        assert res.error_ub == pytest.approx(sum(res.components), rel=1e-15)
        assert res.delta > 1e-12
        at_delta = ach.thm1_bound(ch, ach.CodeParams(n, k=k), res.delta)
        assert res.components[0] == at_delta.components[0]
        assert res.components[1] <= at_delta.components[1]

    def test_delta_below_the_centre_is_signed(self):
        # the optimal threshold lies below n H(X|Y): the row's delta is
        # negative, and the tail + union bound at it has the row's tail term
        ch = chn.DiscreteChannel(_golden_lattice_channel(1, 2))
        n, k = 60, 20
        cp = ach.CodeParams(n, k=k)
        res = ach.thm1_optimized(ch, cp)
        assert res.delta < 0
        f0 = 1.0 / (1.0 - 2.0 ** -n)
        assert f0 * tail.pdelta(ch, res.delta, n).value == pytest.approx(
            res.components[0], rel=1e-12)
        assert res.components[0] == pytest.approx(0.96159, abs=1e-5)
        assert res.error_ub <= ach.thm1_bound(ch, cp, res.delta).error_ub

    @pytest.mark.parametrize("ch, k, delta", [
        # an exact tie at t = 10 erasures: union weight 2^(6 - 16 + 10) = f0
        (chn.bec(0.5), 6, 0.09375 * LN2),
        (chn.bsc(0.11), 4, 0.22736809429154742),
    ], ids=["bec-tie", "bsc"])
    def test_simulation_deltas(self, ch, k, delta):
        # fbl simulate and acceptance criterion 7 run the decoder at this delta
        res = ach.thm1_optimized(ch, ach.CodeParams(16, k=k))
        assert res.delta == pytest.approx(delta, rel=1e-13)

    def test_without_lattice_falls_back_to_search(self):
        # five atoms off a lattice: past the state budget of exact types at n = 130
        ch = chn.DiscreteChannel([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        with pytest.raises(tail.LatticeInfeasibleError):
            tail.lattice_tail(ch, None, 0.05, 130)
        cp = ach.CodeParams(130, k=20)
        res = ach.thm1_optimized(ch, cp)
        assert res == ach.thm1_bound(ch, cp, res.delta)
        assert res.tail_kind == "sandwich"

    def test_z_channel_is_an_exact_readout(self):
        # the Z channel's atoms 0, ln 3 and ln 1.5 share no lattice step: the
        # minimum over thresholds of f0 P(S >= s_j) + M 2^-n E[e^S 1{0 < S < s_j}]
        # over a brute-force enumeration of its 501,501 types
        ch, n, rate = chn.zchannel(0.5), 1000, 0.15
        res = ach.bound_at_rate("thm1", ch, n, rate)
        assert res.tail_kind == "exact"
        values, probs = [], []
        for b in range(n + 1):  # b letters at ln 3, c at ln 1.5, the rest at 0
            c = np.arange(n - b + 1)
            values.append(b * math.log(3.0) + c * math.log(1.5))
            probs.append(np.exp(math.lgamma(n + 1) - math.lgamma(b + 1)
                                - np.array([math.lgamma(x + 1) for x in c])
                                - np.array([math.lgamma(n - b - x + 1) for x in c])
                                + b * math.log(0.25) + c * math.log(0.5)
                                + (n - b - c) * math.log(0.25)))
        values, probs = np.concatenate(values), np.concatenate(probs)
        order = np.argsort(values)
        values, probs = values[order], probs[order]
        f0 = 1.0 / (1.0 - 2.0 ** -n)
        tails = np.r_[np.cumsum(probs[::-1])[::-1], 0.0]
        with np.errstate(over="ignore"):
            charged = np.where(values > 0, probs * np.exp(values + n * (rate - LN2)), 0.0)
        best = float(np.min(f0 * tails + np.r_[0.0, np.cumsum(charged)]))
        assert res.error_ub == pytest.approx(best, rel=1e-10)
        assert res.error_ub == pytest.approx(1.7007e-07, rel=1e-4)
        at_delta = ach.thm1_bound(ch, ach.CodeParams(n, rate_nats=rate), res.delta)
        assert at_delta.components[0] == res.components[0]


def _merge(pairs):
    """(atoms, masses) of (value, mass) pairs, equal values (to 1e-9) merged."""
    atoms, masses = [], []
    for value, mass in sorted(pairs):
        if atoms and value - atoms[-1] <= 1e-9 * max(1.0, abs(value)):
            masses[-1] += mass
        else:
            atoms.append(value)
            masses.append(mass)
    return atoms, masses


def _brute_law(matrix, t, n):
    """Atoms and masses of thm1's S = -ln p(X^n|Y^n) under uniform input (t
    None) or of thm3's D = sum ln p(y|x)/q_t(y), each input's compositions
    enumerated in turn."""
    w = np.asarray(matrix, dtype=float)
    if t is None:
        post = w / w.sum(axis=0)
        rows = [(_merge([(-math.log(post[x, y]), w[x, y] / len(w))
                         for x, y in zip(*np.nonzero(w))]), n)]
    else:
        q = t.as_floats() @ w
        rows = [(_merge([(math.log(w[x, y] / q[y]), w[x, y]) for y in np.flatnonzero(w[x])]), c)
                for x, c in enumerate(t.counts(n)) if c > 0]
    law = [(0.0, 1.0)]
    for (values, probs), count in rows:
        row = []
        for combo in combinations_with_replacement(range(len(values)), count):
            counts = [combo.count(i) for i in range(len(values))]
            row.append((sum(c * v for c, v in zip(counts, values)), math.exp(
                math.lgamma(count + 1) - sum(math.lgamma(c + 1) for c in counts)
                + sum(c * math.log(p) for c, p in zip(counts, probs)))))
        law = [(a + b, pa * pb) for a, pa in law for b, pb in row]
    return _merge(law)


def _type_defect(t, n):
    return n * t.entropy() - (math.lgamma(n + 1)
                              - sum(math.lgamma(c + 1) for c in t.counts(n)))


class TestBreakpointReadout:
    """On an exact law (a lattice, or types: Z's thm1, a 2x2 channel's thm3),
    thm3's optimum and the thm1/thm3 rates at eps equal scans over the
    breakpoints of a brute-force law: thresholds just below each atom (thm3)
    or between atoms (thm1), on both sides of the mean."""

    @staticmethod
    def _case(data, name):
        kinds = ["golden", "bsc", "bec", "z"] + (["2x2"] if name == "thm3" else [])
        kind = data.draw(st.sampled_from(kinds), label="kind")
        if kind == "golden":
            i = data.draw(st.integers(1, 3), label="i")
            matrix = _golden_lattice_channel(i, data.draw(st.integers(i + 1, 4), label="j"))
        elif kind == "2x2":  # two rows whose atoms share no step
            a, b = (data.draw(st.floats(0.05, 0.95), label=label) for label in "ab")
            assume(abs(a - b) > 0.05)
            matrix = [[a, 1 - a], [b, 1 - b]]
        else:
            p = data.draw(st.floats(0.02, 0.45 if kind == "bsc" else 0.95), label="p")
            matrix = {"bsc": chn.bsc, "bec": chn.bec, "z": chn.zchannel}[kind](p).matrix
        # Z-type rows keep the relative-entropy lattice for any composition
        a = (data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
                       label="t0") if kind in ("z", "golden", "2x2") else Fraction(1, 2))
        n = 4 * data.draw(st.integers(2, 25), label="n/4")
        return chn.DiscreteChannel(matrix), chn.InputType((a, 1 - a)), n

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_thm3_optimum_is_the_breakpoint_minimum(self, data):
        ch, t, n = self._case(data, "thm3")
        rate = data.draw(st.floats(0.05, 1.3), label="frac") * chn.mutual_info(ch, t)
        cp = ach.CodeParams(n, rate_nats=rate, t=t)
        res = ach.thm3_optimized(ch, cp)
        defect, below, best = _type_defect(t, n), 0.0, 1.0
        for d, p in zip(*_brute_law(ch.matrix, t, n)):
            best = min(best, below + math.exp(min(700.0, n * rate - d + defect)))
            below += p
        assert res.tail_kind == "exact"
        assert res.error_ub == pytest.approx(best, rel=1e-12)
        at_delta = ach.thm3_bound(ch, cp, res.delta)
        assert at_delta.components[0] == res.components[0]
        for delta in np.linspace(-0.5, 1.0, 25):
            assert res.error_ub <= ach.thm3_bound(ch, cp, delta).error_ub * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["thm1", "thm3"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rate_at_eps_is_the_breakpoint_maximum(self, name, data):
        ch, t, n = self._case(data, name)
        eps = data.draw(st.floats(1e-3, 0.6), label="eps")
        t = t if name == "thm3" else None
        atoms, masses = _brute_law(ch.matrix, t, n)
        rates = []
        if t is None:
            f0 = 1.0 if chn.is_symmetric(ch) else 1.0 / (1.0 - 2.0 ** -n)
            tails = np.cumsum(masses[::-1])[::-1].tolist() + [0.0]  # P(S >= s_j)
            weight = 0.0  # 2^-n E[e^S 1{0 < S < s_j}]
            for j, tail_j in enumerate(tails):
                if f0 * tail_j < eps:
                    rates.append(10.0 if weight == 0 else
                                 (math.log(eps - f0 * tail_j) - math.log(weight)) / n)
                if j < len(atoms) and atoms[j] > 1e-9:
                    weight += masses[j] * math.exp(atoms[j] - n * LN2)
        else:
            defect, below = _type_defect(t, n), 0.0
            for d, p in zip(atoms, masses):
                if below < eps:
                    rates.append((math.log(eps - below) + d - defect) / n)
                below += p
        expect = min(max(rates), 10.0) if rates else -math.inf
        assume(abs(expect) > 1e-9)
        if expect < 0:
            with pytest.raises(ach.InfeasibleRateError):
                ach.max_rate_at_eps(ch, n, eps, name, t=t)
            return
        res = ach.max_rate_at_eps(ch, n, eps, name, t=t)
        assert res.rate_nats == pytest.approx(expect, rel=1e-10)
        assert res.error_ub <= eps
        bound = ach.thm1_bound if t is None else ach.thm3_bound
        at_delta = bound(ch, ach.CodeParams(n, rate_nats=res.rate_nats, t=t), res.delta)
        assert at_delta.components[0] == res.components[0]

    def test_thm3_threshold_stays_above_a_close_atom_below(self, monkeypatch):
        # types atoms 1e-8 apart: 1e-7 of the distance from the lowest atom
        # would put the threshold below both, so it moves by half the gap
        points = np.array([0.0, 1.0, 1.0 + 1e-8, 2.0])
        law = tail.Law.of_atoms(0.0, 1.0, points, np.log([0.1, 0.2, 0.3, 0.4]), up=False)
        monkeypatch.setattr(tail, "exact_law", lambda *key: (law, 0.5))
        ch, n = chn.zchannel(0.5), 4
        cp = ach.CodeParams(n, rate_nats=0.1, t=UNIF)
        log_tail, _, delta = ach._breakpoints(ach._ensemble(ch, UNIF, n))
        got = [ach.thm3_bound(ch, cp, delta(j)).components[0] for j in range(log_tail.size)]
        assert got == pytest.approx([0.0, 0.1, 0.3, 0.6], rel=1e-12, abs=0.0)
        assert got == pytest.approx(np.exp(log_tail).tolist(), rel=1e-12, abs=0.0)

    def test_minimum_above_the_mean(self):
        # the infimum sits at a threshold above n I(t;P): delta <= 0, which
        # a search over delta > 0 never tried (it reported 1.0 here)
        ch, n = chn.zchannel(0.5), 100
        cp = ach.CodeParams(n, rate_nats=0.856 * chn.mutual_info(ch, UNIF), t=UNIF)
        res = ach.thm3_optimized(ch, cp)
        assert res.delta <= 0
        assert res.error_ub == pytest.approx(0.72655, abs=1e-5)
        assert res.error_ub <= ach.thm3_bound(ch, cp, res.delta).error_ub


class TestEnsembleRecord:
    def test_one_record_and_centre_per_key(self, monkeypatch):
        calls = []
        mutual_info = chn.mutual_info

        def counted(*args, **kwargs):
            calls.append(args)
            return mutual_info(*args, **kwargs)

        monkeypatch.setattr(chn, "mutual_info", counted)
        ach._ensemble.cache_clear()
        tail.exact_law.cache_clear()
        res = ach.max_rate_at_eps(chn.zchannel(0.4), 200, 1e-3, "thm3", t=UNIF)
        assert res.error_ub <= 1e-3
        assert len(calls) < 100

    def test_record_resolves_tail_at_call_time(self, monkeypatch):
        ch, cp = chn.zchannel(0.5), ach.CodeParams(20, k=2, t=UNIF)
        before = ach.thm3_bound(ch, cp, 0.1)
        seen = []
        ptdelta = tail.ptdelta

        def spy(*args, **kwargs):
            seen.append(args)
            return ptdelta(*args, **kwargs)

        monkeypatch.setattr(tail, "ptdelta", spy)
        assert ach.thm3_bound(ch, cp, 0.1) == before
        assert len(seen) == 1


class TestZClosedForm:
    def test_enumeration_n4(self):
        p, n, M = 0.5, 4, 2
        t = UNIF  # m = 2
        got = ach.zchannel_closed_form(p, t, n, M)
        m = 2
        expect = sum(
            math.comb(m, i) * (1 - p) ** (m - i) * p ** i
            * min(1.0, (M - 1) * math.comb(n - m + i, i) / math.comb(n, m))
            for i in range(m + 1))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_noiseless_limit(self):
        got = ach.zchannel_closed_form(1e-12, UNIF, 10, 8)
        assert got == pytest.approx(min(1.0, 7 / math.comb(10, 5)), rel=1e-6)

    def test_dominates_generic_fixed_type_bound(self):
        p, n = 0.5, 100
        ch = chn.zchannel(p)
        mi = chn.mutual_info(ch, UNIF)
        for frac in (0.2, 0.5, 0.8):
            rate = frac * mi
            zf = ach.zchannel_closed_form(p, UNIF, n, math.exp(n * rate))
            t3 = ach.thm3_optimized(ch, ach.CodeParams(n, rate_nats=rate, t=UNIF))
            assert zf <= t3.error_ub + 1e-12


class TestThm2:
    def test_part2_c_zero_identity(self):
        # generic (asymmetric) form keeps the puncturing factor
        ch = chn.zchannel(0.5)
        n = 400
        _, var, m3 = chn.statistic_moments(chn.statistic(ch))
        res = ach.bound_at_rate("thm2p2", ch, n, None, c=0.0)
        sigma = math.sqrt(var)
        expect = (0.5 / (1 - 2.0 ** -n)
                  + (0.4784 * m3 / sigma ** 3
                     + 1 / math.sqrt(2 * math.pi * var)) / math.sqrt(n))
        assert res.error_ub == pytest.approx(expect, rel=1e-12)
        cap = chn.linear_capacity(ch)
        assert res.rate_nats == pytest.approx(
            cap - math.log(n) / (2 * n)
            - math.log(math.sqrt(2 * math.pi) * sigma) / n, rel=1e-12)

    def test_part2_c_solves_rate_on_whole_branch(self):
        # c is the quadratic's larger root in closed form: it meets its rate
        # to rounding on the whole branch where the rate falls in c (c >
        # -sigma^2 sqrt(n)), near the peak and far out (c > 60 sigma), and a
        # rate above the peak is refused
        ch, n = chn.bsc(0.11), 1000
        ens = ach._ensemble(ch, None, n)
        peak = -ens.family().sigma2 * math.sqrt(n)
        for c in (0.999 * peak, 0.95 * peak, -1.0, 0.0, 2.5, 60.0, 200.0):
            rate = ach._clt_rate(ens, c)
            assert ach._clt_rate(ens, ach._clt_c_for_rate(ens, rate)) == pytest.approx(
                rate, rel=1e-14, abs=1e-15)
        with pytest.raises(ach.InfeasibleRateError, match="outside the central-limit range"):
            ach._clt_c_for_rate(ens, ach._clt_rate(ens, peak) * (1 + 1e-9))
        sigma = math.sqrt(ach._ensemble(ch, None, 100000).family().sigma2)
        res = ach.bound_at_rate("thm2p2", ch, 100000, 0.2 * LN2, exact_tail=False)
        assert res.lambda_or_c > 60 * sigma and res.error_ub < 0.01

    def test_part1_rate_and_error_structure(self):
        ch = chn.bsc(0.11)
        res = ach.bound_at_rate("thm2p1", ch, 1000, None, delta=0.05)
        assert res.theorem == "thm2p1"
        assert 0 < res.error_ub < 1
        assert res.lambda_or_c == pytest.approx(0.107, abs=0.01)
        # the certified rate sits below capacity minus delta
        assert res.rate_nats < chn.linear_capacity(ch) - 0.05

    def test_part1_bounds_exact_tail_plus_union(self):
        # the analytic form must dominate tail + union at the same delta
        ch = chn.bsc(0.11)
        n, delta = 1000, 0.05
        res = ach.bound_at_rate("thm2p1", ch, n, None, delta=delta)
        direct = ach.thm1_bound(ch, ach.CodeParams(n, rate_nats=res.rate_nats),
                                delta)
        assert direct.error_ub <= res.error_ub + 1e-12

    def test_part2_at_rate_above_capacity_anchor(self):
        ch = chn.bsc(0.12)
        cap = chn.linear_capacity(ch)
        res = ach.bound_at_rate("thm2p2", ch, 1000, 1.0021 * cap)
        assert res.tail_kind == "exact"
        assert 0.60 <= res.error_ub <= 0.70
        analytic = ach.bound_at_rate("thm2p2", ch, 1000, 1.0021 * cap, exact_tail=False)
        assert res.error_ub <= analytic.error_ub

    def test_part1_at_rate_roundtrip(self):
        ch = chn.bsc(0.11)
        n = 1000
        base = ach.bound_at_rate("thm2p1", ch, n, None, delta=0.04)
        back = ach.bound_at_rate("thm2p1", ch, n, base.rate_nats)
        assert back.delta == pytest.approx(0.04, abs=1e-6)
        assert back.error_ub == pytest.approx(base.error_ub, rel=1e-4)

    def test_part1_infeasible_rate(self):
        ch = chn.bsc(0.11)
        with pytest.raises(ach.InfeasibleRateError):
            ach.bound_at_rate("thm2p1", ch, 1000, chn.linear_capacity(ch) * 1.5)


class TestCentralLimitTailPath:
    """Off a lattice the central-limit rows read the exact types law within
    its state budget, and keep the analytic form past it."""

    def test_thm2p2_on_z_channel(self):
        ch, n, rate = chn.zchannel(0.5), 1000, 0.2 * LN2
        with pytest.raises(tail.LatticeInfeasibleError):
            tail._lattice_step(tail._statistic_rows(ch, None, n))
        res = ach.bound_at_rate("thm2p2", ch, n, rate)
        assert res.tail_kind == "exact"
        at_delta = ach.thm1_bound(ch, ach.CodeParams(n, rate_nats=rate), res.delta)
        assert (res.error_ub, res.components) == (at_delta.error_ub, at_delta.components)

    def test_thm4p2_without_relative_entropy_lattice(self):
        ch = chn.DiscreteChannel([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
        n = 1000
        rate = 0.5 * chn.mutual_info(ch, UNIF)
        for row in tail._statistic_rows(ch, UNIF, n):
            with pytest.raises(tail.LatticeInfeasibleError):
                tail._lattice_step([row])
        with pytest.raises(tail.LatticeInfeasibleError):
            tail.lattice_tail(ch, UNIF, 0.05, n)
        res = ach.bound_at_rate("thm4p2", ch, n, rate, t=UNIF)
        assert res.tail_kind == "clt"
        assert res == ach.bound_at_rate("thm4p2", ch, n, rate, t=UNIF, exact_tail=False)


class TestThm3:
    def test_z_channel_small_enumeration(self):
        # tail and union recomputed directly from the transition structure
        ch = chn.zchannel(0.5)
        n, k, delta = 8, 1, 0.2
        res = ach.thm3_bound(ch, ach.CodeParams(n, k=k, t=UNIF), delta)
        pt = tail.ptdelta(ch, UNIF, delta, n)
        mi = chn.mutual_info(ch, UNIF)
        correction = n * UNIF.entropy() - math.log(math.comb(8, 4))
        union = math.exp(-n * (mi - delta - k / n * LN2) + correction)
        assert res.error_ub == pytest.approx(min(1.0, pt.value + union), rel=1e-12)

    def test_degenerate_type_clamps_to_one(self):
        from fractions import Fraction
        ch = chn.zchannel(0.5)
        t = chn.InputType((Fraction(0), Fraction(1)))
        res = ach.thm3_bound(ch, ach.CodeParams(8, k=1, t=t), 0.05)
        assert res.error_ub == 1.0

    def test_type_correction_bound(self):
        n = 500
        correction = n * UNIF.entropy() - chn.log_type_class_size(UNIF, n)
        assert 0 < correction <= 2 * math.log(n + 1)


class TestThm4:
    def test_bsc_part2_matches_parity_check_form_up_to_type_defect(self):
        # same dispersion for the symmetric channel; rates differ exactly
        # by the type-class defect over n (constants differ: 0.56 vs 0.4784)
        ch = chn.bsc(0.11)
        n, c = 1024, 0.7
        r2 = ach.bound_at_rate("thm2p2", ch, n, None, c=c)
        r4 = ach.bound_at_rate("thm4p2", ch, n, None, t=UNIF, c=c)
        defect = n * UNIF.entropy() - chn.log_type_class_size(UNIF, n)
        assert r2.rate_nats - r4.rate_nats == pytest.approx(defect / n, rel=1e-10)
        var_d = chn.statistic_moments(chn.statistic(ch, UNIF), UNIF)[1]
        assert var_d == pytest.approx(chn.statistic_moments(chn.statistic(ch))[1], rel=1e-12)

    def test_part2_c_zero_center(self):
        ch = chn.zchannel(0.5)
        _, var, m3 = chn.statistic_moments(chn.statistic(ch, UNIF), UNIF)
        res = ach.bound_at_rate("thm4p2", ch, 256, None, t=UNIF, c=0.0)
        sigma = math.sqrt(var)
        expect = 0.5 + (0.56 * m3 / sigma ** 3
                        + 1 / math.sqrt(2 * math.pi * var)) / 16.0
        assert res.error_ub == pytest.approx(expect, rel=1e-12)

    def test_alternative_composition_computable(self):
        # a non-capacity-achieving composition can win at short lengths
        ch = chn.zchannel(0.9)
        t_cap = chn.InputType((Fraction(1, 2), Fraction(1, 2)))
        t_alt = chn.InputType((Fraction(3, 4), Fraction(1, 4)))
        for t in (t_cap, t_alt):
            res = ach.bound_at_rate("thm4p1", ch, 100, None, t=t, delta=0.02)
            assert 0 < res.error_ub <= 1.0
            assert math.isfinite(res.rate_nats)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_unused_input_changes_no_row(self, data):
        # a third input that t leaves unused, reaching an output no other
        # input reaches, must not move any fixed-composition row
        k = data.draw(st.integers(2, 3), label="outputs")
        weights = st.floats(0.05, 1.0)
        rows = [data.draw(st.lists(weights, min_size=k, max_size=k), label="row")
                for _ in range(2)]
        extra = data.draw(st.lists(weights, min_size=k + 1, max_size=k + 1), label="extra")
        rows = [np.array(r) / sum(r) for r in rows]
        plain = chn.DiscreteChannel(np.array(rows))
        padded = chn.DiscreteChannel(np.array(
            [np.append(r, 0.0) for r in rows] + [np.array(extra) / sum(extra)]))
        a = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
        t2, t3 = chn.InputType((a, 1 - a)), chn.InputType((a, 1 - a, Fraction(0)))
        n = 4 * data.draw(st.integers(10, 50), label="n/4")
        mi = chn.mutual_info(plain, t2)
        assume(mi > 0.01)
        rate = data.draw(st.floats(0.2, 0.8), label="frac") * mi
        def row(ch, t, name, at_eps):
            try:
                res = (ach.max_rate_at_eps(ch, n, 1e-3, name, t=t) if at_eps
                       else ach.bound_at_rate(name, ch, n, rate, t=t))
            except (ach.InfeasibleRateError, chn.DegenerateChannelError) as exc:
                return str(exc)
            return res.theorem, res.tail_kind, [
                x for x in (res.error_ub, res.rate_nats, res.delta, res.lambda_or_c,
                            *res.extras.values()) if x is not None]

        for name, at_eps in [("thm3", False), ("thm4p1", False), ("thm4p2", False),
                             ("ee", False), ("thm4p1", True), ("thm4p2", True),
                             ("ee", True)]:
            expect, got = row(plain, t2, name, at_eps), row(padded, t3, name, at_eps)
            if isinstance(expect, str):
                assert got == expect
            else:
                assert got[:2] == expect[:2]
                assert got[2] == pytest.approx(expect[2], rel=1e-12, abs=0.0)


class TestErrorExponent:
    def test_zero_exponent_at_mutual_information(self):
        ch = chn.bsc(0.11)
        mi = chn.mutual_info(ch, UNIF)
        assert ach.bound_at_rate("ee", ch, 500, mi).error_ub == pytest.approx(1.0, abs=1e-9)
        assert ach.error_exponent(ch, UNIF, mi * 1.05) == pytest.approx(
            0.0, abs=1e-12)

    def test_golden_section_matches_dense_grid(self):
        ch = chn.bsc(0.11)
        rate = 0.4 * LN2
        rhos = np.linspace(0.0, 1.0, 100001)
        vals = [ach.gallager_e0(ch, UNIF, r) - r * rate for r in rhos]
        assert ach.error_exponent(ch, UNIF, rate) == pytest.approx(
            max(vals), abs=1e-10)

    def test_cutoff_rate_identity(self):
        # E0(1) = ln 2 - ln(1 + 2 sqrt(pq)) for the BSC
        p = 0.11
        expect = LN2 - math.log(1 + 2 * math.sqrt(p * (1 - p)))
        assert ach.gallager_e0(chn.bsc(p), UNIF, 1.0) == pytest.approx(
            expect, rel=1e-12)

    def test_worse_than_optimized_bound_at_moderate_error(self):
        ch = chn.bsc(0.11)
        n, rate = 1000, 0.4 * LN2
        ee = ach.bound_at_rate("ee", ch, n, rate).error_ub
        t1 = ach.thm1_optimized(ch, ach.CodeParams(n, rate_nats=rate))
        assert t1.error_ub < ee

    def test_biawgn_exponent_positive(self):
        ch = chn.BiAwgn(1.0)
        cap = chn.linear_capacity(ch)
        assert ach.error_exponent(ch, UNIF, 0.5 * cap) > 0


class TestMaxRateAtEps:
    def test_second_order_reference(self):
        ch = chn.bsc(0.11)
        res = ach.max_rate_at_eps(ch, 2000, 1e-3, "thm1")
        cap, var = chn.linear_capacity(ch), chn.statistic_moments(chn.statistic(ch))[1]
        ref = cap - math.sqrt(var / 2000) * q_inv(1e-3)
        assert res.extras["second_order_rate"] == pytest.approx(ref, rel=1e-12)
        # the achieved rate tracks the reference to within its own scale
        gap = abs(res.rate_nats - ref)
        assert gap < 0.2 * (cap - ref)

    def test_rate_gap_shrinks_like_sqrt_n(self):
        ch = chn.bsc(0.11)
        cap = chn.linear_capacity(ch)
        g1 = cap - ach.max_rate_at_eps(ch, 1000, 1e-3, "thm1").rate_nats
        g2 = cap - ach.max_rate_at_eps(ch, 2000, 1e-3, "thm1").rate_nats
        assert g2 / g1 == pytest.approx(1 / math.sqrt(2), abs=0.08)

    def test_half_error_reaches_near_capacity(self):
        ch = chn.bsc(0.11)
        n = 1000
        cap = chn.linear_capacity(ch)
        res = ach.max_rate_at_eps(ch, n, 0.5, "thm2p2")
        gap = cap - res.rate_nats
        assert 0.5 * math.log(n) / (2 * n) < gap < 6 * math.log(n) / (2 * n) + 0.01

    def test_bound_at_found_rate_meets_target(self):
        ch = chn.bsc(0.11)
        for method, eps in (("thm1", 1e-2), ("thm2p1", 1e-2), ("thm2p2", 5e-2),
                            ("ee", 1e-3)):
            res = ach.max_rate_at_eps(ch, 1000, eps, method)
            assert res.error_ub <= eps

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    @pytest.mark.parametrize("ch, method, t", [
        (chn.bsc(0.11), "thm2p2", None),
        (chn.BiAwgn(1.0), "thm2p2", None),
        (chn.zchannel(0.5), "thm4p2", UNIF),
    ], ids=["bsc-thm2p2", "biawgn-thm2p2", "z-thm4p2"])
    def test_central_limit_rows_meet_target(self, ch, method, t, eps):
        # the c solve stops within its tolerance; it must stop on the safe side
        over = [(n, res.error_ub) for n in range(1000, 8001, 250)
                for res in [ach.max_rate_at_eps(ch, n, eps, method, t=t)]
                if res.error_ub > eps * (1 + 1e-12)]
        assert over == []

    def test_fixed_type_methods(self):
        ch = chn.zchannel(0.5)
        for method in ("thm3", "thm4p1"):
            res = ach.max_rate_at_eps(ch, 100, 1e-2, method, t=UNIF)
            assert 0 < res.rate_nats < chn.mutual_info(ch, UNIF)

    def test_infeasible_raises(self):
        ch = chn.BiAwgn(1.0)
        with pytest.raises(ach.InfeasibleRateError):
            ach.max_rate_at_eps(ch, 1000, 1e-6, "thm2p2")

    def test_off_lattice_inversion(self, monkeypatch):
        # the BiAWGN tail is the tilted sandwich: the rate is searched over
        # delta, then checked by tail + union at the searched delta, with no
        # search at the rate
        calls = []
        optimized = ach.thm1_optimized

        def counted(*args):
            calls.append(args)
            return optimized(*args)

        monkeypatch.setattr(ach, "thm1_optimized", counted)
        res = ach.max_rate_at_eps(chn.BiAwgn(1.0), 200, 1e-3, "thm1")
        assert res.rate_nats == pytest.approx(0.141572505111, rel=1e-9)
        assert res.error_ub <= 1e-3
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ee_rate_is_the_exponent_inversion(self, data):
        # E_r(R) >= E* = -ln(eps)/n exactly when R <= (E0(rho) - E*)/rho for
        # some rho in (0, 1]; the reference maximises that over 1e5 values of
        # rho. E0's rounding near rho = 0, about 1e-16/rho* in the ratio, is
        # allowed for by 1e-12 nats on top of the relative 1e-8.
        kind = data.draw(st.sampled_from(["bsc", "bec", "z"]), label="kind")
        ch = {"bsc": chn.bsc, "bec": chn.bec, "z": chn.zchannel}[kind](
            data.draw(st.floats(0.01, 0.45 if kind == "bsc" else 0.9), label="p"))
        n = data.draw(st.integers(20, 10 ** 6), label="n")
        ones = data.draw(st.integers(1, n - 1), label="ones")
        t = chn.InputType.from_counts((n - ones, ones))
        eps = data.draw(st.floats(1e-9, 0.5), label="eps")
        rho = np.linspace(0.0, 1.0, 100001)[1:, None]
        inner = (t.as_floats()[:, None] * ch.matrix ** (1.0 / (1.0 + rho[:, :, None]))).sum(axis=1)
        e0 = -np.log((inner ** (1.0 + rho)).sum(axis=1))
        ref = float(np.max((e0 + math.log(eps) / n) / rho[:, 0]))
        try:
            res = ach.max_rate_at_eps(ch, n, eps, "ee", t=t)
        except ach.InfeasibleRateError:
            assert ref <= 1e-12
            return
        assert res.rate_nats >= (1 - 1e-8) * ref - 1e-12
        assert res.error_ub <= eps

    def test_ee_inversion_is_one_search(self, monkeypatch):
        # one golden search over rho, then a few exponent rows at the rate:
        # not a search over the rate with a search over rho at each step
        calls = []
        e0 = ach.gallager_e0
        monkeypatch.setattr(ach, "gallager_e0", lambda *args: calls.append(args) or e0(*args))
        res = ach.max_rate_at_eps(chn.bsc(0.11), 1000, 1e-3, "ee")
        assert res.error_ub <= 1e-3
        assert len(calls) <= 500

    def test_ee_matches_exponent_inversion(self):
        ch = chn.bsc(0.11)
        res = ach.max_rate_at_eps(ch, 500, 1e-3, "ee")
        assert ach.error_exponent(ch, UNIF, res.rate_nats) == pytest.approx(
            -math.log(1e-3) / 500, rel=1e-6)


class TestOptimizedMonotonicity:
    def test_error_nonincreasing_in_blocklength(self):
        ch = chn.bsc(0.11)
        rate = 0.35 * LN2
        vals = [ach.thm1_optimized(ch, ach.CodeParams(n, rate_nats=rate)).error_ub
                for n in (200, 400, 800, 1600)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_error_nondecreasing_in_rate(self):
        ch = chn.bsc(0.11)
        n = 500
        vals = [ach.thm1_optimized(ch, ach.CodeParams(n, rate_nats=r)).error_ub
                for r in np.linspace(0.2, 0.45, 6) * LN2]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_fixed_type_error_nonincreasing_in_blocklength(self):
        ch = chn.zchannel(0.5)
        rate = 0.5 * chn.mutual_info(ch, UNIF)
        vals = [ach.thm3_optimized(
            ch, ach.CodeParams(n, rate_nats=rate, t=UNIF)).error_ub
            for n in (100, 200, 400)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def _table_case(name, data):
    """A channel (and composition) of the row's ensemble whose tails are all
    exact, and a block length in [20, 200] that the composition divides."""
    ensemble = ach.THEOREMS[name].ensemble
    if ensemble == "fixed":
        ch = chn.zchannel(data.draw(st.floats(0.1, 0.8), label="z"))
        return ch, UNIF, 2 * data.draw(st.integers(10, 100), label="n/2")
    kind = {"bscform": "bsc", "becform": "bec"}.get(
        name, data.draw(st.sampled_from(["bsc", "bec"]), label="kind"))
    ch = (chn.bsc(data.draw(st.floats(0.02, 0.3), label="p")) if kind == "bsc"
          else chn.bec(data.draw(st.floats(0.05, 0.6), label="p")))
    return ch, None, data.draw(st.integers(20, 200), label="n")


def _capacity(ch, t):
    return chn.linear_capacity(ch) if t is None else chn.mutual_info(ch, t)


def _largest_rate(name, ch, t, n):
    """The row's largest feasible rate, at most 1.1 times capacity: the peak
    of the tilted-form rate on `_tilted_at_rate`'s grid, or of the
    central-limit rate, at c = -sigma^2 sqrt(n)."""
    ens = ach._ensemble(ch, t, n)
    parameter = ach.THEOREMS[name].parameter
    top = 1.1 * _capacity(ch, t)
    if parameter == "delta":
        rate, _, lam_hi = ach._tilted_rate_curve(ens)
        return min(top, max(rate(lam) for lam in np.geomspace(1e-6, lam_hi, 128)))
    if parameter == "c":
        return min(top, ach._clt_rate(ens, -ens.family().sigma2 * math.sqrt(n)))
    return top


def _tail_union(name, ch, n, rate, t, delta):
    bound = ach.thm1_bound if ach.THEOREMS[name].ensemble == "parity" else ach.thm3_bound
    return bound(ch, ach.CodeParams(n, rate_nats=rate, t=t), delta)


class TestTheoremTable:
    """Properties every row of the theorem table must have."""

    @pytest.mark.parametrize("name", list(ach.THEOREMS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_error_in_unit_interval_and_nondecreasing_in_rate(self, name, data):
        ch, t, n = _table_case(name, data)
        lo = data.draw(st.floats(0.05, 1.0), label="lo")
        hi = data.draw(st.floats(lo, 1.0), label="hi")
        top = _largest_rate(name, ch, t, n)
        assume(top > 0)
        try:
            errs = [ach.bound_at_rate(name, ch, n, f * top, t=t,
                                      exact_tail=False).error_ub for f in (lo, hi)]
        except ach.InfeasibleRateError:
            assume(False)
        assert all(0.0 <= e <= 1.0 for e in errs)
        assert errs[0] <= errs[1] * (1 + 1e-12)

    @pytest.mark.parametrize(
        "name", [name for name, th in ach.THEOREMS.items() if th.parameter == "c"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_exact_tail_rows(self, name, data):
        # On these channels every tail is exact, so the central-limit row is
        # tail + union at the delta its rule fixes: the union term is the
        # analytic form's phi term and Berry-Esseen bounds the tail, so it
        # is no looser than the analytic row. Not being a minimum over
        # delta, it need not be monotone in the rate.
        ch, t, n = _table_case(name, data)
        rate = data.draw(st.floats(0.05, 1.0), label="frac") * _largest_rate(name, ch, t, n)
        assume(rate > 0)
        try:
            res = ach.bound_at_rate(name, ch, n, rate, t=t)
        except ach.InfeasibleRateError:
            assume(False)
        analytic = ach.bound_at_rate(name, ch, n, rate, t=t, exact_tail=False)
        assert res.tail_kind == "exact" and 0.0 <= res.error_ub <= 1.0
        assert res.error_ub <= analytic.error_ub * (1 + 1e-9)
        if res.delta > 0:
            assert res.error_ub == _tail_union(name, ch, n, rate, t, res.delta).error_ub

    @pytest.mark.parametrize("name", [name for name, th in ach.THEOREMS.items()
                                      if th.at_eps is not None])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_error_at_returned_rate_meets_eps(self, name, data):
        ch, t, n = _table_case(name, data)
        low = 1e-3
        if ach.THEOREMS[name].parameter == "c":
            # no rate meets an eps at or below the central-limit error floor
            fam = ach._ensemble(ch, t, n).family()
            low = max(low, fam.be_const * fam.m3 / (fam.sigma2 ** 1.5 * math.sqrt(n)))
            assume(low < 0.4)
        eps = data.draw(st.floats(low, 0.4), label="eps")
        try:
            res = ach.max_rate_at_eps(ch, n, eps, name, t=t)
        except ach.InfeasibleRateError:
            assume(False)
        limit = eps if name in ("thm1", "thm3") else eps * (1 + 1e-6)
        assert res.rate_nats > 0 and res.error_ub <= limit
        again = ach.bound_at_rate(name, ch, n, res.rate_nats, t=t)
        assert 0.0 <= again.error_ub <= limit

    @pytest.mark.parametrize("name", ["thm2p1", "thm4p1"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_tail_plus_union_below_tilted_form(self, name, data):
        # the delta the row reports at a rate below its largest
        ch, t, n = _table_case(name, data)
        rate = data.draw(st.floats(0.05, 1.0), label="frac") * _largest_rate(name, ch, t, n)
        assume(rate > 0)
        delta = ach.bound_at_rate(name, ch, n, rate, t=t).delta
        tilted = ach.bound_at_rate(name, ch, n, None, t=t, delta=delta)
        assume(tilted.rate_nats > 0)
        direct = _tail_union(name, ch, n, tilted.rate_nats, t, delta)
        assert direct.error_ub <= tilted.error_ub * (1 + 1e-9)
