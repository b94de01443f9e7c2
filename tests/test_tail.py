import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import binom

from fbl import achievability as ach
from fbl import channel as chn
from fbl import nep, tail

UNIF = chn.InputType.uniform(2)


def cond_spec(ch):
    """Single-letter spec of -ln p(X|Y) under uniform binary input."""
    [(spec, _)] = tail._statistic_rows(ch, None, 1)
    return spec


def spec(values, probs):
    """A one-letter law with the given atoms, sorted and merged as the tail
    module merges the statistic's."""
    return tail._merged(chn.StatGroup(1.0, np.asarray(probs, float), np.asarray(values, float)))


def enumerate_sums(letters):
    """Every sum of one atom per letter, with its probability; letters is a
    list of (values, probs), one entry per summand."""
    sums = np.array([0.0])
    ps = np.array([1.0])
    for values, probs in letters:
        sums = (sums[:, None] + np.asarray(values)[None, :]).ravel()
        ps = (ps[:, None] * np.asarray(probs)[None, :]).ravel()
    return sums, ps


def enumerate_tail(values, probs, n, threshold, side, letters=None):
    """Brute-force oracle: outer-product enumeration of all atom tuples of n
    i.i.d. letters, or of the given letters."""
    sums, ps = enumerate_sums(letters or [(values, probs)] * n)
    if side == "gt":
        mask = sums > threshold + 1e-9 * max(1.0, abs(threshold))
    else:
        mask = sums <= threshold + 1e-9 * max(1.0, abs(threshold))
    return float(ps[mask].sum())


class TestMergedAtoms:
    def test_merging_and_sorting(self):
        ls = spec([0.3, 0.1, 0.3], [0.2, 0.5, 0.3])
        assert ls.values == pytest.approx([0.1, 0.3])
        assert ls.probs == pytest.approx([0.5, 0.5])
        assert tail._lattice_step([(ls, 1)]) == pytest.approx(0.2)

    def test_non_lattice_detection(self):
        ls = spec([0.0, math.log(2), math.log(3)], [0.3, 0.3, 0.4])
        with pytest.raises(tail.LatticeInfeasibleError):
            tail._lattice_step([(ls, 1)])


class TestExactTail:
    def test_bsc_four_transmissions(self):
        # weight >= 3 out of 4 at p = 0.11, via full 16-outcome enumeration
        p = 0.11
        letter = cond_spec(chn.bsc(p))
        h = chn.cond_entropy(chn.bsc(p))
        ratio = math.log((1 - p) / p)
        delta = ratio * (2.5 / 4 - p)  # tail = {weight > 2.5}
        est = tail._sum_distribution([(letter, 4)], up=True).tail(4 * (h + delta))
        expect = math.comb(4, 3) * p ** 3 * (1 - p) + p ** 4
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_threshold_below_support(self):
        law = tail._sum_distribution([(spec([1.0, 2.0], [0.5, 0.5]), 5)], up=True)
        assert law.tail(0.0).value == 1.0

    def test_threshold_above_support(self):
        law = tail._sum_distribution([(spec([1.0, 2.0], [0.5, 0.5]), 5)], up=True)
        assert law.tail(100.0).value == 0.0

    def test_exhaustive_two_and_three_atoms(self):
        rng = np.random.default_rng(3)
        for atoms in (2, 3):
            for trial in range(4):
                values = np.sort(rng.integers(0, 7, size=atoms)).astype(float)
                while len(set(values)) < atoms:
                    values = np.sort(rng.integers(0, 7, size=atoms)).astype(float)
                values = values * 0.37
                probs = rng.random(atoms) + 0.1
                probs /= probs.sum()
                ls = spec(values, probs)
                for n in (1, 5, 12):
                    thr = float(rng.uniform(n * values.min(), n * values.max()))
                    for side in ("gt", "le"):
                        got = tail._sum_distribution([(ls, n)], side == "gt").tail(thr).value
                        expect = enumerate_tail(values, probs, n, thr, side)
                        assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_strict_versus_nonstrict_at_atom(self):
        ls = spec([0.0, 1.0], [0.5, 0.5])
        n = 4
        # threshold exactly on the lattice: 'gt' excludes the atom, 'le' keeps it
        gt = tail._sum_distribution([(ls, n)], up=True).tail(2.0).value
        le = tail._sum_distribution([(ls, n)], up=False).tail(2.0).value
        assert gt == pytest.approx(float(binom.sf(2, n, 0.5)), rel=1e-12)
        assert le == pytest.approx(float(binom.cdf(2, n, 0.5)), rel=1e-12)
        assert gt + le == pytest.approx(1.0, rel=1e-12)

    def test_off_lattice_sum_is_exact_by_types(self):
        values, probs = [0.0, math.log(2), math.log(3)], [0.3, 0.3, 0.4]
        ls = spec(values, probs)
        for side in ("gt", "le"):
            est = tail._sum_distribution([(ls, 10)], side == "gt").tail(4.0)
            assert est.kind == "exact"
            assert est.value == pytest.approx(enumerate_tail(values, probs, 10, 4.0, side),
                                              rel=1e-12)

    def test_state_budget(self):
        # 10^7 + 2 states: refused before anything is allocated
        with pytest.raises(tail.LatticeInfeasibleError):
            tail._sum_distribution([(spec([0.0, 1.0], [0.5, 0.5]), 10 ** 7 + 1)], up=True)

    def test_log_value_survives_underflow(self):
        p = 0.11
        h = chn.cond_entropy(chn.bsc(p))
        law = tail._sum_distribution([(cond_spec(chn.bsc(p)), 3000)], up=True)
        est = law.tail(3000 * (h + 1.2))
        assert est.value == 0.0 or est.value < 1e-300
        assert est.log_value < -700


class TestPdelta:
    def test_bsc_matches_binomial_oracle(self):
        p, n, delta = 0.11, 200, 0.05
        est = tail.pdelta(chn.bsc(p), delta, n)
        assert est.kind == "exact"
        ratio = math.log((1 - p) / p)
        oracle = float(binom.sf(math.floor(n * (p + delta / ratio)), n, p))
        assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_bec_matches_erasure_oracle(self):
        p, n, delta = 0.5, 500, 0.04
        est = tail.pdelta(chn.bec(p), delta, n)
        assert est.kind == "exact"
        oracle = float(binom.sf(math.floor(n * (p + delta / math.log(2))), n, p))
        assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_z_channel_dispatches_to_exact_types(self):
        # atoms 0, ln 3 and ln 1.5 share no lattice step
        ch = chn.zchannel(0.5)
        with pytest.raises(tail.LatticeInfeasibleError):
            tail._lattice_step(tail._statistic_rows(ch, None, 50))
        est = tail.pdelta(ch, 0.05, 50)
        assert est.kind == "exact"
        assert tail.exact_law(ch, None, 50)[0].scale == 1.0
        assert 0.0 < est.value < 1.0

    def test_z_channel_equals_enumeration(self):
        # n small enough for the exact answer by brute force
        ch = chn.zchannel(0.5)
        n, delta = 8, 0.05
        [letter] = chn.statistic(ch)
        v, p = letter.values, letter.probs
        h = chn.cond_entropy(ch)
        expect = enumerate_tail(v, p, n, n * (h + delta), "gt")
        est = tail.pdelta(ch, delta, n)
        assert est.kind == "exact"
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_past_the_state_budget_dispatches_to_sandwich(self):
        # five atoms off a lattice: C(134, 4) > 10^7 types at n = 130
        ch = chn.DiscreteChannel([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        with pytest.raises(tail.LatticeInfeasibleError):
            tail.lattice_tail(ch, None, 0.05, 130)
        est = tail.pdelta(ch, 0.05, 130)
        assert est == nep.tail_bounds(nep.cond_entropy_family(ch), 0.05, 130)

    def test_infeasible_key_is_memoised(self, monkeypatch):
        # the refusal is remembered: two deviations build the statistic rows once
        ch = chn.DiscreteChannel([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        builds = []
        statistic_rows = tail._statistic_rows

        def counted(*args):
            builds.append(args)
            return statistic_rows(*args)

        monkeypatch.setattr(tail, "_statistic_rows", counted)
        tail.exact_law.cache_clear()
        fam = nep.cond_entropy_family(ch)
        for delta in (0.05, 0.08):
            assert tail.pdelta(ch, delta, 130) == nep.tail_bounds(fam, delta, 130)
        assert len(builds) == 1

    def test_biawgn_dispatches_to_sandwich(self):
        est = tail.pdelta(chn.BiAwgn(1.0), 0.05, 300)
        assert est.kind == "sandwich"
        assert 0.0 <= est.lower <= est.upper <= 1.0

    def test_monotone_in_delta_and_n(self):
        ch = chn.bsc(0.11)
        deltas = np.linspace(0.01, 0.2, 8)
        vals = [tail.pdelta(ch, d, 300).value for d in deltas]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        for d in (0.05, 0.1):
            assert tail.pdelta(ch, d, 600).value <= tail.pdelta(ch, d, 300).value

    def test_sandwich_consistency_with_tilted_bounds(self):
        ch = chn.bec(0.5)
        fam = nep.cond_entropy_family(ch)
        for n in (200, 500):
            for d in (0.03, 0.08):
                exact = tail.pdelta(ch, d, n).value
                sb = nep.tail_bounds(fam, d, n)
                assert sb.lower <= exact <= sb.upper


class TestPtdelta:
    def test_z_channel_exact_via_row_convolution(self):
        # only the inputs equal to 0 are noisy: enumerate their 2^4 patterns
        ch = chn.zchannel(0.5)
        n, delta = 8, 0.1
        est = tail.ptdelta(ch, UNIF, delta, n)
        assert est.kind == "exact"
        mi = chn.mutual_info(ch, UNIF)
        q = chn.mixture_output(ch, UNIF)
        u_clean = math.log(1.0 / q[1])          # four positions with input 1
        u0 = [math.log(0.5 / q[0]), math.log(0.5 / q[1])]
        total = 0.0
        for flips in itertools.product((0, 1), repeat=4):
            s = 4 * u_clean + sum(u0[f] for f in flips)
            prob = 0.5 ** 4
            if s <= n * (mi - delta) + 1e-12:
                total += prob
        assert est.value == pytest.approx(total, rel=1e-12)

    def test_bec_exact_rows(self):
        ch = chn.bec(0.5)
        est = tail.ptdelta(ch, UNIF, 0.05, 100)
        assert est.kind == "exact"
        # erasures carry zero information weight: the sum is (n - erasures) ln 2
        # tail {sum <= n(I - delta)} = {erasures >= n(p + delta/ln 2)}
        oracle = float(binom.sf(
            math.ceil(100 * (0.5 + 0.05 / math.log(2))) - 1, 100, 0.5))
        assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_type_single_row(self):
        from fractions import Fraction
        ch = chn.bsc(0.2)
        t = chn.InputType((Fraction(0), Fraction(1)))
        est = tail.ptdelta(ch, t, -0.05, 10)
        # I(t;P) = 0 and every summand is ln(p(y|1)/p(y)) with p(y)=row 1
        assert est.kind == "exact"
        assert 0.0 <= est.value <= 1.0

    def test_impossible_threshold_zero(self):
        ch = chn.zchannel(0.5)
        mi = chn.mutual_info(ch, UNIF)
        dstar = nep.rel_entropy_family(ch, UNIF).delta_star()
        est = tail.ptdelta(ch, UNIF, dstar + 0.05, 8)
        assert est.value == 0.0

    def test_certain_threshold_one(self):
        ch = chn.zchannel(0.5)
        est = tail.ptdelta(ch, UNIF, -5.0, 8)
        assert est.value == 1.0

    def test_composition_must_match_blocklength(self):
        with pytest.raises(ValueError):
            tail.ptdelta(chn.zchannel(0.5), UNIF, 0.1, 7)


class TestPowerLog:
    # the stage-by-stage oracle rounds once per stage; nearer p = 0 or 1 its
    # own error at n = 300 approaches 1e-11
    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.05, 0.95), distance=st.integers(1, 3),
           n=st.integers(0, 300))
    def test_two_point_power_equals_stage_by_stage(self, p, distance, n):
        logp = np.full(distance + 1, -np.inf)
        logp[0], logp[-1] = math.log1p(-p), math.log(p)
        oracle = np.array([0.0])
        for _ in range(n):
            oracle = tail._convolve_log(oracle, logp)
        got = tail._power_log(logp, n)
        assert got.shape == oracle.shape
        finite = oracle > -np.inf
        assert np.array_equal(got > -np.inf, finite)
        assert np.max(np.abs(got[finite] - oracle[finite])) <= 1e-11

    def test_two_point_power_respects_state_budget(self):
        with pytest.raises(tail.LatticeInfeasibleError):
            tail._power_log(np.log([0.5, 0.5]), 10 ** 7 + 1)


class TestReadout:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(2, 40), offset=st.floats(-50.0, 50.0),
           step=st.floats(1e-3, 10.0), side=st.sampled_from(["gt", "le"]))
    def test_cut_equals_mask(self, data, size, offset, step, side):
        # a lattice law with holes, read from either side
        mass = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                           min_size=size, max_size=size), label="mass"))
        assume(mass.sum() > 0)
        live = np.flatnonzero(mass)
        log_p = np.log(mass[live] / mass.sum())
        law = tail.Law.of_atoms(offset, step, step * live, log_p, up=side == "gt")
        if data.draw(st.booleans(), label="near an atom"):
            # on the atom, within half the 1e-9 slack of it, or past the slack
            k = data.draw(st.integers(-3, size + 3), label="atom")
            slacks = data.draw(st.one_of(st.sampled_from([0.0, 0.5, -0.5, 0.75, -0.75]),
                                         st.floats(-0.5, 0.5), st.floats(-3.0, 3.0)),
                               label="slacks")
            index = k + slacks * 1e-9 * max(1.0, abs(k))
        else:
            index = data.draw(st.floats(-3.0, size + 3.0), label="index")
        threshold = offset + step * index
        # oracle: a boolean mask over every atom
        y = threshold - offset
        below = law.points <= y + 1e-9 * max(step, abs(y))
        assert law.cut(threshold) == np.count_nonzero(below)
        got = law.tail(threshold).log_value
        assert got == law.log_tail[np.count_nonzero(below)]
        part = log_p[~below] if side == "gt" else log_p[below]
        if part.size == live.size:
            assert got == 0.0
        else:
            assert got == pytest.approx(float(logsumexp(part)), rel=1e-12, abs=1e-12)


class TestLawRecord:
    @pytest.mark.parametrize("ch, n", [(chn.zchannel(0.5), 1000), (chn.bsc(0.11), 6000)],
                             ids=["z-types", "bsc-lattice"])
    def test_cumulative_sums_match_longdouble(self, ch, n):
        # every entry within 1e-12 (in log) of a longdouble cumsum of the
        # builder's masses, shifted by the middle of their range so that none
        # under- or overflows
        rows = tail._statistic_rows(ch, None, n)
        try:
            offset, scale, points, log_p = tail._lattice_law(rows)
        except tail.LatticeInfeasibleError:
            offset, scale, points, log_p = tail._types_law(rows, up=True)
        law, _ = tail.exact_law(ch, None, n)
        assert np.array_equal(law.points, points)

        def log_cumsum(log_terms):
            finite = log_terms[log_terms > -np.inf]
            shift = 0.5 * (finite.max() + finite.min())
            with np.errstate(divide="ignore"):
                return np.log(np.cumsum(np.exp(log_terms.astype(np.longdouble) - shift))) + shift

        expect = log_cumsum(log_p[::-1])[::-1]  # P(S >= atom k), k = 0 .. m - 1
        assert (law.log_tail[0], law.log_tail[-1]) == (0.0, -np.inf)  # set, not summed
        assert np.max(np.abs(law.log_tail[1:-1] - expect[1:])) <= 1e-12
        # thm1's union weight sums terms of logs up to 1.4e3 (Z) and 4.2e3
        # (BSC), each rounded to their float spacing: measured 1.8e-11, 1.1e-11
        atoms = offset + points
        charged = log_cumsum(np.where(atoms > scale * 1e-9, log_p + atoms, -np.inf))
        live = charged > -np.inf
        assert np.all(law.log_charged[1:][~live] == -np.inf)
        assert np.max(np.abs(law.log_charged[1:][live] - charged[live])) <= 1e-10


class TestTypesLaw:
    """Off a lattice the law is enumerated by types: its tails equal a
    brute-force enumeration of every outcome."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["z", "2x2", "2x3"]),
           family=st.sampled_from(["cond", "rel"]), n=st.sampled_from([2, 4, 6, 8]),
           side=st.sampled_from(["gt", "le"]))
    def test_tail_equals_enumeration(self, data, kind, family, n, side):
        if kind == "z":
            ch = chn.zchannel(data.draw(st.floats(0.05, 0.95), label="p"))
        else:
            width = int(kind[-1])
            rows = [data.draw(st.lists(st.floats(0.05, 1.0), min_size=width,
                                       max_size=width), label="row") for _ in range(2)]
            ch = chn.DiscreteChannel(np.array(rows) / np.sum(rows, axis=1, keepdims=True))
        t = None if family == "cond" else UNIF
        rows = tail._statistic_rows(ch, t, n)
        letters = [(ls.values, ls.probs) for ls, cnt in rows for _ in range(cnt)]
        sums = np.sort(enumerate_sums(letters)[0])
        atoms = sums[np.r_[True, np.diff(sums) > 1e-9 * np.maximum(1.0, np.abs(sums[1:]))]]
        assume(atoms.size > 1 and np.min(np.diff(atoms)) > 1e-5)
        j = data.draw(st.integers(0, atoms.size - 1), label="atom")
        where = data.draw(st.sampled_from(["on", "near", "off", "between"]), label="where")
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        threshold = {"on": atoms[j],
                     "near": atoms[j] + sign * 1e-12 * max(1.0, abs(atoms[j])),
                     "off": atoms[j] + sign * 1e-6,
                     "between": 0.5 * (atoms[j] + atoms[min(j + 1, atoms.size - 1)])}[where]
        law = tail.Law.of_atoms(*tail._types_law(rows, up=side == "gt"), up=side == "gt")
        assert law.tail(threshold).value == pytest.approx(
            enumerate_tail(None, None, n, threshold, side, letters), rel=1e-12, abs=1e-12)
        try:
            tail._lattice_step(rows)
        except tail.LatticeInfeasibleError:
            # off a lattice the memoised law of the family's own event is the types law
            centre = tail.exact_law(ch, t, n)[1]
            delta = threshold / n - centre if t is None else centre - threshold / n
            own = "gt" if t is None else "le"
            got = tail.lattice_tail(ch, t, delta, n)
            assert got.kind == "exact"
            assert got.value == pytest.approx(
                enumerate_tail(None, None, n, threshold, own, letters), rel=1e-12, abs=1e-12)


    def test_close_atoms_merge_toward_the_larger_tail(self):
        # at n = 2 the sums 1 + 1 and 0 + (2 + 5e-9) are closer than four
        # readout slacks: they merge, up for an upper tail, down for a lower one
        values, probs = [0.0, 1.0, 2.0 + 5e-9], [0.2, 0.5, 0.3]
        ls = spec(values, probs)
        with pytest.raises(tail.LatticeInfeasibleError):
            tail._lattice_step([(ls, 2)])
        laws = {side: tail._sum_distribution([(ls, 2)], side == "gt") for side in ("gt", "le")}
        between = 2.0 + 2.5e-9
        both = 0.5 ** 2 + 2 * 0.2 * 0.3
        gt = laws["gt"].tail(between).value
        le = laws["le"].tail(between).value
        assert gt == pytest.approx(enumerate_tail(values, probs, 2, between, "gt") + 0.5 ** 2,
                                   rel=1e-12)
        assert le == pytest.approx(enumerate_tail(values, probs, 2, between, "le")
                                   + 2 * 0.2 * 0.3, rel=1e-12)
        assert gt + le == pytest.approx(1.0 + both, rel=1e-12)
        for threshold in (1.5, 2.5):  # away from the pair nothing moves
            for side in ("gt", "le"):
                assert laws[side].tail(threshold).value == pytest.approx(
                    enumerate_tail(values, probs, 2, threshold, side), rel=1e-12)


class TestLatticeMemo:
    """One exact law record per (channel, composition, n)."""

    # several block lengths on one channel, so entries are shared, missed
    # and evicted in one sequence
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["bsc", "bec", "z"]), p=st.floats(0.02, 0.45),
           steps=st.lists(st.tuples(st.integers(1, 150), st.floats(-0.5, 1.5)),
                          min_size=1, max_size=8))
    def test_memoised_tail_equals_fresh_exact_tail(self, kind, p, steps):
        ch = {"bsc": chn.bsc, "bec": chn.bec, "z": chn.zchannel}[kind](p)
        for half_n, delta in steps:
            n = 2 * half_n
            if kind == "z":
                got = tail.ptdelta(ch, UNIF, delta, n)
                fresh = tail._sum_distribution(tail._statistic_rows(ch, UNIF, n), up=False).tail(
                    n * (chn.mutual_info(ch, UNIF) - delta))
            else:
                got = tail.pdelta(ch, delta, n)
                fresh = tail._sum_distribution([(cond_spec(ch), n)], up=True).tail(
                    n * (chn.cond_entropy(ch) + delta))
            assert got.kind == fresh.kind == "exact"
            assert got.value == fresh.value
            assert got.log_value == fresh.log_value

    def test_one_build_per_key(self, monkeypatch):
        builds = []
        power_log = tail._power_log

        def counted(logp, n):
            builds.append(n)
            return power_log(logp, n)

        monkeypatch.setattr(tail, "_power_log", counted)
        tail.exact_law.cache_clear()
        ch = chn.zchannel(0.5)
        for rate_bits in (0.15, 0.25):
            res = ach.thm3_optimized(
                ch, ach.CodeParams(200, rate_nats=rate_bits * math.log(2), t=UNIF))
            assert res.tail_kind == "exact"
        assert builds == [100]  # the noisy input's row; the other is one atom
