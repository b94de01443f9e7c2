import math

import numpy as np
import pytest
from scipy.stats import binom

from fbl import achievability as ach
from fbl import channel as chn
from fbl import montecarlo as mc
from fbl import tail
from fbl.montecarlo import wilson_interval
from fbl.numkit import philox_rng

UNIF = chn.InputType.uniform(2)


def gf2_product(parity, word_bits):
    return (parity @ word_bits) % 2


class TestWilsonInterval:
    def test_coverage_against_exact(self):
        # nominal 99% coverage, verified exactly via the binomial law of the
        # hit count at a tail probability of the BSC
        samples = 20000
        exact = tail.pdelta(chn.bsc(0.11), 0.05, 100).value
        ks = np.arange(int(binom.ppf(1e-12, samples, exact)),
                       int(binom.ppf(1 - 1e-12, samples, exact)) + 1)
        cover = 0.0
        for k in ks:
            lo, hi = wilson_interval(int(k), samples)
            if lo <= exact <= hi:
                cover += binom.pmf(int(k), samples, exact)
        assert cover >= 0.985


class TestSampleGallager:
    def test_null_space_exhaustive(self):
        code = mc.sample_gallager(8, 4, seed=7)
        bits = mc._words_to_bits(code.codewords, 8)
        assert not np.any((code.parity @ bits.T) % 2)
        # every GF(2) solution appears exactly once
        all_bits = mc._words_to_bits(list(range(256)), 8)
        solutions = {i for i in range(256)
                     if not np.any(gf2_product(code.parity, all_bits[i]))}
        assert solutions == set(code.codewords)

    def test_count_is_power_of_two_with_rank_bound(self):
        for seed in range(10):
            code = mc.sample_gallager(6, 2, seed=seed)
            count = len(code.codewords)
            assert count & (count - 1) == 0
            assert count >= 2 ** 2  # rank <= n - k
            assert code.rank <= 4

    def test_all_zero_parity_gives_full_space(self):
        basis = mc._rref_nullspace([0, 0, 0], 5)
        words = mc._enumerate_nullspace(basis)
        assert words == list(range(32))

    def test_lexicographic_order(self):
        code = mc.sample_gallager(10, 3, seed=1)
        assert list(code.codewords) == sorted(code.codewords)
        assert code.codewords[0] == 0

    def test_seed_replay(self):
        a = mc.sample_gallager(12, 5, seed=42)
        b = mc.sample_gallager(12, 5, seed=42)
        assert np.array_equal(a.parity, b.parity)
        assert a.codewords == b.codewords

    def test_size_cap(self):
        with pytest.raises(ValueError):
            mc.sample_gallager(30, 4, seed=0)


class TestJarDecode:
    def test_near_noiseless_success(self):
        ch = chn.bsc(1e-9)
        code = mc.sample_gallager(12, 3, seed=2)
        book = mc._words_to_bits(code.codewords, 12)
        y = book[3].copy()  # no flips
        out = mc.jar_decode(ch, y, 0.05, ("cond_entropy",), book, 3)
        assert not out.error and out.decoded == 3 and not out.tie

    def test_huge_threshold_forces_tie(self):
        ch = chn.bsc(0.11)
        code = mc.sample_gallager(10, 2, seed=3)
        book = mc._words_to_bits(code.codewords, 10)
        y = book[1].copy()
        out = mc.jar_decode(ch, y, 10.0, ("cond_entropy",), book, 1)
        assert out.tie and out.error

    def test_matches_exhaustive_membership_oracle(self):
        # all 2^16 candidate words scored directly against the threshold
        ch = chn.bsc(0.11)
        n, k, delta = 16, 4, 0.1
        h = chn.cond_entropy(ch)
        all_bits = mc._words_to_bits(list(range(2 ** n)), n)
        rng = np.random.default_rng(12)
        for trial in range(25):
            code = mc.sample_gallager(n, k, seed=trial)
            book = mc._words_to_bits(code.codewords, n)
            tx = int(rng.integers(1, len(code.codewords)))
            y = (book[tx] + (rng.random(n) < 0.11)) % 2
            logp = np.log(ch.matrix)
            scores = logp[all_bits, y[None, :]].sum(axis=1)
            inside = -scores / n <= h + delta + 1e-12 * max(1.0, h + delta)
            jar_words = {w for w, flag in zip(range(2 ** n), inside) if flag}
            tx_in = code.codewords[tx] in jar_words
            others = any(w in jar_words for w in code.codewords
                         if w != code.codewords[tx])
            expect_error = (not tx_in) or others
            out = mc.jar_decode(ch, y, delta, ("cond_entropy",), book, tx)
            assert out.error == expect_error


class TestSimulatePe:
    def test_deterministic_replay(self):
        ch = chn.bsc(0.11)
        a = mc.simulate_pe(ch, mc.GallagerSpec(12, 3), 0.15, 2000, seed=5)
        b = mc.simulate_pe(ch, mc.GallagerSpec(12, 3), 0.15, 2000, seed=5)
        assert a == b

    def test_useless_channel_always_errs(self):
        ch = chn.bsc(0.5)
        rep = mc.simulate_pe(ch, mc.GallagerSpec(10, 2), 0.2, 1000, seed=1)
        assert rep.empirical_pe == 1.0

    def test_bsc_respects_optimized_bound(self):
        ch = chn.bsc(0.11)
        opt = ach.thm1_optimized(ch, ach.CodeParams(16, k=4))
        rep = mc.simulate_pe(ch, mc.GallagerSpec(16, 4), opt.delta, 20000, seed=11)
        se = math.sqrt(rep.empirical_pe * (1 - rep.empirical_pe) / rep.trials)
        assert rep.empirical_pe <= opt.error_ub + 3 * se

    def test_fixed_type_z_respects_closed_form(self):
        ch = chn.zchannel(0.5)
        bound = ach.zchannel_closed_form(0.5, UNIF, 8, M=4)
        # threshold past the reachable ceiling: the decoding set is the
        # set of sequences consistent with the received word
        mi = chn.mutual_info(ch, UNIF)
        delta = mi - 0.5 * (math.log(2 / 3) + math.log(4 / 3)) + 0.05
        rep = mc.simulate_pe(ch, mc.FixedTypeSpec(8, 2, UNIF), delta,
                             20000, seed=11)
        se = math.sqrt(rep.empirical_pe * (1 - rep.empirical_pe) / rep.trials)
        assert rep.empirical_pe <= bound + 3 * se

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            mc.simulate_pe(chn.bsc(0.11), mc.GallagerSpec(8, 2), 0.1, 10, seed=0)

    def test_report_consistency(self):
        ch = chn.bec(0.5)
        rep = mc.simulate_pe(ch, mc.GallagerSpec(12, 4), 0.1, 3000, seed=9)
        assert rep.errors <= rep.trials
        assert rep.wilson_99_interval[0] <= rep.empirical_pe \
            <= rep.wilson_99_interval[1]
        assert rep.ties_broken <= rep.errors

    def test_fixed_type_codebook_composition(self):
        rng = philox_rng(4, 0)
        book = mc._sample_fixed_type(UNIF, 10, 16, rng)
        assert book.shape == (16, 10)
        assert np.all(book.sum(axis=1) == 5)


def per_trial_oracle(ch, spec, delta, trials, seed):
    """The one-trial-at-a-time simulation loop, as the reference."""
    n, k = spec.n, spec.k
    gallager = isinstance(spec, mc.GallagerSpec)
    jar_kind = ("cond_entropy",) if gallager else ("rel_entropy", spec.t)
    errors = ties = 0
    for shard, start in enumerate(range(0, trials, mc._SHARD)):
        rng = philox_rng(seed, shard)
        for _ in range(min(mc._SHARD, trials - start)):
            if gallager:
                code = mc.sample_gallager(n, k, seed, rng=rng)
                q = int(rng.integers(1, len(code.codewords)))
                book = mc._words_to_bits(code.codewords, n)
            else:
                book = mc._sample_fixed_type(spec.t, n, 2 ** k, rng)
                q = int(rng.integers(0, book.shape[0]))
            y = mc._transmit(ch, book[q], mc._noise_draw(ch, rng)(n))
            out = mc.jar_decode(ch, y, delta, jar_kind, book, q)
            errors += out.error
            ties += out.tie
    return mc.SimReport(trials=trials, errors=errors, ties_broken=ties,
                        empirical_pe=errors / trials,
                        wilson_99_interval=wilson_interval(errors, trials),
                        seed=seed)


# 5,000 trials cross the 4096-trial shard boundary and end on a partial slice
BATCHED_CASES = [
    (chn.bsc(0.11), mc.GallagerSpec(16, 4), 0.2274, 1),
    (chn.bec(0.5), mc.GallagerSpec(16, 6), 0.065, 12),
    (chn.zchannel(0.5), mc.FixedTypeSpec(8, 2, UNIF), 0.1, 13),
    (chn.BiAwgn(1.0), mc.GallagerSpec(12, 3), 0.2, 3),
    (chn.bsc(0.11), mc.GallagerSpec(6, 2), 0.2, 4),
]
BATCHED_IDS = ["bsc-16-4", "bec-16-6", "z-fixed-8-2", "biawgn-0db-12-3",
               "bsc-rank-deficient-6-2"]


class TestBatchedSimulator:
    @pytest.mark.parametrize("ch, spec, delta, seed", BATCHED_CASES, ids=BATCHED_IDS)
    def test_equals_per_trial_loop(self, ch, spec, delta, seed):
        trials = 5000
        assert trials % mc._SHARD % max(1, mc._SLICE_CELLS // (spec.n << spec.k))
        rep = mc.simulate_pe(ch, spec, delta, trials, seed)
        assert rep == per_trial_oracle(ch, spec, delta, trials, seed)
        assert 0 < rep.ties_broken < rep.errors < trials

    @pytest.mark.parametrize("n, k", [(16, 4), (6, 2), (10, 3)])
    def test_nullspaces_match_reference_elimination(self, n, k):
        rng = philox_rng(5, 0)
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        rows = rng.integers(0, 2, size=(300, n - k, n), dtype=np.int64) @ weights
        rows[0] = 0
        seen = []
        for idx, words in mc._nullspaces(rows, n):
            for i, w in zip(idx, words):
                reference = mc._enumerate_nullspace(mc._rref_nullspace(rows[i].tolist(), n))
                assert w.tolist() == reference
                assert len(reference) == 2 ** (n - mc._gf2_rank(rows[i].tolist()))
            seen += idx.tolist()
        assert sorted(seen) == list(range(300))

    def test_random_tie_break_keeps_the_trials(self):
        ch, spec = chn.bsc(0.11), mc.GallagerSpec(12, 3)
        pess = mc.simulate_pe(ch, spec, 0.3, 5000, seed=2)
        rand = mc.simulate_pe(ch, spec, 0.3, 5000, seed=2, tie_break="random")
        assert rand.ties_broken == pess.ties_broken > 0
        assert pess.errors - pess.ties_broken <= rand.errors < pess.errors

    @pytest.mark.parametrize("tie_break", mc._TIE_BREAKS)
    def test_report_does_not_depend_on_slice_size(self, monkeypatch, tie_break):
        ch, spec = chn.bsc(0.11), mc.GallagerSpec(12, 3)
        base = mc.simulate_pe(ch, spec, 0.3, 5000, seed=2, tie_break=tie_break)
        monkeypatch.setattr(mc, "_SLICE_CELLS", 3000)
        assert mc.simulate_pe(ch, spec, 0.3, 5000, seed=2, tie_break=tie_break) == base

    def test_unknown_tie_break_is_rejected(self):
        ch = chn.bsc(0.11)
        with pytest.raises(ValueError, match="tie_break"):
            mc.simulate_pe(ch, mc.GallagerSpec(8, 2), 0.1, 1000, seed=0,
                           tie_break="Pessimistic")
