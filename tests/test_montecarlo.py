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


def rref_nullspace(rows, n):
    """Reference null space basis of a GF(2) matrix given as bit-row ints
    (x_1 is the MSB), one row operation at a time."""
    rows = list(rows)
    pivots = []
    r = 0
    for col in range(n):
        bit = 1 << (n - 1 - col)
        pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = 1 << (n - 1 - fc)
        for i, pc in enumerate(pivots):
            if rows[i] & (1 << (n - 1 - fc)):
                vec |= 1 << (n - 1 - pc)
        basis.append(vec)
    return basis


def enumerate_nullspace(basis):
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    words.sort()
    return words


def library_nullspaces(rows, n):
    """{trial: sorted words} from the library's batched elimination."""
    out = {}
    for idx, words in mc._nullspaces(*mc._eliminate(np.asarray(rows), n)):
        out.update(zip(idx.tolist(), words.tolist()))
    return out


class TestNullspaces:
    def test_null_space_exhaustive(self):
        rng = philox_rng(7, 0)
        rows = rng.integers(0, 1 << 8, size=(20, 4))
        all_bits = mc._words_to_bits(list(range(256)), 8).astype(np.int64)
        for i, words in library_nullspaces(rows, 8).items():
            # every GF(2) solution appears exactly once
            parity = mc._words_to_bits(rows[i], 8).astype(np.int64)
            solutions = [w for w in range(256) if not np.any(gf2_product(parity, all_bits[w]))]
            assert words == solutions

    def test_count_is_power_of_two_with_rank_bound(self):
        rows = philox_rng(3, 0).integers(0, 1 << 6, size=(200, 4))
        for words in library_nullspaces(rows, 6).values():
            count = len(words)
            assert count & (count - 1) == 0
            assert count >= 2 ** 2  # rank <= n - k

    def test_all_zero_parity_gives_full_space(self):
        assert library_nullspaces(np.zeros((1, 3), dtype=np.int64), 5) == {0: list(range(32))}

    def test_lexicographic_order(self):
        rows = philox_rng(1, 0).integers(0, 1 << 10, size=(50, 7))
        for words in library_nullspaces(rows, 10).values():
            assert words == sorted(words) and words[0] == 0

    @pytest.mark.parametrize("n, k", [(16, 4), (6, 2), (10, 3)])
    def test_match_reference_elimination(self, n, k):
        rows = philox_rng(5, 0).integers(0, 1 << n, size=(300, n - k))
        rows[0] = 0
        spaces = library_nullspaces(rows, n)
        assert sorted(spaces) == list(range(300))
        for i, words in spaces.items():
            assert words == enumerate_nullspace(rref_nullspace(rows[i].tolist(), n))


def jar_errors(ch, y, delta, book, tx):
    """(error, tie) of one trial, via `_jar_sets` on a batch of one."""
    scores = mc._letter_scores(ch, ("cond_entropy",))(np.asarray(y)[None])
    inside, differs = mc._jar_sets(scores, np.asarray(book)[None], np.array([tx]),
                                   *mc._jar_limit(ch, ("cond_entropy",), delta))
    tie = bool(inside[0, tx] and (inside[0] & differs[0]).any())
    return bool(not inside[0, tx] or tie), tie


class TestJarSets:
    def test_near_noiseless_success(self):
        ch = chn.bsc(1e-9)
        words = enumerate_nullspace(rref_nullspace([0b110000000001, 0b000011110000,
                                                    0b101010101010], 12))
        book = mc._words_to_bits(words, 12)
        assert jar_errors(ch, book[3], 0.05, book, 3) == (False, False)  # no flips

    def test_huge_threshold_forces_tie(self):
        ch = chn.bsc(0.11)
        words = enumerate_nullspace(rref_nullspace([0b1100000000, 0b0011110000], 10))
        book = mc._words_to_bits(words, 10)
        assert jar_errors(ch, book[1], 10.0, book, 1) == (True, True)

    def test_matches_exhaustive_membership_oracle(self):
        # all 2^16 candidate words scored directly against the threshold
        ch = chn.bsc(0.11)
        n, k, delta = 16, 4, 0.1
        h = chn.cond_entropy(ch)
        all_bits = mc._words_to_bits(list(range(2 ** n)), n)
        logp = np.log(ch.matrix)
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 1 << n, size=(25, n - k))
        for i, words in library_nullspaces(rows, n).items():
            book = mc._words_to_bits(words, n)
            tx = int(rng.integers(1, len(words)))
            y = (book[tx] + (rng.random(n) < 0.11)) % 2
            scores = logp[all_bits, y[None, :]].sum(axis=1)
            inside = -scores / n <= h + delta + 1e-12 * max(1.0, h + delta)
            jar_words = set(np.flatnonzero(inside).tolist())
            others = any(w in jar_words for w in words if w != words[tx])
            expect_error = words[tx] not in jar_words or others
            assert jar_errors(ch, y, delta, book, tx)[0] == expect_error


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

    def test_size_cap(self):
        with pytest.raises(ValueError):
            mc.simulate_pe(chn.bsc(0.11), mc.GallagerSpec(30, 4), 0.1, 1000, seed=0)

    def test_fixed_type_codebook_composition(self):
        spec = mc.FixedTypeSpec(10, 4, UNIF)
        [(idx, books)] = mc._slice_books(spec, None, 3, 9, philox_rng(4, 0))
        assert idx.tolist() == list(range(3, 9))
        assert books.shape == (6, 16, 10)
        assert np.all(books.sum(axis=-1) == 5)


def per_trial_oracle(ch, spec, delta, trials, seed):
    """The simulation trial by trial: each shard's draws in the library's
    order, each null space by the reference elimination, and each decoding
    set scored word by word."""
    n, k = spec.n, spec.k
    gallager = isinstance(spec, mc.GallagerSpec)
    jar_kind = ("cond_entropy",) if gallager else ("rel_entropy", spec.t)
    scores = mc._letter_scores(ch, jar_kind)
    limit, strict = mc._jar_limit(ch, jar_kind, delta)
    errors = ties = 0
    for shard, start in enumerate(range(0, trials, mc._SHARD)):
        rng = philox_rng(seed, shard)
        m = min(mc._SHARD, trials - start)
        if gallager:
            rows = rng.integers(0, 1 << n, size=(m, n - k))
            books = [mc._words_to_bits(enumerate_nullspace(rref_nullspace(r.tolist(), n)), n)
                     for r in rows]
            sent = rng.integers(1, [len(b) for b in books])
            noise = mc._noise_draw(ch, rng)(size=(m, n))
        else:
            sent = rng.integers(0, 2 ** k, size=m)
            noise = mc._noise_draw(ch, rng)(size=(m, n))
            symbols = np.repeat(np.arange(len(spec.t.probs)), spec.t.counts(n))
            books = [np.array([rng.permutation(symbols) for _ in range(2 ** k)])
                     for _ in range(m)]
        for book, q, z in zip(books, sent, noise):
            y = mc._transmit(ch, book[q], z)
            metric = -scores(y[None])[book, 0, np.arange(n)].sum(axis=1) / n
            inside = metric < limit if strict else metric <= limit
            tie = inside[q] and any(inside[j] and (book[j] != book[q]).any()
                                    for j in range(len(book)))
            errors += not inside[q] or tie
            ties += tie
    return mc.SimReport(trials=trials, errors=errors, ties_broken=ties,
                        empirical_pe=errors / trials,
                        wilson_99_interval=wilson_interval(errors, trials),
                        seed=seed)


# 5,000 trials cross a shard boundary and end on a partial slice
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

    def test_random_tie_break_keeps_the_trials(self):
        ch, spec = chn.bsc(0.11), mc.GallagerSpec(12, 3)
        pess = mc.simulate_pe(ch, spec, 0.3, 5000, seed=2)
        rand = mc.simulate_pe(ch, spec, 0.3, 5000, seed=2, tie_break="random")
        assert rand.ties_broken == pess.ties_broken > 0
        assert pess.errors - pess.ties_broken <= rand.errors < pess.errors

    @pytest.mark.parametrize("ch, spec, delta", [
        (chn.bsc(0.11), mc.GallagerSpec(12, 3), 0.3),
        (chn.zchannel(0.5), mc.FixedTypeSpec(8, 2, UNIF), 0.1)], ids=["gallager", "fixed"])
    @pytest.mark.parametrize("tie_break", mc._TIE_BREAKS)
    def test_report_does_not_depend_on_slice_size(self, monkeypatch, tie_break, ch, spec,
                                                  delta):
        base = mc.simulate_pe(ch, spec, delta, 5000, seed=2, tie_break=tie_break)
        assert base.ties_broken > 0
        monkeypatch.setattr(mc, "_SLICE_CELLS", 3000)
        assert mc.simulate_pe(ch, spec, delta, 5000, seed=2, tie_break=tie_break) == base

    def test_unknown_tie_break_is_rejected(self):
        ch = chn.bsc(0.11)
        with pytest.raises(ValueError, match="tie_break"):
            mc.simulate_pe(ch, mc.GallagerSpec(8, 2), 0.1, 1000, seed=0,
                           tie_break="Pessimistic")
