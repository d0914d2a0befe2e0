"""Texts, weights, samples, and the sampling oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqfree import (
    Alphabet,
    Distribution,
    SampleSet,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    as_fraction,
    contains_word,
    subseed,
)
from seqfree import core
from seqfree.core import POISSON_MARGIN, SPARSE_DRAW_RATIO, drop_zero_weight
from seqfree.exact import interleave_sentinel

from conftest import prefix_count, sample_from_counts, sample_from_pairs


@st.composite
def fraction_weights(draw) -> list:
    """Rational weights normalized to sum one, then one of them shifted by
    up to 2e-6: zeros, numerators and denominators past 2^63, and a
    denominator of 10^400 all occur."""
    numerator = st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 2**70))
    denominator = st.one_of(st.integers(1, 12), st.integers(1, 2**70), st.just(10**400))
    raw = draw(st.lists(st.builds(Fraction, numerator, denominator), min_size=1, max_size=10))
    if sum(raw) == 0:
        raw[0] = Fraction(1)
    weights = [w / sum(raw) for w in raw]
    shift = draw(st.fractions(Fraction(-2, 10**6), Fraction(2, 10**6)))
    weights[-1] = max(weights[-1] + shift, Fraction(0))
    return weights


def reference_exact_form(weights: list) -> tuple:
    """Per-entry Fraction formulas for an accepted weight vector: each
    weight divided by the total, and the lcm of the reduced denominators."""
    total = sum(weights)
    exact = tuple(w / total for w in weights)
    denom = 1
    for w in exact:
        denom = denom * w.denominator // math.gcd(denom, w.denominator)
    return exact, denom


def text_of(s: str) -> Text:
    return Text.from_tokens(list(s))


def word_of(s: str, text: Text) -> Word:
    return Word.from_tokens(list(s), text.alphabet)


class TestAsFraction:
    def test_float_reads_decimal_literal(self):
        assert as_fraction(0.3) == Fraction(3, 10)
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(np.float64(0.1)) == Fraction(1, 10)
        assert as_fraction(np.float32(0.1)) == Fraction(1, 10)
        assert as_fraction(np.float32(0.5)) == Fraction(1, 2)
        assert Distribution.from_fractions(np.full(4, 0.25)).fractions == (Fraction(1, 4),) * 4

    def test_string_forms(self):
        assert as_fraction("0.25") == Fraction(1, 4)
        assert as_fraction("3/7") == Fraction(3, 7)

    def test_int_and_fraction_pass_through(self):
        assert as_fraction(2) == 2
        assert as_fraction(np.int64(3)) == 3
        assert as_fraction(Fraction(5, 9)) == Fraction(5, 9)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_fraction(None)

    def test_values_without_exact_value_are_value_errors(self):
        for value in ("1/0", "x", float("nan"), float("inf"), np.float32("nan")):
            with pytest.raises(ValueError):
                as_fraction(value)


class TestAlphabet:
    def test_ids_start_at_one(self):
        a = Alphabet()
        assert a.intern("x") == 1
        assert a.intern("y") == 2
        assert a.intern("x") == 1

    def test_len_and_contains(self):
        a = Alphabet()
        a.intern("q")
        assert a.intern("q") == 1 and len(a) == 1  # contained: not added again
        assert a.intern("z") == 2 and len(a) == 2


class TestTextAndWord:
    def test_text_basics(self):
        t = text_of("aabb")
        assert t.n == 4 and len(t) == 4
        assert t.ids.tolist() == [1, 1, 2, 2]

    def test_empty_text_allowed(self):
        assert Text.from_tokens([]).n == 0

    def test_text_is_immutable(self):
        t = text_of("ab")
        with pytest.raises(ValueError):
            t.ids[0] = 9

    def test_word_rejects_empty(self):
        with pytest.raises(ValueError):
            Word.from_tokens([])

    def test_word_properties(self):
        t = text_of("abc")
        w = word_of("aba", t)
        assert w.k == 3 and w.distinct_count == 2
        assert not w.has_adjacent_repeat
        assert word_of("aab", t).has_adjacent_repeat
        assert not word_of("a", t).has_adjacent_repeat

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            Text(np.array([1, -2]))

    @pytest.mark.parametrize("kind", [Text, Word])
    def test_ids_that_int32_cannot_hold_rejected(self, kind):
        # Cast first, 2**32 + 1 would wrap to 1 and 3.7 truncate to 3.
        for ids in (np.array([2**32 + 1, 2], dtype=np.int64), np.array([2**31], dtype=np.uint64),
                    [1, 2**31], np.array([3.7, 1.2]), [2**70]):
            with pytest.raises(ValueError):
                kind(ids)
        assert kind(np.array([2**31 - 1, 2], dtype=np.int64)).ids.tolist() == [2**31 - 1, 2]
        assert kind(np.array([1, 2], dtype=np.uint8)).ids.dtype == np.int32
        assert Text(np.array([])).n == 0

    def test_shared_alphabet_aligns_symbols(self):
        t = text_of("abab")
        w = word_of("ba", t)
        assert w.ids.tolist() == [2, 1]


class TestDistribution:
    def test_uniform_interval_symmetry(self):
        d = Distribution.uniform(4)
        assert d.interval_weight(2, 3) == Fraction(1, 2)

    def test_uniform_matches_from_numerators(self):
        for n in (1, 2, 7, 10**5):
            d = Distribution.uniform(n)
            ref = Distribution.from_numerators(np.ones(n, dtype=np.int64))
            assert d.common_denominator() == ref.common_denominator() == n
            assert d.numerators().dtype == ref.numerators().dtype == np.int64
            assert np.array_equal(d.numerators(), ref.numerators())
            text = Text(np.ones(n, dtype=np.int32))
            assert WeightedSampler(text, d)._pvals.tobytes() == UniformSampler(text)._pvals.tobytes()
            assert not d.numerators().flags.writeable
        with pytest.raises(ValueError):
            Distribution.uniform(0)

    def test_single_entry(self):
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        assert d.interval_weight(1, 1) == Fraction(1, 4)

    def test_full_support(self):
        d = Distribution.from_fractions(["0.3", "0.7"])
        assert d.interval_weight(1, 2) == 1

    def test_empty_interval_allowed(self):
        d = Distribution.uniform(3)
        assert d.interval_weight(2, 1) == 0

    def test_out_of_range_interval(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.interval_weight(0, 2)
        with pytest.raises(ValueError):
            d.interval_weight(1, 4)

    def test_near_one_total_is_normalized(self):
        d = Distribution.from_fractions(
            [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**7)]
        )
        assert sum(d.fractions) == 1

    def test_far_total_rejected(self):
        with pytest.raises(ValueError):
            Distribution.from_fractions([Fraction(1, 2), Fraction(1, 4)])
        with pytest.raises(ValueError):
            Distribution.from_fractions([0.5, 0.25])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Distribution.from_fractions([Fraction(3, 2), Fraction(-1, 2)])
        with pytest.raises(ValueError):
            Distribution.from_numerators([3, -1])
        for weights in ([float("nan"), 1.0], [float("inf"), 1.0]):
            with pytest.raises(ValueError):
                Distribution.from_fractions(weights)

    def test_prefixes(self):
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        assert d.numerator_prefix().tolist() == [0, 1, 4]
        assert d.common_denominator() == 4

    def test_common_denominator(self):
        d = Distribution.from_fractions([Fraction(1, 6), Fraction(1, 10), Fraction(11, 15)])
        assert d.common_denominator() == 30

    def test_from_numerators_divides_by_the_gcd(self):
        d = Distribution.from_numerators(np.array([2, 0, 4, 6]))
        assert d.numerators().tolist() == [1, 0, 2, 3]
        assert d.common_denominator() == 6 and d.numerators().dtype == np.int64
        listed = Distribution.from_numerators([2, 0, 4, np.int32(6)])
        assert listed.numerators().tolist() == [1, 0, 2, 3]
        assert listed.numerators().dtype == np.int64
        big = Distribution.from_numerators([2**64, 2**64 + 2])
        assert big.common_denominator() == 2**64 + 1 and big.numerators().dtype == object
        past = Distribution.from_numerators([2**63, 1])  # numpy would infer float64
        assert past.numerators().tolist() == [2**63, 1] and past.numerators().dtype == object
        with pytest.raises(TypeError):
            Distribution.from_numerators([0.5, 0.5])

    @given(fraction_weights())
    @example([Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(0)])  # zero weights
    @example([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6)])  # near one
    @example([Fraction(1, 2**64 + 13), Fraction(2**64 + 12, 2**64 + 13)])  # D > 2^63
    @example([Fraction("1e-400"), Fraction(1, 2) - Fraction("1e-400"), Fraction(1, 2)])
    def test_from_fractions_matches_fraction_reference(self, weights):
        total = sum(weights)
        if abs(total - 1) > Fraction(1, 10**6):
            with pytest.raises(ValueError):
                Distribution.from_fractions(weights)
            return
        exact, denom = reference_exact_form(weights)
        d = Distribution.from_fractions(weights)
        assert d.common_denominator() == denom
        assert d.numerators().tolist() == [w.numerator * (denom // w.denominator) for w in exact]
        assert d.numerators().dtype == (np.int64 if denom < 2**63 else object)
        assert d.fractions == exact
        t = Text(np.arange(1, d.n + 1))
        assert drop_zero_weight(t, d)[1].fractions == tuple(w for w in exact if w > 0)
        assert interleave_sentinel(t, Word([1]), d)[2].fractions == tuple(
            h for w in exact for h in (w / 2, w / 2)
        )

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=12))
    def test_interval_additivity(self, cells):
        if sum(cells) == 0:
            cells[0] = 1
        total = sum(cells)
        d = Distribution.from_fractions([Fraction(c, total) for c in cells])
        n = d.n
        mid = n // 2
        assert (
            d.interval_weight(1, mid) + d.interval_weight(mid + 1, n)
            == d.interval_weight(1, n)
            == 1
        )


class TestDropZeroWeight:
    def test_drops_only_zeros(self):
        t = text_of("abca")
        d = Distribution.from_fractions([0, Fraction(1, 2), 0, Fraction(1, 2)])
        t2, d2 = drop_zero_weight(t, d)
        assert t2.ids.tolist() == [2, 1] and d2.n == 2
        assert all(w > 0 for w in d2.fractions)

    def test_identity_when_all_positive(self):
        t = text_of("ab")
        d = Distribution.uniform(2)
        t2, d2 = drop_zero_weight(t, d)
        assert t2 is t and d2 is d


class TestSampleSet:
    def test_hand_multiset_weights(self):
        s = sample_from_pairs(4, [(1, 1), (1, 1), (2, 1), (3, 2), (4, 2), (4, 2), (4, 2), (4, 2)])
        assert s.size == 8
        assert s.tally([3, 4])[1].tolist() == [4, 8]  # weights 1/2 and 1

    def test_single_position_weight(self):
        s = sample_from_pairs(4, [(2, 1)] * 4)
        assert s.tally([1, 2, 4])[1].tolist() == [0, 4, 4]

    def test_empty_sample_has_no_weights(self):
        s = sample_from_pairs(4, [])
        assert s.size == 0
        rows, total = s.tally(np.arange(5), [1])
        assert rows.tolist() == [[0] * 5] and total.tolist() == [0] * 5

    def test_conflicting_symbols_rejected(self):
        with pytest.raises(ValueError):
            sample_from_pairs(3, [(1, 1), (1, 2)])

    def test_dense_and_symbol_counts(self):
        s = sample_from_pairs(3, [(1, 2), (3, 1), (3, 1)])
        assert s.positions.tolist() == [1, 3]
        assert s.multiplicities.tolist() == [1, 2]
        ends = np.arange(4)
        rows, total = s.tally(ends, [1, 2, 5, 1])
        assert total.tolist() == [0, 1, 1, 3]
        assert rows.tolist() == [[0, 0, 0, 2], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 2]]
        rows, total = s.tally(ends)
        assert rows.shape == (0, 4) and total.tolist() == [0, 1, 1, 3]

    def test_pairs_round_trip(self):
        raw = [(1, 1), (2, 2), (2, 2)]
        s = sample_from_pairs(2, raw)
        assert s.positions.tolist() == [1, 2]
        assert s.symbols.tolist() == [1, 2]
        assert s.multiplicities.tolist() == [1, 2]

    def test_from_counts(self):
        t = text_of("abc")
        s = sample_from_counts(np.array([0, 2, 1]), t)
        assert s.positions.tolist() == [2, 3]
        assert s.symbols.tolist() == [2, 3]
        assert s.size == 3

    def test_out_of_range_positions_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(2, [3], [1], [1])


def weighted_instance(n: int) -> tuple[Text, Distribution]:
    """A text of length n and integer weights over it, zero at both ends."""
    rng = np.random.default_rng(n)
    text = Text(rng.integers(1, 4, size=n, dtype=np.int32))
    nums = rng.integers(0, 5, size=n, dtype=np.int64)
    nums[[0, -1]] = 0
    return text, Distribution.from_numerators(nums)


def sampler_cases(n: int) -> tuple[Text, dict]:
    """The text of `weighted_instance`, and a uniform and a weighted
    sampler over it with the normalized weights each gives the
    multinomial."""
    text, dist = weighted_instance(n)
    uniform = np.full(n, 1.0 / n)
    weighted = dist.numerators() / float(dist.common_denominator())
    return text, {
        "uniform": (UniformSampler(text), uniform / float(uniform.sum())),
        "weighted": (WeightedSampler(text, dist), weighted / float(weighted.sum())),
    }


def assert_same_sample(got: SampleSet, want: SampleSet) -> None:
    assert (got.n, got.size) == (want.n, want.size)
    assert got.positions.tolist() == want.positions.tolist()
    assert got.symbols.tolist() == want.symbols.tolist()
    assert got.multiplicities.tolist() == want.multiplicities.tolist()


def assert_same_tallies(got: tuple, want: tuple) -> None:
    """Equal (role rows, totals) pairs, int64 and shapes included."""
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert g.shape == w.shape and g.tolist() == w.tolist()


# A word that repeats a symbol and holds one absent from the text, and
# tally ends that finish at n, for comparing `draw_tallies` with `draw`.
TALLY_WORD = [2, 1, 2, 3, 9]


def tally_ends(n: int) -> np.ndarray:
    return np.array([1, 2, 7, n // 3, n // 2, n - 1, n], dtype=np.int64)


# Text length of the sparse/dense pins: uniform draws of up to N_SPARSE //
# SPARSE_DRAW_RATIO positions are sparse, and no dense draw is Poissonized.
N_SPARSE = 1000

# Text length of the Poissonized pins: a dense draw of s positions is
# Poissonized when 4000 < s <= 10000 (s above n, and the margin 10 sqrt(s)
# at most N_POISSON / SPARSE_DRAW_RATIO), and keeps the multinomial otherwise.
N_POISSON = 4000


def poissonized_stream(size: int, pvals: np.ndarray, seed, margin_factor=POISSON_MARGIN):
    """The generator calls of a Poissonized draw, written out: (counts,
    number of bulk draws taken)."""
    rng = np.random.default_rng(seed)
    margin = margin_factor * math.sqrt(size)
    attempts = 0
    while True:
        attempts += 1
        bulk = rng.poisson((size - margin) * pvals)
        if bulk.sum() <= size:
            break
    shortfall = size - int(bulk.sum())
    cdf = np.cumsum(pvals)
    picks = np.searchsorted(cdf / cdf[-1], np.sort(rng.random(shortfall)), side="right")
    return bulk + np.bincount(picks, minlength=pvals.size), attempts


def allocated(call) -> tuple:
    """Peak bytes allocated by `call` beyond those held before it, and what
    it returned; tracemalloc must be tracing. numpy reports its buffers to
    tracemalloc, so an O(n) step at n = 1e6 shows as megabytes, on any
    machine."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    result = call()
    return tracemalloc.get_traced_memory()[1] - held, result


class TestSamplers:
    def test_determinism(self):
        t = text_of("abcabc")
        a = UniformSampler(t).draw(50, 123)
        b = UniformSampler(t).draw(50, 123)
        assert a.positions.tolist() == b.positions.tolist()
        assert a.multiplicities.tolist() == b.multiplicities.tolist()
        # A Poissonized draw, from a fresh sampler and twice from one.
        text, dist = weighted_instance(N_POISSON)
        sampler = WeightedSampler(text, dist)
        first = WeightedSampler(text, dist).draw(6000, 9)
        assert_same_sample(sampler.draw(6000, 9), first)
        assert_same_sample(sampler.draw(6000, 9), first)

    @given(fraction_weights())
    @example([Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(0)])  # zero weights
    @example([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6)])  # near one
    @example([Fraction(1, 2**64 + 13), Fraction(2**64 + 12, 2**64 + 13)])  # D > 2^63
    @example([Fraction("1e-400"), Fraction(1, 2) - Fraction("1e-400"), Fraction(1, 2)])
    def test_dense_weights_are_correctly_rounded_quotients(self, weights):
        if abs(sum(weights) - 1) > Fraction(1, 10**6):
            return  # rejected, as `test_from_fractions_matches_fraction_reference` checks
        exact, _ = reference_exact_form(weights)
        floats = np.array([float(w) for w in exact])
        text = Text(np.ones(len(weights), dtype=np.int32))
        sampler = WeightedSampler(text, Distribution.from_fractions(weights))
        assert sampler._pvals.tobytes() == (floats / float(floats.sum())).tobytes()

    def test_shortfall_cdf_built_once_on_first_poissonized_draw(self):
        sampler = WeightedSampler(*weighted_instance(N_POISSON))
        sampler.draw(N_POISSON, 1)  # not above n: one multinomial
        assert "_cdf" not in vars(sampler)
        sampler.draw(6000, 9)
        cdf = vars(sampler)["_cdf"]
        sampler.draw(6000, 10)
        assert vars(sampler)["_cdf"] is cdf

    def test_zero_draws(self):
        t = text_of("ab")
        s = UniformSampler(t).draw(0, 1)
        assert s.size == 0

    def test_single_support_point(self):
        t = text_of("a")
        s = UniformSampler(t).draw(5, 9)
        assert s.positions.tolist() == [1]
        assert s.symbols.tolist() == [1]
        assert s.multiplicities.tolist() == [5]

    def test_sample_size_accounting(self):
        t = text_of("abab")
        assert UniformSampler(t).draw(17, 3).size == 17

    def test_weighted_sampler_skips_zero_weight(self):
        t = text_of("abab")
        d = Distribution.from_fractions([0, Fraction(1, 2), 0, Fraction(1, 2)])
        s = WeightedSampler(t, d).draw(200, 11)
        assert set(s.positions.tolist()) <= {2, 4}

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            UniformSampler(Text.from_tokens([]))

    def test_weights_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="disagree on length"):
            WeightedSampler(text_of("abc"), Distribution.uniform(4))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UniformSampler(text_of("ab")).draw(-1, 0)

    def test_size_past_int64_rejected(self):
        with pytest.raises(ValueError):
            UniformSampler(text_of("ab")).draw(2**63, 0)

    def test_subseed_streams_differ(self):
        t = text_of("abcdefgh")
        a = UniformSampler(t).draw(100, subseed(7, 1))
        b = UniformSampler(t).draw(100, subseed(7, 2))
        assert (a.positions.tolist(), a.multiplicities.tolist()) != (
            b.positions.tolist(), b.multiplicities.tolist())

    def test_empirical_weights_concentrate(self):
        # wt_S of a fixed interval is within 0.01 of the true weight in
        # at least 95 of 100 seeded draws of size 1e5.
        t = text_of("ab" * 8)
        d = Distribution.uniform(t.n)
        sampler = WeightedSampler(t, d)
        true = d.interval_weight(1, 5)
        hits = 0
        for trial in range(100):
            s = sampler.draw(100_000, 1000 + trial)
            if abs(Fraction(int(s.tally([5])[1][0]), s.size) - true) <= Fraction(1, 100):
                hits += 1
        assert hits >= 95

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_sparse_draw_is_the_tally_of_its_positions(self, seed):
        text, cases = sampler_cases(N_SPARSE)
        sampler, _ = cases["uniform"]
        size = N_SPARSE // SPARSE_DRAW_RATIO  # the largest sparse draw
        idx = np.random.default_rng(seed).integers(0, N_SPARSE, size)
        want = sample_from_counts(np.bincount(idx, minlength=N_SPARSE), text)
        assert_same_sample(sampler.draw(size, seed), want)

    @pytest.mark.parametrize("n, kind, size, poissonized", [
        pytest.param(n, kind, size, poissonized, id=f"{kind}-{size}")
        for n, kind, size, poissonized in [
            (N_SPARSE, "uniform", N_SPARSE // SPARSE_DRAW_RATIO + 1, False),
            (N_SPARSE, "uniform", 5000, False),
            (N_SPARSE, "weighted", 10, False),
            (N_SPARSE, "weighted", N_SPARSE // SPARSE_DRAW_RATIO, False),
            (N_SPARSE, "weighted", 5000, False),
        ] + [
            (N_POISSON, kind, size, poissonized)
            for kind in ("uniform", "weighted")
            for size, poissonized in [
                (N_POISSON, False),  # not above n
                (N_POISSON + 1, True),
                (10_000, True),  # margin 1,000 = N_POISSON / SPARSE_DRAW_RATIO
                (10_001, False),
            ]
        ]
    ])
    def test_dense_draw_keeps_the_multinomial_stream(self, n, kind, size, poissonized):
        """Dense draws outside the Poissonized regime keep the multinomial
        stream; inside it they follow `poissonized_stream`."""
        text, cases = sampler_cases(n)
        sampler, pvals = cases[kind]
        for seed in (0, 7, subseed(3, 2)):
            if poissonized:
                counts = poissonized_stream(size, pvals, seed)[0]
            else:
                counts = np.random.default_rng(seed).multinomial(size, pvals)
            want = sample_from_counts(counts, text)
            assert_same_sample(sampler.draw(size, seed), want)

    def test_uniform_sparse_draws_pass_chisquare(self):
        stats = pytest.importorskip("scipy.stats")
        alpha = 0.001  # fixed before the first run
        n = 100_000
        sample = UniformSampler(Text(np.ones(n, dtype=np.int32))).draw(n // SPARSE_DRAW_RATIO, 2024)
        # 100 cells of 1,000 positions, 250 expected draws each.
        observed = np.bincount((sample.positions - 1) // 1000, weights=sample.multiplicities,
                               minlength=100)
        assert stats.chisquare(observed).pvalue > alpha

    def test_poissonized_draws_pass_chisquare(self):
        stats = pytest.importorskip("scipy.stats")
        alpha = 0.001  # fixed before the first run
        n, size, draws = 8000, 10_000, 200  # margin 1,000: Poissonized
        rng = np.random.default_rng(5)
        nums = rng.integers(0, 6, size=n, dtype=np.int64)
        nums[:50] = 0
        dist = Distribution.from_numerators(nums)
        sampler = WeightedSampler(Text(np.ones(n, dtype=np.int32)), dist)
        p = dist.numerators() / float(dist.common_denominator())
        p /= p.sum()
        groups = np.arange(n) * 10 // n  # ten cells of 800 positions
        expected_group = size * np.bincount(groups, weights=p)
        pooled = np.zeros(n, dtype=np.int64)
        statistic = 0.0
        for seed in range(draws):
            counts = np.zeros(n, dtype=np.int64)
            sample = sampler.draw(size, seed)
            counts[sample.positions - 1] = sample.multiplicities
            pooled += counts
            observed = np.bincount(groups, weights=counts)
            statistic += float(((observed - expected_group) ** 2 / expected_group).sum())
        assert not pooled[nums == 0].any()
        positive = nums > 0
        # Pooled draws are one multinomial over the positive positions.
        assert stats.chisquare(pooled[positive], draws * size * p[positive]).pvalue > alpha
        # Each draw's grouped statistic is chi-square with 9 degrees of
        # freedom only when its counts are jointly multinomial.
        assert alpha < stats.chi2.sf(statistic, draws * 9) < 1 - alpha

    @pytest.mark.parametrize("kind", ["uniform", "weighted"])
    def test_poissonized_draws_are_exact_in_size_and_support(self, kind):
        text, cases = sampler_cases(N_POISSON)
        sampler, pvals = cases[kind]
        for size in (N_POISSON + 1, 6000, 10_000):
            for seed in range(20):
                sample = sampler.draw(size, seed)
                assert sample.size == size
                assert np.all(pvals[sample.positions - 1] > 0)

    def test_poissonized_bulk_redrawn_when_over_size(self, monkeypatch):
        # A margin of minus one deviation puts the bulk over the size in
        # about five draws of six, so most draws redraw it.
        monkeypatch.setattr(core, "POISSON_MARGIN", -1)
        text, cases = sampler_cases(N_SPARSE)
        sampler, pvals = cases["weighted"]
        redrawn = 0
        ends = tally_ends(N_SPARSE)
        for seed in range(10):
            counts, attempts = poissonized_stream(1500, pvals, seed, margin_factor=-1)
            redrawn += attempts > 1
            want = sample_from_counts(counts, text)
            assert_same_sample(sampler.draw(1500, seed), want)
            assert_same_tallies(sampler.draw_tallies(1500, seed, ends, TALLY_WORD),
                                want.tally(ends, TALLY_WORD))
        assert redrawn >= 5

    def test_sparse_draws_allocate_independently_of_n(self):
        n, size, limit = 10**6, 2_832, 10**6
        text = Text(np.ones(n, dtype=np.int32))
        # The 30 columns of the uniform estimator's grid at accuracy 0.3, k = 3.
        ends = np.arange(1, 31, dtype=np.int64) * n // 30
        tracemalloc.start()
        try:
            sparse, _ = allocated(lambda: UniformSampler(text).draw(size, 1))
            tallies, _ = allocated(
                lambda: UniformSampler(text).draw_tallies(size, 1, ends, [1, 2, 1]))
            dense, _ = allocated(lambda: UniformSampler(text).draw(n, 1))
        finally:
            tracemalloc.stop()
        assert sparse < limit
        assert tallies < limit
        assert dense > 8 * n  # the n multinomial weights: the guard sees numpy

    def test_float_weights_built_once_on_the_first_dense_draw(self):
        # Exact weights keep no float copy; the sampler builds its n float
        # weights on its first dense draw and keeps them.
        n = 10**6
        text = Text(np.ones(n, dtype=np.int32))
        tracemalloc.start()
        try:
            built, dist = allocated(lambda: Distribution.uniform(n))
            build, sampler = allocated(lambda: WeightedSampler(text, dist))
        finally:
            tracemalloc.stop()
        assert built < 12 * n  # the int64 numerators, no float view
        assert build < 10**6
        assert "_pvals" not in vars(sampler)
        sampler.draw(n, 1)
        pvals = vars(sampler)["_pvals"]
        sampler.draw(n, 2)
        assert vars(sampler)["_pvals"] is pvals


class TestDrawTallies:
    """`draw_tallies` is `draw(...).tally(...)` without the SampleSet, in
    every regime (and, in `test_poissonized_bulk_redrawn_when_over_size`,
    after a redrawn Poisson bulk)."""

    @pytest.mark.parametrize("n, kind, size", [
        pytest.param(n, kind, size, id=f"{kind}-{n}-{size}")
        for n, kind, size in [
            # sparse uniform draws, up to the largest
            (N_SPARSE, "uniform", 0),
            (N_SPARSE, "uniform", 1),
            (N_SPARSE, "uniform", 100),
            (N_SPARSE, "uniform", N_SPARSE // SPARSE_DRAW_RATIO),
            # one multinomial
            (N_SPARSE, "uniform", N_SPARSE // SPARSE_DRAW_RATIO + 1),
            (N_SPARSE, "uniform", 5000),
            (N_SPARSE, "weighted", 0),
            (N_SPARSE, "weighted", 10),
            (N_SPARSE, "weighted", 5000),
            (N_POISSON, "uniform", N_POISSON),
            (N_POISSON, "weighted", 10_001),
            # Poissonized
            (N_POISSON, "uniform", N_POISSON + 1),
            (N_POISSON, "uniform", 10_000),
            (N_POISSON, "weighted", N_POISSON + 1),
            (N_POISSON, "weighted", 10_000),
        ]
    ])
    def test_equals_the_tally_of_the_draw(self, n, kind, size):
        _, cases = sampler_cases(n)
        sampler, _ = cases[kind]
        for seed in (0, 7, subseed(3, 2)):
            want = sampler.draw(size, seed).tally(tally_ends(n), TALLY_WORD)
            assert_same_tallies(sampler.draw_tallies(size, seed, tally_ends(n), TALLY_WORD), want)

    def test_invalid_sizes_rejected(self):
        sampler = UniformSampler(text_of("abcd"))
        for size in (-1, core.MAX_DRAWS + 1):
            with pytest.raises(ValueError):
                sampler.draw_tallies(size, 0, [4], [1])


class TestPrefixCounts:
    def test_hand_counts(self):
        t = text_of("aabb")
        w = word_of("ab", t)
        assert prefix_count(t, w, 1, 4) == 2
        assert prefix_count(t, w, 2, 2) == 0
        assert prefix_count(t, w, 2, 4) == 2

    def test_empty_prefix(self):
        t = text_of("aabb")
        w = word_of("ab", t)
        assert prefix_count(t, w, 1, 0) == 0

    def test_equal_roles_have_equal_counts(self):
        t = text_of("abcabca")
        w = word_of("aba", t)
        for j in range(t.n + 1):
            assert prefix_count(t, w, 1, j) == prefix_count(t, w, 3, j)

    def test_role_out_of_range(self):
        t = text_of("ab")
        w = word_of("ab", t)
        with pytest.raises(ValueError):
            prefix_count(t, w, 3, 1)
        with pytest.raises(ValueError):
            prefix_count(t, w, 1, 5)


class TestContainment:
    def test_contains(self):
        t = text_of("aabb")
        assert contains_word(t, word_of("ab", t))

    def test_free(self):
        t = text_of("ba")
        assert not contains_word(t, word_of("ab", t))

    def test_empty_text_is_free(self):
        t = Text.from_tokens([])
        w = Word.from_tokens(["a"])
        assert not contains_word(t, w)
