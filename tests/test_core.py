"""Texts, weights, samples, and the sampling oracles."""

import math
import os
import signal
import time
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
from seqfree.core import POISSON_BLOCK, SPARSE_DRAW_RATIO, drop_zero_weight, tally_positions
from seqfree.exact import interleave_sentinel

from conftest import prefix_count, reference_tally, sample_from_counts, sample_from_pairs


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

    @pytest.mark.parametrize("kind", [Text, Word])
    def test_callers_int32_array_stays_writable(self, kind):
        ids = np.array([1, 2], dtype=np.int32)
        symbols = kind(ids)
        ids[0] = 5
        assert ids.tolist() == [5, 2]
        with pytest.raises(ValueError):
            symbols.ids[0] = 9

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

# Text length of the multi-block Poissonized pins: its bulk is drawn in four
# uneven blocks, and a draw of s positions is Poissonized for n < s <=
# (n / 40)**2, about 1.5M.
N_BLOCKS = 3 * POISSON_BLOCK + 7


def poissonized_stream(size: int, pvals: np.ndarray, seed) -> tuple:
    """The generator calls of a Poissonized draw, written out: (counts,
    bulk total minus size). The bulk is drawn in B = ceil(n /
    POISSON_BLOCK) blocks cut at n * j // B, block j from the seed's
    generator jumped j + 1 times; the correction draws from the seed's
    generator itself. An excess is removed at uniformly random ranks of
    the bulk draws, listed position by position."""
    rng = np.random.default_rng(seed)
    n = pvals.size
    blocks = math.ceil(n / POISSON_BLOCK)
    bulk = np.concatenate([
        np.random.Generator(rng.bit_generator.jumped(j + 1)).poisson(
            size * pvals[n * j // blocks:n * (j + 1) // blocks])
        for j in range(blocks)])
    excess = int(bulk.sum()) - size
    counts = bulk.copy()
    if excess < 0:
        cdf = np.cumsum(pvals)
        picks = np.searchsorted(cdf / cdf[-1], np.sort(rng.random(-excess)), side="right")
        counts += np.bincount(picks, minlength=pvals.size)
    elif excess > 0:
        ranks = np.sort(rng.choice(size + excess, excess, replace=False, shuffle=False))
        drawn = np.repeat(np.arange(pvals.size), bulk)
        counts -= np.bincount(drawn[ranks], minlength=pvals.size)
    return counts, excess


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
        # Seeds whose Poisson bulk overshoots a draw of 6,000 and falls
        # short of it, picked from the written-out stream.
        _, cases = sampler_cases(N_POISSON)
        sampler, pvals = cases["weighted"]
        excesses = {seed: poissonized_stream(6000, pvals, seed)[1] for seed in range(20)}
        over = [seed for seed, excess in excesses.items() if excess > 0]
        short = [seed for seed, excess in excesses.items() if excess < 0]
        assert over and len(short) >= 2
        sampler.draw(N_POISSON, 1)  # not above n: one multinomial
        sampler.draw(6000, over[0])  # removes bulk draws
        assert "_cdf" not in vars(sampler)
        sampler.draw(6000, short[0])
        cdf = vars(sampler)["_cdf"]
        sampler.draw(6000, short[1])
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
        ] + [
            (N_BLOCKS, kind, size, True)
            for kind in ("uniform", "weighted")
            for size in (N_BLOCKS + 1, 2 * N_BLOCKS)
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

    def test_poissonized_bulk_corrected_both_ways(self):
        # Over seeds 0-9 the bulk of a draw of 10,000 falls short of it on
        # some seeds, which add categorical draws, and exceeds it on others,
        # which remove bulk draws.
        text, cases = sampler_cases(N_POISSON)
        size, ends = 10_000, tally_ends(N_POISSON)
        excesses = []
        for sampler, pvals in cases.values():
            for seed in range(10):
                counts, excess = poissonized_stream(size, pvals, seed)
                excesses.append(excess)
                want = sample_from_counts(counts, text)
                got = sampler.draw(size, seed)
                assert_same_sample(got, want)
                assert got.size == size
                assert np.all(pvals[got.positions - 1] > 0)
                assert_same_tallies(sampler.draw_tallies(size, seed, ends, TALLY_WORD),
                                    want.tally(ends, TALLY_WORD))
        assert min(excesses) < 0 < max(excesses)

    @pytest.mark.parametrize("n, kind, size", [
        (N_SPARSE, "uniform", N_SPARSE // SPARSE_DRAW_RATIO),  # sparse
        (N_SPARSE, "weighted", 5000),  # one multinomial
        (N_POISSON, "weighted", 10_000),  # Poissonized in one block
        (N_BLOCKS, "uniform", 2 * N_BLOCKS),  # Poissonized in four
    ])
    def test_a_reused_seed_sequence_draws_alike(self, n, kind, size):
        _, cases = sampler_cases(n)
        sampler, _ = cases[kind]
        seed = subseed(3, 2)
        first = sampler.draw(size, seed)
        assert_same_sample(sampler.draw(size, seed), first)
        assert_same_sample(sampler.draw(size, subseed(3, 2)), first)
        assert seed.n_children_spawned == 0

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_draw_alike_inline_and_on_a_pool(self, monkeypatch, cpus):
        # One CPU draws the blocks inline and builds no pool; more draw
        # them on a fresh pool of that many threads. The reference draw
        # runs as this machine does.
        _, cases = sampler_cases(N_BLOCKS)
        sampler, _ = cases["weighted"]
        want = sampler.draw(2 * N_BLOCKS, 11)
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(core, "_pool", None)
        try:
            got = sampler.draw(2 * N_BLOCKS, 11)
            assert (core._pool is None) == (cpus == 1)
        finally:
            if core._pool is not None:
                core._pool[1].shutdown()
        assert_same_sample(got, want)

    def test_multi_block_draws_pass_chisquare(self):
        stats = pytest.importorskip("scipy.stats")
        alpha = 0.001  # fixed before the first run
        n, size, draws = N_BLOCKS, 2 * N_BLOCKS, 100
        assert math.ceil(n / POISSON_BLOCK) == 4
        rng = np.random.default_rng(6)
        nums = rng.integers(0, 6, size=n, dtype=np.int64)
        nums[:50] = 0
        dist = Distribution.from_numerators(nums)
        sampler = WeightedSampler(Text(np.ones(n, dtype=np.int32)), dist)
        p = dist.numerators() / float(dist.common_denominator())
        p /= p.sum()
        # 16 cells of about 3,072 positions, four to a block of the bulk.
        groups = np.arange(n) * 16 // n
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
        assert stats.chisquare(pooled[positive], draws * size * p[positive]).pvalue > alpha
        # Chi-square with 15 degrees of freedom per draw only when each
        # draw's counts are jointly multinomial across the blocks.
        assert alpha < stats.chi2.sf(statistic, draws * 15) < 1 - alpha

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings(
        r"ignore:This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to "
        r"deadlocks in the child\.:DeprecationWarning")
    def test_a_forked_child_draws_like_its_parent(self, monkeypatch):
        # The parent draws on a pool of two threads, which the child does
        # not inherit: the child must build its own and draw alike.
        _, cases = sampler_cases(N_BLOCKS)
        sampler, _ = cases["weighted"]
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(core, "_pool", None)
        try:
            want = sampler.draw(2 * N_BLOCKS, 5)
            assert core._pool is not None
            parent_pool = core._pool[1]
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    got = sampler.draw(2 * N_BLOCKS, 5)
                    status = 0 if (
                        core._pool is not None and core._pool[1] is not parent_pool
                        and got.positions.tolist() == want.positions.tolist()
                        and got.multiplicities.tolist() == want.multiplicities.tolist()
                    ) else 1
                finally:
                    os._exit(status)
            deadline = time.monotonic() + 60
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its draw within 60 s")
            assert os.waitstatus_to_exitcode(done[1]) == 0
        finally:
            if core._pool is not None:
                core._pool[1].shutdown()

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

    def test_dense_tallies_read_the_counts_in_place(self):
        # A Poissonized draw at n = 10**6 with an 8-symbol word: compacting
        # the n counts and then taking one full-length cumsum per symbol
        # peaked at 32.2 MB, four n-length int64 arrays; the counts tallied
        # in place must stay below three.
        n, size, limit = 10**6, 2 * 10**6, 3 * 8 * 10**6
        text = Text(np.random.default_rng(1).integers(1, 9, size=n, dtype=np.int32))
        ends = np.arange(1, 601, dtype=np.int64) * n // 600
        word = list(range(1, 9))
        sampler = UniformSampler(text)
        assert sampler._cdf.size == n  # the float weights and their cdf, which the sampler keeps
        sampler.draw_tallies(size, 0, ends, word)
        tracemalloc.start()
        try:
            peaks = [allocated(lambda: sampler.draw_tallies(size, seed, ends, word))[0]
                     for seed in range(1, 5)]
        finally:
            tracemalloc.stop()
        assert max(peaks) < limit

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
    every regime (and, in `test_poissonized_bulk_corrected_both_ways`,
    after a Poisson bulk corrected either way)."""

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
            # Poissonized in several blocks
            (N_BLOCKS, "uniform", 2 * N_BLOCKS),
            (N_BLOCKS, "weighted", 2 * N_BLOCKS),
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


@st.composite
def tally_inputs(draw) -> tuple:
    """Draw counts over a text of 1 to 80 positions with symbols 1 to 4,
    zeros included; which positions a compacted form keeps; nondecreasing
    ends in [0, n + 2]; and a word that may repeat a symbol and hold 5 and
    6, which no text holds. A few ends on a long text cut intervals longer
    than `REDUCEAT_SPAN` on average, many ends shorter ones."""
    n = draw(st.integers(1, 80))
    symbols = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ends = sorted(draw(st.lists(st.integers(0, n + 2), max_size=8)))
    word = draw(st.lists(st.integers(1, 6), max_size=5))
    return symbols, counts, keep, ends, word


def periodic_tally_case(n: int, ends: list) -> tuple:
    """A `tally_inputs` case of n positions with periodic symbols and
    counts, a compacted form that drops every fifth position, and a word
    with a repeated and an absent symbol."""
    return ([1 + i % 4 for i in range(n)], [i % 3 for i in range(n)],
            [i % 5 != 4 for i in range(n)], ends, [2, 1, 2, 6])


class TestTallyPositions:
    """`tally_positions` with multiplicities, on the counts of every
    position (positions None) and on a compacted form of them, against the
    cumulative-sum reference of `conftest`: over intervals longer than
    `REDUCEAT_SPAN` on average, which are summed by `reduceat`, and over
    shorter ones."""

    @given(tally_inputs())
    @example(([3], [2], [True], [0, 1, 1, 4], [3, 3, 5]))  # n = 1
    # a leading 0 end, repeated ends, trailing empty intervals, ends past
    # the last draw and past n
    @example(([1, 2, 3, 1, 2, 4], [2, 0, 1, 3, 0, 0], [True, True, False, True, True, True],
              [0, 0, 2, 2, 4, 5, 6, 6, 8], [1, 2, 1, 6]))
    @example(([1, 2, 1], [1, 1, 1], [True, True, True], [1, 1], [1]))  # draws past the last end
    @example(([1, 2], [0, 0], [True, False], [0, 1, 2, 3], [2]))  # no draws
    @example(([1, 2], [1, 1], [True, True], [], [1]))  # no ends
    # long intervals: a leading 0 end, a repeated end and one past n; and
    # draws past the last end
    @example(periodic_tally_case(45, [0, 20, 20, 50]))
    @example(periodic_tally_case(45, [10, 30]))
    def test_matches_the_cumulative_reference(self, case):
        symbols, counts, keep, ends, word = case
        symbols = np.array(symbols, dtype=np.int32)
        counts = np.array(counts, dtype=np.int64)
        keep = np.array(keep, dtype=bool)
        ends = np.array(ends, dtype=np.int64)
        assert_same_tallies(tally_positions(None, symbols, counts, ends, word),
                            reference_tally(None, symbols, counts, ends, word))
        positions = np.flatnonzero(keep) + 1
        compacted = (positions, symbols[keep], counts[keep], ends, word)
        assert_same_tallies(tally_positions(*compacted), reference_tally(*compacted))

    def test_decreasing_ends_rejected(self):
        counts = np.array([1, 2, 3], dtype=np.int64)
        sample = sample_from_pairs(3, [(1, 1), (3, 2)])
        for tally in (lambda ends: tally_positions(None, np.ones(3, np.int32), counts, ends, [1]),
                      lambda ends: sample.tally(ends, [1])):
            with pytest.raises(ValueError, match="nondecreasing"):
                tally([3, 1])


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
