"""The uniform-weights estimator: prefix grids, count matrices, the
copy measure, and the end-to-end sampling guarantee."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqfree import (
    DEFAULT_CONSTANTS,
    Distribution,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    copies_from_counts,
    copy_count,
    copy_count_table,
    estimate_distance,
    estimate_distance_uniform,
    prefix_grid,
    uniform_distance,
    uniform_plan,
)
from seqfree.core import INT64_MAX, SampleSet
from seqfree.exact import final_measure
from seqfree.uniform import PrefixGrid, tally_prefix_counts

from conftest import (
    ceil_scaled_log,
    exact_count_matrix,
    max_gap,
    random_repeat_free_word,
    random_text_ids,
    random_word_ids,
    sample_from_counts,
)


def text_of(s: str) -> Text:
    return Text.from_tokens(list(s))


def word_of(s: str, text: Text) -> Word:
    return Word.from_tokens(list(s), text.alphabet)


class TestPrefixGrid:
    def test_even_division(self):
        g = prefix_grid(100, Fraction(1, 4))
        assert g.columns.tolist() == [25, 50, 75, 100]

    def test_ceiling_arithmetic(self):
        g = prefix_grid(10, 0.34)
        assert g.columns.tolist() == [4, 7, 10]

    def test_spacing_at_least_one(self):
        assert prefix_grid(7, 1).columns.tolist() == [7]
        assert prefix_grid(7, Fraction(3, 2)).columns.tolist() == [7]

    def test_gap_bound(self):
        for n in (1, 2, 9, 57, 100):
            for spacing in (Fraction(1, 3), Fraction(1, 7), Fraction(2, 5), 1):
                g = prefix_grid(n, spacing)
                cols = g.columns
                assert cols[-1] == n
                assert np.all(np.diff(cols) > 0)
                assert max_gap(g) <= math.ceil(spacing * n)

    def test_fine_spacing_takes_every_length(self):
        # with spacing * n <= 1 every prefix length is a column, however
        # many grid steps the spacing would take
        for spacing in (Fraction(1, 4), Fraction(1, 9), Fraction(1, 10**12)):
            assert prefix_grid(4, spacing).columns.tolist() == [1, 2, 3, 4]

    def test_matches_fraction_loop(self, rng):
        # the columns one Fraction step at a time, as the grid was first built
        for _ in range(2000):
            n = int(rng.integers(1, 500))
            spacing = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 400)))
            columns, r = [], 1
            while not columns or columns[-1] < n:
                j = min(math.ceil(r * spacing * n), n)
                if not columns or j > columns[-1]:
                    columns.append(j)
                r += 1
            assert prefix_grid(n, spacing).columns.tolist() == columns

    def test_products_past_int64_take_python_integers(self):
        # (q // p + 1) p n passes int64 for spacing p/q here, so the columns
        # are worked out on Python integers, and still come out as int64.
        n, spacing = 10**4, Fraction(10**15 + 1, 10**16 + 7)
        p, q = spacing.numerator, spacing.denominator
        assert (q // p + 1) * p * n > INT64_MAX
        columns = sorted({min(math.ceil(r * spacing * n), n)
                          for r in range(1, math.ceil(1 / spacing) + 1)})
        got = prefix_grid(n, spacing).columns
        assert got.dtype == np.int64 and got.tolist() == columns

    def test_grids_compare_and_hash_by_identity(self):
        # Grids are cached and shared; their ndarray columns neither compare
        # to one bool nor hash.
        grid = prefix_grid(10, Fraction(3, 20))
        twin = PrefixGrid(10, Fraction(3, 20), [2, 3, 5, 6, 8, 9, 10])
        assert grid.columns.tolist() == twin.columns.tolist()
        assert grid != twin and grid == prefix_grid(10, Fraction(3, 20))
        assert {grid: 1}.get(prefix_grid(10, Fraction(3, 20))) == 1 and twin not in {grid}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            prefix_grid(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            prefix_grid(5, 0)


class TestUniformPlan:
    def test_frozen_example_k2(self):
        p = uniform_plan(2, 0.3)
        assert p.spacing == Fraction(1, 20)
        assert p.grid_size == 20
        assert p.sample_size == 1097

    def test_frozen_example_k1(self):
        p = uniform_plan(1, 0.9)
        assert p.spacing == Fraction(3, 10)
        assert p.grid_size == 4
        assert p.sample_size == 18

    def test_matches_high_precision_formula(self):
        # independent route: 60-digit decimal logarithm
        for k, acc in [(2, Fraction(3, 10)), (1, Fraction(9, 10)),
                       (3, Fraction(1, 10)), (4, Fraction(1, 10))]:
            p = uniform_plan(k, acc)
            spacing = acc / (3 * k)
            expected = ceil_scaled_log(
                Fraction(1) / (2 * spacing * spacing),
                Fraction(6 * k * p.grid_size),
            )
            assert p.sample_size == expected

    def test_growth_in_k(self):
        assert uniform_plan(4, 0.1).sample_size > uniform_plan(2, 0.1).sample_size

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            uniform_plan(2, 0)
        with pytest.raises(ValueError):
            uniform_plan(2, 1)
        with pytest.raises(ValueError):
            uniform_plan(0, 0.5)

    def test_unreachable_sample_size_rejected(self):
        # past int64 draws, and a spacing whose square underflows
        for acc in (Fraction(1, 10**9), Fraction(1, 10**400)):
            with pytest.raises(ValueError):
                uniform_plan(2, acc)


class TestExactCountMatrix:
    def test_hand_counts(self):
        t = text_of("aabb")
        w = word_of("ab", t)
        g = prefix_grid(4, Fraction(1, 2))
        m = exact_count_matrix(t, w, g)
        assert m.tolist() == [[2, 2], [0, 2]]
        assert m.dtype == np.int64

    def test_rows_non_decreasing(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 40))
            t = random_text_ids(rng, n, 3)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 3)
            g = prefix_grid(n, Fraction(1, 5))
            m = exact_count_matrix(t, w, g)
            assert np.all(np.diff(m, axis=1) >= 0)

    def test_absent_symbol_row_is_zero(self):
        t = text_of("aaaa")
        w = Word(np.array([1, 9]))
        g = prefix_grid(4, Fraction(1, 2))
        m = exact_count_matrix(t, w, g)
        assert m[1].tolist() == [0, 0]


class TestTallyPrefixCounts:
    def test_census_reproduces_exact_counts(self):
        t = text_of("abcabc")
        w = word_of("abc", t)
        g = prefix_grid(6, Fraction(1, 3))
        census = sample_from_counts(np.ones(6, dtype=np.int64), t)
        est = tally_prefix_counts(census, w, g)
        assert np.array_equal(est.tallies, exact_count_matrix(t, w, g))

    def test_empty_sample_rejected(self):
        t = text_of("ab")
        w = word_of("ab", t)
        g = prefix_grid(2, Fraction(1, 2))
        empty = SampleSet(2, [], [], [])
        with pytest.raises(ValueError):
            tally_prefix_counts(empty, w, g)

    def test_absent_symbol_row_is_zero(self):
        t = text_of("aa")
        w = Word(np.array([7]))
        g = prefix_grid(2, Fraction(1, 2))
        s = sample_from_counts(np.array([3, 2]), t)
        est = tally_prefix_counts(s, w, g)
        assert est.tallies.tolist() == [[0, 0]]


class TestCopyMeasure:
    def test_hand_matrix(self):
        assert copies_from_counts(np.array([[2, 2], [0, 2]])) == 2

    def test_all_zero(self):
        assert copies_from_counts(np.zeros((3, 4))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            copies_from_counts(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            copies_from_counts(np.array([1, 2, 3]))

    @given(
        arrays(np.int64, (3, 5), elements=st.integers(0, 50)),
        st.integers(min_value=1, max_value=7),
    )
    def test_scale_equivariance(self, matrix, c):
        assert copies_from_counts(matrix * c) == c * copies_from_counts(matrix)

    def test_scale_equivariance_exact_fractions(self):
        base = np.array([[3, 5, 5], [1, 2, 6], [0, 1, 4]], dtype=np.int64)
        scaled = np.array(
            [[Fraction(v, 7) for v in row] for row in base], dtype=object
        )
        assert copies_from_counts(scaled) == Fraction(copies_from_counts(base), 7)

    def test_equals_copies_on_full_grid_repeat_free(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 201))
            t = random_text_ids(rng, n, int(rng.integers(2, 5)))
            w = random_repeat_free_word(rng, int(rng.integers(1, 5)), 4)
            g = prefix_grid(n, Fraction(1, n))
            assert g.columns.tolist() == list(range(1, n + 1))
            m = exact_count_matrix(t, w, g)
            assert copies_from_counts(m) == copy_count(t, w)

    def test_adjacent_repeat_word_can_exceed_copies(self):
        # known and accepted: on words with adjacent equal symbols the
        # measure may exceed the copy count even on the full grid; the
        # repeat-free rewrite exists precisely to avoid relying on it
        t = text_of("aa")
        w = word_of("aa", t)
        g = prefix_grid(2, Fraction(1, 2))
        m = exact_count_matrix(t, w, g)
        assert copies_from_counts(m) == 2
        assert copy_count(t, w) == 1

    def test_dominates_copy_table(self, rng):
        # measure at any grid upper-bounds the copy table at its columns
        for _ in range(150):
            n = int(rng.integers(1, 60))
            t = random_text_ids(rng, n, 3)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 3)
            g = prefix_grid(n, Fraction(1, int(rng.integers(1, 8))))
            counts = exact_count_matrix(t, w, g)
            table = copy_count_table(t, w)
            measure = counts[0].astype(np.int64).copy()
            for i in range(counts.shape[0]):
                if i:
                    shortfall = np.maximum.accumulate(counts[i] - measure)
                    np.maximum(shortfall, 0, out=shortfall)
                    measure = counts[i] - shortfall
                for r, col in enumerate(g.columns):
                    assert measure[r] >= table[i, col]

    def test_grid_bound(self, rng):
        # |measure - copies| <= (k-1) * max gap, any grid, any word
        for _ in range(200):
            n = int(rng.integers(1, 120))
            t = random_text_ids(rng, n, 3)
            k = int(rng.integers(1, 5))
            w = random_word_ids(rng, k, 3)
            cols = np.unique(rng.integers(1, n + 1, size=int(rng.integers(1, 9))))
            if cols.size == 0 or cols[-1] != n:
                cols = np.unique(np.append(cols, n))
            g = prefix_grid(n, Fraction(1, n))
            g = type(g)(n, g.spacing, cols.astype(np.int64))
            m = exact_count_matrix(t, w, g)
            bound = (k - 1) * max_gap(g)
            assert abs(copies_from_counts(m) - copy_count(t, w)) <= bound

    def test_perturbation_bound(self, rng):
        # entrywise gap <= b implies measure gap <= (2k-1) * b
        for _ in range(200):
            k = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 30))
            b = int(rng.integers(0, 12))
            base = rng.integers(0, 200, size=(k, cols))
            noise = rng.integers(-b, b + 1, size=(k, cols))
            a = copies_from_counts(base)
            bb = copies_from_counts(base + noise)
            assert abs(a - bb) <= (2 * k - 1) * b


class TestEstimateDistanceUniform:
    def test_deterministic(self):
        t = text_of("ab" * 30)
        w = word_of("ab", t)
        oracle = UniformSampler(t)
        a = estimate_distance_uniform(oracle, w, 0.3, 5)
        b = estimate_distance_uniform(oracle, w, 0.3, 5)
        assert a.raw == b.raw and a.estimate == b.estimate

    @pytest.mark.parametrize("n", [2_500, 10**4, 10**5])
    def test_raw_is_the_measure_of_the_drawn_sample(self, n):
        """The estimator's tallies are those of the sample `draw` returns,
        for 2,832 draws: Poissonized at n = 2,500, one multinomial at 10^4,
        sparse at 10^5."""
        rng = np.random.default_rng(n)
        t = Text(rng.integers(1, 4, size=n, dtype=np.int32))
        w = Word([1, 2, 1])
        oracle = UniformSampler(t)
        plan = uniform_plan(w.k, Fraction(3, 10))
        grid = prefix_grid(n, plan.spacing)
        assert plan.sample_size == 2832
        for seed in range(3):
            sample = oracle.draw(plan.sample_size, seed)
            measure = copies_from_counts(tally_prefix_counts(sample, w, grid).tallies)
            est = estimate_distance_uniform(oracle, w, Fraction(3, 10), seed)
            assert est.raw == Fraction(measure, plan.sample_size)

    def test_sample_accounting(self):
        t = text_of("ab" * 30)
        w = word_of("ab", t)
        est = estimate_distance_uniform(UniformSampler(t), w, 0.3, 0)
        assert est.sample_size == 1097
        assert est.raw.denominator in {1, *(d for d in range(2, 1098) if 1097 % d == 0)}
        assert est.raw == Fraction(est.raw.numerator, est.raw.denominator)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=50),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.integers(0, 4), min_size=50, max_size=50),
        st.sampled_from([Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]),
        st.integers(0, 2**32),
    )
    def test_raw_in_unit_interval(self, ids, word_ids, numerators, accuracy, seed):
        # Neither estimator clamps: the measure of tallies over their draw
        # count already lies in [0, 1]. The distribution-free one runs at
        # relaxed constants, on rational weights with zeros.
        t, w = Text(ids), Word(word_ids)
        numerators = numerators[: t.n]
        if sum(numerators) == 0:
            numerators[0] = 1
        weighted = WeightedSampler(t, Distribution.from_numerators(numerators))
        for est in (
            estimate_distance_uniform(UniformSampler(t), w, accuracy, seed),
            estimate_distance(weighted, w, accuracy, seed, DEFAULT_CONSTANTS.relaxed(50)),
        ):
            assert 0 <= est.raw <= 1
            assert est.estimate == float(est.raw)

    def test_periodic_text_statistical(self):
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 5_000))
        w = Word(np.array([1, 2]))
        truth = uniform_distance(t, w)
        assert truth == Fraction(1, 2)
        oracle = UniformSampler(t)
        for seed in range(5):
            est = estimate_distance_uniform(oracle, w, 0.2, seed)
            assert 0.3 <= est.estimate <= 0.7

    def test_free_text_statistical(self):
        # truth is zero; the estimate stays below the accuracy in nearly
        # every seeded run (theory: probability at least 2/3)
        t = Text(np.repeat(np.array([2, 1], dtype=np.int32), 500))
        w = Word(np.array([1, 2]))
        assert uniform_distance(t, w) == 0
        oracle = UniformSampler(t)
        hits = sum(
            estimate_distance_uniform(oracle, w, 0.2, seed).estimate <= 0.2
            for seed in range(100)
        )
        assert hits >= 95

    def test_count_estimates_concentrate(self):
        # every cell of the estimated matrix is within spacing * n of the
        # exact one in well over two thirds of seeded runs
        n = 100_000
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), n // 2))
        w = Word(np.array([1, 2]))
        plan = uniform_plan(2, 0.3)
        grid = prefix_grid(n, plan.spacing)
        exact = exact_count_matrix(t, w, grid)
        oracle = UniformSampler(t)
        budget = float(plan.spacing) * n
        hits = 0
        trials = 40
        for seed in range(trials):
            sample = oracle.draw(plan.sample_size, seed)
            est = tally_prefix_counts(sample, w, grid).tallies * (n / sample.size)
            if np.all(np.abs(est - exact) <= budget):
                hits += 1
        assert hits >= math.ceil(0.75 * trials)


def with_adjacent_repeat(rng, k: int, alphabet: int) -> Word:
    """A random word of length k >= 2 whose roles j and j + 1 share their
    symbol at one random j."""
    ids = random_word_ids(rng, k, alphabet).ids.copy()
    j = int(rng.integers(0, k - 1))
    ids[j + 1] = ids[j]
    return Word(ids)


class TestSinglePositionLag:
    """The uniform estimator lags its recursion at the grid columns that
    cover one position, so the draws there cannot serve two consecutive
    roles of an adjacent repeat."""

    def test_lag_flags_single_position_columns(self):
        mixed = prefix_grid(10, Fraction(3, 20))
        assert mixed.columns.tolist() == [2, 3, 5, 6, 8, 9, 10]
        assert mixed.lag.tolist() == [False, True, False, True, False, True, True]
        # every length is a column, or none is a single position
        assert prefix_grid(4, Fraction(1, 9)).lag is True
        assert prefix_grid(100, Fraction(1, 4)).lag is False
        assert prefix_grid(10**7, Fraction(1, 30)).lag is False
        assert PrefixGrid(5, Fraction(1, 5), np.array([1, 3, 5])).lag.tolist() == [True, False, False]

    @pytest.mark.parametrize("tokens, truth", [("a a a", Fraction(2, 3)), ("a", 0)])
    def test_repeat_word_on_a_short_text(self, tokens, truth):
        # Lag-free, one draw position served both roles of "a a": raw was
        # 1 on both texts for every seed.
        t = text_of(tokens.replace(" ", ""))
        w = word_of("aa", t)
        for seed in range(20):
            est = estimate_distance_uniform(UniformSampler(t), w, Fraction(3, 10), seed)
            assert abs(est.raw - truth) <= Fraction(3, 10), seed

    def test_small_repeat_word_family(self):
        # 150 instances with n <= 24 and an adjacent repeat, 15 seeds each:
        # every instance is within the accuracy on at least 10 seeds, the
        # 2/3 guarantee.
        rng = np.random.default_rng(2222)
        accuracy, seeds = Fraction(3, 10), 15
        short = []
        for case in range(150):
            n = int(rng.integers(1, 25))
            t = random_text_ids(rng, n, int(rng.integers(1, 4)))
            w = with_adjacent_repeat(rng, int(rng.integers(2, 5)), 3)
            truth = uniform_distance(t, w)
            oracle = UniformSampler(t)
            hits = sum(abs(estimate_distance_uniform(oracle, w, accuracy, seed).raw - truth)
                       <= accuracy for seed in range(seeds))
            if 3 * hits < 2 * seeds:
                short.append((case, hits))
        assert not short, short

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=40),
        st.lists(st.integers(1, 3), min_size=2, max_size=5),
        st.integers(0, 3),
    )
    def test_lagged_measure_is_the_copy_count_on_every_length(self, ids, word_ids, repeat):
        # On the grid of every prefix length the grid's lag is exact on
        # exact counts, adjacent repeats included.
        j = repeat % (len(word_ids) - 1)
        word_ids[j + 1] = word_ids[j]
        t, w = Text(ids), Word(word_ids)
        g = prefix_grid(t.n, Fraction(1, t.n))
        assert final_measure(exact_count_matrix(t, w, g), lag=g.lag) == copy_count(t, w)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=60),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.sampled_from([Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]),
        st.integers(0, 2**32),
    )
    def test_lag_leaves_repeat_free_words_alone(self, ids, word_ids, accuracy, seed):
        # A single-position column adds draws to one symbol only, so the lag
        # cannot move a repeat-free word's measure: raw is the lag-free
        # measure of the drawn sample, on fine, mixed and coarse grids.
        word_ids = [s for i, s in enumerate(word_ids) if i == 0 or s != word_ids[i - 1]]
        t, w = Text(ids), Word(word_ids)
        oracle = UniformSampler(t)
        plan = uniform_plan(w.k, accuracy)
        grid = prefix_grid(t.n, plan.spacing)
        sample = oracle.draw(plan.sample_size, seed)
        measure = copies_from_counts(tally_prefix_counts(sample, w, grid).tallies)
        est = estimate_distance_uniform(oracle, w, accuracy, seed)
        assert est.raw == Fraction(measure, plan.sample_size)


class TestPlanCache:
    def test_repeated_calls_reuse_the_plan_and_grid(self):
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 40))
        w = Word([1, 2])
        oracle = UniformSampler(t)
        estimate_distance_uniform(oracle, w, Fraction(2, 7), 0)
        plans, grids = uniform_plan.cache_info(), prefix_grid.cache_info()
        estimate_distance_uniform(oracle, w, Fraction(2, 7), 1)
        assert uniform_plan.cache_info().hits == plans.hits + 1
        assert prefix_grid.cache_info().hits == grids.hits + 1
        assert uniform_plan.cache_info().misses == plans.misses
        assert prefix_grid.cache_info().misses == grids.misses
        plan = uniform_plan(2, Fraction(2, 7))
        assert plan is uniform_plan(2, Fraction(2, 7))
        assert prefix_grid(80, plan.spacing) is prefix_grid(80, plan.spacing)

    def test_shared_grids_reject_writes(self):
        for grid in (prefix_grid(10, Fraction(3, 20)),
                     PrefixGrid(3, Fraction(1, 3), np.array([1, 3]))):
            with pytest.raises(ValueError):
                grid.columns[0] = 7
            with pytest.raises(ValueError):
                grid.lag[0] = False
        cols = np.array([2, 4])
        grid = PrefixGrid(4, Fraction(1, 2), cols)
        cols[0] = 1  # the grid holds its own copy
        assert grid.columns.tolist() == [2, 4] and grid.lag is False

    def test_cached_results_equal_fresh_ones(self):
        for k, accuracy in [(2, 0.3), (3, "0.25"), (3, "1/7"), (1, Fraction(9, 10)),
                            (2, np.float64(0.1)), (4, 0.1), (4, Fraction(1, 10))]:
            assert uniform_plan(k, accuracy) == uniform_plan.__wrapped__(k, accuracy)
        assert uniform_plan(3, 0.1) == uniform_plan(3, Fraction(1, 10))
        # the double nearest 0.1 is not 1/10, and gets its own plan
        nearest = Fraction(0.1)
        assert nearest == 0.1 and hash(nearest) == hash(0.1)
        assert uniform_plan(3, 0.1).spacing == Fraction(1, 90)
        assert uniform_plan(3, nearest).spacing == nearest / 9
        for n, spacing in [(7, 1), (10, 0.34), (100, "1/4"), (10, Fraction(3, 20)),
                           (4, Fraction(1, 9))]:
            cached, fresh = prefix_grid(n, spacing), prefix_grid.__wrapped__(n, spacing)
            assert (cached.n, cached.spacing) == (fresh.n, fresh.spacing)
            assert cached.columns.tolist() == fresh.columns.tolist()
            assert np.array_equal(cached.lag, fresh.lag)

    def test_invalid_arguments_raise_on_every_call(self):
        for _ in range(2):
            for k, accuracy in [(2, 0), (2, 1), (0, 0.5), (2, "x"), (2, Fraction(1, 10**400))]:
                with pytest.raises(ValueError):
                    uniform_plan(k, accuracy)
            for n, spacing in [(0, Fraction(1, 2)), (5, 0), (5, -0.5)]:
                with pytest.raises(ValueError):
                    prefix_grid(n, spacing)
