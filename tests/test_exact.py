"""Ground-truth oracles: greedy copies, the count-table recursion,
brute force, and the weighted-to-uniform reduction pipeline."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqfree import (
    Distribution,
    Text,
    Word,
    bruteforce_distance,
    copy_count,
    copy_count_table,
    exact_weighted_distance,
    greedy_copies,
    interleave_sentinel,
    quantize_weights,
    uniform_distance,
)
from seqfree import core, exact
from seqfree.core import SENTINEL, RoleCounts, drop_zero_weight, role_prefix_counts
from seqfree.exact import (
    BRUTEFORCE_LIMIT,
    EXPANSION_LIMIT,
    TextExpansion,
    expand_text,
    final_measure,
    running_maximum,
)
from seqfree.harness.generators import random_text

from conftest import (
    branching_distance,
    carried_measures,
    every_block_measure,
    positive_rational_weights,
    prefix_count,
    random_text_ids,
    random_word_ids,
    validate_copies,
)
from test_bench_api import load_workloads


def text_of(s: str) -> Text:
    return Text.from_tokens(list(s))


def word_of(s: str, text: Text) -> Word:
    return Word.from_tokens(list(s), text.alphabet)


class TestGreedyCopies:
    def test_hand_example(self):
        t = text_of("aabb")
        copies = greedy_copies(t, word_of("ab", t))
        assert copies.count == 2
        assert copies.positions.tolist() == [[1, 3], [2, 4]]
        validate_copies(copies, t)

    def test_free_text(self):
        t = text_of("ba")
        assert greedy_copies(t, word_of("ab", t)).count == 0

    def test_overlapping_roles_share_positions(self):
        t = text_of("aaa")
        copies = greedy_copies(t, word_of("aa", t))
        assert copies.count == 2
        assert copies.positions.tolist() == [[1, 2], [2, 3]]
        validate_copies(copies, t)

    def test_word_longer_than_text(self):
        t = text_of("ab")
        assert greedy_copies(t, word_of("aba", t)).count == 0

    def test_empty_text(self):
        t = Text.from_tokens([])
        w = Word.from_tokens(["a"])
        assert greedy_copies(t, w).count == 0

    def test_validate_rejects_tampering(self):
        t = text_of("aabb")
        copies = greedy_copies(t, word_of("ab", t))
        bad = np.array(copies.positions)
        bad[1, 0] = 1  # duplicate a role-1 position
        tampered = type(copies)(positions=bad, word=copies.word)
        with pytest.raises(AssertionError):
            validate_copies(tampered, t)

    def test_validation_is_structural(self, rng):
        # role-disjointness and symbol agreement on random instances
        for _ in range(300):
            n = int(rng.integers(0, 15))
            t = random_text_ids(rng, n, 3)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 3)
            validate_copies(greedy_copies(t, w), t)


class TestCopyCountTable:
    def test_hand_recursion_aabb(self):
        t = text_of("aabb")
        table = copy_count_table(t, word_of("ab", t))
        assert table[1, 4] == 2

    def test_hand_recursion_aaa(self):
        t = text_of("aaa")
        table = copy_count_table(t, word_of("aa", t))
        assert table[1, 3] == 2

    def test_first_row_is_prefix_count(self):
        t = text_of("abcabca")
        w = word_of("abc", t)
        table = copy_count_table(t, w)
        expected = [prefix_count(t, w, 1, j) for j in range(t.n + 1)]
        assert table[0].tolist() == expected

    def test_matches_greedy_on_random_instances(self, rng):
        for _ in range(400):
            n = int(rng.integers(0, 40))
            t = random_text_ids(rng, n, int(rng.integers(1, 5)))
            w = random_word_ids(rng, int(rng.integers(1, 5)), 4)
            assert copy_count(t, w) == greedy_copies(t, w).count

    def test_shape(self):
        t = text_of("abab")
        w = word_of("ab", t)
        assert copy_count_table(t, w).shape == (2, 5)


class TestUniformDistance:
    def test_periodic_and_blockwise_agree(self):
        # both classic layouts have distance 1/k
        n, k = 20, 4
        letters = [chr(ord("a") + i) for i in range(k)]
        periodic = Text.from_tokens(letters * (n // k))
        w = Word.from_tokens(letters, periodic.alphabet)
        blockwise = Text.from_tokens(
            [c for c in letters for _ in range(n // k)], periodic.alphabet
        )
        assert uniform_distance(periodic, w) == Fraction(5, 20)
        assert uniform_distance(blockwise, w) == Fraction(5, 20)

    def test_free_text_zero(self):
        t = text_of("ba")
        assert uniform_distance(t, word_of("ab", t)) == 0

    def test_half(self):
        t = text_of("aabb")
        assert uniform_distance(t, word_of("ab", t)) == Fraction(1, 2)

    def test_empty_text_rejected(self):
        t = Text.from_tokens([])
        with pytest.raises(ValueError):
            uniform_distance(t, Word.from_tokens(["a"]))


class TestBruteforce:
    def test_uniform_hand(self):
        t = text_of("aabb")
        assert bruteforce_distance(t, word_of("ab", t)) == Fraction(1, 2)

    def test_weighted_hand(self):
        t = text_of("ab")
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        assert bruteforce_distance(t, word_of("ab", t), d) == Fraction(1, 4)

    def test_free_text(self):
        t = text_of("ba")
        assert bruteforce_distance(t, word_of("ab", t)) == 0

    def test_size_limit(self):
        t = text_of("ab" * 12)
        assert t.n > BRUTEFORCE_LIMIT
        with pytest.raises(ValueError):
            bruteforce_distance(t, word_of("ab", t))

    def test_agrees_with_copy_fraction(self, rng):
        for _ in range(120):
            n = int(rng.integers(1, 11))
            t = random_text_ids(rng, n, 3)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 3)
            assert bruteforce_distance(t, w) == Fraction(copy_count(t, w), n)

    def test_agrees_with_branching_oracle_weighted(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 9))
            t = random_text_ids(rng, n, 2)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 2)
            weights = positive_rational_weights(rng, n, n + 12)
            d = Distribution.from_fractions(weights)
            assert bruteforce_distance(t, w, d) == branching_distance(t, w, weights)


class TestQuantize:
    def test_worked_example(self):
        d = Distribution.from_fractions([Fraction(3, 10), Fraction(7, 10)])
        q = quantize_weights(d, Fraction(1, 4))
        assert q.rounded == (Fraction(1, 2), Fraction(3, 4))
        assert q.scale == Fraction(4, 5)
        assert q.normalized.fractions == (Fraction(2, 5), Fraction(3, 5))
        assert q.l1_error == Fraction(1, 5)

    def test_on_grid_fixed_point(self):
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        q = quantize_weights(d, Fraction(1, 4))
        assert q.scale == 1
        assert q.normalized.fractions == d.fractions
        assert q.l1_error == 0

    def test_rejects_non_positive_step(self):
        d = Distribution.uniform(2)
        with pytest.raises(ValueError):
            quantize_weights(d, 0)

    def test_float_step_reads_as_its_decimal(self):
        q = quantize_weights(Distribution.uniform(2), 0.1)
        assert q.step == Fraction(1, 10)

    def test_zero_denominator_step_is_a_value_error(self):
        with pytest.raises(ValueError):
            quantize_weights(Distribution.uniform(2), "1/0")

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=40),
    )
    def test_l1_bound(self, cells, step_denom):
        if sum(cells) == 0:
            cells[0] = 1
        total = sum(cells)
        d = Distribution.from_fractions([Fraction(c, total) for c in cells])
        step = Fraction(1, step_denom)
        q = quantize_weights(d, step)
        assert q.l1_error <= 2 * step * d.n
        # every normalized weight sits on the scale*step grid
        for w in q.normalized.fractions:
            assert (w / (q.scale * step)).denominator == 1


class TestInterleave:
    def test_word_rewrite(self):
        t = text_of("ab")
        w = word_of("aba", t)
        _, w2, _ = interleave_sentinel(t, w)
        assert w2.ids.tolist() == [1, SENTINEL, 2, SENTINEL, 1, SENTINEL]
        assert not w2.has_adjacent_repeat

    def test_text_rewrite(self):
        t = text_of("ab")
        t2, _, _ = interleave_sentinel(t, word_of("ab", t))
        assert t2.ids.tolist() == [1, SENTINEL, 2, SENTINEL]

    def test_weights_halved(self):
        t = text_of("ab")
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        _, _, d2 = interleave_sentinel(t, word_of("ab", t), d)
        assert d2.fractions == (
            Fraction(1, 8), Fraction(1, 8), Fraction(3, 8), Fraction(3, 8)
        )

    def test_rejects_sentinel_in_input(self):
        t = Text(np.array([1, 0, 2]))
        w = Word(np.array([1]))
        with pytest.raises(ValueError):
            interleave_sentinel(t, w)

    def test_halves_distance_uniform(self):
        t = text_of("aabb")
        w = word_of("ab", t)
        q = Distribution.uniform(4)
        t2, w2, q2 = interleave_sentinel(t, w, q)
        assert bruteforce_distance(t2, w2, q2) == Fraction(1, 4)
        assert bruteforce_distance(t, w, q) == Fraction(1, 2)

    def test_halves_distance_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 8))
            t = random_text_ids(rng, n, 2)
            w = random_word_ids(rng, int(rng.integers(1, 3)), 2)
            weights = positive_rational_weights(rng, n, n + 6)
            d = Distribution.from_fractions(weights)
            t2, w2, d2 = interleave_sentinel(t, w, d)
            half = branching_distance(t2, w2, list(d2.fractions))
            whole = branching_distance(t, w, weights)
            assert half == whole / 2


class TestExpansion:
    def test_hand_example(self):
        t = text_of("ab")
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        e = expand_text(t, d, Fraction(1, 4))
        assert e.expanded.ids.tolist() == [1, 2, 2, 2]

    def test_identity_splitting(self):
        t = text_of("abc")
        e = expand_text(t, Distribution.uniform(3), Fraction(1, 3))
        assert e.expanded.ids.tolist() == t.ids.tolist()

    def test_float_base_reads_as_its_decimal(self):
        t = text_of("abab")
        e = expand_text(t, Distribution.from_fractions([Fraction(1, 4)] * 4), 0.05)
        assert e.expanded.n == 20

    def test_non_integer_multiplicity_rejected(self):
        t = text_of("ab")
        d = Distribution.from_fractions([Fraction(1, 3), Fraction(2, 3)])
        with pytest.raises(ValueError, match="position 1"):
            expand_text(t, d, Fraction(1, 4))

    def test_expansion_cap(self):
        t = text_of("ab")
        base = Fraction(1, EXPANSION_LIMIT + 1)
        d = Distribution.from_fractions([base, 1 - base])
        with pytest.raises(ValueError, match="cap"):
            expand_text(t, d, base)

    def test_origin_map(self):
        t = text_of("ab")
        e = TextExpansion(t, np.array([1, 3]))
        assert e.expanded.ids.tolist() == [1, 2, 2, 2]
        assert e.boundaries.tolist() == [0, 1, 4]
        assert e.expanded_length == 4

    def test_expansion_symbols_follow_origin(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            t = random_text_ids(rng, n, 3)
            weights = positive_rational_weights(rng, n, n + 9)
            d = Distribution.from_fractions(weights)
            e = expand_text(t, d, Fraction(1, n + 9))
            assert e.expanded_length == n + 9
            # source position of each expanded one: non-decreasing and onto
            origin = np.searchsorted(e.boundaries, np.arange(1, e.expanded_length + 1))
            assert np.all(np.diff(origin) >= 0)
            assert set(origin.tolist()) == set(range(1, n + 1))
            assert e.expanded.ids.tolist() == t.ids[origin - 1].tolist()

    def test_splitting_preserves_distance_repeat_free(self, rng):
        # for words without adjacent repeats the uniform distance of the
        # expansion equals the weighted distance of the source
        from conftest import random_repeat_free_word

        for _ in range(60):
            n = int(rng.integers(1, 8))
            t = random_text_ids(rng, n, 3)
            w = random_repeat_free_word(rng, int(rng.integers(1, 4)), 3)
            weights = positive_rational_weights(rng, n, n + 8)
            d = Distribution.from_fractions(weights)
            e = expand_text(t, d, Fraction(1, n + 8))
            assert uniform_distance(e.expanded, w) == branching_distance(t, w, weights)


class TestExactWeightedDistance:
    def test_hand_example(self):
        t = text_of("ab")
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        assert exact_weighted_distance(t, word_of("ab", t), d) == Fraction(1, 4)

    def test_uniform_weights_reduce_to_copy_fraction(self, rng):
        for _ in range(80):
            n = int(rng.integers(1, 13))
            t = random_text_ids(rng, n, 3)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 3)
            assert exact_weighted_distance(t, w, Distribution.uniform(n)) == \
                uniform_distance(t, w)

    def test_free_text_zero(self):
        t = text_of("ba")
        d = Distribution.from_fractions([Fraction(1, 3), Fraction(2, 3)])
        assert exact_weighted_distance(t, word_of("ab", t), d) == 0

    def test_matches_bruteforce(self, rng):
        # 2**64 + 1 pushes the common denominator past int64, so the
        # recursion runs on Python integers.
        huge = 2**64 + 1
        for _ in range(60):
            n = int(rng.integers(1, 9))
            t = random_text_ids(rng, n, 2)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 2)
            weights = positive_rational_weights(rng, n, n + 10)
            variants = [weights]
            zeroed = [0 if z else x for x, z in zip(weights, rng.random(n) < 0.4)]
            if sum(zeroed) > 0:
                variants.append([x / sum(zeroed) for x in zeroed])
            if n >= 2:
                shifted = list(weights)
                shifted[0] += Fraction(1, huge)
                shifted[-1] -= Fraction(1, huge)
                assert Distribution.from_fractions(shifted).common_denominator() >= 2**63
                variants.append(shifted)
            for variant in variants:
                d = Distribution.from_fractions(variant)
                assert exact_weighted_distance(t, w, d) == bruteforce_distance(t, w, d)

    def test_zero_weights_are_free(self):
        t = text_of("aabab")
        w = word_of("ab", t)
        d = Distribution.from_fractions([0, Fraction(1, 2), Fraction(1, 2), 0, 0])
        assert exact_weighted_distance(t, w, d) == bruteforce_distance(t, w, d)

    def test_huge_denominator_is_exact(self):
        t = text_of("ab")
        w = word_of("ab", t)
        big = Distribution.from_fractions(
            [Fraction(1, 9999991), Fraction(9999990, 9999991)]
        )
        assert exact_weighted_distance(t, w, big) == Fraction(1, 9999991)
        assert exact_weighted_distance(t, w, big) == bruteforce_distance(t, w, big)

    def test_words_with_repeats_supported(self):
        t = text_of("aaa")
        w = word_of("aa", t)
        d = Distribution.from_fractions(
            [Fraction(1, 6), Fraction(2, 6), Fraction(3, 6)]
        )
        assert exact_weighted_distance(t, w, d) == branching_distance(
            t, w, list(d.fractions)
        )

    def test_float_weights_get_the_exact_answer(self):
        # 0.1 is read as the decimal it prints as: exactly 1/10
        t = text_of("ab")
        d = Distribution.from_fractions([0.1, 0.9])
        assert exact_weighted_distance(t, word_of("ab", t), d) == Fraction(1, 10)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=8),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.floats(0, 1), min_size=8, max_size=8),
        st.sampled_from([np.float64, np.float32]),
    )
    @example([1, 2, 1, 2], [1, 2], [0.1, 0.2, 0.3, 0.4] + [0.0] * 4, np.float32)
    @example([1, 1, 2], [1, 2], [1e-300, 0.5, 0.5] + [0.0] * 5, np.float64)
    def test_random_float_weights_match_bruteforce(self, ids, word_ids, raw, dtype):
        t, w = Text(ids), Word(word_ids)
        raw = np.array(raw[: t.n])
        if raw.sum() == 0:
            raw[0] = 1.0
        floats = (raw / raw.sum()).astype(dtype)
        d = Distribution.from_fractions(floats)
        assert exact_weighted_distance(t, w, d) == bruteforce_distance(t, w, d)


def expansion_distance(text: Text, word: Word, dist: Distribution) -> Fraction:
    """An independent oracle of the weighted distance: drop zero weights,
    interleave the separator, expand every position by its numerator and
    count greedy copies in the expansion. It shares no step with
    `exact_weighted_distance` and, unlike `bruteforce_distance`, runs on
    texts of a few dozen positions."""
    kept_text, kept = drop_zero_weight(text, dist)
    sep_text, sep_word, sep_dist = interleave_sentinel(kept_text, word, kept)
    expansion = expand_text(sep_text, sep_dist, Fraction(1, sep_dist.common_denominator()))
    copies = greedy_copies(expansion.expanded, sep_word).count
    return Fraction(2 * copies, expansion.expanded_length)


def split_columns(matrix: np.ndarray, rng) -> list:
    """`matrix` cut into column blocks of one to four columns."""
    cuts, at = [], 0
    while at < matrix.shape[1]:
        at += int(rng.integers(1, 5))
        cuts.append(min(at, matrix.shape[1]))
    return np.split(matrix, cuts[:-1], axis=1)


class TestRunningMaximumLag:
    """Blocks run one after another through one carry, a flag per column
    cut block by block, against the two bool forms and against one fresh
    step on the whole matrix."""

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_uniform_flags_equal_bool_forms(self, rng, dtype):
        for _ in range(200):
            k, width = int(rng.integers(1, 6)), int(rng.integers(1, 15))
            counts = rng.integers(-3, 8, size=(k, width)).astype(dtype)
            blocks = split_columns(counts, rng)
            for lag in (True, False):
                flags = np.full(width, lag)
                got = np.concatenate(list(carried_measures(blocks, flags)), axis=1)
                want = np.concatenate(list(carried_measures(blocks, lag)), axis=1)
                assert got.dtype == want.dtype == counts.dtype
                assert np.array_equal(got, want)
                assert np.array_equal(running_maximum(counts, lag), want)

    def test_mixed_flags_do_not_depend_on_blocks(self, rng):
        changed = seams = 0
        for _ in range(300):
            k, width = int(rng.integers(2, 6)), int(rng.integers(1, 15))
            counts = np.cumsum(rng.integers(0, 3, size=(k, width)), axis=1)
            flags = rng.integers(0, 2, size=width).astype(bool)
            whole = running_maximum(counts, flags)
            blocks = split_columns(counts, rng)
            blocked = np.concatenate(list(carried_measures(blocks, flags)), axis=1)
            assert np.array_equal(blocked, whole)
            changed += not np.array_equal(whole, running_maximum(counts, False))
            # A lagged first column of a later block reads the carried last.
            firsts = np.cumsum([block.shape[1] for block in blocks])[:-1]
            seams += bool(flags[firsts].any())
        assert changed > 0 and seams > 0

    # Role 1 carries a worst shortfall of 3 out of columns 0-2 under any
    # lag: its shortfalls there are [3, 3, 2] lagged and [3, 2, 1] not.
    # From column 3 on role 0 stays at 2, so role 1's shortfall is its
    # count less 2 under any lag, and its measure is the same for every lag.
    CARRIED = ([0, 1, 2], [3, 3, 3])
    LATER = {
        "equal": ([2, 2, 2, 2], [4, 5, 5, 5], [1, 2, 2, 2], 3),  # max shortfall 3
        "below": ([2, 2, 2, 2], [3, 4, 4, 4], [0, 1, 1, 1], 3),  # max shortfall 2
        "above": ([2, 2, 2, 2], [4, 5, 6, 6], [1, 2, 2, 2], 4),  # max shortfall 4
    }

    @pytest.mark.parametrize("case", sorted(LATER))
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_later_block_shortfall_against_carried_maximum(self, rng, case, dtype):
        # A later block whose shortfalls stay at or below the carried
        # maximum keeps it; one that passes it raises it.
        later0, later1, measure1, worst = self.LATER[case]
        counts = np.array(
            [self.CARRIED[0] + later0, self.CARRIED[1] + later1], dtype=dtype)
        want = np.array([counts[0], [0, 0, 0] + measure1], dtype=dtype)
        for lag in (True, False, np.array([True, False, False, True, False, True, True])):
            whole = running_maximum(counts, lag)
            assert whole.dtype == counts.dtype and np.array_equal(whole, want)
            carry = np.zeros((2, 2), dtype=dtype)
            cuts = [lag, lag] if isinstance(lag, bool) else np.split(lag, [3])
            got = [running_maximum(block, cut, carry)
                   for block, cut in zip(np.split(counts, [3], axis=1), cuts)]
            assert np.array_equal(np.concatenate(got, axis=1), whole)
            assert list(carry[0]) == list(want[:, -1]) and list(carry[1]) == [0, worst]
            for _ in range(10):
                blocks = split_columns(counts, rng)
                got = np.concatenate(list(carried_measures(blocks, lag)), axis=1)
                assert got.dtype == counts.dtype and np.array_equal(got, whole)

    def test_final_measure_within_total(self, rng):
        # The estimators' raw values need no clamp: on nondecreasing,
        # non-negative role tallies, each at most a total tally column by
        # column, the measure lies in [0, total], lagged or not, in one
        # block from a fresh start or in blocks through one carry.
        for _ in range(300):
            k, width = int(rng.integers(1, 6)), int(rng.integers(1, 15))
            steps = rng.integers(0, 4, size=width)
            total = int(steps.sum())
            counts = np.cumsum(rng.integers(0, steps + 1, size=(k, width)), axis=1)
            flags = rng.integers(0, 2, size=width).astype(bool)
            for lag in (True, False, flags):
                assert 0 <= final_measure(counts, lag) <= total
                blocks = split_columns(counts, rng)
                assert 0 <= list(carried_measures(blocks, lag))[-1][-1, -1] <= total


def allocated(call) -> int:
    """Peak bytes allocated by `call` beyond those held before it, while
    tracemalloc runs."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - held


class TestBlockedRecursion:
    """`role_prefix_counts` walks the text in blocks of `COPY_BLOCK`
    columns; blocks of one to five columns put a block seam at nearly
    every position of these small instances."""

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=10),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.lists(st.integers(0, 5), min_size=10, max_size=10),
        st.sampled_from([1, 2, 3, 4, 5]),
    )
    @example([1], [1], [0] * 10, 1)  # n = 1
    @example([1, 1, 2, 1, 2, 2], [1, 1, 2], [3, 0, 1, 0, 2, 5, 0, 0, 0, 0], 2)
    def test_small_blocks_match_oracles(self, ids, word_ids, numerators, block):
        t, w = Text(ids), Word(word_ids)
        numerators = numerators[: t.n]
        if sum(numerators) == 0:
            numerators[0] = 1
        d = Distribution.from_numerators(numerators)
        whole = copy_count_table(t, w)  # one block: n < COPY_BLOCK
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "COPY_BLOCK", block)
            assert copy_count(t, w) == greedy_copies(t, w).count
            assert np.array_equal(copy_count_table(t, w), whole)
            assert exact_weighted_distance(t, w, d) == expansion_distance(t, w, d)

    @given(
        st.lists(st.integers(1, 3), min_size=12, max_size=60),
        st.lists(st.integers(1, 3), min_size=2, max_size=5),
        st.lists(st.integers(0, 4), min_size=60, max_size=60),
        st.sampled_from([1, 2, 3, 4, 5]),
    )
    @example([1, 1, 2] * 4, [1, 1, 2], [0, 2] * 30, 3)
    def test_repeat_words_match_expansion_beyond_bruteforce(
        self, ids, word_ids, numerators, block
    ):
        # n = 12 to 60 is past BRUTEFORCE_LIMIT; every word repeats a symbol.
        word_ids[1] = word_ids[0]
        t, w = Text(ids), Word(word_ids)
        numerators = numerators[: t.n]
        if sum(numerators) == 0:
            numerators[-1] = 1
        d = Distribution.from_numerators(numerators)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "COPY_BLOCK", block)
            assert exact_weighted_distance(t, w, d) == expansion_distance(t, w, d)

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_object_counts_across_blocks(self, rng, block):
        # D = 2**64 + 1 > 2**63: the counts are Python integers.
        huge = 2**64 + 1
        for _ in range(15):
            n = int(rng.integers(5, 9))
            t = random_text_ids(rng, n, 2)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 2)
            numerators = rng.integers(0, 3, size=n).tolist()
            numerators[0] += 1
            numerators[-1] += huge - sum(numerators)
            d = Distribution.from_numerators(numerators)
            assert d.common_denominator() == huge and d.numerators().dtype == object
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "COPY_BLOCK", block)
                assert exact_weighted_distance(t, w, d) == bruteforce_distance(t, w, d)

    def test_allocation_is_independent_of_n(self):
        # numpy reports its buffers to tracemalloc, so a count row over the
        # text (8 MB in int64 at n = 1e6) shows here, on any machine.
        # The six-symbol word takes two groups of counts.
        n = 10**6
        rng = np.random.default_rng(7)
        t = random_text_ids(rng, n, 6)
        d = Distribution.uniform(n)
        for w in (Word([1, 2, 2, 3]), Word([4, 1, 6, 2, 5, 3])):
            tracemalloc.start()
            try:
                copies = allocated(lambda: copy_count(t, w))
                weighted = allocated(lambda: exact_weighted_distance(t, w, d))
                table = allocated(lambda: copy_count_table(t, w))
            finally:
                tracemalloc.stop()
            assert copies < 10**6 and weighted < 2 * 10**6
            assert table > 8 * n * w.k  # the full table: the guard sees numpy

    def test_previous_block_is_freed(self):
        # At 2**13 columns and k = 4 one block of counts or of measure
        # takes 131 kB unweighted (int32) and 262 kB weighted (int64);
        # holding the previous block while the next is built peaks at
        # 472 kB and 1.06 MB.
        n = 10**6
        t = random_text_ids(np.random.default_rng(7), n, 6)
        d = Distribution.uniform(n)
        w = Word([1, 2, 2, 3])
        tracemalloc.start()
        try:
            copies = allocated(lambda: copy_count(t, w))
            weighted = allocated(lambda: exact_weighted_distance(t, w, d))
        finally:
            tracemalloc.stop()
        assert core.COPY_BLOCK == 2**13
        assert copies < 400_000 and weighted < 900_000

    def test_weighted_counts_hold_one_array_per_block(self):
        # The weighted counts of a block are summed in place on the masked
        # weights, whose bool mask is dropped first: at 2**13 columns and
        # k = 4 that is one 262 kB int64 array beside the block's measure,
        # against three arrays for a separate mask, copy and cumsum.
        n = 10**6
        t = random_text_ids(np.random.default_rng(7), n, 6)
        d = Distribution.uniform(n)
        w = Word([1, 2, 2, 3])
        tracemalloc.start()
        try:
            weighted = allocated(lambda: exact_weighted_distance(t, w, d))
        finally:
            tracemalloc.stop()
        assert core.COPY_BLOCK == 2**13
        assert weighted < 650_000

    def test_benchmark_text_keeps_its_distance(self):
        # The value the whole-row kernel gave on the uniform-large text.
        text, word = load_workloads().uniform_inputs(1)
        assert uniform_distance(text, word) == Fraction(1248509, 5000000)

    def test_eight_symbol_identity_word_keeps_its_count(self):
        # Eight roles fill both groups of four counts; greedy copies agree.
        text = random_text(10**6, 8, 1)
        assert copy_count(text, Word(list(range(1, 9)))) == 123901

    def test_block_fits_a_16_bit_count(self):
        # The unweighted counts of one block are summed in 16-bit lanes.
        assert 1 <= core.COPY_BLOCK < 2**16


class TestPackedCounts:
    """The unweighted counts of `role_prefix_counts` against the same
    counts on unit weights, which take one cumsum per role, block by
    block, at block sizes that put seams everywhere and at the largest
    block a 16-bit count holds."""

    TOP = 2**31 - 1

    @staticmethod
    def assert_unit_weights_agree(text: Text, word: Word) -> None:
        packed = list(role_prefix_counts(text, word))
        unit = list(role_prefix_counts(text, word, np.ones(text.n, np.int64)))
        assert len(packed) == len(unit)
        for got, want in zip(packed, unit):
            assert got.dtype == np.int32 and got.shape == want.shape
            assert np.array_equal(got, want)

    def words(self, rng, symbols: np.ndarray):
        """Words of five to eight distinct symbols, some of them absent
        from the text, with adjacent repeats."""
        for distinct in range(5, 9):
            roles = rng.permutation(symbols)[:distinct]
            repeats = rng.integers(1, 3, size=distinct)
            yield Word(np.repeat(roles, repeats))

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 2**16 - 1])
    def test_unit_weights_agree(self, rng, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "COPY_BLOCK", block)
            # n = 1; the word's other symbols are absent.
            self.assert_unit_weights_agree(Text([7]), Word([7]))
            self.assert_unit_weights_agree(Text([7]), Word([7, 7, 1, 2, 3, 4, 5, 6]))
            for base in (1, self.TOP - 9):
                symbols = np.arange(base, base + 10)  # the last two are absent
                for _ in range(10):
                    n = int(rng.integers(1, 40))
                    text = Text(rng.choice(symbols[:8], size=n))
                    for word in self.words(rng, symbols):
                        self.assert_unit_weights_agree(text, word)

    def test_full_block_counts(self, rng):
        # One symbol counts nearly a whole block of 2**16 - 1, next to
        # the lanes of seven others.
        n = 2**16 + 5
        ids = np.full(n, self.TOP - 3)
        ids[rng.integers(0, n, size=50)] = self.TOP
        text = Text(ids)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "COPY_BLOCK", 2**16 - 1)
            for roles in ([1, 2, 3, self.TOP - 3, self.TOP, 4, 5, 6],
                          [self.TOP - 3, self.TOP, self.TOP - 3],
                          [self.TOP, 1, 2, 3, self.TOP - 3]):
                self.assert_unit_weights_agree(text, Word(roles))


TEXT_KINDS = ("random", "periodic", "runs", "skewed")


def kind_text(kind: str, n: int, seed: int) -> Text:
    """n positions over symbols 1 to 3: uniform, a random pattern of one to
    four symbols repeated, runs of one to eleven equal symbols, or mostly
    symbol 1."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        ids = rng.integers(1, 4, size=n)
    elif kind == "periodic":
        ids = np.resize(rng.integers(1, 4, size=int(rng.integers(1, 5))), n)
    elif kind == "runs":
        ids = np.repeat(rng.integers(1, 4, size=n), rng.integers(1, 12, size=n))[:n]
    else:
        ids = rng.choice(np.arange(1, 4), size=n, p=[0.7, 0.2, 0.1])
    return Text(ids)


def kind_numerators(n: int, seed: int, zero_share: float, huge: bool) -> list:
    """Weights 0 to 3 with about `zero_share` of them zero, the first at
    least 1; `huge` adds 2**66 to the last, so that on two positions or
    more D > 2**63 and the counts are Python integers."""
    rng = np.random.default_rng(seed + 1)
    numerators = rng.integers(0, 4, size=n)
    numerators[rng.random(n) < zero_share] = 0
    numerators = numerators.tolist()
    numerators[0] += 1
    numerators[-1] += 2**66 if huge else 0
    return numerators


def small_proof_layout(patch, block: int, chunk: int, span: int) -> None:
    """Blocks of `block` columns, proof chunks of `chunk` positions (the
    gcd with the block is taken) and passes of about `span` positions."""
    patch.setattr(core, "COPY_BLOCK", block)
    patch.setattr(exact, "PROOF_CHUNK", chunk)
    patch.setattr(exact, "PROOF_PASS", span)


class TestWholeTextMeasure:
    """`copy_count` and `exact_weighted_distance` against the recursion
    run on every block, `every_block_measure` of `role_prefix_counts`, and
    against greedy copies, with blocks of one to sixteen columns, chunks
    of one to eight positions and passes of one block to many, so that the
    proof that a block is settled meets many seams, on texts that settle
    (uniform, skewed) and that keep raising a shortfall (periodic, runs)."""

    @given(
        st.sampled_from(TEXT_KINDS), st.integers(1, 300), st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 3), min_size=1, max_size=5), st.booleans(),
        st.sampled_from([1, 2, 3, 4, 8, 16]), st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 16, 48]),
    )
    @example("skewed", 300, 0, [1, 2, 3], False, 8, 4, 48)
    @example("skewed", 300, 0, [1, 1, 2, 3], True, 8, 8, 16)
    def test_counts_match_every_block_recursion(
        self, kind, n, seed, word_ids, repeat, block, chunk, span
    ):
        if repeat and len(word_ids) > 1:
            word_ids[1] = word_ids[0]
        text, word = kind_text(kind, n, seed), Word(word_ids)
        with pytest.MonkeyPatch.context() as patch:
            small_proof_layout(patch, block, chunk, span)
            want = every_block_measure(role_prefix_counts(text, word))
            assert copy_count(text, word) == want == greedy_copies(text, word).count

    @given(
        st.sampled_from(TEXT_KINDS), st.integers(1, 300), st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 3), min_size=1, max_size=5), st.booleans(),
        st.sampled_from([0.0, 0.3, 0.9]), st.booleans(), st.sampled_from([1, 2, 3, 4, 8, 16]),
        st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 16, 48]),
    )
    @example("random", 300, 0, [2, 2, 1], True, 0.3, True, 4, 2, 16)
    @example("skewed", 300, 0, [1, 2, 3], False, 0.3, True, 8, 4, 48)
    def test_weighted_match_every_block_recursion(
        self, kind, n, seed, word_ids, repeat, zero_share, huge, block, chunk, span
    ):
        if repeat and len(word_ids) > 1:
            word_ids[1] = word_ids[0]
        text, word = kind_text(kind, n, seed), Word(word_ids)
        d = Distribution.from_numerators(kind_numerators(n, seed, zero_share, huge))
        assert (d.numerators().dtype == object) == (huge and n > 1)
        with pytest.MonkeyPatch.context() as patch:
            small_proof_layout(patch, block, chunk, span)
            measure = every_block_measure(role_prefix_counts(text, word, d.numerators()))
            want = Fraction(int(measure), d.common_denominator())
            assert exact_weighted_distance(text, word, d) == want

    @pytest.mark.parametrize("kind", TEXT_KINDS)
    def test_longer_texts_with_whole_chunks(self, kind):
        # 2**8 columns a block, so a pass tests many blocks of whole chunks.
        for seed in range(3):
            text = kind_text(kind, 30_000, seed)
            for word in (Word([1, 2, 3]), Word([1, 1, 2]), Word([3, 1, 2, 1])):
                d = Distribution.from_numerators(kind_numerators(text.n, seed, 0.3, False))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(core, "COPY_BLOCK", 2**8)
                    counts = every_block_measure(role_prefix_counts(text, word))
                    weighted = every_block_measure(role_prefix_counts(text, word, d.numerators()))
                    assert copy_count(text, word) == counts == greedy_copies(text, word).count
                    assert exact_weighted_distance(text, word, d) == Fraction(
                        int(weighted), d.common_denominator())

    @staticmethod
    def counted_blocks(patch) -> list:
        """Records the start of every block whose count rows are built."""
        starts = []
        rows = RoleCounts.block
        patch.setattr(RoleCounts, "block",
                      lambda counts, start, before: starts.append(start) or rows(counts, start, before))
        return starts

    def test_skewed_text_skips_the_rows_of_most_blocks(self):
        # Every symbol of the word is rarer than the one before it, so the
        # shortfalls settle early and the proof holds block after block.
        n = 10**6
        ids = np.random.default_rng(5).choice(np.arange(1, 4, dtype=np.int32), n, p=[0.5, 0.3, 0.2])
        text, word = Text(ids), Word([1, 2, 3])
        d = Distribution.from_numerators(kind_numerators(n, 5, 0.3, False))
        blocks = -(-n // core.COPY_BLOCK)
        with pytest.MonkeyPatch.context() as patch:
            counted = self.counted_blocks(patch)
            copies = copy_count(text, word)
            assert 1 <= len(counted) < blocks // 10 and counted[0] == 0
            counted.clear()
            weighted = exact_weighted_distance(text, word, d)
            assert 1 <= len(counted) < blocks // 10 and counted[0] == 0
        assert copies == every_block_measure(role_prefix_counts(text, word))
        measure = every_block_measure(role_prefix_counts(text, word, d.numerators()))
        assert weighted == Fraction(int(measure), d.common_denominator())

    def test_repeated_role_passes_the_proof(self):
        # Role 2 repeats role 1's symbol, so while role 1 stays settled role
        # 2 falls short by one position's weight more than role 1: on
        # periodic `aab` every block after the first is proved settled.
        n = 10**6
        text, word = Text(np.resize(np.array([1, 1, 2]), n)), Word([1, 1, 2])
        d = Distribution.from_numerators(kind_numerators(n, 5, 0.3, False))
        with pytest.MonkeyPatch.context() as patch:
            counted = self.counted_blocks(patch)
            copies = copy_count(text, word)
            weighted = exact_weighted_distance(text, word, d)
        assert counted == [0, 0]
        assert copies == n // 3 == every_block_measure(role_prefix_counts(text, word))
        measure = every_block_measure(role_prefix_counts(text, word, d.numerators()))
        assert weighted == Fraction(int(measure), d.common_denominator())

    @pytest.mark.parametrize("n", [1, 2000, 2**13])
    def test_one_block_attempts_no_proof(self, n):
        # The oracle-sized inputs of one block pay for no chunk totals.
        text = kind_text("skewed", n, 3)
        d = Distribution.from_numerators(kind_numerators(n, 3, 0.3, False))
        with pytest.MonkeyPatch.context() as patch:
            counted = self.counted_blocks(patch)
            patch.setattr(RoleCounts, "chunk_totals", None)  # any call fails
            copy_count(text, Word([1, 2, 3]))
            exact_weighted_distance(text, Word([1, 1, 2]), d)
        assert counted == [0, 0]
