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
from seqfree import core
from seqfree.core import SENTINEL, drop_zero_weight, prefix_count
from seqfree.exact import BRUTEFORCE_LIMIT, EXPANSION_LIMIT, TextExpansion, expand_text

from conftest import (
    branching_distance,
    positive_rational_weights,
    random_text_ids,
    random_word_ids,
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
        copies.validate(t)

    def test_free_text(self):
        t = text_of("ba")
        assert greedy_copies(t, word_of("ab", t)).count == 0

    def test_overlapping_roles_share_positions(self):
        t = text_of("aaa")
        copies = greedy_copies(t, word_of("aa", t))
        assert copies.count == 2
        assert copies.positions.tolist() == [[1, 2], [2, 3]]
        copies.validate(t)

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
            tampered.validate(t)

    def test_validation_is_structural(self, rng):
        # role-disjointness and symbol agreement on random instances
        for _ in range(300):
            n = int(rng.integers(0, 15))
            t = random_text_ids(rng, n, 3)
            w = random_word_ids(rng, int(rng.integers(1, 4)), 3)
            greedy_copies(t, w).validate(t)


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
        assert e.origin(1) == 1
        assert e.origin(2) == 2
        assert e.origin(4) == 2
        assert e.origin_map().tolist() == [1, 2, 2, 2]
        assert e.prefix_boundary(0) == 0
        assert e.prefix_boundary(1) == 1
        assert e.prefix_boundary(2) == 4

    def test_expansion_symbols_follow_origin(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            t = random_text_ids(rng, n, 3)
            weights = positive_rational_weights(rng, n, n + 9)
            d = Distribution.from_fractions(weights)
            e = expand_text(t, d, Fraction(1, n + 9))
            assert e.expanded_length == n + 9
            for pos in range(1, e.expanded_length + 1):
                assert e.expanded.symbol(pos) == t.symbol(e.origin(pos))
            # origin map is non-decreasing and onto
            om = e.origin_map()
            assert np.all(np.diff(om) >= 0)
            assert set(om.tolist()) == set(range(1, n + 1))

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
    """The weighted distance by the reduction `exact_weighted_distance`
    skips: drop zero weights, interleave the separator, expand every
    position by its numerator and count greedy copies in the expansion."""
    kept_text, kept = drop_zero_weight(text, dist)
    sep_text, sep_word, sep_dist = interleave_sentinel(kept_text, word, kept)
    expansion = expand_text(sep_text, sep_dist, Fraction(1, sep_dist.common_denominator()))
    copies = greedy_copies(expansion.expanded, sep_word).count
    return Fraction(2 * copies, expansion.expanded_length)


class TestBlockedRecursion:
    """`role_prefix_counts` walks the text in blocks of `COPY_BLOCK`
    columns (half as many positions under the separator); blocks of one
    to five columns put a block seam at nearly every position of these
    small instances."""

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
        # text (8 MB in int64 at n = 1e6, 16 MB over the interleaved text)
        # shows here, on any machine.
        n = 10**6
        rng = np.random.default_rng(7)
        t = random_text_ids(rng, n, 4)
        w = Word([1, 2, 2, 3])
        d = Distribution.uniform(n)

        def allocated(call) -> int:
            """Peak bytes allocated by `call` beyond those held before it."""
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - held

        tracemalloc.start()
        try:
            copies = allocated(lambda: copy_count(t, w))
            weighted = allocated(lambda: exact_weighted_distance(t, w, d))
            table = allocated(lambda: copy_count_table(t, w))
        finally:
            tracemalloc.stop()
        assert copies < 10**6 and weighted < 4 * 10**6
        assert table > 8 * n * w.k  # the full table: the guard sees numpy

    def test_benchmark_text_keeps_its_distance(self):
        # The value the whole-row kernel gave on the uniform-large text.
        text, word = load_workloads().uniform_inputs(1)
        assert uniform_distance(text, word) == Fraction(1248509, 5000000)
