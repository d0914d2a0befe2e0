"""Shared helpers: instance generation, an independent minimum-weight
removal oracle, high-precision sample-size arithmetic, and the reference
counts and structural checks that tests hold library results to."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from seqfree import CopySet, IntervalPartition, ReferencePartition, SampleSet, Text, Word
from seqfree.core import gather_columns, role_prefix_counts
from seqfree.exact import running_maximum
from seqfree.uniform import PrefixGrid

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_text_ids(rng, n: int, alphabet_size: int) -> Text:
    return Text(rng.integers(1, alphabet_size + 1, size=n, dtype=np.int32))


def random_word_ids(rng, k: int, alphabet_size: int) -> Word:
    return Word(rng.integers(1, alphabet_size + 1, size=k, dtype=np.int32))


def random_repeat_free_word(rng, k: int, alphabet_size: int) -> Word:
    ids = [int(rng.integers(1, alphabet_size + 1))]
    while len(ids) < k:
        nxt = int(rng.integers(1, alphabet_size))
        ids.append(nxt if nxt < ids[-1] else nxt + 1)
    return Word(np.array(ids, dtype=np.int32))


def positive_rational_weights(rng, n: int, denominator: int) -> list:
    """Strictly positive weights summing to one, denominators dividing
    the given one. Needs denominator >= n."""
    assert denominator >= n
    extra = rng.multinomial(denominator - n, [1.0 / n] * n)
    return [Fraction(int(c) + 1, denominator) for c in extra]


def branching_distance(text: Text, word: Word, weights=None) -> Fraction:
    """Minimum total weight of positions whose removal kills every copy.

    Independent of the library's dynamic programs: branches on which
    position of the leftmost occurrence to delete. Exponential, so keep
    n tiny. Uniform weights (1/n each) when none are given.
    """
    ids = tuple(int(v) for v in text.ids)
    wids = tuple(int(v) for v in word.ids)
    if weights is None:
        wts = tuple(Fraction(1, len(ids)) for _ in ids) if ids else ()
    else:
        wts = tuple(weights)
    cache: dict[tuple, Fraction] = {}

    def leftmost(alive: tuple):
        need = 0
        found = []
        for idx in alive:
            if ids[idx] == wids[need]:
                found.append(idx)
                need += 1
                if need == len(wids):
                    return found
        return None

    def solve(alive: tuple) -> Fraction:
        hit = cache.get(alive)
        if hit is not None:
            return hit
        occ = leftmost(alive)
        if occ is None:
            result = Fraction(0)
        else:
            result = min(
                wts[idx] + solve(tuple(a for a in alive if a != idx))
                for idx in occ
            )
        cache[alive] = result
        return result

    return solve(tuple(range(len(ids))))


def ceil_scaled_log(scale: Fraction, arg: Fraction) -> int:
    """ceil(scale * ln(arg)) at 60 significant digits.

    Independent of math.log so the frozen sample sizes are checked
    against a second numeric route.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(arg.numerator).ln() - Decimal(arg.denominator).ln()
        value *= Decimal(scale.numerator) / Decimal(scale.denominator)
        return math.ceil(value)


def is_free_after_removal(text: Text, word: Word, removed: set) -> bool:
    keep = [int(v) for i, v in enumerate(text.ids) if i not in removed]
    return not _contains(keep, [int(v) for v in word.ids])


def _contains(seq, word) -> bool:
    need = 0
    for v in seq:
        if v == word[need]:
            need += 1
            if need == len(word):
                return True
    return False


def sample_from_pairs(n: int, pairs) -> SampleSet:
    """A sample of explicit (position, symbol) draws over a text of length n."""
    bag: dict[int, int] = {}
    syms: dict[int, int] = {}
    for pos, sym in pairs:
        bag[pos] = bag.get(pos, 0) + 1
        if syms.setdefault(pos, sym) != sym:
            raise ValueError(f"position {pos} reported with two symbols")
    order = sorted(bag)
    return SampleSet(
        n,
        np.array(order, dtype=np.int64),
        np.array([syms[p] for p in order], dtype=np.int32),
        np.array([bag[p] for p in order], dtype=np.int64),
    )


def sample_from_counts(counts, text: Text) -> SampleSet:
    """A sample from a dense per-position draw-count vector over the text."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != text.n:
        raise ValueError("count vector and text disagree on length")
    hit = np.flatnonzero(counts)
    return SampleSet(text.n, hit + 1, text.ids[hit], counts[hit])


def prefix_count(text: Text, word: Word, role: int, length: int) -> int:
    """Occurrences of the role's symbol among the first `length` positions."""
    if not 1 <= role <= word.k:
        raise ValueError(f"role {role} outside [1, {word.k}]")
    if not 0 <= length <= text.n:
        raise ValueError(f"prefix length {length} outside [0, {text.n}]")
    return int(np.count_nonzero(text.ids[:length] == word.ids[role - 1]))


def validate_copies(copies: CopySet, text: Text) -> None:
    """Check that the copies are increasing, match the word symbol by
    symbol, and use no position twice in one role; raises AssertionError."""
    rows, k = copies.positions.shape
    assert k == copies.word.k
    for m in range(rows):
        row = copies.positions[m]
        assert np.all(np.diff(row) > 0), f"copy {m} is not increasing"
        for i in range(k):
            assert text.ids[row[i] - 1] == copies.word.ids[i], (
                f"copy {m} role {i + 1} symbol mismatch"
            )
    for i in range(k):
        col = copies.positions[:, i]
        assert np.unique(col).size == col.size, f"role {i + 1} reuses a position"


def validate_partition(partition: IntervalPartition, sample: SampleSet,
                       resolution: Fraction) -> None:
    """Check that the intervals cover [1, n], that heavy ones are single
    positions of empirical weight above 1/resolution, and that light ones
    weigh at most that; raises AssertionError."""
    assert partition.boundaries[0] == 0 and partition.boundaries[-1] == partition.n
    assert np.all(np.diff(partition.boundaries) > 0)
    cap = Fraction(1) / resolution
    for lo, hi, is_heavy in partition.intervals():
        inside = (sample.positions >= lo) & (sample.positions <= hi)
        weight = Fraction(int(sample.multiplicities[inside].sum()), sample.size)
        if is_heavy:
            assert lo == hi, "heavy intervals must be singletons"
            assert weight > cap
        else:
            assert weight <= cap


def reference_labels(reference: ReferencePartition) -> tuple:
    """The class of every interval of a reference partition, left to right:
    "single", "small" or "medium", read off its two flags."""
    return tuple("single" if single else "small" if small else "medium"
                 for single, small in zip(reference.single.tolist(), reference.small.tolist()))


def exact_count_matrix(text: Text, word: Word, grid: PrefixGrid) -> np.ndarray:
    """True occurrence counts at the grid columns, as an int64 (k, grid
    size) array: entry [i-1, r-1] counts role i's symbol within the first
    columns[r-1] text positions."""
    if grid.n != text.n:
        raise ValueError("grid and text disagree on length")
    return gather_columns(role_prefix_counts(text, word), grid.columns).astype(np.int64)


def carried_measures(count_blocks, lag=True):
    """The measure of each of consecutive count blocks, every block run
    through `running_maximum` with one carry that starts at zero; a
    per-column `lag` is cut block by block."""
    carry, start = None, 0
    for block in count_blocks:
        if carry is None:
            carry = np.zeros((2, block.shape[0]), dtype=block.dtype)
        flags = lag if isinstance(lag, bool) else lag[start:start + block.shape[1]]
        start += block.shape[1]
        yield running_maximum(block, flags, carry)


def every_block_measure(count_blocks):
    """The copy measure of consecutive count blocks such as
    `role_prefix_counts` yields, lagged everywhere, with no block skipped:
    the reference for the whole-text driver `exact.text_measure`."""
    value = 0
    for measure in carried_measures(count_blocks):
        value = measure[-1, -1]
    return value


def max_gap(grid: PrefixGrid) -> int:
    """Largest jump between consecutive grid columns, counting from 0."""
    return int(np.diff(np.concatenate(([0], grid.columns))).max())


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)
