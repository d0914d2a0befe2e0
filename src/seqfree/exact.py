"""Ground-truth distances: greedy copy packing, the prefix recursion,
brute-force minimum-modification search, and the exact weighted pipeline
(separator interleaving and the copy recursion on weighted prefix counts,
in O(nk) time whatever the common denominator).

The copy recursion, `running_maximum`, walks the text in column blocks of
`core.COPY_BLOCK` and carries a few values per role from one block to the
next, so `copy_count` and `exact_weighted_distance` hold O(k * COPY_BLOCK)
counts at a time, never a count row over the whole text.

Everything here is exact: the weighted pipeline reads integer numerators
over the common denominator; the reference oracles use Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (
    Distribution,
    Text,
    Word,
    contains_word,
    interleave,
    role_prefix_counts,
)

# Exhaustive search explodes past this length. expand_text materializes
# its expansion, so it refuses expansions longer than EXPANSION_LIMIT.
BRUTEFORCE_LIMIT = 22
EXPANSION_LIMIT = 10_000_000


@dataclass
class CopySet:
    """Role-disjoint copies of a word, one row of positions per copy."""

    positions: np.ndarray  # shape (count, k), 1-based, int64
    word: Word

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])

    def validate(self, text: Text) -> None:
        """Check the structural invariants; raises AssertionError."""
        rows, k = self.positions.shape
        assert k == self.word.k
        for m in range(rows):
            row = self.positions[m]
            assert np.all(np.diff(row) > 0), f"copy {m} is not increasing"
            for i in range(k):
                assert text.symbol(int(row[i])) == self.word.symbol(i + 1), (
                    f"copy {m} role {i + 1} symbol mismatch"
                )
        for i in range(k):
            col = self.positions[:, i]
            assert np.unique(col).size == col.size, f"role {i + 1} reuses a position"


def greedy_copies(text: Text, word: Word) -> CopySet:
    """Build a maximum set of role-disjoint copies, first-fit forward.

    Copies are constructed one at a time; each role takes the first
    occurrence of its symbol after the previous role's position that no
    earlier copy consumed for the same role. Per-role choices grow
    monotonically across copies, so a single forward cursor per role
    suffices and occurrences skipped once never become usable again.
    """
    occurrences: dict[int, np.ndarray] = {}
    for sym in np.unique(word.ids):
        occurrences[int(sym)] = np.flatnonzero(text.ids == sym).astype(np.int64) + 1
    cursors = [0] * word.k
    lists = [occurrences[int(s)] for s in word.ids]
    rows = []
    while True:
        prev = 0
        row = []
        for i in range(word.k):
            occ = lists[i]
            c = cursors[i]
            while c < occ.size and occ[c] <= prev:
                c += 1
            cursors[i] = c
            if c == occ.size:
                row = None
                break
            prev = int(occ[c])
            row.append(prev)
            cursors[i] = c + 1
        if row is None:
            break
        rows.append(row)
    positions = np.array(rows, dtype=np.int64).reshape(len(rows), word.k)
    return CopySet(positions, word)


def running_maximum(
    count_blocks: Iterable[np.ndarray], offset: int
) -> Iterator[np.ndarray]:
    """The copy recursion over per-role counts, one column block at a time.

    Each block holds one row of counts per role at consecutive prefix
    lengths; the empty prefix before the first block counts zero. Row one
    is taken as-is. Every later row subtracts from its counts the worst
    running shortfall against the previous measure:
    counts[j] - max(0, max of counts[t] - measure[t - offset], t <= j).
    Offset 1 runs on full prefix counts and is exact for every word;
    offset 0 compares columns in place, exact for words without adjacent
    equal symbols. From block to block each role carries its last measure
    value and its shortfall maximum. Yields the measure of each block.
    """
    last = worst = None
    for counts in count_blocks:
        if last is None:
            last = np.zeros(counts.shape[0], dtype=counts.dtype)
            worst = np.zeros_like(last)
        measure = np.empty_like(counts)
        measure[0] = counts[0]
        for i in range(1, counts.shape[0]):
            shortfall = measure[i]
            if offset:
                np.subtract(counts[i, 1:], measure[i - 1, :-1], out=shortfall[1:])
                shortfall[0] = counts[i, 0] - last[i - 1]
            else:
                np.subtract(counts[i], measure[i - 1], out=shortfall)
            # The carried maximum is at least 0, which clamps the whole
            # running maximum.
            shortfall[0] = max(shortfall[0], worst[i])
            np.maximum.accumulate(shortfall, out=shortfall)
            worst[i] = shortfall[-1]
            np.subtract(counts[i], shortfall, out=shortfall)
        last = measure[:, -1].copy()
        yield measure


def final_measure(count_blocks: Iterable[np.ndarray], offset: int):
    """The last entry of the last role's measure, in the counts' dtype:
    the copy measure of the whole text, 0 when there are no blocks."""
    value = 0
    for measure in running_maximum(count_blocks, offset):
        value = measure[-1, -1]
    return value


def copy_count_table(text: Text, word: Word) -> np.ndarray:
    """Maximum copies of each word prefix within each text prefix.

    Entry [i-1, j] is the copy count of the first i roles within the
    first j positions.
    """
    blocks = running_maximum(role_prefix_counts(text, word), offset=1)
    empty = np.zeros((word.k, 1), dtype=np.int64)
    return np.concatenate([empty, *blocks], axis=1, dtype=np.int64)


def copy_count(text: Text, word: Word) -> int:
    """Maximum number of role-disjoint copies, O(nk) time, O(k * COPY_BLOCK)
    memory."""
    return int(final_measure(role_prefix_counts(text, word), offset=1))


def uniform_distance(text: Text, word: Word) -> Fraction:
    """Distance to word-freeness under uniform position weights."""
    if text.n < 1:
        raise ValueError("distance is undefined for an empty text")
    return Fraction(copy_count(text, word), text.n)


def _free_after_removal(ids: np.ndarray, word_ids: np.ndarray, removed: frozenset) -> bool:
    need = 0
    k = word_ids.size
    for j, sym in enumerate(ids):
        if j in removed:
            continue
        if sym == word_ids[need]:
            need += 1
            if need == k:
                return False
    return True


def bruteforce_distance(
    text: Text, word: Word, dist: Optional[Distribution] = None
) -> Fraction:
    """Independent oracle: exhaustive search for the cheapest breaking set.

    Finds the minimum total weight of positions whose modification leaves
    the text word-free. Modifying a position is equivalent to removing it
    from consideration, since a fresh symbol can never serve any role.
    """
    n = text.n
    if n < 1:
        raise ValueError("distance is undefined for an empty text")
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(f"exhaustive search is capped at n = {BRUTEFORCE_LIMIT}")
    if not contains_word(text, word):
        return Fraction(0)
    ids = text.ids
    wids = word.ids
    if dist is None:
        # Uniform weights: any breaking set of minimum cardinality wins,
        # so scan subsets in increasing size with early exit.
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                if _free_after_removal(ids, wids, frozenset(combo)):
                    return Fraction(size, n)
        raise AssertionError("removing every position always breaks the word")
    if dist.n != n:
        raise ValueError("weights and text disagree on length")
    weights = dist.fractions
    best: Optional[Fraction] = None
    for mask in range(1, 2**n):
        total = Fraction(0)
        m = mask
        over = False
        while m:
            j = (m & -m).bit_length() - 1
            total += weights[j]
            if best is not None and total >= best:
                over = True
                break
            m &= m - 1
        if over:
            continue
        removed = frozenset(j for j in range(n) if mask >> j & 1)
        if _free_after_removal(ids, wids, removed):
            best = total
            if best == 0:
                break
    assert best is not None
    return best


@dataclass
class QuantizedWeights:
    """Weights snapped up to a grid and renormalized."""

    step: Fraction
    rounded: tuple  # each entry a multiple of step, >= the original
    scale: Fraction  # 1 / sum(rounded), <= 1
    normalized: Distribution
    l1_error: Fraction  # total variation x2 against the original


def quantize_weights(dist: Distribution, step) -> QuantizedWeights:
    """Round each weight up to a multiple of `step`, then renormalize.

    The result lives on the grid {scale * step * m : m integer} and is
    within L1 distance 2 * step * n of the original.
    """
    step = Fraction(step) if not isinstance(step, Fraction) else step
    if step <= 0:
        raise ValueError("grid step must be positive")
    original = dist.fractions
    rounded = tuple(math.ceil(w / step) * step for w in original)
    total = sum(rounded)
    scale = 1 / total
    normalized = tuple(scale * w for w in rounded)
    l1 = sum(abs(a - b) for a, b in zip(normalized, original))
    return QuantizedWeights(
        step=step,
        rounded=rounded,
        scale=scale,
        normalized=Distribution.from_fractions(normalized),
        l1_error=l1,
    )


def interleave_sentinel(
    text: Text, word: Word, dist: Optional[Distribution] = None
):
    """Insert the reserved separator symbol after every position.

    The rewritten word alternates real symbols with separators and thus
    never repeats a symbol adjacently; each copy of it must spend one
    separator position per role, which halves the distance. Weights, when
    given, are split evenly between each original position and its
    separator.
    """
    out_text = Text(interleave(text.ids), text.alphabet)
    out_word = Word(interleave(word.ids), word.alphabet)
    if dist is None:
        return out_text, out_word, None
    if dist.n != text.n:
        raise ValueError("weights and text disagree on length")
    return out_text, out_word, Distribution.from_numerators(np.repeat(dist.numerators(), 2))


class TextExpansion:
    """A text expanded by positive per-position multiplicities.

    Position j of the source becomes a run of multiplicities[j-1] equal
    symbols; `origin` maps expanded positions back to their source. Under
    uniform weights on the expansion, each source position carries weight
    proportional to its multiplicity.
    """

    __slots__ = ("source", "multiplicities", "boundaries", "expanded")

    def __init__(self, source: Text, multiplicities: np.ndarray) -> None:
        self.source = source
        self.multiplicities = np.asarray(multiplicities, dtype=np.int64)
        if self.multiplicities.size != source.n:
            raise ValueError("one multiplicity per source position required")
        if source.n and int(self.multiplicities.min()) < 1:
            raise ValueError("multiplicities must be positive")
        self.boundaries = np.concatenate(
            ([0], np.cumsum(self.multiplicities, dtype=np.int64))
        )
        self.expanded = Text(
            np.repeat(source.ids, self.multiplicities), source.alphabet
        )

    @property
    def expanded_length(self) -> int:
        return int(self.boundaries[-1])

    def origin(self, position: int) -> int:
        """Source position of expanded position `position` (both 1-based)."""
        if not 1 <= position <= self.expanded_length:
            raise IndexError(f"position {position} outside the expansion")
        return int(np.searchsorted(self.boundaries, position, side="left"))

    def origin_map(self) -> np.ndarray:
        return np.repeat(
            np.arange(1, self.source.n + 1, dtype=np.int64), self.multiplicities
        )

    def prefix_boundary(self, source_prefix: int) -> int:
        """Expanded length covering the first `source_prefix` positions."""
        return int(self.boundaries[source_prefix])


def expand_text(text: Text, dist: Distribution, base_weight) -> TextExpansion:
    """Expand each position j into weight(j)/base_weight equal symbols.

    Requires every weight to be a positive integer multiple of
    `base_weight`; the expansion then has length 1/base_weight and makes
    the weighted distance of the source equal the uniform distance of the
    expansion (for words without adjacent equal symbols). The expansion
    is materialized, so its length must stay within EXPANSION_LIMIT.
    """
    base = Fraction(base_weight) if not isinstance(base_weight, Fraction) else base_weight
    if base <= 0:
        raise ValueError("base weight must be positive")
    if dist.n != text.n:
        raise ValueError("weights and text disagree on length")
    mult = []
    for j, w in enumerate(dist.fractions, start=1):
        ratio = w / base
        if ratio.denominator != 1 or ratio <= 0:
            raise ValueError(
                f"weight at position {j} is not a positive multiple of the base"
            )
        mult.append(int(ratio))
    if sum(mult) > EXPANSION_LIMIT:
        raise ValueError(
            f"an expansion of {sum(mult)} positions is above the cap of "
            f"{EXPANSION_LIMIT}"
        )
    return TextExpansion(text, np.array(mult, dtype=np.int64))


def exact_weighted_distance(text: Text, word: Word, dist: Distribution) -> Fraction:
    """Exact distance to word-freeness under arbitrary rational weights.

    Reads the text with the separator after every position (which makes
    the word free of adjacent repeats, at the cost of halving) and takes
    as multiplicities the weights' numerators over their common
    denominator D (`Distribution.numerators`). The weighted prefix counts
    of the interleaved text at every position are those of its
    multiplicity expansion (length 2D) at run ends, where the recursion
    of a repeat-free word takes its maxima, so the recursion runs on them
    directly without the expansion. A zero weight repeats the previous
    column of counts, which leaves the measure as it was, so zero-weight
    positions need no dropping. O(nk) time whatever D is, and
    O(k * COPY_BLOCK) memory besides the weights: the interleaved text and
    its counts are built one block at a time. Counts are int64, or Python
    integers when D does not fit.
    """
    if text.n < 1:
        raise ValueError("distance is undefined for an empty text")
    if dist.n != text.n:
        raise ValueError("weights and text disagree on length")
    counts = role_prefix_counts(text, word, dist.numerators(), separator=True)
    # The separator halves the distance of the length-2D expansion:
    # distance = 2 * copies / (2D).
    return Fraction(int(final_measure(counts, offset=0)), dist.common_denominator())
