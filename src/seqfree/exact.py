"""Ground-truth distances: greedy copy packing, the prefix recursion,
brute-force minimum-modification search, and the exact weighted distance
(the same recursion on weighted prefix counts, in O(nk) time whatever the
common denominator).

The copy recursion, `running_maximum`, measures one column block of
counts from a carry of two values per role. `copy_count` and
`exact_weighted_distance` walk the text in blocks of `core.COPY_BLOCK`
through one carry, so they hold O(k * COPY_BLOCK) counts at a time,
never a count row over the whole text. A carried block that raises no
role's worst shortfall, as most do once it has settled, costs one
reduction per role instead of a running maximum. Both lag the recursion
one column everywhere, exact for every word; the estimators measure
their tallies as one block, lagged at the grid columns that cover one
position (uniform) or at heavy intervals (distribution-free). The
separator rewrite (`interleave_sentinel`) and the multiplicity expansion
(`expand_text`) are kept as independent reference oracles only.

Both oracles run the recursion through `text_measure`, which proves most
settled blocks settled from per-chunk symbol totals, without their count
rows. Write C_i for role i's counts, M_i for its lagged measure (M_1 =
C_1) and W_i for its worst shortfall carried into a block (W_1 = 0).
The counts never decrease along the text, and by induction over the
roles nor does the measure: the running maximum rises by at most what
the shortfall rises, and the shortfall by at most what the counts do.
So for a chunk [a, b] of a block's positions and j in it, role i's
shortfall is C_i[j] - M_{i-1}[j-1] <= C_i[b] - M_{i-1}[a-1]. Every
block ends with M_i = C_i - W_i, so while role i-1 stays settled, its
running maximum equal to W_{i-1}, M_{i-1}[a-1] = C_{i-1}[a-1] - W_{i-1}
(at a - 1 just before the block, too). Hence if
C_i[b] - C_{i-1}[a-1] <= W_i - W_{i-1} on every chunk of a block, role
i's shortfalls stay at or below W_i in it once role i-1's do, and role
1 has none. When role i has role i-1's symbol, C_i = C_{i-1}, so its
shortfall at j is W_{i-1} plus at most the weight at j, and the chunk's
heaviest position (1 without weights) may stand in for
C_i[b] - C_{i-1}[a-1]. A block whose chunks pass this test for every
role gives exactly what the skip branch of `running_maximum` gives: the
counts at its end, last = counts - worst, and worst unchanged.

Everything here is exact: the weighted distance reads integer numerators
over the common denominator; the reference oracles use Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    SENTINEL,
    Distribution,
    RoleCounts,
    Text,
    Word,
    as_fraction,
    contains_word,
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
    counts: np.ndarray,
    lag: bool | np.ndarray,
    carry: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """The copy recursion over per-role counts on one (k, B) column block;
    returns the block's measure, in the counts' dtype.

    Row one is taken as-is. Every later row subtracts from its counts the
    worst running shortfall against the previous measure:
    counts[j] - max(0, max of counts[t] - measure[t - lag[t]], t <= j).
    `lag` is `True`, `False` or one bool flag per column. Lagged
    everywhere on full prefix counts it is exact for every word; lagged
    nowhere, for words without adjacent equal symbols. `carry` is (last,
    worst): per role the measure just before the block, which a lagged
    first column reads, and the shortfall maximum so far, updated in
    place, so that blocks run in turn through one carry measure a whole
    text. A carried block whose shortfalls all stay at or below the
    carried maximum takes one reduction instead of the running maximum.
    `None` starts at the empty prefix: zeros, and no such test.

    From a fresh start on non-negative counts that never decrease, each
    entry lies between 0 and the role's count: it is the count less a
    non-negative shortfall, and by induction over the roles either that
    count or at least an earlier entry of the previous role's measure.
    So tallies that count each draw at most once per role measure in
    [0, draws].
    """
    later = carry is not None
    last, worst = carry if later else np.zeros((2, counts.shape[0]), dtype=counts.dtype)
    measure = np.empty_like(counts)
    measure[0] = counts[0]
    for i in range(1, counts.shape[0]):
        shortfall = measure[i]
        if lag is True:
            np.subtract(counts[i, 1:], measure[i - 1, :-1], out=shortfall[1:])
            shortfall[0] = counts[i, 0] - last[i - 1]
        elif lag is False:
            np.subtract(counts[i], measure[i - 1], out=shortfall)
        else:
            behind = np.concatenate((last[i - 1:i], measure[i - 1, :-1]))
            np.subtract(counts[i], np.where(lag, behind, measure[i - 1]), out=shortfall)
        if later and np.maximum.reduce(shortfall) <= worst[i]:
            # No new shortfall: the carried maximum holds block-wide.
            np.subtract(counts[i], worst[i], out=shortfall)
        else:
            # The carried maximum is at least 0, which clamps the whole
            # running maximum.
            shortfall[0] = max(shortfall[0], worst[i])
            np.maximum.accumulate(shortfall, out=shortfall)
            worst[i] = shortfall[-1]
            np.subtract(counts[i], shortfall, out=shortfall)
    last[:] = measure[:, -1]
    return measure


def final_measure(counts: np.ndarray, lag: bool | np.ndarray):
    """The last entry of the last role's measure of one block, from a
    fresh start, in the counts' dtype (bounds in `running_maximum`)."""
    return running_maximum(counts, lag)[-1, -1]


# The settled-block proof of `text_measure` sums each symbol over chunks
# of this many positions (a power of two up to 128), and tests the blocks
# of about PROOF_PASS positions at a time.
PROOF_CHUNK = 64
PROOF_PASS = 2**16


def text_measure(text: Text, word: Word, weights: Optional[np.ndarray] = None):
    """The copy measure of the whole text, lagged everywhere, in the
    counts' dtype, 0 on an empty text: the last entry of the last block
    of `role_prefix_counts(text, word, weights)` after every block has
    run through `running_maximum` with one carry.

    Builds count rows and runs `running_maximum` only on the blocks that
    the settled-block proof (module docstring) leaves open. The first
    block runs exactly, so a text of one block attempts no proof. After
    it, the blocks of each pass are tested together from chunk totals
    (`RoleCounts.chunk_totals`), and a failing block runs exactly before
    the rest of the pass is tested again against the maxima it raised. A
    pass that settles no block sends the next pass's worth of blocks
    straight to the exact step, then twice as many after the next such
    pass, and so on, and halves the blocks the next pass tests; a pass
    that settles any resets the count and doubles them back, up to
    PROOF_PASS positions.
    """
    if text.n == 0:
        return 0
    counts = RoleCounts(text, word, weights)
    n, size = text.n, counts.size
    before = np.zeros(word.k, dtype=counts.dtype)  # the counts before the next block
    last, worst = carry = (np.zeros_like(before), np.zeros_like(before))

    def run(index: int) -> None:
        """The exact step: one block's count rows and running maximum."""
        block = counts.block(index * size, before[:, None])
        before[:] = block[:, -1]
        running_maximum(block, True, carry)

    run(0)
    blocks = -(-n // size)
    per_pass = max(1, PROOF_PASS // size)
    chunk = math.gcd(PROOF_CHUNK, size)
    repeats = word.ids[1:] == word.ids[:-1]  # roles 2 to k that repeat the role before
    at, width, backoff = 1, per_pass, per_pass
    while at < blocks:
        first, stop = at, min(at + width, blocks)
        # Counts at every chunk's end, and at the end of the chunk before.
        lo, hi = first * size, min(stop * size, n)
        totals = counts.chunk_totals(lo, hi, chunk)
        reach = np.cumsum(totals, axis=1, dtype=counts.dtype)[counts.roles] + before[:, None]
        floor = np.concatenate((before[:, None], reach[:, :-1]), axis=1)
        starts = np.arange(0, reach.shape[1], size // chunk)
        ends = reach[:, np.append(starts[1:], reach.shape[1]) - 1]
        bounds = reach[1:] - floor[:-1]
        if repeats.any():  # these roles fall short by a chunk's heaviest position at most
            heaviest = 1 if weights is None else np.maximum.reduceat(
                weights[lo:hi], np.arange(0, hi - lo, chunk))
            bounds[repeats] = np.minimum(bounds[repeats], heaviest)
        # Each block's largest bound on the shortfalls of roles 2 to k.
        rises = np.maximum.reduceat(bounds, starts, axis=1)
        del totals, reach, floor, bounds  # before any block of the pass is counted
        settled = False
        while at < stop:
            over = (rises[:, at - first:] > (worst[1:] - worst[:-1])[:, None]).any(axis=0)
            failed = at + int(over.argmax()) if over.any() else stop
            if failed > at:
                before[:] = ends[:, failed - 1 - first]
                np.subtract(before, worst, out=last)
                settled = True
            at = failed
            if at < stop:
                run(at)
                at += 1
        if settled:
            width, backoff = min(2 * width, per_pass), per_pass
            continue
        for at in range(stop, min(stop + backoff, blocks)):
            run(at)
        at = min(stop + backoff, blocks)
        width, backoff = max(1, width // 2), 2 * backoff
    return last[-1]


def copy_count_table(text: Text, word: Word) -> np.ndarray:
    """Maximum copies of each word prefix within each text prefix.

    Entry [i-1, j] is the copy count of the first i roles within the
    first j positions.
    """
    carry = (np.zeros(word.k, dtype=np.int64), np.zeros(word.k, dtype=np.int64))
    blocks = [running_maximum(block, True, carry) for block in role_prefix_counts(text, word)]
    empty = np.zeros((word.k, 1), dtype=np.int64)
    return np.concatenate([empty, *blocks], axis=1, dtype=np.int64)


def copy_count(text: Text, word: Word) -> int:
    """Maximum number of role-disjoint copies, O(nk) time, O(k * COPY_BLOCK)
    memory."""
    return int(text_measure(text, word))


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
    step = as_fraction(step)
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


def interleave(ids: np.ndarray) -> np.ndarray:
    """`ids` with the separator symbol after every entry."""
    if ids.size and int(ids.min()) == SENTINEL:  # ids are never negative
        raise ValueError("separator id 0 must not occur in the input")
    out = np.full(2 * ids.size, SENTINEL, dtype=np.int32)
    out[0::2] = ids
    return out


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
    symbols, which ends at expanded position boundaries[j]. Under uniform
    weights on the expansion, each source position carries weight
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


def expand_text(text: Text, dist: Distribution, base_weight) -> TextExpansion:
    """Expand each position j into weight(j)/base_weight equal symbols.

    Requires every weight to be a positive integer multiple of
    `base_weight`; the expansion then has length 1/base_weight and makes
    the weighted distance of the source equal the uniform distance of the
    expansion (for words without adjacent equal symbols). The expansion
    is materialized, so its length must stay within EXPANSION_LIMIT.
    """
    base = as_fraction(base_weight)
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

    With the weights as numerators m_j over their common denominator D
    (`Distribution.numerators`), position j offers m_j slots to each
    role, and the roles of one copy sit at increasing positions, so a
    slot never serves two consecutive roles of one copy. The distance is
    the largest number of copies that share no slot in the same role,
    divided by D: the `lag=True` recursion of `copy_count` on weighted
    prefix counts, exact for every word, adjacent repeats included. A
    zero weight repeats the previous column of counts, which leaves the
    measure as it was. O(nk) time whatever D is, and O(k * COPY_BLOCK)
    memory besides the weights. Counts are int64, or Python integers
    when D does not fit.
    """
    if text.n < 1:
        raise ValueError("distance is undefined for an empty text")
    if dist.n != text.n:
        raise ValueError("weights and text disagree on length")
    measure = text_measure(text, word, dist.numerators())
    return Fraction(int(measure), dist.common_denominator())
