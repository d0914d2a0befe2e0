"""Token sequences, position weights, and the sampling oracles.

Texts and words are sequences of interned integer symbol ids. User tokens
always intern to ids >= 1, so id 0 never occurs in ingested input; it is
reserved for the separator that `exact.interleave` inserts. Only the
exact reference paths build such an interleaved text; no estimator
inserts separators, so the estimators never see id 0. Positions are
1-based in every public interface.

Weights over positions are always exact: integer numerators over their
least common denominator, which the ground-truth oracles read. Only a
sampler turns them into floats, once, on its first dense draw.
Estimators never touch a text directly; they see it only through a
sampling oracle returning (position, symbol) pairs. A draw falls in one
of three regimes, all with the law of s independent draws:
- sparse: a uniform draw of s <= n / SPARSE_DRAW_RATIO positions
  allocates O(s) memory and reads only the drawn positions of the text;
- Poissonized: when s exceeds n and the margin m = POISSON_MARGIN *
  sqrt(s) has m * SPARSE_DRAW_RATIO <= n, as for the distribution-free
  estimator on a short text, Poisson bulk counts at all n positions plus
  the shortfall as categorical draws;
- multinomial: every other draw, one multinomial over all n positions.
Each sampler draws through one hook, `Sampler._drawn`, which returns the
sorted drawn positions with their symbols and multiplicities; the sparse
uniform draw is the one override. On it `Sampler.draw` builds a
`SampleSet`, and `Sampler.draw_tallies` hands out the sample's tallies at
a few prefix lengths, the only way the estimators read a sample, without
building it (`tally_positions` counts both).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

SENTINEL = 0

WeightLike = Union[int, float, str, Fraction]


def as_fraction(value: WeightLike) -> Fraction:
    """Convert a number to an exact Fraction.

    Floats, numpy ones included, are read as the decimal they print as, so
    a parameter written as 0.1 means exactly 1/10 rather than the nearest
    binary double. Strings accept decimals ("0.25") and ratios ("1/4").
    Raises ValueError for what has no exact value: NaN, infinities,
    unparsable strings and a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def checked_accuracy(k: int, accuracy) -> Fraction:
    """`accuracy` as a Fraction; ValueError unless k >= 1 and
    0 < accuracy < 1, where every estimator's plan is defined."""
    if k < 1:
        raise ValueError("word length must be at least 1")
    acc = as_fraction(accuracy)
    if not 0 < acc < 1:
        raise ValueError("accuracy must lie in (0, 1)")
    return acc


def subseed(seed: int, stream: int) -> np.random.SeedSequence:
    """Derive an independent child seed for one stage of a pipeline."""
    return np.random.SeedSequence(entropy=(int(seed), int(stream)))


INT64_MAX = int(np.iinfo(np.int64).max)

# The most draws one `Sampler.draw` takes: numpy counts draws in int64.
MAX_DRAWS = INT64_MAX

# `UniformSampler` draws `size` positions sparsely when size * ratio <= n.
# The sparse draw measured faster up to about size = 3n; the switch sits at
# n/4 so that the larger draws keep a dense stream, and the runs on short
# texts (the README example, the distribution-free tests) their outputs.
# A dense draw, and every weighted draw, is Poissonized when size > n and
# the margin m = POISSON_MARGIN * sqrt(size) has m * ratio <= n; every other
# dense draw is one multinomial. At n = 10**5 the Poissonized draw measured
# 25-29% faster than the multinomial for 855k <= size <= 6.25M (m = n/4),
# 14% slower at m = n/2; at n = 10**6 it was even at m = n/4. At size <= n
# it was within about 10% either way but holds three n-length arrays during
# the draw where the multinomial holds one, so those draws stay multinomial.
SPARSE_DRAW_RATIO = 4

# Standard deviations of the Poisson bulk total that a Poissonized draw
# leaves as margin below `size`: the bulk exceeds `size`, and is drawn
# again, with probability below 1e-20.
POISSON_MARGIN = 10

# `role_prefix_counts` walks a text in blocks of this many columns, so the
# copy recursion carries a few values per role from block to block instead
# of k count rows of length n + 1. At n = 10**7 and k = 3, 2**13 ran fastest
# (0.21-0.24 s per `copy_count`, against 0.25-0.31 s at 2**12 and at 2**14
# to 2**16); at k = 6 and k = 10 it was within 5% of the best size.
COPY_BLOCK = 2**13


def exact_dtype(bound: int) -> type:
    """The dtype for exact integer arithmetic whose every value, operands
    and intermediate results alike, has magnitude at most `bound`: int64
    when the bound fits it, `object` (Python integers) otherwise. Callers
    work the bound out from their inputs, so one array expression is exact
    in either dtype; this is the one place that picks between them."""
    return np.int64 if bound <= INT64_MAX else object


def draw_count(planned: float) -> int:
    """A planned sample size rounded up to whole draws.

    Raises ValueError when the plan is not finite or exceeds `MAX_DRAWS`,
    as it does for accuracies so small that the size formula overflows.
    """
    if not math.isfinite(planned) or planned > MAX_DRAWS:
        raise ValueError(
            f"a sample of {planned:.3g} draws is not possible; "
            f"at most {MAX_DRAWS} draws fit (accuracy too small)"
        )
    return math.ceil(planned)


class Alphabet:
    """Interns user tokens to dense integer ids starting at 1."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def intern(self, token: str) -> int:
        sym = self._ids.get(token)
        if sym is None:
            sym = len(self._ids) + 1
            self._ids[token] = sym
        return sym

    def intern_all(self, tokens: Iterable[str]) -> np.ndarray:
        return np.fromiter((self.intern(t) for t in tokens), dtype=np.int32)

    def __len__(self) -> int:
        return len(self._ids)


def _as_symbol_array(symbols) -> np.ndarray:
    """The ids as int32, checked before the cast so that no id is
    truncated or wrapped. int32 input costs one scan; empty input of any
    dtype (`np.asarray([])` is float64) gives no ids."""
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise ValueError("symbol sequence must be one-dimensional")
    if arr.size:
        if arr.dtype.kind not in "iu":
            raise ValueError(f"symbol ids must be integers, not {arr.dtype}")
        if int(arr.min()) < 0:
            raise ValueError("symbol ids must be non-negative")
        if arr.dtype != np.int32 and int(arr.max()) >= 2**31:
            raise ValueError("symbol ids must be below 2**31")
    return arr.astype(np.int32, copy=False)


class _Symbols:
    """Immutable sequence of symbol ids, with the alphabet they were
    interned in, if any."""

    __slots__ = ("ids", "alphabet")

    def __init__(self, symbols, alphabet: Optional[Alphabet] = None) -> None:
        self.ids = _as_symbol_array(symbols)
        self.ids.flags.writeable = False
        self.alphabet = alphabet

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], alphabet: Optional[Alphabet] = None):
        alphabet = alphabet if alphabet is not None else Alphabet()
        return cls(alphabet.intern_all(tokens), alphabet)

    def __len__(self) -> int:
        return int(self.ids.size)


class Text(_Symbols):
    """Immutable symbol sequence of length n (n = 0 allowed)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return int(self.ids.size)

    def __repr__(self) -> str:
        return f"Text(n={self.n})"


class Word(_Symbols):
    """Immutable pattern of length k >= 1 whose copies are searched for."""

    __slots__ = ()

    def __init__(self, symbols, alphabet: Optional[Alphabet] = None) -> None:
        super().__init__(symbols, alphabet)
        if self.ids.size == 0:
            raise ValueError("a word needs at least one symbol")

    @property
    def k(self) -> int:
        return int(self.ids.size)

    @property
    def distinct_count(self) -> int:
        return int(np.unique(self.ids).size)

    @property
    def has_adjacent_repeat(self) -> bool:
        """True when some symbol immediately repeats itself."""
        return bool(self.k > 1 and np.any(self.ids[1:] == self.ids[:-1]))

    def __repr__(self) -> str:
        return f"Word(k={self.k})"


class Distribution:
    """Non-negative position weights of length n, summing to one.

    All weights are exact: integer numerators over their least common
    denominator D (int64 when D fits, Python integers otherwise); no float
    copy is kept. Fractions are built on demand. Fraction and float
    totals within 1e-6 of one are normalized; anything further off is
    rejected.
    """

    __slots__ = ("_denominator", "_numerators", "_numerator_prefix")

    def __init__(self, numerators: np.ndarray, denominator: int) -> None:
        """Weights numerators[j] / denominator, for numerators with gcd one
        that sum to the denominator (`from_numerators` builds them)."""
        numerators.flags.writeable = False
        self._numerators = numerators
        self._denominator = denominator
        self._numerator_prefix: Optional[np.ndarray] = None

    @classmethod
    def from_numerators(cls, counts) -> "Distribution":
        """Exact weights counts[j] / sum(counts) from non-negative integers,
        stored as the counts over their gcd g, with D = sum / g."""
        if not (isinstance(counts, np.ndarray) and counts.dtype == np.int64):
            counts = list(counts)
            try:  # `operator.index` rejects floats, which int64 would truncate
                counts = np.fromiter(map(operator.index, counts), np.int64, len(counts))
            except OverflowError:
                counts = np.array([operator.index(c) for c in counts], dtype=object)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(counts < 0):
            raise ValueError("weights must be non-negative")
        # Every partial sum is at most max * size.
        counts = counts.astype(exact_dtype(int(counts.max()) * counts.size), copy=False)
        total = int(counts.sum())
        if total <= 0:
            raise ValueError("weights must have positive total")
        common = int(np.gcd.reduce(counts))
        denom = total // common
        nums = (counts // common).astype(exact_dtype(denom), copy=False)
        return cls(nums, denom)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise ValueError("uniform weights need n >= 1")
        # Ones over n: their gcd is one, so this is what `from_numerators`
        # builds, without its scans.
        return cls(np.ones(n, dtype=np.int64), n)

    @classmethod
    def from_fractions(cls, weights: Sequence[WeightLike]) -> "Distribution":
        exact = [as_fraction(w) for w in weights]
        denom = math.lcm(*{w.denominator for w in exact})
        counts = [w.numerator * (denom // w.denominator) for w in exact]
        dist = cls.from_numerators(counts)
        total = sum(counts)
        if abs(total - denom) * 10**6 > denom:
            raise ValueError(f"weights sum to {total / denom:.8f}, too far from 1")
        return dist

    @property
    def n(self) -> int:
        return int(self._numerators.size)

    @property
    def fractions(self) -> tuple:
        """The exact weights as Fractions, built on every call."""
        return tuple(Fraction(p, self._denominator) for p in self._numerators.tolist())

    def interval_weight(self, lo: int, hi: int) -> Fraction:
        """Total weight of positions lo..hi inclusive; lo = hi + 1 is the
        empty interval."""
        if not 1 <= lo or not hi <= self.n or lo > hi + 1:
            raise ValueError(f"interval [{lo}, {hi}] outside [1, {self.n}]")
        prefix = self.numerator_prefix()
        return Fraction(int(prefix[hi] - prefix[lo - 1]), self._denominator)

    def common_denominator(self) -> int:
        """The least common denominator D of the weights."""
        return self._denominator

    def numerators(self) -> np.ndarray:
        """The weights as integers over `common_denominator()`."""
        return self._numerators

    def numerator_prefix(self) -> np.ndarray:
        """Prefix sums of `numerators()`; entry j covers the first j
        positions, so entry 0 is the empty prefix."""
        if self._numerator_prefix is None:
            self._numerator_prefix = np.concatenate(([0], np.cumsum(self._numerators)))
        return self._numerator_prefix

    def __repr__(self) -> str:
        return f"Distribution(n={self.n})"


def drop_zero_weight(text: Text, dist: Distribution) -> tuple[Text, Distribution]:
    """Remove positions of weight zero; the distance is unaffected.

    Such positions can be modified free of charge, so no minimizer ever
    pays for them, and downstream expansion needs strictly positive
    multiplicities.
    """
    if dist.n != text.n:
        raise ValueError("weights and text disagree on length")
    weights = dist.numerators()
    keep = np.flatnonzero(weights)
    if keep.size == dist.n:
        return text, dist
    return Text(text.ids[keep], text.alphabet), Distribution.from_numerators(weights[keep])


def tally_positions(positions: np.ndarray, symbols: np.ndarray,
                    multiplicities: Optional[np.ndarray], ends,
                    word_symbols) -> tuple[np.ndarray, np.ndarray]:
    """Draws within each prefix of length `ends[j]`, from sorted 1-based
    drawn positions, the symbol at each, and their multiplicities; None
    counts each position once, so that repeated positions are repeat draws.

    Returns, per entry of `word_symbols`, the draws at positions carrying
    it, as a (len(word_symbols), len(ends)) array, and all draws, as a
    (len(ends),) array; both int64. Locates the ends once and counts each
    distinct symbol once, over the drawn positions only: with
    multiplicities, in one cumulative buffer; without, the totals are the
    cut indices, and a symbol's row the cut indices among its own draws.
    """
    word_symbols = [int(symbol) for symbol in word_symbols]
    cut = positions.searchsorted(ends, side="right").astype(np.int64, copy=False)
    if multiplicities is None:
        totals = cut
        by_symbol = {symbol: np.flatnonzero(symbols == symbol).searchsorted(cut)
                     for symbol in set(word_symbols)}
    else:
        cumulative = np.zeros(positions.size + 1, dtype=np.int64)
        by_symbol = {}
        for symbol in dict.fromkeys(word_symbols):
            np.cumsum(np.where(symbols == symbol, multiplicities, 0), out=cumulative[1:])
            by_symbol[symbol] = cumulative[cut]
        np.cumsum(multiplicities, out=cumulative[1:])
        totals = cumulative[cut]
    rows = np.array([by_symbol[symbol] for symbol in word_symbols], dtype=np.int64)
    return rows.reshape(len(word_symbols), cut.size), totals


class SampleSet:
    """Multiset of (position, symbol) draws, stored as sparse sorted
    positions with their symbols and multiplicities.

    Only positions that were actually drawn are kept: `positions` is
    sorted and unique, `symbols` carries the text symbol at each, and
    `multiplicities` counts repeat draws. `size` is the number of draws.
    """

    __slots__ = ("n", "size", "positions", "symbols", "multiplicities")

    def __init__(self, n: int, positions, symbols, multiplicities) -> None:
        self.n = int(n)
        self.positions = np.asarray(positions, dtype=np.int64)
        self.symbols = np.asarray(symbols, dtype=np.int32)
        self.multiplicities = np.asarray(multiplicities, dtype=np.int64)
        if not (self.positions.size == self.symbols.size == self.multiplicities.size):
            raise ValueError("positions, symbols and multiplicities must align")
        if self.positions.size:
            if self.positions[0] < 1 or self.positions[-1] > self.n:
                raise ValueError("sampled positions outside [1, n]")
            if np.any(np.diff(self.positions) <= 0):
                raise ValueError("positions must be sorted and unique")
            if np.any(self.multiplicities < 1):
                raise ValueError("multiplicities must be positive")
        self.size = int(self.multiplicities.sum())

    def tally(self, ends: np.ndarray, symbols=()) -> tuple[np.ndarray, np.ndarray]:
        """Draws within each prefix of length `ends[j]`: per entry of
        `symbols` those at positions carrying it, as a (len(symbols),
        len(ends)) array, and all of them, as a (len(ends),) array; both
        int64 (`tally_positions`). The estimators never build the sample
        they tally: `Sampler.draw_tallies` hands out the same arrays."""
        return tally_positions(self.positions, self.symbols, self.multiplicities, ends, symbols)

    def __repr__(self) -> str:
        return f"SampleSet(n={self.n}, size={self.size})"


class Sampler:
    """Draws positions i.i.d. from fixed position weights over a text.

    Deterministic given (size, seed). Every draw goes through one hook,
    `_drawn`, which returns the sorted 1-based drawn positions, the symbol
    at each, and their multiplicities, or None when each listed position
    counts once (repeats being repeat draws). `draw` builds a SampleSet
    from them, with repeats collapsed, and `draw_tallies` tallies them
    (`tally_positions`); neither is overridden, so `draw_tallies` is
    `draw(...).tally(...)` from the same generator calls.

    Here `_drawn` counts draws at all n positions, distributed as the
    multinomial of `size` independent draws from the float weights
    `_pvals`, built on the first dense draw from the exact weights `_dist`
    (uniform when None). With the margin m = POISSON_MARGIN *
    sqrt(size), a draw with size > n and m * SPARSE_DRAW_RATIO <= n is
    Poissonized: bulk counts Poisson((size - m) * p) at every position,
    drawn again in the rare case that they total more than `size`, plus
    the shortfall as that many categorical draws (sorted uniforms located
    in the cumulative weights). Given their total N, Poisson counts are
    Multinomial(N, p), so the sum is Multinomial(size, p). Every other
    draw is one multinomial, which keeps its random stream.
    """

    _dist: Optional[Distribution] = None

    def __init__(self, text: Text) -> None:
        if text.n < 1:
            raise ValueError("cannot sample from an empty text")
        self._text = text

    @property
    def n(self) -> int:
        return self._text.n

    def draw(self, size: int, seed) -> SampleSet:
        positions, symbols, multiplicities = self._drawn(size, seed)
        if multiplicities is None:
            positions, first, multiplicities = np.unique(
                positions, return_index=True, return_counts=True)
            symbols = symbols[first]
        return SampleSet(self.n, positions, symbols, multiplicities)

    def draw_tallies(self, size: int, seed, ends, symbols) -> tuple[np.ndarray, np.ndarray]:
        """Exactly `self.draw(size, seed).tally(ends, symbols)`, from the
        same generator calls, without building the SampleSet."""
        return tally_positions(*self._drawn(size, seed), ends, symbols)

    def _drawn(self, size: int, seed) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Draw counts at all n positions, Poissonized or one multinomial,
        as the drawn positions, their symbols and their counts."""
        if size < 0:
            raise ValueError("sample size must be non-negative")
        if size > MAX_DRAWS:
            raise ValueError(f"sample size must be at most {MAX_DRAWS}")
        rng = np.random.default_rng(seed)
        margin = POISSON_MARGIN * math.sqrt(size)
        if size > self.n and margin * SPARSE_DRAW_RATIO <= self.n:
            counts = self._poissonized(rng, size, margin)
        else:
            counts = rng.multinomial(size, self._pvals)
        hit = np.flatnonzero(counts)
        return hit + 1, self._text.ids[hit], counts[hit]

    def _poissonized(self, rng: np.random.Generator, size: int, margin: float) -> np.ndarray:
        while True:
            counts = rng.poisson((size - margin) * self._pvals)
            shortfall = size - int(counts.sum())
            if shortfall >= 0:
                break
        counts += np.bincount(self._cdf.searchsorted(np.sort(rng.random(shortfall)), side="right"),
                              minlength=self.n)
        return counts

    @functools.cached_property
    def _pvals(self) -> np.ndarray:
        """The weights as floats summing to one, the only place they are
        floats: each the correctly rounded quotient p / D, also where
        float(D) overflows; 1 / n each when `_dist` is None."""
        if self._dist is None:
            weights = np.full(self.n, 1.0 / self.n)
        elif (denom := self._dist.common_denominator()) < 2**53:
            weights = self._dist.numerators() / float(denom)
        else:
            weights = np.array([p / denom for p in self._dist.numerators().tolist()])
        return weights / float(weights.sum())

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        """Cumulative weights of the shortfall draws, built on the first
        Poissonized draw. Scaled to end at exactly one, so a uniform in
        [0, 1) never lands past the end or on a zero weight."""
        cdf = np.cumsum(self._pvals)
        cdf /= cdf[-1]
        return cdf


class UniformSampler(Sampler):
    """A draw of size <= n / SPARSE_DRAW_RATIO takes `size` uniform
    positions, sorts them and reads only those of the text, which has the
    law of the multinomial. A larger draw is dense (`Sampler`)."""

    def _drawn(self, size: int, seed) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        if not 0 <= size <= self.n // SPARSE_DRAW_RATIO:
            return super()._drawn(size, seed)
        positions = np.random.default_rng(seed).integers(0, self.n, size)
        positions.sort()
        symbols = self._text.ids[positions]
        positions += 1
        return positions, symbols, None


class WeightedSampler(Sampler):
    def __init__(self, text: Text, dist: Distribution) -> None:
        if dist.n != text.n:
            raise ValueError("weights and text disagree on length")
        super().__init__(text)
        self._dist = dist


def role_prefix_counts(
    text: Text, word: Word, weights: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """Per role, the total weight of its symbol within every nonempty text
    prefix, one block of `COPY_BLOCK` columns at a time.

    Yields (k, B) arrays: column j of a block covers the prefix ending at
    the block's j-th position, and the blocks follow each other along the
    text. The empty prefix, before the first block, counts zero. Without
    `weights` each position counts one, in int32 when n < 2**31;
    otherwise position j counts weights[j - 1], and the counts take the
    dtype of `weights`.
    """
    n = text.n
    if weights is None:
        dtype = np.int32 if n < 2**31 else np.int64
    else:
        dtype = weights.dtype
    roles = word.ids[:, None]
    carry = np.zeros((roles.size, 1), dtype=dtype)
    for start in range(0, n, COPY_BLOCK):
        hits = text.ids[start : start + COPY_BLOCK] == roles
        if weights is not None:
            hits = np.where(hits, weights[start : start + COPY_BLOCK], 0)
        block = np.cumsum(hits, axis=1, dtype=dtype)
        block += carry
        carry = block[:, -1:].copy()
        yield block


def gather_columns(count_blocks: Iterable[np.ndarray], columns: np.ndarray) -> np.ndarray:
    """The given prefix lengths (sorted, each >= 1) of consecutive count
    blocks such as `role_prefix_counts` yields, as one (k, len(columns))
    array gathered block by block."""
    parts = []
    start = hi = 0
    for block in count_blocks:
        stop = start + block.shape[1]
        lo, hi = hi, int(np.searchsorted(columns, stop, side="right"))
        parts.append(block[:, columns[lo:hi] - (start + 1)])
        start = stop
    return np.concatenate(parts, axis=1)


def contains_word(text: Text, word: Word) -> bool:
    """Subsequence test: does the word occur in the text at all?"""
    need = 0
    wids = word.ids
    for sym in text.ids:
        if sym == wids[need]:
            need += 1
            if need == word.k:
                return True
    return False

