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
- Poissonized: when s exceeds n and POISSON_MARGIN * sqrt(s) *
  SPARSE_DRAW_RATIO <= n, as for the distribution-free estimator on a
  short text, Poisson bulk counts at all n positions, their total made
  exactly s by categorical draws added or bulk draws removed at random;
  the bulk is drawn in fixed blocks of positions, each from its own
  generator, on one thread per CPU the process may use, and since the
  blocks depend on n alone a draw is the same on any number of CPUs;
- multinomial: every other draw, one multinomial over all n positions.
Each sampler draws through one hook, `Sampler._drawn`. The dense hook
hands out its n counts in place, with positions None standing for every
position 1..n and the text's ids as their symbols; the sparse uniform draw,
the one override, returns its sorted drawn positions with their symbols.
Only `Sampler.draw` compacts dense counts to the drawn positions, into a
`SampleSet`; `Sampler.draw_tallies` hands out the sample's tallies at a
few prefix lengths, the only way the estimators read a sample, without
building it (`tally_positions` counts both).
"""

from __future__ import annotations

import functools
import math
import operator
import os
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
# m = POISSON_MARGIN * sqrt(size) has m * ratio <= n; every other dense
# draw is one multinomial. The switch was placed by a Poissonized draw that
# took its bulk at size - m and corrected only a shortfall: at n = 10**5 it
# measured 25-29% faster than the multinomial for 855k <= size <= 6.25M
# (m = n/4), 14% slower at m = n/2; at n = 10**6 it was even at m = n/4.
# At size <= n it was within about 10% either way but holds two n-length
# arrays during the draw where the multinomial holds one, so those draws
# stay multinomial.
SPARSE_DRAW_RATIO = 4

# Standard deviations of the Poisson bulk total that place the switch to
# the Poissonized draw (above); the draw itself keeps no margin, since it
# corrects its bulk total exactly either way.
POISSON_MARGIN = 10

# The Poisson bulk of a draw over n positions is drawn in ceil(n /
# POISSON_BLOCK) near-equal blocks of positions, each from its own
# generator, so the counts depend on n and never on the CPU count. A block
# costs a generator and a hand-off to the pool, some 50 us; smaller blocks
# share the work out more evenly. The two Poissonized draws of one
# distribution-free run at n = 10**5 (855,185 and 4,026,392 draws) took
# 8.6 ms in 7 blocks of 2**14, against 12.6 ms as one serial draw, and
# 10.1, 9.0 and 8.7 ms in 13, 4 and 2 blocks (2 vCPUs, medians of 100
# interleaved rounds); a noisier round put 25 blocks at 15.3 ms, 7 at
# 11.8 and the serial draw at 17.1.
POISSON_BLOCK = 2**14

# `RoleCounts` builds the counts of a text in blocks of this many columns,
# so the copy recursion carries a few values per role from block to block
# instead of k count rows of length n + 1. The unweighted counts sum one
# block in 16-bit lanes, so a block must stay below 2**16 columns.
# `exact.text_measure` proves a whole block settled or runs it exactly, so a
# larger block is proved settled less often. At n = 10**7 a `copy_count`
# (three rounds of best of five, 2-vCPU VM) took 27-28.5 ms on a 4-symbol
# uniform text at k = 3 and 94-99 ms on a 6-symbol one at k = 6 with 2**13
# columns; 27.5-28.6 and 100-101 ms with 2**12, 32 and 106-170 ms with
# 2**14, 36-52 and 199-205 ms with 2**15. A larger block also holds twice
# the counts or more: at 2**14 a six-role word on n = 10**6 peaks at 1.07 MB
# unweighted and 1.79 MB weighted, against 0.54 and 0.96 MB at 2**13.
COPY_BLOCK = 2**13

# `tally_positions` sums the draws between consecutive ends with
# `np.add.reduceat` when the ends cut the drawn positions into intervals of
# more than this many positions on average, and otherwise reads one
# cumulative sum at the ends. Per symbol row (2-vCPU VM), the interval sums
# took 0.98 and 1.75 times the time of the cumulative sum at 4 positions per
# interval, on 2,000 and 10**5 positions, 0.75 and 1.14 at 8, 0.54 and 0.41
# at 32, and 0.47 and 0.23 at 166, the phase-two intervals of a text of
# 10**5 positions cut into 600.
REDUCEAT_SPAN = 8


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
        # A read-only view: the caller's own int32 array stays writable.
        self.ids = _as_symbol_array(symbols).view()
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


def tally_positions(positions: Optional[np.ndarray], symbols: np.ndarray,
                    multiplicities: Optional[np.ndarray], ends,
                    word_symbols) -> tuple[np.ndarray, np.ndarray]:
    """Draws within each prefix of length `ends[j]`, from sorted 1-based
    drawn positions, the symbol at each, and their multiplicities. None
    positions are every position 1..n, n = len(symbols), so that the
    multiplicities are the draw counts of the whole text, zeros included;
    None multiplicities count each position once, so that repeated
    positions are repeat draws. With multiplicities the ends must be
    nondecreasing: ends that cut the draws out of order raise ValueError.

    Returns, per entry of `word_symbols`, the draws at positions carrying
    it, as a (len(word_symbols), len(ends)) array, and all draws, as a
    (len(ends),) array; both int64. Locates the ends once and counts each
    distinct symbol once. With multiplicities, each distinct symbol's
    masked multiplicities are summed over the intervals between
    consecutive ends by one `np.add.reduceat` and the sums accumulated, or,
    over intervals of at most `REDUCEAT_SPAN` positions on average, summed
    cumulatively and read at the ends; without, the totals are the cut
    indices, and a symbol's row the cut indices among its own draws.
    """
    word_symbols = [int(symbol) for symbol in word_symbols]
    if positions is None:
        cut = np.minimum(np.maximum(ends, 0), symbols.size).astype(np.int64, copy=False)
    else:
        cut = positions.searchsorted(ends, side="right").astype(np.int64, copy=False)
    if multiplicities is None:
        totals = cut
        by_symbol = {symbol: np.flatnonzero(symbols == symbol).searchsorted(cut)
                     for symbol in set(word_symbols)}
    else:
        if (cut[1:] < cut[:-1]).any():
            raise ValueError("tally ends must be nondecreasing")
        # Row i counts the draws of the i-th distinct symbol, the last row
        # all draws, each from the multiplicities masked to its symbol.
        # Long intervals are summed by `reduceat` and the sums accumulated.
        # `reduceat` runs a segment from its start to the next start, the
        # last one to the end of the array, and reads an empty segment as
        # the value at its start: so it takes the starts of the non-empty
        # intervals only, over the values up to the last cut. Over short
        # intervals one cumulative sum, read at the cuts, costs less.
        distinct = list(dict.fromkeys(word_symbols))
        sums = np.zeros((len(distinct) + 1, cut.size), dtype=np.int64)
        last = int(cut[-1]) if cut.size else 0
        values, labels = multiplicities[:last], symbols[:last]
        hit = np.empty(last, dtype=bool)
        cumulative = np.zeros(last + 1, dtype=np.int64)
        masked = cumulative[1:]
        long = last > REDUCEAT_SPAN * cut.size
        if long:
            before = np.empty_like(cut)
            before[0] = 0
            before[1:] = cut[:-1]
            filled = cut > before
            starts = before[filled]
        for row, symbol in zip(sums, [*distinct, None]):
            source = values if symbol is None else np.multiply(
                values, np.equal(labels, symbol, out=hit), out=masked)
            if long:
                row[filled] = np.add.reduceat(source, starts)
            else:
                np.cumsum(source, out=masked)
                row[:] = cumulative[cut]
        if long:
            np.cumsum(sums, axis=1, out=sums)
        by_symbol = dict(zip(distinct, sums))
        totals = sums[-1]
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


_pool = None  # (pid, executor) of `_block_pool`, once built


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_pool():
    """The module's thread pool, one worker per CPU this process may use,
    built on first use; None on one CPU. A forked child, where the
    parent's pool threads do not run, builds its own. Two threads that
    build a pool at once each draw on a working one, and the pool not kept
    ends its threads when collected, so no lock guards the build (a lock
    held across a fork would hang the child). `concurrent.futures` is
    imported here rather than with the package, whose import it would
    slow."""
    global _pool
    cpus = _usable_cpus()
    if cpus < 2:
        return None
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(cpus, thread_name_prefix="seqfree-poisson"))
    return _pool[1]


def _poisson_bulk(rng: np.random.Generator, size: int, pvals: np.ndarray) -> np.ndarray:
    """Counts Poisson(size * p) at every position, in B = ceil(n /
    POISSON_BLOCK) blocks cut at n * j // B, block j drawn from
    `rng.bit_generator.jumped(j + 1)` into its slice of one count array.
    Jumping copies the generator's state, so neither `rng` nor its seed
    moves. The blocks run on `_block_pool`, whose threads overlap since
    `Generator.poisson` releases the GIL, or inline on one CPU; the counts
    are the same either way."""
    n = pvals.size
    blocks = -(-n // POISSON_BLOCK)
    cuts = [n * j // blocks for j in range(blocks + 1)]
    generators = [np.random.Generator(rng.bit_generator.jumped(j + 1)) for j in range(blocks)]
    counts = np.empty(n, dtype=np.int64)

    def fill(j: int) -> None:
        lo, hi = cuts[j], cuts[j + 1]
        counts[lo:hi] = generators[j].poisson(size * pvals[lo:hi])

    pool = _block_pool() if blocks > 1 else None
    for _ in (map if pool is None else pool.map)(fill, range(blocks)):
        pass
    return counts


class Sampler:
    """Draws positions i.i.d. from fixed position weights over a text.

    Deterministic given (size, seed). Every draw goes through one hook,
    `_drawn`, which returns the sorted 1-based drawn positions, or None
    for every position 1..n, the symbol at each, and their multiplicities,
    or None when each listed position counts once (repeats being repeat
    draws). `draw` builds a SampleSet from them, with zero counts dropped
    and repeats collapsed, and `draw_tallies` tallies them as they are
    (`tally_positions`); neither is overridden, so `draw_tallies` is
    `draw(...).tally(...)` from the same generator calls.

    Here `_drawn` counts draws at all n positions, distributed as the
    multinomial of `size` independent draws from the float weights
    `_pvals`, built on the first dense draw from the exact weights `_dist`
    (uniform when None). A draw with size > n and POISSON_MARGIN *
    sqrt(size) * SPARSE_DRAW_RATIO <= n is Poissonized: bulk counts
    Poisson(size * p) at every position, whose total N is then made
    exactly `size`. A shortfall adds size - N categorical draws; an excess
    deletes a uniformly random N - size of the N bulk draws. Given N, the
    bulk is Multinomial(N, p), and adding independent draws to it, or
    deleting a random subset of its exchangeable draws, leaves
    Multinomial(size, p). The bulk is drawn in fixed blocks of positions,
    each from its own generator jumped from the seed's, on one thread per
    CPU the process may use, and its counts do not depend on the number
    of CPUs (`_poisson_bulk`); the correction then draws from the seed's
    generator. Every other draw is one multinomial, which keeps its random
    stream.
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
        if positions is None:
            hit = np.flatnonzero(multiplicities)
            positions, symbols, multiplicities = hit + 1, symbols[hit], multiplicities[hit]
        elif multiplicities is None:
            positions, first, multiplicities = np.unique(
                positions, return_index=True, return_counts=True)
            symbols = symbols[first]
        return SampleSet(self.n, positions, symbols, multiplicities)

    def draw_tallies(self, size: int, seed, ends, symbols) -> tuple[np.ndarray, np.ndarray]:
        """Exactly `self.draw(size, seed).tally(ends, symbols)`, from the
        same generator calls, without building the SampleSet."""
        return tally_positions(*self._drawn(size, seed), ends, symbols)

    def _drawn(self, size: int, seed) -> tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
        """Draw counts at all n positions, Poissonized or one multinomial,
        handed out in place: positions None (every position), the text's
        symbols and the n counts."""
        if size < 0:
            raise ValueError("sample size must be non-negative")
        if size > MAX_DRAWS:
            raise ValueError(f"sample size must be at most {MAX_DRAWS}")
        rng = np.random.default_rng(seed)
        if size > self.n and POISSON_MARGIN * math.sqrt(size) * SPARSE_DRAW_RATIO <= self.n:
            counts = self._poissonized(rng, size)
        else:
            counts = rng.multinomial(size, self._pvals)
        return None, self._text.ids, counts

    def _poissonized(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Counts Poisson(size * p) at every position (`_poisson_bulk`),
        their total N then corrected to `size`: a shortfall taken as
        categorical draws (sorted uniforms located in `_cdf`), an excess
        removed as a uniformly random N - size of the N bulk draws (their
        sorted ranks located in the cumulative counts)."""
        counts = _poisson_bulk(rng, size, self._pvals)
        excess = int(counts.sum()) - size
        if excess < 0:
            np.add.at(counts, self._cdf.searchsorted(np.sort(rng.random(-excess)), side="right"), 1)
        elif excess > 0:
            ranks = np.sort(rng.choice(size + excess, excess, replace=False, shuffle=False))
            np.subtract.at(counts, np.cumsum(counts).searchsorted(ranks, side="right"), 1)
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
        Poissonized draw that falls short. Scaled to end at exactly one, so
        a uniform in [0, 1) never lands past the end or on a zero weight."""
        cdf = np.cumsum(self._pvals)
        cdf /= cdf[-1]
        return cdf


class UniformSampler(Sampler):
    """A draw of size <= n / SPARSE_DRAW_RATIO takes `size` uniform
    positions, sorts them and reads only those of the text, which has the
    law of the multinomial. A larger draw is dense (`Sampler`)."""

    def _drawn(self, size: int, seed) -> tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
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


class RoleCounts:
    """Per role, the total weight of its symbol within text prefixes: the
    rows of one column block at a time, given the counts before it, and
    per-symbol totals over short chunks of positions.

    Blocks are `COPY_BLOCK` columns, as the module holds it when the
    counts are built; column j of a block covers the prefix ending at the
    block's j-th position. Without `weights` each position counts one, in
    int32 when n < 2**31; otherwise position j counts weights[j - 1], and
    the counts take the dtype of `weights`.
    """

    def __init__(self, text: Text, word: Word, weights: Optional[np.ndarray] = None) -> None:
        self.ids = text.ids
        self.weights = weights
        self.k = word.k
        self.size = COPY_BLOCK
        # The distinct symbols of the word, and the index of each role's
        # (not `np.unique`, whose first call grows a process by about 2 MB).
        self.symbols = np.array(sorted(set(word.ids.tolist())), dtype=word.ids.dtype)
        self.roles = np.searchsorted(self.symbols, word.ids)
        if weights is not None:
            self.dtype = weights.dtype
            self.role_ids = word.ids[:, None]
            return
        # The hits of four symbols share one 64-bit cumsum, one 16-bit lane
        # each: a lane counts at most one block, below 2**16, so no lane
        # carries into the next. A short last group leaves its spare lanes
        # zero.
        self.dtype = np.int32 if text.n < 2**31 else np.int64
        width = min(text.n, COPY_BLOCK)
        self.groups = []
        for g in range(0, self.symbols.size, 4):
            lanes = np.zeros((width, 4), dtype=np.uint16)
            members = [(i, int(lane) - g) for i, lane in enumerate(self.roles) if g <= lane < g + 4]
            self.groups.append((self.symbols[g : g + 4].tolist(), lanes, lanes.view(np.uint64)[:, 0], members))
        self.hit = np.empty(width, dtype=bool)

    def block(self, start: int, before: np.ndarray) -> np.ndarray:
        """The (k, B) counts of the block of positions start + 1 to
        start + B, B = `size` or what is left of the text, given the (k, 1)
        counts of the prefix of length `start`."""
        ids = self.ids[start : start + self.size]
        if self.weights is not None:
            # The bool mask is dropped before the sum, which runs in place.
            block = np.multiply(self.weights[start : start + self.size], ids == self.role_ids)
            np.cumsum(block, axis=1, out=block)
        else:
            block = np.empty((self.k, ids.size), dtype=self.dtype)
            hit, groups = self.hit, self.groups
            if ids.size < hit.size:  # the last block is shorter
                hit = hit[: ids.size]
                groups = [(group, lanes[: ids.size], packed[: ids.size], members)
                          for group, lanes, packed, members in groups]
            for group, lanes, packed, members in groups:
                for lane, symbol in enumerate(group):
                    np.equal(ids, symbol, out=hit)
                    lanes[:, lane] = hit
                np.add.accumulate(packed, out=packed)
                for i, lane in members:
                    block[i] = lanes[:, lane]
        block += before
        return block

    def chunk_totals(self, start: int, stop: int, chunk: int) -> np.ndarray:
        """Per distinct symbol of the word (`symbols`), its total weight
        in each run of `chunk` positions from start + 1 to stop, the last
        run possibly shorter: a (len(symbols), ceil((stop - start) / chunk))
        array in the counts' dtype. `chunk` is a power of two up to 128
        that divides `size`.

        Without weights each symbol takes one comparison and a
        byte count: the hits, viewed as words of up to 8 bytes, are added
        pairwise down to one word per chunk, each byte then counting at
        most `chunk` positions, and the product with 0x0101...01 sums the
        bytes into the top one. Weighted totals mask the weights one block
        at a time and sum each chunk.
        """
        ids = self.ids[start:stop]
        count = -(-ids.size // chunk)
        totals = np.empty((self.symbols.size, count), dtype=self.dtype)
        if self.weights is not None:
            weights = self.weights[start:stop]
            for lo in range(0, ids.size, self.size):
                piece = slice(lo, lo + self.size)
                masked = np.multiply(weights[piece], ids[piece] == self.symbols[:, None])
                totals[:, lo // chunk : (lo + self.size) // chunk] = np.add.reduceat(
                    masked, np.arange(0, masked.shape[1], chunk), axis=1)
            return totals
        lane = min(chunk, 8)
        hit = np.zeros(count * chunk, dtype=bool)  # the tail past `stop` stays clear
        words = hit.view(f"u{lane}")
        ones, shift = words.dtype.type(int("01" * lane, 16)), words.dtype.type(8 * lane - 8)
        for row, symbol in zip(totals, self.symbols):
            np.equal(ids, symbol, out=hit[: ids.size])
            summed = words
            while summed.size > count:
                summed = summed[0::2] + summed[1::2]
            row[:] = summed * ones >> shift
        return totals


def role_prefix_counts(
    text: Text, word: Word, weights: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """The counts of `RoleCounts` block after block along the whole text:
    (k, B) arrays, starting from the empty prefix, which counts zero."""
    counts = RoleCounts(text, word, weights)
    before = np.zeros((word.k, 1), dtype=counts.dtype)
    for start in range(0, text.n, counts.size):
        block = counts.block(start, before)
        before = block[:, -1:].copy()
        yield block
        del block  # before the next block is allocated


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

