"""Distance estimation when the position weights are arbitrary and unknown.

The estimator works in two sampling phases over the same unknown weights
that define the distance, both drawn by `sample_phases`, the one place
that sizes and seeds a run. Phase one partitions positions into intervals
of small empirical weight (heavy single positions stay alone) with one
greedy cover of the drawn positions, which the diagnostic reference
partition builds from the true weights. The cover is array code, by
pointer doubling over the positions, unless many positions share each
interval; then it walks, one bisection per interval. Phase two
estimates, per word role, the cumulative weight of matching positions up
to every interval boundary: `sample_phases` hands out only those tallies,
a `DensityEstimate` over the phase-two size, drawn by
`Sampler.draw_tallies` without ever materialising the phase-two draw.
The copy recursion (`exact.running_maximum`) measures those tallies as
one block from the empty prefix, lagged at heavy intervals: there each
role reads the previous role's measure one column back, as the
separator rewrite of the paper would have it. Its measure over the
phase-two size estimates the distance within the requested accuracy
with probability at least 2/3.

Diagnostics down to the two good-sample events and exact reference
quantities live here too; they require full knowledge of the weights and
exist for the statistical test harness, not for the estimator itself.
The exact reference of a density is a `DensityEstimate` as well, over
the common denominator of the weights. The diagnostics compare integer
numerators (exact weights over their common denominator, draw counts
over the sample size) by cross-multiplying, without floats or per-entry
Fractions: in int64 when a bound worked out from the inputs (counts at
most the sample size, numerators at most the denominator) proves that no
product overflows it, on Python integers otherwise (`core.exact_dtype`).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar, Iterator

import numpy as np

from .core import (
    Distribution,
    SampleSet,
    Sampler,
    Text,
    Word,
    as_fraction,
    checked_accuracy,
    draw_count,
    exact_dtype,
    gather_columns,
    role_prefix_counts,
    subseed,
)
from .exact import final_measure, interleave_sentinel


@dataclass(frozen=True)
class EstimatorConstants:
    """Dials of the distribution-free estimator.

    The defaults back the 2/3 guarantee. Only `resolution_factor` is a
    field: `relaxed` scales it down for smoke tests, and any result
    produced that way is off-spec; `report_fields` is its label.
    """

    resolution_factor: Fraction = Fraction(100)
    step_factor: ClassVar[Fraction] = Fraction(1, 16)
    first_sample_factor: ClassVar[int] = 120
    first_sample_log: ClassVar[int] = 240
    second_sample_log: ClassVar[int] = 40

    def relaxed(self, factor) -> "EstimatorConstants":
        f = as_fraction(factor)
        if f <= 0:
            raise ValueError("relaxation factor must be positive")
        return replace(self, resolution_factor=self.resolution_factor / f)

    def report_fields(self) -> dict:
        """The fields that label a report made with these constants: none
        at production, else `off_spec_constants` and the relaxation
        factor, the X of `relaxed(X)` (exact, so its float is X's)."""
        if self == DEFAULT_CONSTANTS:
            return {}
        return {
            "off_spec_constants": True,
            "relaxed_constants": float(DEFAULT_CONSTANTS.resolution_factor / self.resolution_factor),
        }


DEFAULT_CONSTANTS = EstimatorConstants()


def interval_resolution(
    k: int, accuracy, constants: EstimatorConstants = DEFAULT_CONSTANTS
) -> Fraction:
    """Target inverse interval weight: intervals aim for weight <= 1/res."""
    res = constants.resolution_factor * k / checked_accuracy(k, accuracy)
    if res <= 1:
        raise ValueError("interval resolution must exceed 1; relaxation too aggressive")
    return res


def _as_float(value: Fraction) -> float:
    """`value` as a float; infinite past the float range, so that a size
    formula built on it fails `draw_count` instead of overflowing."""
    return float(value) if value <= sys.float_info.max else math.inf


def first_sample_size(resolution: Fraction, constants: EstimatorConstants = DEFAULT_CONSTANTS) -> int:
    """Draws for the partition phase."""
    r = _as_float(resolution)
    return draw_count(constants.first_sample_factor * r * math.log(constants.first_sample_log * r))


def second_sample_size(
    resolution: Fraction, k: int, intervals: int, constants: EstimatorConstants = DEFAULT_CONSTANTS
) -> int:
    """Draws for the density phase; needs the realized interval count."""
    if intervals < 1:
        raise ValueError("interval count must be at least 1")
    r = _as_float(resolution)
    return draw_count(r * r * math.log(constants.second_sample_log * k * intervals))


def quantization_step(n: int, resolution: Fraction, constants: EstimatorConstants = DEFAULT_CONSTANTS) -> Fraction:
    """Grid step for the weight rounding used by the exact reference path."""
    if n < 1:
        raise ValueError("step needs n >= 1")
    return constants.step_factor / (n * resolution)


def quantized_numerators(dist: Distribution, step: Fraction) -> np.ndarray:
    """ceil(w / step) for every weight w, as int64: the multiples of `step`
    that `quantize_weights` rounds the weights up to, by integer ceiling
    division of their numerators."""
    # w / step = num * b / (D * a) for w = num / D and step = a / b; with
    # num <= D, neither num * b nor the divisor D * a passes D max(a, b).
    denom = dist.common_denominator()
    nums = dist.numerators().astype(
        exact_dtype(denom * max(step.numerator, step.denominator)), copy=False)
    return (-(-(nums * step.denominator) // (denom * step.numerator))).astype(np.int64)


# `_greedy_cover` doubles pointers when the listed positions number at
# most this many per interval, estimated as total // (limit + 1) + 1, and
# walks otherwise. On phase-one-like samples (2-vCPU VM, numpy 2.4.6)
# doubling cost 0.065-0.13 us per listed position, over about log2 U
# rounds, and the walk 0.55-1.5 us per interval, the upper ends under host
# load; in either regime they broke even at 10-12 listed positions per
# interval, at 600 and at 6,000 intervals. A phase-one sample of 855,185
# draws on 2,000 positions (about 3 listed per interval) and the reference
# partition of those weights (about 1) double, about 3 times faster than
# the walk; the same sample on 10**5 positions (86,766 listed, 600
# intervals) walks, about 13 times faster than doubling.
DOUBLING_RATIO = 8


def _by_doubling(listed: int, total: int, limit: int) -> bool:
    """Whether `_greedy_cover` doubles pointers on `listed` positions of
    weights summing to `total`, intervals holding at most `limit`."""
    return listed <= DOUBLING_RATIO * (total // (limit + 1) + 1)


def _greedy_cover(n: int, positions: np.ndarray, prefix: np.ndarray, singles: np.ndarray,
                  limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(boundaries, singleton flags) of the greedy cover of [1, n] that
    both partitions build, as int64 and bool arrays. `positions` lists the
    positions of positive weight, at least one, in increasing order
    (int64), `prefix` the running sums of their weights from 0 (int64 or
    Python integers), and `singles` flags those that stand alone, each
    weighing more than `limit`. Left to right, a single at the start
    becomes a singleton; any other interval ends just before the first
    listed position that would take its weight past `limit`, or at n, so
    an unlisted suffix folds into the last interval. Both forms give the
    same cover; `_by_doubling` picks one from the input size.
    """
    if _by_doubling(positions.size, int(prefix[-1]), limit):
        return _cover_by_doubling(n, positions, prefix, singles, limit)
    return _cover_by_walk(n, positions, prefix, singles, limit)


def _cover_by_doubling(n: int, positions: np.ndarray, prefix: np.ndarray,
                       singles: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """`_greedy_cover` as array code: O(m log U) for m listed positions
    and U intervals, with no Python step per interval.

    A walk state is a listed index i whose interval starts before its
    position (state 2i) or on it (state 2i + 1); state 2m says that nothing
    listed is left, and 2m + 1 ends the walk. Every state emits one
    interval and has one successor, which is a larger state, so the path
    from the start, built by pointer doubling, increases up to the end.
    Only the successors are built for every state; ends and flags are
    read off the path.
    """
    listed = positions.size
    done = 2 * listed + 1
    # A light interval from index i ends before listed position stop - 1,
    # the first that takes it past the limit, or at n when stop = m + 1;
    # the next interval starts on that position, state 2 stop - 1, which
    # is the end state when stop = m + 1. Capped at the total, which no
    # sum passes, the targets stay within the prefix dtype.
    jump = np.full(2 * listed + 2, done)
    jump[0:-2:2] = jump[1:-2:2] = 2 * prefix.searchsorted(
        np.minimum(prefix[:-1], prefix[-1] - limit) + limit, side="right") - 1
    # After a single at i the next interval starts on listed position
    # i + 1 when that follows it directly, before it otherwise; for the
    # last single those are the end (it sits at n) and state 2m.
    single = np.flatnonzero(singles)
    after = np.append(positions, n + 1)[single + 1]
    jump[2 * single + 1] = 2 * single + 2 + (after == positions[single] + 1)
    path = np.array([int(positions[0] == 1)])
    while path[-1] != done:
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    path = path[:path.searchsorted(done)]
    # A singleton ends on its position, a light interval just before the
    # listed position j that its successor 2j + 1 starts on, or at n when
    # that is the end state (j = m).
    index = np.minimum(path // 2, listed - 1)
    heavy = (path % 2 == 1) & singles[index]
    light_end = np.append(positions, n + 1)[np.append(path[1:], done) // 2] - 1
    return np.concatenate(([0], np.where(heavy, positions[index], light_end))), heavy


def _cover_by_walk(n: int, positions: np.ndarray, prefix: np.ndarray,
                   singles: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """`_greedy_cover` one interval at a time, each one `bisect_right`
    over `prefix`: O(U log m), for many listed positions per interval. It
    reads the arrays through memoryviews (lists for Python integers),
    which index to Python scalars: numpy scalars compare slowly."""
    listed = positions.size
    positions, singles = memoryview(positions), memoryview(singles)
    prefix = prefix.tolist() if prefix.dtype == object else memoryview(prefix)
    bounds = [0]
    flags = []
    start = 1
    index = 0  # the first listed position at or after `start`
    while start <= n:
        if index < listed and singles[index] and positions[index] == start:
            bounds.append(start)
            flags.append(True)
            start += 1
            index += 1
            continue
        # Listed position `stop - 1` is the first whose weight pushes the
        # interval past the limit; the interval ends just before it.
        stop = bisect.bisect_right(prefix, prefix[index] + limit, lo=index)
        end = n if stop > listed else positions[stop - 1] - 1
        bounds.append(end)
        flags.append(False)
        start = end + 1
        index = stop - 1
    return np.array(bounds, dtype=np.int64), np.array(flags, dtype=bool)


@dataclass
class _IntervalCover:
    """Consecutive intervals covering [1, n].

    `boundaries` starts at 0 and ends at n; interval u spans
    boundaries[u-1]+1 .. boundaries[u]. Subclasses attach bool arrays of
    one flag per interval.
    """

    n: int
    boundaries: np.ndarray  # int64, leading 0, strictly increasing, last n

    @property
    def count(self) -> int:
        return int(self.boundaries.size) - 1


@dataclass
class IntervalPartition(_IntervalCover):
    """Intervals built from sampled weights, flagged heavy or light.

    An interval is heavy exactly when it is a single position whose
    empirical weight exceeds 1/resolution; every other interval is light
    with empirical weight at most that.
    """

    heavy: np.ndarray  # bool, one flag per interval

    def intervals(self) -> Iterator[tuple[int, int, bool]]:
        """(first position, last position, heavy flag) of every interval,
        left to right, as Python scalars."""
        bounds = self.boundaries.tolist()
        return zip([b + 1 for b in bounds[:-1]], bounds[1:], self.heavy.tolist())

    @classmethod
    def from_sample(cls, sample: SampleSet, resolution: Fraction) -> "IntervalPartition":
        """The greedy cover (`_greedy_cover`) of the drawn positions."""
        if sample.size < 1:
            raise ValueError("partition needs a non-empty sample")
        # Comparisons against count/size <= 1/res stay in integers:
        # weight > 1/res iff count > floor(size/res).
        limit = math.floor(Fraction(sample.size) / resolution)
        multiplicities = sample.multiplicities
        cumulative = np.concatenate(([0], np.cumsum(multiplicities)))
        bounds, heavy = _greedy_cover(sample.n, sample.positions, cumulative,
                                      multiplicities > limit, limit)
        return cls(sample.n, bounds, heavy)


def sample_phases(
    oracle: Sampler,
    word: Word,
    resolution: Fraction,
    seed: int,
) -> tuple[SampleSet, IntervalPartition, DensityEstimate]:
    """The two sampling phases of one distribution-free run.

    Phase one draws `first_sample_size` positions on stream 1 of `seed`
    and partitions them; phase two draws `second_sample_size` positions,
    sized by that partition, on stream 2, as tallies at its boundaries
    (`Sampler.draw_tallies`, the tallies `symbol_density_estimate` takes
    of `oracle.draw` on that stream, with no `SampleSet` built). Both
    estimators and the event diagnostics draw through here, so one seed
    gives all of them the same samples. Returns (phase-one sample,
    partition, phase-two density); the density's denominator is the
    phase-two size. Only phase one builds a `SampleSet`: its partition
    reads the drawn positions.
    """
    sample1 = oracle.draw(first_sample_size(resolution), subseed(seed, 1))
    partition = IntervalPartition.from_sample(sample1, resolution)
    second = second_sample_size(resolution, word.k, partition.count)
    tallies = oracle.draw_tallies(second, subseed(seed, 2), partition.boundaries[1:], word.ids)
    return sample1, partition, DensityEstimate(*tallies, second)


@dataclass
class ReferencePartition(_IntervalCover):
    """Diagnostic partition built from the true weights, its intervals
    flagged by class.

    Intervals chase a per-interval weight near 1/(4*resolution) subject
    to a per-position cap of 1/(8*resolution); positions over the cap
    stand alone. `single` flags those over-cap singletons, `small` the
    other intervals of weight below 1/(8 res); the rest, of weight in
    [1/(8 res), 1/(4 res)], are medium.
    """

    single: np.ndarray  # bool, one flag per interval
    small: np.ndarray  # bool, one flag per interval

    @classmethod
    def from_weights(cls, dist: Distribution, resolution: Fraction) -> "ReferencePartition":
        """The greedy cover (`_greedy_cover`) of the positive weights."""
        # With weights as numerators over D and res = p/q, a weight w
        # exceeds 1/(8 res) iff 8 p w > q D, that is w > floor(q D / 8 p),
        # and a total t exceeds 1/(4 res) iff t > floor(q D / 4 p).
        denom = dist.common_denominator()
        unit = resolution.denominator * denom
        cap_factor = 8 * resolution.numerator
        cap, run = unit // cap_factor, unit // (4 * resolution.numerator)
        nums = dist.numerators()
        listed = np.flatnonzero(nums)
        positive = nums[listed]
        singles = positive > cap
        # A single's stand-in weighs past any run, so no run takes it in;
        # the others sum to at most D.
        bound = denom + int(np.count_nonzero(singles)) * (run + 1)
        weights = np.where(singles, run + 1, positive).astype(exact_dtype(bound), copy=False)
        prefix = np.concatenate(([0], np.cumsum(weights)))
        boundaries, flags = _greedy_cover(dist.n, listed + 1, prefix, singles, run)
        # A total t <= D is small iff 8 p t < q D.
        totals = np.diff(dist.numerator_prefix()[boundaries])
        totals = totals.astype(exact_dtype(max(cap_factor, resolution.denominator) * denom), copy=False)
        return cls(dist.n, boundaries, flags, ~flags & (cap_factor * totals < unit))


def weights_well_estimated(
    dist: Distribution,
    sample: SampleSet,
    resolution: Fraction,
    reference: ReferencePartition,
) -> bool:
    """First good-sample event: the phase-one draw sees representative
    weights on the reference partition of `dist` at `resolution`. Singles
    and mediums must be estimated within a factor of [1/2, 3/2]; smalls
    must stay under 1/(2*resolution) empirically."""
    if sample.size == 0:
        raise ValueError("empty sample has no weights")
    bounds = reference.boundaries
    size, denom = sample.size, dist.common_denominator()
    p, q = resolution.numerator, resolution.denominator
    # Cross-multiplied, for an estimate drawn/size, a true weight true/D
    # and res = p/q: drawn/size <= 1/(2 res) iff 2 p drawn <= q size, and
    # true/2 <= drawn/size <= 3 true/2 iff true size <= 2 D drawn <= 3 true size.
    # With drawn <= size and true <= D, no product passes max(2p, q, 3D) size.
    dtype = exact_dtype(max(2 * p, q, 3 * denom) * size)
    drawn = np.diff(sample.tally(bounds)[1]).astype(dtype, copy=False)
    true = np.diff(dist.numerator_prefix()[bounds]).astype(dtype, copy=False)
    small_ok = 2 * p * drawn <= q * size
    scaled = 2 * denom * drawn
    other_ok = (true * size <= scaled) & (scaled <= 3 * size * true)
    return bool(np.all(np.where(reference.small, small_ok, other_ok)))


def light_weight_violations(
    dist: Distribution, partition: IntervalPartition, resolution: Fraction
) -> int:
    """Light intervals of the partition whose true weight reaches
    6/resolution: the first good-sample event implies there are none."""
    # A true weight w/D breaks the bound when w/D >= 6/res, that is
    # p w >= 6 q D for res = p/q; with w <= D, p w is at most p D.
    denom = dist.common_denominator()
    floor = 6 * resolution.denominator * denom
    weights = np.diff(dist.numerator_prefix()[partition.boundaries])
    weights = weights.astype(exact_dtype(max(resolution.numerator * denom, floor)), copy=False)
    too_heavy = resolution.numerator * weights >= floor
    return int(np.count_nonzero(too_heavy & ~partition.heavy))


@dataclass
class DensityEstimate:
    """Per-role and total cumulative weights up to each interval boundary,
    as integer numerators over `denominator`: phase-two draw counts over
    the sample size (`sample_phases`, `symbol_density_estimate`), or true
    weights over their common denominator (`exact_symbol_density`)."""

    role_tallies: np.ndarray  # (k, U): int64 counts, or numerators in their dtype
    prefix_tallies: np.ndarray  # (U,), likewise
    denominator: int


def symbol_density_estimate(
    sample: SampleSet, partition: IntervalPartition, word: Word
) -> DensityEstimate:
    """Tally phase-two draws by word role and by interval prefix, as
    `sample_phases` draws them, for a sample drawn by the caller."""
    if sample.size < 1:
        raise ValueError("density estimation needs a non-empty sample")
    if sample.n != partition.n:
        raise ValueError("sample and partition disagree on length")
    role_tallies, prefix_tallies = sample.tally(partition.boundaries[1:], word.ids)
    return DensityEstimate(role_tallies, prefix_tallies, sample.size)


def exact_symbol_density(
    text: Text, dist: Distribution, word: Word, partition: IntervalPartition
) -> DensityEstimate:
    """True cumulative weights matching `symbol_density_estimate`, as
    numerators over `dist.common_denominator()` in the dtype of
    `dist.numerators()`. Diagnostic only: requires the text and the true
    weights.
    """
    if text.n != partition.n or dist.n != partition.n:
        raise ValueError("text, weights and partition disagree on length")
    ends = partition.boundaries[1:]
    rows = gather_columns(role_prefix_counts(text, word, dist.numerators()), ends)
    return DensityEstimate(rows, dist.numerator_prefix()[ends], dist.common_denominator())


def _peak(values: np.ndarray) -> int:
    """The largest magnitude in an integer array, 0 when it is empty."""
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


def exactly_within(
    got: np.ndarray, got_denom: int, want: np.ndarray, want_denom: int, bound: Fraction
) -> np.ndarray:
    """Entrywise |got/got_denom - want/want_denom| <= bound for integer
    arrays over Python-int denominators, cross-multiplied.

    The products can exceed int64 even when every input fits. They run in
    int64 when the largest value the comparison can reach fits it: the
    gap, at most max|got| want_denom + max|want| got_denom, times the
    bound's denominator, and the bound's numerator times both
    denominators. Otherwise they run on Python integers (`exact_dtype`).
    """
    # The +1 covers the denominators, operands in their own right even
    # when every entry is zero.
    left = ((_peak(got) + 1) * want_denom + (_peak(want) + 1) * got_denom) * bound.denominator
    limit = bound.numerator * got_denom * want_denom
    dtype = exact_dtype(max(left, limit))
    gap = np.abs(got.astype(dtype, copy=False) * want_denom
                 - want.astype(dtype, copy=False) * got_denom)
    return gap * bound.denominator <= limit


def _misses(got: DensityEstimate, want: DensityEstimate,
            bound: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """(role misses (k, U), prefix misses (U,)): the bool masks of the
    entries where `got` is further than `bound` from `want`."""
    return (~exactly_within(got.role_tallies, got.denominator,
                            want.role_tallies, want.denominator, bound),
            ~exactly_within(got.prefix_tallies, got.denominator,
                            want.prefix_tallies, want.denominator, bound))


def densities_within(estimate: DensityEstimate, exact: DensityEstimate, resolution: Fraction) -> bool:
    """Whether every per-role cumulative density and every prefix weight
    of the estimate is within 1/resolution of `exact`."""
    roles, prefix = _misses(estimate, exact, Fraction(1) / resolution)
    return not (roles.any() or prefix.any())


def densities_well_estimated(
    text: Text,
    dist: Distribution,
    word: Word,
    sample: SampleSet,
    partition: IntervalPartition,
    resolution: Fraction,
    exact: DensityEstimate,
) -> bool:
    """Second good-sample event: every per-role cumulative density and
    every prefix weight is estimated within 1/resolution of `exact`
    (`exact_symbol_density`). `text` and `dist` are not read; they stay
    for the callers in `perfbench/`."""
    return densities_within(symbol_density_estimate(sample, partition, word), exact, resolution)


def separator_violations(
    estimate: DensityEstimate, heavy: np.ndarray, exact: DensityEstimate, bound: Fraction
) -> int:
    """Entries of the separator matrix (`assemble_sentinel_density`)
    further than `bound` from `exact_sentinel_reference`, counted on the
    densities they repeat against `exact` (`exact_symbol_density`). Both
    sides of that matrix are halved, which doubles the bound; a heavy
    interval's role densities fill two of its columns, and each prefix
    density one entry per role, again when the next interval is heavy.
    Its empty prefix is exact."""
    roles, prefix = _misses(estimate, exact, 2 * bound)
    heavy_next = np.append(heavy[1:], False)
    return int(np.sum(roles * (1 + heavy)) + roles.shape[0] * np.sum(prefix * (1 + heavy_next)))


@dataclass(frozen=True)
class DistFreeEstimate:
    """Result of one distribution-free estimation run. `raw` lies in
    [0, 1] unclamped: role tallies that count each phase-two draw at most
    once per role have a measure in [0, draws] (`exact.running_maximum`)."""

    estimate: float  # float(raw)
    raw: Fraction  # exact value given the samples
    resolution: Fraction
    first_size: int
    second_size: int
    intervals: int
    seed: int

    @property
    def draws(self) -> int:
        return self.first_size + self.second_size


def estimate_distance(
    oracle: Sampler,
    word: Word,
    accuracy,
    seed: int,
    constants: EstimatorConstants = DEFAULT_CONSTANTS,
) -> DistFreeEstimate:
    """Estimate the distance to word-freeness under unknown weights.

    Two-phase sampling: the phase-two size depends on the interval count
    realized in phase one. The raw value, the measure of the phase-two
    role tallies lagged at heavy intervals over the phase-two size, is
    exact given the samples and doubles the measure of the separator
    matrix (`assemble_sentinel_density`). Guarantee: within `accuracy` of
    the true distance with probability at least 2/3.
    """
    resolution = interval_resolution(word.k, accuracy, constants)
    sample1, partition, density = sample_phases(oracle, word, resolution, seed)
    measure = final_measure(density.role_tallies, lag=partition.heavy)
    raw = Fraction(int(measure), density.denominator)
    return DistFreeEstimate(
        estimate=float(raw),
        raw=raw,
        resolution=resolution,
        first_size=sample1.size,
        second_size=density.denominator,
        intervals=partition.count,
        seed=seed,
    )


def estimate_distance_repeat_free(
    oracle: Sampler,
    word: Word,
    accuracy,
    seed: int,
    constants: EstimatorConstants = DEFAULT_CONSTANTS,
) -> DistFreeEstimate:
    """`estimate_distance` for words without adjacent equal symbols, the
    only words it accepts. On those the lag at heavy intervals leaves the
    measure as it is, so both return the same result."""
    if word.has_adjacent_repeat:
        raise ValueError(
            "this estimator needs a word without adjacent equal symbols; "
            "use estimate_distance for the general case"
        )
    return estimate_distance(oracle, word, accuracy, seed, constants)


@dataclass
class SentinelPartition:
    """Interval structure carried through the separator rewrite of the
    density matrix, the reference for the lag: only the benchmark's
    replays and the tests run the rewrite.

    Boundaries live on the doubled text. A heavy source interval [b, b]
    splits into two merged intervals ending at 2b-1 (the position itself)
    and 2b (its separator); a light interval keeps one merged interval
    ending at twice its endpoint. `source` maps each merged interval back
    to its source interval.
    """

    boundaries: np.ndarray  # int64, leading 0, within [0, 2n]
    source: np.ndarray  # int64, 1-based source interval per merged interval

    @property
    def count(self) -> int:
        return int(self.source.size)


def interleave_partition(partition: IntervalPartition) -> SentinelPartition:
    """The merged intervals of the rewrite; for benchmark replays and tests."""
    copies = 1 + partition.heavy  # merged intervals per source interval
    source = np.repeat(np.arange(1, partition.count + 1, dtype=np.int64), copies)
    ends = 2 * np.repeat(partition.boundaries[1:], copies)
    # The first merged interval of a heavy pair ends on the position itself.
    first_of_each = np.cumsum(copies) - copies
    ends[first_of_each[partition.heavy]] -= 1
    return SentinelPartition(np.concatenate(([0], ends)), source)


@dataclass
class SentinelDensity:
    """Assembled density matrix for the separator-rewritten word, stored
    as integer numerators over a common denominator (twice the phase-two
    sample size); for benchmark replays and tests."""

    numerators: np.ndarray  # int64, (2k, U')
    denominator: int


def assemble_sentinel_density(
    density: DensityEstimate,
    partition: IntervalPartition,
    sentinel: SentinelPartition,
) -> SentinelDensity:
    """Fill the density matrix of the rewritten word without any text
    access.

    Odd rewritten roles are the original roles: halved role densities at
    the source interval. Even roles are separators; separators occupy
    exactly the even doubled positions, so their cumulative weight up to
    a merged boundary is half the prefix weight of the source prefix it
    covers. A merged boundary that is odd (first half of a heavy pair)
    covers only the separators of the previous source interval. Benchmark
    replays and tests run it, as the reference for `estimate_distance`.
    """
    k, intervals = density.role_tallies.shape
    if intervals != partition.count:
        raise ValueError("density and partition disagree on interval count")
    source = sentinel.source
    # First half of a heavy pair: the covered separators are those of the
    # source prefix one interval earlier. Heavy intervals are singletons,
    # so that prefix is source - 1.
    first_half = partition.heavy[source - 1] & (sentinel.boundaries[1:] % 2 == 1)
    prefix_with_zero = np.concatenate(([0], density.prefix_tallies))
    numerators = np.empty((2 * k, sentinel.count), dtype=np.int64)
    numerators[0::2] = density.role_tallies[:, source - 1]
    numerators[1::2] = prefix_with_zero[source - first_half]
    return SentinelDensity(numerators, 2 * density.denominator)


def exact_sentinel_reference(
    text: Text,
    dist: Distribution,
    word: Word,
    partition: IntervalPartition,
    sentinel: SentinelPartition,
    resolution: Fraction,
    constants: EstimatorConstants = DEFAULT_CONSTANTS,
) -> tuple[np.ndarray, int]:
    """Exact counterpart of the assembled density matrix.

    Rounds the true weights up to the quantization grid as
    `quantize_weights` does, by integer ceiling division of their
    numerators, and reads the text through the separator rewrite
    (`interleave_sentinel`), each separator weighted like the position
    before it. Evaluates the cumulative per-role weights of that text at
    the merged interval boundaries, counted on their own rather than by
    the assembly they check. Returns integer numerators over twice the
    rounded total. Benchmark replays and tests run it, as the
    reference for `separator_violations`.
    """
    mult = quantized_numerators(dist, quantization_step(text.n, resolution, constants))
    sep_text, sep_word, _ = interleave_sentinel(text, word)
    counts = role_prefix_counts(sep_text, sep_word, np.repeat(mult, 2))
    return gather_columns(counts, sentinel.boundaries[1:]), 2 * int(mult.sum())
