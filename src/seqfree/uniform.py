"""Sample-based distance estimation under uniform position weights.

The estimator never sees the text. It draws positions uniformly, tallies
per-role occurrence counts at a coarse grid of prefix lengths, and runs
a recursion on the resulting matrix that tracks the copy-count recursion
closely enough for an additive guarantee: the output is within the
requested accuracy of the true distance with probability at least 2/3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .core import SampleSet, Sampler, Word, as_fraction, checked_accuracy, draw_count, exact_dtype
from .exact import final_measure

Number = Union[int, float]

# Plans and grids depend only on (k, accuracy) and (n, spacing), so each is
# built once and shared: a sweep or a run of `--repeats` calls the
# estimator many times at the same (n, k, accuracy). `typed` keeps 0.1 and
# the Fraction equal to the double nearest it apart, which `as_fraction`
# reads differently.
PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class EstimatorPlan:
    """Grid spacing, grid size and sample size for a requested accuracy."""

    spacing: Fraction
    grid_size: int
    sample_size: int


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def uniform_plan(k: int, accuracy) -> EstimatorPlan:
    """Parameters for the uniform estimator at word length k, built once
    per (k, accuracy).

    The grid spacing is accuracy/(3k): one third of the error budget per
    source (grid coarseness costs (k-1) gaps, count noise costs (2k-1)
    deviations, both at spacing scale). The sample size makes every cell
    of the count matrix accurate to one spacing with failure probability
    1/3 overall.
    """
    spacing = checked_accuracy(k, accuracy) / (3 * k)
    grid_size = math.ceil(1 / spacing)
    # A spacing whose square underflows would need unboundedly many draws.
    spread = 2 * float(spacing) ** 2
    sample_size = draw_count(math.log(6 * k * grid_size) / spread if spread else math.inf)
    return EstimatorPlan(spacing, grid_size, sample_size)


@dataclass(frozen=True, eq=False)
class PrefixGrid:
    """Increasing prefix lengths ending at n, with bounded gaps.

    `lag` flags the columns that cover exactly one position (the empty
    prefix counting as column zero), where the estimator's recursion reads
    the previous role one column back, so that one position never serves
    two consecutive roles; it is `False` when no column does and `True`
    when all do. Grids are shared, so `columns` and the flags are
    read-only, and two grids are equal only when they are the same object.
    """

    n: int
    spacing: Fraction
    columns: np.ndarray  # int64, strictly increasing, last entry n
    lag: bool | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        columns = np.array(self.columns, dtype=np.int64)
        columns.flags.writeable = False
        single = np.diff(columns, prepend=0) == 1
        single.flags.writeable = False
        # A plain bool keeps `running_maximum` off its per-column branch.
        lag = single if single.any() and not single.all() else bool(single.all())
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "lag", lag)

    @property
    def size(self) -> int:
        return int(self.columns.size)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def prefix_grid(n: int, spacing) -> PrefixGrid:
    """Columns at ceil(r * spacing * n), capped at n and deduplicated;
    built once per (n, spacing)."""
    if n < 1:
        raise ValueError("grid needs n >= 1")
    sp = as_fraction(spacing)
    if sp <= 0:
        raise ValueError("spacing must be positive")
    if sp * n <= 1:
        # Consecutive columns then differ by at most one: every length.
        return PrefixGrid(n, sp, np.arange(1, n + 1, dtype=np.int64))
    # ceil(r p n / q) for sp = p/q, in integers; r = ceil(q/p) <= q//p + 1
    # already reaches n, so no product passes (q//p + 1) p n.
    p, q = sp.numerator, sp.denominator
    steps = np.arange(1, -(-q // p) + 1, dtype=exact_dtype((q // p + 1) * p * n))
    columns = np.minimum(-(-steps * (p * n) // q), n)
    # With sp n > 1 the columns increase strictly until one reaches n; the
    # rest repeat it.
    columns = columns[: columns.searchsorted(n) + 1]
    return PrefixGrid(n, sp, columns.astype(np.int64, copy=False))


@dataclass
class CountMatrix:
    """Per-role sample hit counts at the grid columns.

    `tallies[i-1, r-1]` counts the draws of role i's symbol within the
    first columns[r-1] text positions. Times n over the sample size, it
    estimates the occurrence count there; the copy measure of the raw
    tallies over the sample size is the estimator's exact raw value.
    """

    tallies: np.ndarray  # int64, (k, grid size)


def tally_prefix_counts(sample: SampleSet, word: Word, grid: PrefixGrid) -> CountMatrix:
    """Hit counts of a uniform sample at the grid columns: each draw at
    position j whose symbol is role i's counts once in every cell (i, r)
    with columns[r] >= j."""
    if sample.size < 1:
        raise ValueError("cannot estimate from an empty sample")
    if grid.n != sample.n:
        raise ValueError("grid and sample disagree on length")
    return CountMatrix(sample.tally(grid.columns, word.ids)[0])


def copies_from_counts(matrix) -> Number:
    """Copy measure of a count matrix over an increasing prefix grid.

    `running_maximum` with no lag, each role reading the previous role's
    measure in place, the empty prefix counting as a zero column. With
    exact counts on the full grid this equals the copy count for words
    without adjacent equal symbols; on coarse grids it stays within (k-1)
    times the largest gap. It stays lag-free whatever the grid: the
    uniform estimator runs the same recursion lagged at its grid's
    single-position columns, the distribution-free one at its heavy
    intervals.
    The measure scales linearly: doubling every entry doubles the result,
    which lets callers run it on raw integer tallies.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("count matrix must be two-dimensional and non-empty")
    value = final_measure(arr, lag=False)
    if np.issubdtype(arr.dtype, np.integer):
        return int(value)
    if arr.dtype == object:
        return value  # exact arithmetic passes through untouched
    return float(value)


@dataclass(frozen=True)
class UniformEstimate:
    """Result of one uniform-weights estimation run. `raw` lies in [0, 1]
    unclamped: tallies that count each draw at most once per role have a
    measure in [0, sample size] (`exact.running_maximum`)."""

    estimate: float  # float(raw)
    raw: Fraction  # exact value, tallies measure over sample size
    sample_size: int
    spacing: Fraction
    grid_size: int
    n: int
    k: int
    seed: int

    @property
    def draws(self) -> int:
        return self.sample_size


def estimate_distance_uniform(
    oracle: Sampler, word: Word, accuracy, seed: int
) -> UniformEstimate:
    """Estimate the distance to word-freeness from uniform samples.

    Guarantee: the result is within `accuracy` of the true distance with
    probability at least 2/3 over the draw. The reported raw value is
    exact given the sample: by linearity of the copy measure, dividing
    the integer tally measure by the sample size equals the measure of
    the count-scale matrix divided by n, with no float rounding. The
    tallies come from `Sampler.draw_tallies` at the grid columns, equal
    to `tally_prefix_counts` of `oracle.draw(plan.sample_size, seed)`
    without building that sample: a sparse draw costs its draws, a sort
    and the tally, independently of n. The plan and grid are built once
    per (n, k, accuracy) and reused by later calls.

    The recursion is lagged at the grid's single-position columns
    (`PrefixGrid.lag`), the uniform analogue of the distribution-free
    estimator's heavy intervals: there the draws at one position cannot
    serve both roles of an adjacent repeat, and on a grid of every
    prefix length the lagged measure of exact counts is the copy count
    for every word. On words without adjacent equal symbols the lag
    changes nothing, so their raw value equals `copies_from_counts` of
    the tallies; coarse grids, with no such column, run lag-free.
    """
    plan = uniform_plan(word.k, accuracy)
    grid = prefix_grid(oracle.n, plan.spacing)
    tallies, _ = oracle.draw_tallies(plan.sample_size, seed, grid.columns, word.ids)
    raw = Fraction(int(final_measure(tallies, lag=grid.lag)), plan.sample_size)
    return UniformEstimate(
        estimate=float(raw),
        raw=raw,
        sample_size=plan.sample_size,
        spacing=plan.spacing,
        grid_size=grid.size,
        n=oracle.n,
        k=word.k,
        seed=seed,
    )
