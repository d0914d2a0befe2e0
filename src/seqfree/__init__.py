"""Distance of a long text to subsequence-freeness.

Exact computation of the minimum total weight of positions that must be
modified so a text no longer contains a given word as a subsequence,
plus sublinear sampling estimators for that distance and the experiment
harness exercising their guarantees.
"""

from .core import (
    Alphabet,
    Distribution,
    Sampler,
    SampleSet,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    as_fraction,
    contains_word,
    subseed,
)
from .distfree import (
    DEFAULT_CONSTANTS,
    DistFreeEstimate,
    EstimatorConstants,
    IntervalPartition,
    ReferencePartition,
    estimate_distance,
    estimate_distance_repeat_free,
)
from .exact import (
    CopySet,
    bruteforce_distance,
    copy_count,
    copy_count_table,
    exact_weighted_distance,
    greedy_copies,
    interleave_sentinel,
    quantize_weights,
    uniform_distance,
)
from .uniform import (
    UniformEstimate,
    copies_from_counts,
    estimate_distance_uniform,
    prefix_grid,
    uniform_plan,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Distribution",
    "Sampler",
    "SampleSet",
    "Text",
    "UniformSampler",
    "WeightedSampler",
    "Word",
    "as_fraction",
    "contains_word",
    "subseed",
    "DEFAULT_CONSTANTS",
    "DistFreeEstimate",
    "EstimatorConstants",
    "IntervalPartition",
    "ReferencePartition",
    "estimate_distance",
    "estimate_distance_repeat_free",
    "CopySet",
    "bruteforce_distance",
    "copy_count",
    "copy_count_table",
    "exact_weighted_distance",
    "greedy_copies",
    "interleave_sentinel",
    "quantize_weights",
    "uniform_distance",
    "UniformEstimate",
    "copies_from_counts",
    "estimate_distance_uniform",
    "prefix_grid",
    "uniform_plan",
    "__version__",
]
