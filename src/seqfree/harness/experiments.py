"""Statistical experiments reproducing the estimator guarantees at desk
scale, plus the lower-bound concentration run.

Every experiment is a pure function of its configuration and one master
seed. Per-trial seeds are the master seed XORed with the trial index, for
sweeps, diagnostics and the repeated runs of one estimate command alike;
multi-stage pipelines split those further into independent streams.
Reports are JSON-ready dicts; wall-clock times are deliberately kept out
of them so that reports are byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from ..core import (
    Distribution,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    as_fraction,
    checked_accuracy,
    subseed,
)
from ..distfree import (
    DEFAULT_CONSTANTS,
    EstimatorConstants,
    ReferencePartition,
    densities_within,
    estimate_distance,
    estimate_distance_repeat_free,
    exact_symbol_density,
    first_sample_size,
    interval_resolution,
    light_weight_violations,
    quantization_step,
    quantized_numerators,
    sample_phases,
    separator_violations,
    weights_well_estimated,
)
from ..exact import copy_count, exact_weighted_distance, uniform_distance
from ..uniform import estimate_distance_uniform
from .generators import (
    block_ensemble_text,
    identity_word,
    lowerbound_premises,
    lowerbound_rates,
)


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def trial_seeds(master: int, trials: int) -> list[int]:
    return [master ^ t for t in range(trials)]


def median_low(values: list) -> object:
    """Deterministic median: the lower middle of the sorted values."""
    if not values:
        raise ValueError("median of nothing")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def sampler(text: Text, dist: Optional[Distribution]):
    """The oracle every harness run draws from: `WeightedSampler` over
    `dist`, or `UniformSampler` when `dist` is None, so that every
    unweighted run draws a phase of at most n/4 positions sparsely."""
    return UniformSampler(text) if dist is None else WeightedSampler(text, dist)


def run_record(kind: str, seed: int, result) -> dict:
    """The report fields of one run of the estimator `kind` on `seed`:
    the total draws as `samples` for "uniform"; for the distribution-free
    kinds both phase sizes and their total as `samples`, beside the
    interval count."""
    record = {"seed": seed, "estimate": result.estimate, "raw": fraction_str(result.raw)}
    if kind == "uniform":
        record["samples"] = result.draws
    else:
        record["samples"] = {
            "first": result.first_size, "second": result.second_size, "total": result.draws}
        record["intervals"] = result.intervals
    return record


def estimator(
    kind: str,
    text: Text,
    word: Word,
    dist: Optional[Distribution] = None,
    constants: EstimatorConstants = DEFAULT_CONSTANTS,
) -> Callable:
    """`run(accuracy, seed)`, one run of the estimator `kind` on the
    instance: "uniform" (uniform weights), "df" (distribution-free) or
    "df-wc" (distribution-free, words without adjacent equal symbols),
    drawing from `sampler(text, dist)`.
    """
    if kind not in ("uniform", "df", "df-wc"):
        raise ValueError("estimator kind must be 'uniform', 'df' or 'df-wc'")
    if kind == "uniform" and dist is not None:
        raise ValueError("the uniform estimator takes no weights")
    if kind == "uniform" and constants != DEFAULT_CONSTANTS:
        raise ValueError("the uniform estimator takes no estimator constants")
    oracle = sampler(text, dist)
    if kind == "uniform":
        return lambda accuracy, seed: estimate_distance_uniform(oracle, word, accuracy, seed)
    if kind == "df":
        return lambda accuracy, seed: estimate_distance(oracle, word, accuracy, seed, constants)
    return lambda accuracy, seed: estimate_distance_repeat_free(
        oracle, word, accuracy, seed, constants)


def estimator_sweep(
    kind: str,
    text: Text,
    word: Word,
    accuracies: list,
    trials: int,
    seed: int,
    dist: Optional[Distribution] = None,
    constants: EstimatorConstants = DEFAULT_CONSTANTS,
) -> dict:
    """Success-rate sweep of one estimator over an accuracy grid. Trial t
    runs `estimator(kind, ...)` on seed `seed ^ t`.

    Truth comes from the exact oracles, so every row carries success
    counts and errors against it.
    """
    run = estimator(kind, text, word, dist, constants)
    if trials < 0:
        raise ValueError("trials must be non-negative")
    checked = [checked_accuracy(word.k, accuracy) for accuracy in accuracies]
    truth = uniform_distance(text, word) if dist is None else exact_weighted_distance(text, word, dist)
    rows = []
    for acc in checked:
        results = []
        for t, tseed in enumerate(trial_seeds(seed, trials)):
            result = run(acc, tseed)
            error = abs(result.raw - truth)
            results.append({
                "trial": t,
                **run_record(kind, tseed, result),
                "truth": fraction_str(truth),
                "error": float(error),
                "within": bool(error <= acc),
            })
        row = {"accuracy": float(acc), "trials": trials, "results": results}
        if trials > 0:
            successes = sum(1 for r in results if r["within"])
            row["successes"] = successes
            row["success_rate"] = successes / trials
            row["mean_abs_error"] = sum(r["error"] for r in results) / trials
            row["max_abs_error"] = max(r["error"] for r in results)
        rows.append(row)
    return {
        "experiment": "error-sweep",
        "estimator": kind,
        "n": text.n,
        "k": word.k,
        "weights": "uniform" if dist is None else "exact",
        "truth": fraction_str(truth),
        "seed": seed,
        "rows": rows,
        **constants.report_fields(),
    }


def concentration_experiment(
    distinct: int, gap, n: int, trials: int, seed: int
) -> dict:
    """Copy-count concentration of the two block ensembles.

    The first ensemble should have its copy count above
    n/(2*distinct) - (2/8)*gap*n, the second below
    n/(2*distinct) - (23/8)*gap*n, each in at least 99 of 100 draws.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    g = as_fraction(gap)
    base_rate, shifted_rate = lowerbound_rates(distinct, g)
    word = identity_word(distinct)
    center = Fraction(n, 2 * distinct)
    base_floor = center - Fraction(2, 8) * g * n
    shifted_cap = center - Fraction(23, 8) * g * n
    seeds = trial_seeds(seed, trials)

    def ensemble_copies(rate: Fraction, stream: int) -> list:
        return [copy_count(block_ensemble_text(n, distinct, rate, subseed(tseed, stream)), word)
                for tseed in seeds]

    base_copies = ensemble_copies(base_rate, 0)
    shifted_copies = ensemble_copies(shifted_rate, 1)
    base_hits = sum(copies >= base_floor for copies in base_copies)
    shifted_hits = sum(copies <= shifted_cap for copies in shifted_copies)
    report = {
        "experiment": "lowerbound-concentration",
        "distinct": distinct,
        "gap": float(g),
        "n": n,
        "trials": trials,
        "seed": seed,
        "premises": lowerbound_premises(distinct, g, n),
        "filler_rates": [float(base_rate), float(shifted_rate)],
        "thresholds": {
            "base_floor": fraction_str(base_floor),
            "shifted_cap": fraction_str(shifted_cap),
        },
        "base_hits": base_hits,
        "shifted_hits": shifted_hits,
    }
    if trials > 0:
        report["base_success_rate"] = base_hits / trials
        report["shifted_success_rate"] = shifted_hits / trials
        report["mean_copies"] = {
            "base": sum(base_copies) / trials,
            "shifted": sum(shifted_copies) / trials,
        }
    return report


def event_diagnostics(
    text: Text,
    word: Word,
    dist: Optional[Distribution],
    accuracy,
    trials: int,
    seed: int,
    constants: EstimatorConstants = DEFAULT_CONSTANTS,
) -> dict:
    """Frequencies of the two good-sample events, with the bounds they
    are supposed to imply checked exactly whenever they hold. Trial t
    draws from `sampler(text, dist)` on seed `seed ^ t`, as the
    distribution-free estimator does; the exact references take uniform
    weights when `dist` is None.

    Conditioned on the first event, every light interval of the sampled
    partition must carry true weight below 6/resolution. Conditioned on
    the second, the separator-rewritten density matrix must match its
    exact counterpart on the quantized weights entrywise within
    step_factor/resolution plus 1/(2*resolution); `separator_violations`
    counts its misses on the role and prefix densities it repeats.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    oracle = sampler(text, dist)
    if dist is None:
        dist = Distribution.uniform(text.n)
    resolution = interval_resolution(word.k, accuracy, constants)
    first = first_sample_size(resolution, constants)
    reference = ReferencePartition.from_weights(dist, resolution)
    quantized = Distribution.from_numerators(
        quantized_numerators(dist, quantization_step(text.n, resolution, constants)))
    density_cap = constants.step_factor / resolution + Fraction(1, 2) / resolution
    first_event_hits = 0
    second_event_hits = 0
    light_violations = 0
    density_violations = 0
    second_sizes = []
    for tseed in trial_seeds(seed, trials):
        sample1, partition, density = sample_phases(oracle, word, resolution, tseed)
        second_sizes.append(density.denominator)
        if weights_well_estimated(dist, sample1, resolution, reference):
            first_event_hits += 1
            light_violations += light_weight_violations(dist, partition, resolution)
        if densities_within(density, exact_symbol_density(text, dist, word, partition), resolution):
            second_event_hits += 1
            density_violations += separator_violations(
                density, partition.heavy,
                exact_symbol_density(text, quantized, word, partition), density_cap)
    report = {
        "experiment": "event-diagnostics",
        "n": text.n,
        "k": word.k,
        "accuracy": float(as_fraction(accuracy)),
        "trials": trials,
        "seed": seed,
        "resolution": fraction_str(resolution),
        "first_sample": first,
        "second_sample_range": (
            [min(second_sizes), max(second_sizes)] if second_sizes else None
        ),
        "first_event_hits": first_event_hits,
        "second_event_hits": second_event_hits,
        "light_weight_violations": light_violations,
        "density_bound_violations": density_violations,
    }
    if trials > 0:
        report["first_event_rate"] = first_event_hits / trials
        report["second_event_rate"] = second_event_hits / trials
    report.update(constants.report_fields())
    return report
