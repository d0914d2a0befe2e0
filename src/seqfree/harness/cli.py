"""Command line front end.

Every command prints one canonical JSON report to stdout and exits 0.
Configuration problems (bad flags, malformed inputs, violated
preconditions) exit 2; file system failures exit 3. Identical
configuration plus identical seed yields byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..core import Distribution, UniformSampler, WeightedSampler, as_fraction
from ..distfree import (
    DEFAULT_CONSTANTS,
    EstimatorConstants,
    estimate_distance,
    estimate_distance_repeat_free,
)
from ..exact import exact_weighted_distance, uniform_distance
from ..uniform import estimate_distance_uniform
from .experiments import (
    concentration_experiment,
    estimator_sweep,
    event_diagnostics,
    fraction_str,
    median_low,
    spread_seeds,
)
from .fileio import (
    canonical_json,
    load_text,
    load_weights,
    load_word,
    write_jsonl,
    write_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqfree",
        description="Distance of a text to subsequence-freeness: exact "
        "computation, sampling estimators, and experiment harness.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--out", metavar="FILE", help="also write the report here")
    # Only the commands that run the distribution-free estimator read it.
    relaxed = argparse.ArgumentParser(add_help=False)
    relaxed.add_argument(
        "--relaxed-constants",
        type=float,
        default=1.0,
        metavar="X",
        help="divide the sampling resolution by X (off-spec smoke mode; "
        "guarantees void for X > 1)",
    )
    estimate = argparse.ArgumentParser(add_help=False)
    estimate.add_argument("--delta", required=True, help="additive accuracy in (0,1)")
    estimate.add_argument("--repeats", type=int, default=1,
                          help="median of this many independent runs")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(p, weights=True):
        p.add_argument("--text", required=True, metavar="FILE",
                       help="whitespace-separated tokens")
        p.add_argument("--word", required=True, metavar="FILE",
                       help="forbidden subsequence, same token format")
        if weights:
            p.add_argument("--weights", metavar="FILE",
                           help="one rational per position (p/q or decimal)")

    p = sub.add_parser("exact", parents=[common],
                       help="exact distance by dynamic programming")
    instance_flags(p)
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("estimate-uniform", parents=[common, estimate],
                       help="sampling estimator, uniform position weights")
    instance_flags(p, weights=False)
    p.set_defaults(handler=cmd_estimate_uniform)

    p = sub.add_parser("estimate-df", parents=[common, relaxed, estimate],
                       help="sampling estimator, arbitrary position weights")
    instance_flags(p)
    p.set_defaults(handler=cmd_estimate_df)

    p = sub.add_parser("estimate-df-wc", parents=[common, relaxed, estimate],
                       help="same estimator, specialized to words without "
                       "adjacent equal symbols")
    instance_flags(p)
    p.set_defaults(handler=cmd_estimate_df)

    p = sub.add_parser("sweep", parents=[common, relaxed],
                       help="success-rate sweep over an accuracy grid")
    instance_flags(p)
    p.add_argument("--estimator", required=True, choices=["uniform", "df"])
    p.add_argument("--deltas", required=True,
                   help="comma-separated accuracies, e.g. 0.1,0.2,0.3")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--jsonl", metavar="FILE",
                   help="also write one JSON line per trial here")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("lowerbound", parents=[common],
                       help="copy-count concentration of the two block "
                       "ensembles behind the sampling lower bound")
    p.add_argument("--kd", type=int, required=True,
                   help="number of distinct symbols per block")
    p.add_argument("--delta", required=True, help="ensemble gap parameter")
    p.add_argument("--n", type=int, required=True, help="text length")
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(handler=cmd_lowerbound)

    p = sub.add_parser("diagnose-events", parents=[common, relaxed],
                       help="frequencies of the estimator's good-sample "
                       "events, with their implied bounds checked exactly")
    instance_flags(p)
    p.add_argument("--delta", required=True, help="additive accuracy in (0,1)")
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(handler=cmd_diagnose)

    return parser


def _constants(args) -> EstimatorConstants:
    return DEFAULT_CONSTANTS.relaxed(as_fraction(args.relaxed_constants))


def _load_instance(args):
    text = load_text(args.text)
    word = load_word(args.word, text.alphabet)
    dist: Optional[Distribution] = None
    if getattr(args, "weights", None):
        dist = load_weights(args.weights, text.n)
    return text, word, dist


def cmd_exact(args) -> dict:
    text, word, dist = _load_instance(args)
    payload = {"n": text.n, "k": word.k}
    if dist is None:
        distance = uniform_distance(text, word)
        payload["copies"] = int(distance * text.n)
    else:
        distance = exact_weighted_distance(text, word, dist)
        payload["weights"] = "file"
    payload["distance"] = fraction_str(distance)
    payload["distance_float"] = float(distance)
    return payload


def _estimate_report(args, text, word, run, fields, samples_of) -> dict:
    """Report of an estimate command: `run(seed)` is one estimator run,
    `fields(result)` its command-specific report fields, and
    `samples_of(result)` its number of draws.

    The runs are aggregated by lower median. Each run succeeds
    independently with probability at least 2/3, so the median of 2t+1
    runs fails only when t+1 runs fail, which decays exponentially in t.
    A single run's fields go into the report itself; repeated runs are
    listed, with their draws summed.
    """
    seeds = spread_seeds(args.seed, args.repeats)
    results = [run(s) for s in seeds]
    median_raw = median_low([result.raw for result in results])
    payload = {
        "n": text.n,
        "k": word.k,
        "delta": float(as_fraction(args.delta)),
        "seed": args.seed,
        "estimate": float(median_raw),
        "raw": fraction_str(median_raw),
        "repeats": args.repeats,
    }
    if args.repeats == 1:
        payload.update(fields(results[0]))
    else:
        payload["runs"] = [
            {"seed": s, "estimate": result.estimate, "raw": fraction_str(result.raw),
             **fields(result)}
            for s, result in zip(seeds, results)
        ]
        payload["samples_total"] = sum(samples_of(result) for result in results)
    return payload


def cmd_estimate_uniform(args) -> dict:
    text, word, _ = _load_instance(args)
    oracle = UniformSampler(text)
    accuracy = as_fraction(args.delta)
    return _estimate_report(
        args, text, word,
        lambda s: estimate_distance_uniform(oracle, word, accuracy, s),
        lambda result: {"samples": result.sample_size},
        lambda result: result.sample_size,
    )


def cmd_estimate_df(args) -> dict:
    """`estimate-df` and `estimate-df-wc`, which first rejects a word with
    an adjacent repeat."""
    text, word, dist = _load_instance(args)
    oracle = WeightedSampler(text, dist) if dist is not None else UniformSampler(text)
    accuracy = as_fraction(args.delta)
    constants = _constants(args)
    repeat_free = args.command == "estimate-df-wc"
    runner = estimate_distance_repeat_free if repeat_free else estimate_distance

    def samples(result) -> int:
        return result.first_size + result.second_size

    def fields(result) -> dict:
        return {
            "samples": {
                "first": result.first_size,
                "second": result.second_size,
                "total": samples(result),
            },
            "intervals": result.intervals,
        }

    payload = _estimate_report(
        args, text, word,
        lambda s: runner(oracle, word, accuracy, s, constants),
        fields,
        samples,
    )
    payload["weights"] = "file" if dist is not None else "uniform"
    payload.update(constants.report_fields())
    return payload


def cmd_sweep(args) -> dict:
    text, word, dist = _load_instance(args)
    accuracies = [as_fraction(part) for part in args.deltas.split(",") if part]
    if not accuracies:
        raise ValueError("--deltas must list at least one accuracy")
    report = estimator_sweep(
        args.estimator,
        text,
        word,
        accuracies,
        args.trials,
        args.seed,
        dist=dist,
        constants=_constants(args),
    )
    if args.jsonl:
        lines = [
            dict(result, accuracy=row["accuracy"])
            for row in report["rows"]
            for result in row["results"]
        ]
        write_jsonl(args.jsonl, lines)
    return report


def cmd_lowerbound(args) -> dict:
    return concentration_experiment(
        args.kd, as_fraction(args.delta), args.n, args.trials, args.seed
    )


def cmd_diagnose(args) -> dict:
    text, word, dist = _load_instance(args)
    if dist is None:
        dist = Distribution.uniform(text.n)
    return event_diagnostics(
        text, word, dist, as_fraction(args.delta), args.trials, args.seed,
        _constants(args),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
        payload["command"] = args.command
        if args.out:  # before stdout, so that a failed write prints no report
            write_report(args.out, payload)
        sys.stdout.write(canonical_json(payload))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
