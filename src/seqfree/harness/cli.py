"""Command line front end.

Every command prints one canonical JSON report to stdout and exits 0.
Configuration problems (bad flags, malformed inputs, violated
preconditions) exit 2; file system failures exit 3. Identical
configuration plus identical seed yields byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from ..core import Distribution, UniformSampler, WeightedSampler, as_fraction
from ..distfree import (
    DEFAULT_CONSTANTS,
    EstimatorConstants,
    estimate_distance,
    estimate_distance_repeat_free,
)
from ..exact import copy_count, exact_weighted_distance, uniform_distance
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

    p = sub.add_parser("estimate-uniform", parents=[common],
                       help="sampling estimator, uniform position weights")
    instance_flags(p, weights=False)
    p.add_argument("--delta", required=True, help="additive accuracy in (0,1)")
    p.add_argument("--repeats", type=int, default=1,
                   help="median of this many independent runs")
    p.set_defaults(handler=cmd_estimate_uniform)

    p = sub.add_parser("estimate-df", parents=[common, relaxed],
                       help="sampling estimator, arbitrary position weights")
    instance_flags(p)
    p.add_argument("--delta", required=True, help="additive accuracy in (0,1)")
    p.add_argument("--repeats", type=int, default=1,
                   help="median of this many independent runs")
    p.set_defaults(handler=cmd_estimate_df)

    p = sub.add_parser("estimate-df-wc", parents=[common, relaxed],
                       help="same estimator, specialized to words without "
                       "adjacent equal symbols")
    instance_flags(p)
    p.add_argument("--delta", required=True, help="additive accuracy in (0,1)")
    p.add_argument("--repeats", type=int, default=1,
                   help="median of this many independent runs")
    p.set_defaults(handler=cmd_estimate_df_wc)

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
    factor = args.relaxed_constants
    if factor == 1.0:
        return DEFAULT_CONSTANTS
    return DEFAULT_CONSTANTS.relaxed(as_fraction(factor))


def _echo_relaxation(args, payload: dict) -> None:
    if args.relaxed_constants != 1.0:
        payload["relaxed_constants"] = args.relaxed_constants


def _load_instance(args, weights=True):
    text = load_text(args.text)
    word = load_word(args.word, text.alphabet)
    dist: Optional[Distribution] = None
    if weights and getattr(args, "weights", None):
        dist = load_weights(args.weights, text.n)
    return text, word, dist


def cmd_exact(args) -> dict:
    text, word, dist = _load_instance(args)
    if dist is None:
        copies = copy_count(text, word)
        distance = uniform_distance(text, word)
        payload = {
            "command": "exact",
            "n": text.n,
            "k": word.k,
            "copies": copies,
            "distance": fraction_str(distance),
            "distance_float": float(distance),
        }
    else:
        distance = exact_weighted_distance(text, word, dist)
        payload = {
            "command": "exact",
            "n": text.n,
            "k": word.k,
            "weights": "file",
            "distance": fraction_str(distance),
            "distance_float": float(distance),
        }
    return payload


def _median_runs(run_one, seed: int, repeats: int) -> tuple[dict, list[dict]]:
    """Run the estimator `repeats` times and aggregate by lower median.

    Each run succeeds independently with probability at least 2/3, so
    the median of 2t+1 runs fails only when t+1 runs fail, which decays
    exponentially in t. Returns the aggregate fields and the runs.
    """
    seeds = spread_seeds(seed, repeats)
    runs = [run_one(s) for s in seeds]
    raws = [r.pop("_raw") for r in runs]
    agg_raw = median_low(raws)
    clamped = min(max(agg_raw, Fraction(0)), Fraction(1))
    out = {
        "estimate": float(clamped),
        "raw": fraction_str(agg_raw),
        "repeats": repeats,
    }
    return out, runs


def cmd_estimate_uniform(args) -> dict:
    text, word, _ = _load_instance(args, weights=False)
    oracle = UniformSampler(text)
    accuracy = as_fraction(args.delta)

    def run_one(s: int) -> dict:
        result = estimate_distance_uniform(oracle, word, accuracy, s)
        return {
            "seed": s,
            "estimate": result.estimate,
            "raw": fraction_str(result.raw),
            "samples": result.sample_size,
            "_raw": result.raw,
        }

    payload = {
        "command": "estimate-uniform",
        "n": text.n,
        "k": word.k,
        "delta": float(accuracy),
        "seed": args.seed,
    }
    aggregate, runs = _median_runs(run_one, args.seed, args.repeats)
    payload.update(aggregate)
    if args.repeats == 1:
        payload["samples"] = runs[0]["samples"]
    else:
        payload["runs"] = runs
        payload["samples_total"] = sum(r["samples"] for r in runs)
    return payload


def _cmd_estimate_df(args, repeat_free: bool) -> dict:
    text, word, dist = _load_instance(args)
    oracle = WeightedSampler(text, dist) if dist is not None else UniformSampler(text)
    accuracy = as_fraction(args.delta)
    constants = _constants(args)
    runner = estimate_distance_repeat_free if repeat_free else estimate_distance

    def run_one(s: int) -> dict:
        result = runner(oracle, word, accuracy, s, constants)
        return {
            "seed": s,
            "estimate": result.estimate,
            "raw": fraction_str(result.raw),
            "samples": {
                "first": result.first_size,
                "second": result.second_size,
                "total": result.first_size + result.second_size,
            },
            "intervals": result.intervals,
            "_raw": result.raw,
        }

    payload = {
        "command": "estimate-df-wc" if repeat_free else "estimate-df",
        "n": text.n,
        "k": word.k,
        "delta": float(accuracy),
        "seed": args.seed,
        "weights": "file" if dist is not None else "uniform",
    }
    aggregate, runs = _median_runs(run_one, args.seed, args.repeats)
    payload.update(aggregate)
    if args.repeats == 1:
        payload["samples"] = runs[0]["samples"]
        payload["intervals"] = runs[0]["intervals"]
    else:
        payload["runs"] = runs
        payload["samples_total"] = sum(r["samples"]["total"] for r in runs)
    _echo_relaxation(args, payload)
    return payload


def cmd_estimate_df(args) -> dict:
    return _cmd_estimate_df(args, repeat_free=False)


def cmd_estimate_df_wc(args) -> dict:
    return _cmd_estimate_df(args, repeat_free=True)


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
    report["command"] = "sweep"
    _echo_relaxation(args, report)
    if args.jsonl:
        lines = [
            dict(result, accuracy=row["accuracy"])
            for row in report["rows"]
            for result in row["results"]
        ]
        write_jsonl(args.jsonl, lines)
    return report


def cmd_lowerbound(args) -> dict:
    report = concentration_experiment(
        args.kd, as_fraction(args.delta), args.n, args.trials, args.seed
    )
    report["command"] = "lowerbound"
    return report


def cmd_diagnose(args) -> dict:
    text, word, dist = _load_instance(args)
    if dist is None:
        dist = Distribution.uniform(text.n)
    report = event_diagnostics(
        text, word, dist, as_fraction(args.delta), args.trials, args.seed,
        _constants(args),
    )
    report["command"] = "diagnose-events"
    _echo_relaxation(args, report)
    return report


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
        blob = canonical_json(payload)
        sys.stdout.write(blob)
        if args.out:
            write_report(args.out, payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
