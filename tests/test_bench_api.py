"""The benchmark under `perfbench/` imports names from `seqfree`; every
one of them must still exist, and its oracle workload's stored exact
answers must still hold, so that a library change that breaks either
shows up here rather than as a broken benchmark run."""

import ast
import importlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seqfree import (
    UniformSampler,
    WeightedSampler,
    estimate_distance,
    estimate_distance_repeat_free,
    estimate_distance_uniform,
    exact_weighted_distance,
)
from seqfree.harness.experiments import event_diagnostics

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def library_imports() -> list:
    """(file, module, name) for every `from seqfree... import name` in the
    benchmark's sources."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "seqfree" or node.module.startswith("seqfree.")
            ):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_every_benchmark_import_exists():
    imports = library_imports()
    assert len(imports) > 20  # the parse sees the benchmark's imports
    missing = [
        f"{source}: from {module} import {name}"
        for source, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def load_bench_module(name: str, filename: str):
    """Import a module of `perfbench/` without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def load_workloads():
    return load_bench_module("perfbench_workloads", "workloads.py")


def load_tracing():
    """`perfbench/tracing.py`, which imports `workloads` by that name."""
    sys.modules["workloads"] = load_workloads()
    try:
        return load_bench_module("perfbench_tracing", "tracing.py")
    finally:
        del sys.modules["workloads"]


def test_oracle_pool_matches_golden():
    workloads = load_workloads()
    golden = json.loads((BENCH / "data" / "oracle_golden.json").read_text(encoding="utf-8"))
    for seed in workloads.ORACLE_POOL_SEEDS:
        inst = workloads.oracle_instance(seed)
        distance = exact_weighted_distance(inst.text, inst.word, inst.dist)
        assert distance == Fraction(golden["distances"][str(seed)]), seed


# The traced benchmark run (`perfbench/run.py --trace 1`) replays each
# library call step by step through public functions, and stops with an
# error when a replay does not reproduce the library's result. These
# checks run the same replays on small instances.


@pytest.fixture(scope="module")
def bench():
    return load_tracing()


def weighted_instance(w, seed: int, n: int, heavy: int):
    """A text of n positions with zero, light and `heavy` heavy rational
    weights, and a word with and a word without an adjacent repeat."""
    rng = w.stream(seed, "replay")
    text = w.random_text(rng, n)
    mult = w.with_heavy(rng, w.integer_weights(rng, n, 20, w.DF_ZERO_SHARE), 3, heavy)
    return text, w.rational_distribution(mult), w.repeat_word(rng), w.distinct_word(rng)


# n = 10**5 puts both phases on the Poissonized draw, n = 300 on the multinomial.
@pytest.mark.parametrize("n, heavy", [(300, 100), (10**5, 3500)])
def test_distfree_replay_matches_both_estimators(bench, n, heavy):
    w, tr = bench.w, bench.Tracer()
    text, dist, rep, free = weighted_instance(w, n, n, heavy)
    sampler = WeightedSampler(text, dist)
    for seed in (1, 2):
        lib = estimate_distance(sampler, rep, w.DF_DELTA, seed)
        assert bench.replay_distfree(tr, sampler, rep, w.DF_DELTA, seed, True) == lib.raw
        lib = estimate_distance_repeat_free(sampler, free, w.DF_DELTA, seed)
        assert bench.replay_distfree(tr, sampler, free, w.DF_DELTA, seed, False) == lib.raw


# The 2,832 draws are Poissonized at n = 2,500, one multinomial at n = 10**4
# and sparse at n = 10**5.
@pytest.mark.parametrize("n", [2500, 10**4, 10**5])
def test_uniform_replay_matches_the_estimator(bench, n):
    w, tr = bench.w, bench.Tracer()
    rng = w.stream(n, "replay")
    sampler, word = UniformSampler(w.random_text(rng, n)), w.distinct_word(rng)
    for seed in (1, 2):
        lib = estimate_distance_uniform(sampler, word, w.UNIFORM_DELTA, seed)
        assert bench.replay_uniform(tr, sampler, word, w.UNIFORM_DELTA, seed) == lib.raw


def test_exact_replay_matches_the_oracle(bench):
    w, tr = bench.w, bench.Tracer()
    text, dist, rep, free = weighted_instance(w, 3, 200, 100)
    for word in (rep, free):
        assert bench.replay_exact(tr, text, word, dist) == exact_weighted_distance(text, word, dist)


def test_diagnostics_replay_matches_the_report(bench):
    w, tr = bench.w, bench.Tracer()
    text, dist, rep, _ = weighted_instance(w, 4, 200, 100)
    report = event_diagnostics(text, rep, dist, w.ORACLE_DELTA, 2, 5)
    counts = bench.replay_diagnostics(tr, text, rep, dist, w.ORACLE_DELTA, 2, 5,
                                      check_reference=True)
    assert counts == {key: report[key] for key in counts}
