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

from seqfree import exact_weighted_distance

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


def load_workloads():
    """Import `perfbench/workloads.py` without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_oracle_pool_matches_golden():
    workloads = load_workloads()
    golden = json.loads((BENCH / "data" / "oracle_golden.json").read_text(encoding="utf-8"))
    for seed in workloads.ORACLE_POOL_SEEDS:
        inst = workloads.oracle_instance(seed)
        distance = exact_weighted_distance(inst.text, inst.word, inst.dist)
        assert distance == Fraction(golden["distances"][str(seed)]), seed
