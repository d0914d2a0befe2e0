"""The benchmark under `perfbench/` imports names from `seqfree`; every
one of them must still exist, so that removing a name from the library
shows up here rather than as a broken benchmark run."""

import ast
import importlib
from pathlib import Path

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
