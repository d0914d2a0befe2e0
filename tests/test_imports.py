"""Every name a module under `src/seqfree` or `tests/` imports is used
there: read by its code, or re-exported through its `__all__`. Every
function of the library modules has a caller in the package or the
benchmark, or is exported. The package runs one copy recursion, and none
of it goes through the separator rewrite, which only the tests and the
benchmark keep as the reference for the recursion's lag. Phase two of the
distribution-free estimator is tallied in one place."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "seqfree"
BENCH = TESTS.parent / "perfbench"
# The modules whose every function must have a caller. The text generators
# of `harness/generators.py` are features in their own right.
LIBRARY = ("core.py", "exact.py", "uniform.py", "distfree.py",
           "harness/cli.py", "harness/experiments.py", "harness/fileio.py")


def exported(tree: ast.Module) -> set:
    """The names the module lists in `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    sources = sorted(SOURCE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(sources) > 15  # the globs see the package and the tests
    unused = [
        f"{path.relative_to(SOURCE.parent.parent)}:{line}: {name}"
        for path in sources
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, unused


def test_detects_an_unused_import():
    tree = ast.parse(
        "import math\nfrom typing import Optional, Callable\n"
        "__all__ = ['Callable']\nx: Optional[int] = None\n"
    )
    assert unused_imports(tree) == [(1, "math")]


def defined_functions(tree: ast.Module) -> list:
    """(qualified name, name) of each top-level function of the module and
    each method of its top-level classes, dunder methods left out."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name)
                      for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(qualified, name) for qualified, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def referenced_names(tree: ast.Module) -> set:
    """Every name the module reads, as a variable or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_library_function_has_a_caller():
    """A function that only tests call belongs in `tests/`, or nowhere."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.rglob("*.py")) + sorted(BENCH.glob("*.py"))}
    reached = set().union(*map(referenced_names, trees.values()))
    reached |= exported(trees[SOURCE / "__init__.py"])
    defined = [(module, qualified, name) for module in LIBRARY
               for qualified, name in defined_functions(trees[SOURCE / module])]
    assert len(defined) > 50  # the walk sees the library's functions
    uncalled = [f"{module}: {qualified}" for module, qualified, name in defined
                if name not in reached]
    assert not uncalled, uncalled


SEPARATOR_REFERENCE = {"interleave_partition", "assemble_sentinel_density", "exact_sentinel_reference"}


def enclosing_sites(tree: ast.Module, matches) -> list:
    """(enclosing function, line) of each node of the module that
    `matches`; the function is None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


def is_recursion(node: ast.AST) -> bool:
    """Whether the node is `np.maximum.accumulate`."""
    return isinstance(node, ast.Attribute) and node.attr == "accumulate" and (
        isinstance(node.value, ast.Attribute) and node.value.attr == "maximum"
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "np")


def is_tally_call(node: ast.AST) -> bool:
    """Whether the node calls `symbol_density_estimate`, by bare name or
    as an attribute."""
    return isinstance(node, ast.Call) and "symbol_density_estimate" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def separator_calls(tree: ast.Module) -> list:
    """(line, name) of each call of a separator reference function, by
    bare name or as an attribute."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in SEPARATOR_REFERENCE:
                calls.append((node.lineno, name))
    return sorted(calls)


def package_trees() -> dict:
    """The parsed modules under `src/seqfree`, by path relative to it."""
    return {path.relative_to(SOURCE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.rglob("*.py"))}


def test_one_recursion_and_no_separator_path():
    trees = package_trees()
    assert "exact.py" in trees and "harness/experiments.py" in trees
    sites = [(module, function) for module, tree in trees.items()
             for function, _ in enclosing_sites(tree, is_recursion)]
    assert sites == [("exact.py", "running_maximum")]
    calls = [f"{module}:{line}: {name}" for module, tree in trees.items()
             for line, name in separator_calls(tree)]
    assert not calls, calls


def test_detects_recursions_and_separator_calls():
    tree = ast.parse(
        "import numpy as np\n"
        "top = np.maximum.accumulate([1])\n"
        "def f(x):\n"
        "    def g():\n"
        "        return np.maximum.accumulate(x)\n"
        "    return np.minimum.accumulate(x), interleave_partition(x)\n"
        "class C:\n"
        "    def m(self, d):\n"
        "        return distfree.assemble_sentinel_density(d), exact_sentinel_reference\n"
    )
    assert enclosing_sites(tree, is_recursion) == [(None, 2), ("g", 5)]
    assert separator_calls(tree) == [(6, "interleave_partition"),
                                     (9, "assemble_sentinel_density")]


# `sample_phases` tallies the phase-two draw for the estimators and the
# event diagnostics; `densities_well_estimated` takes a sample from its
# caller, the benchmark's diagnostics replay.
TALLY_CALLERS = {"sample_phases", "densities_well_estimated"}


def test_phase_two_is_tallied_in_one_place():
    trees = package_trees()
    callers = [(module, function) for module, tree in trees.items()
               for function, _ in enclosing_sites(tree, is_tally_call)]
    assert ("distfree.py", "sample_phases") in callers
    stray = [f"{module}: {function}" for module, function in callers
             if function not in TALLY_CALLERS]
    assert not stray, stray


def test_detects_tally_calls():
    tree = ast.parse(
        "def sample_phases(s):\n"
        "    return symbol_density_estimate(s)\n"
        "def f(samples):\n"
        "    return [distfree.symbol_density_estimate(s) for s in samples]\n"
        "alias = symbol_density_estimate\n"
        "top = symbol_density_estimate(1)\n"
    )
    assert enclosing_sites(tree, is_tally_call) == [("sample_phases", 2), ("f", 4), (None, 6)]
