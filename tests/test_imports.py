"""Every name a module under `src/seqfree` or `tests/` imports is used
there: read by its code, or re-exported through its `__all__`. Every
function of the library modules has a caller in the package or the
benchmark, or is exported. The package runs one copy recursion, and none
of it goes through the separator rewrite, which only the tests and the
benchmark keep as the reference for the recursion's lag."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "seqfree"
BENCH = TESTS.parent / "perfbench"
LIBRARY = ("core.py", "exact.py", "uniform.py", "distfree.py")


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


def recursion_sites(tree: ast.Module) -> list:
    """(enclosing function, line) of each `np.maximum.accumulate` in the
    module; the function is None at module level."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "accumulate" and (
                isinstance(child.value, ast.Attribute) and child.value.attr == "maximum"
                and isinstance(child.value.value, ast.Name) and child.value.value.id == "np"
            ):
                sites.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return sites


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


def test_one_recursion_and_no_separator_path():
    trees = {path.relative_to(SOURCE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.rglob("*.py"))}
    assert "exact.py" in trees and "harness/experiments.py" in trees
    sites = [(module, function) for module, tree in trees.items()
             for function, _ in recursion_sites(tree)]
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
    assert recursion_sites(tree) == [(None, 2), ("g", 5)]
    assert separator_calls(tree) == [(6, "interleave_partition"),
                                     (9, "assemble_sentinel_density")]
