"""Every name a module under `src/seqfree` or `tests/` imports is used
there: read by its code, or re-exported through its `__all__`. Every
function of the library modules has a caller in the package or the
benchmark, or is exported."""

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
