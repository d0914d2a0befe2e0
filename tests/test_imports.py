"""Every name a module under `src/seqfree` or `tests/` imports is used
there: read by its code, or re-exported through its `__all__`."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "seqfree"


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
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
