"""Exact integer arithmetic picks between int64 and Python integers in one
place, `core.exact_dtype`: no literal `astype(object)` or `dtype=object`
under `src/seqfree` sits anywhere but the parse fallback of
`Distribution.from_numerators`, which keeps integers that no int64 holds."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "seqfree"


def object_dtype_sites(tree: ast.Module) -> list:
    """(line, enclosing function) of each call that names the `object`
    dtype literally, as `astype(object)` or a `dtype=object` keyword."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            named = [keyword.value for keyword in node.keywords if keyword.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                named += node.args[:1]
            if any(isinstance(value, ast.Name) and value.id == "object" for value in named):
                sites.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_object_dtype_only_in_the_parse_fallback():
    sources = sorted(SOURCE.rglob("*.py"))
    assert len(sources) > 8  # the glob sees the package
    sites = [
        (path.name, function)
        for path in sources
        for _, function in object_dtype_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("core.py", "from_numerators")]


def test_detects_literal_object_dtypes():
    tree = ast.parse(
        "def f(a):\n"
        "    b = a.astype(object)\n"
        "    c = a.astype(dtype=object, copy=False)\n"
        "    return np.array(b, dtype=object), a.astype(kind), np.array(a, dtype=np.int64)\n"
        "d = np.zeros(3, dtype=object)\n"
    )
    assert object_dtype_sites(tree) == [(2, "f"), (3, "f"), (4, "f"), (5, None)]
