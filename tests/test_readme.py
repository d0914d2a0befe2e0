"""The library example in README.md runs, and every result its comments
show is the value the library returns."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def shown_results(line: str) -> list:
    """The comma-separated values after the `#` of a line, outside
    parentheses; "0.49..." shows a float by its leading digits."""
    comment = line.split("#", 1)[1].strip()
    return [part.strip() for part in re.split(r",(?![^()]*\))", comment)]


def matches(shown: str, value) -> bool:
    if shown.endswith("..."):
        return isinstance(value, float) and repr(value).startswith(shown[:-3])
    return eval(shown, {"Fraction": Fraction}) == value


def test_library_example_results():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        line = lines[node.lineno - 1]
        if "#" not in line:
            continue
        values = value if isinstance(value, tuple) else (value,)
        shown = shown_results(line)
        assert len(shown) == len(values), line
        for text, got in zip(shown, values):
            assert matches(text, got), (line, text, got)
        checked.append(values)
    assert checked[0] == checked[1] == (Fraction(1, 2),)
    assert checked[2][1:] == (Fraction(543, 1097), 1097)
