"""Every name a module under `src/seqfree` or `tests/` imports is used
there: read by its code, or re-exported through its `__all__`. Every
function of the library modules has a caller in the package or the
benchmark, or is exported. The package runs one copy recursion, and none
of it goes through the separator rewrite, which only the tests and the
benchmark keep as the reference for the recursion's lag. The estimators
take their tallies from the sampler, and only the second-event diagnostic
tallies a sample. `draw` and `draw_tallies` are written once, on
`Sampler`, over the one draw hook. Each report label has one writer."""

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
    """(enclosing scope, line) of each node of the module that `matches`.
    The scope is the innermost enclosing function, a method named with its
    class as `Class.method`; in a class body outside its methods, the
    class; None at module level."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((scope, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if in_class else child.name
                visit(child, inner, isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_class)

    visit(tree, None, False)
    return found


def is_recursion(node: ast.AST) -> bool:
    """Whether the node is `np.maximum.accumulate`."""
    return isinstance(node, ast.Attribute) and node.attr == "accumulate" and (
        isinstance(node.value, ast.Attribute) and node.value.attr == "maximum"
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "np")


def calls_of(name: str):
    """A predicate: whether a node calls `name`, by bare name or as an
    attribute. A call on `super()` is an override reaching the method it
    overrides, not a caller, and does not count."""
    def matches(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call) and (
                getattr(func.value.func, "id", None) == "super"):
            return False
        return name in (getattr(func, "id", None), getattr(func, "attr", None))
    return matches


is_tally_call = calls_of("symbol_density_estimate")
is_draw_tallies_call = calls_of("draw_tallies")
is_tally_positions_call = calls_of("tally_positions")


def defines_a_draw(node: ast.AST) -> bool:
    """Whether the node defines a function named `draw` or `draw_tallies`."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name in ("draw", "draw_tallies"))


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


# The estimators draw their tallies with no SampleSet in between: the
# uniform estimator at its grid columns, `sample_phases` phase two at the
# interval boundaries, for both distribution-free estimators and the event
# diagnostics. `densities_well_estimated` tallies a sample from its caller,
# the benchmark's diagnostics replay.
TALLY_CALLERS = {
    is_tally_call: {("distfree.py", "densities_well_estimated")},
    is_draw_tallies_call: {("distfree.py", "sample_phases"),
                           ("uniform.py", "estimate_distance_uniform")},
}


def test_phase_two_is_tallied_in_one_place():
    trees = package_trees()
    for matches, allowed in TALLY_CALLERS.items():
        callers = {(module, function) for module, tree in trees.items()
                   for function, _ in enclosing_sites(tree, matches)}
        assert callers == allowed, sorted(callers)


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


def test_detects_draw_tallies_calls():
    tree = ast.parse(
        "def estimate_distance_uniform(oracle, g):\n"
        "    return oracle.draw_tallies(1, 2, g, (1,))\n"
        "class S(Sampler):\n"
        "    def draw_tallies(self, *args):\n"
        "        return super().draw_tallies(*args)\n"
        "    def draw(self, size, seed):\n"
        "        return self.draw_tallies(size, seed, (), ())\n"
        "alias = Sampler.draw_tallies\n"
        "top = draw_tallies(1)\n"
    )
    assert enclosing_sites(tree, is_draw_tallies_call) == [
        ("estimate_distance_uniform", 2), ("S.draw", 7), (None, 9)]


# Every sampler draws through the one hook `Sampler._drawn`: `draw` and
# `draw_tallies` are written once, on `Sampler`, and drawn positions are
# counted only by the sampler's tallies and the sample's.
DRAW_PATH = {
    defines_a_draw: {("core.py", "Sampler")},
    is_tally_positions_call: {("core.py", "Sampler.draw_tallies"), ("core.py", "SampleSet.tally")},
}


def test_one_draw_path():
    trees = package_trees()
    for matches, allowed in DRAW_PATH.items():
        sites = {(module, scope) for module, tree in trees.items()
                 for scope, _ in enclosing_sites(tree, matches)}
        assert sites == allowed, sorted(sites)


def test_detects_draw_definitions_and_tally_positions_calls():
    tree = ast.parse(
        "class Sampler:\n"
        "    def draw_tallies(self, size, seed, ends, symbols):\n"
        "        return tally_positions(*self._drawn(size, seed), ends, symbols)\n"
        "class UniformSampler(Sampler):\n"
        "    if True:\n"
        "        def draw(self, size, seed):\n"
        "            return core.tally_positions(size, seed)\n"
        "    def _drawn(self, size, seed):\n"
        "        def inner():\n"
        "            return tally_positions(1)\n"
        "        return inner\n"
        "def draw_tallies(sampler):\n"
        "    return sampler.draw(1, 2)\n"
    )
    assert enclosing_sites(tree, defines_a_draw) == [
        ("Sampler", 2), ("UniformSampler", 6), (None, 12)]
    assert enclosing_sites(tree, is_tally_positions_call) == [
        ("Sampler.draw_tallies", 3), ("UniformSampler.draw", 7), ("inner", 10)]


def is_off_spec_label(node: ast.AST) -> bool:
    """Whether the node is the string literal "off_spec_constants"."""
    return isinstance(node, ast.Constant) and node.value == "off_spec_constants"


def stores_command_key(node: ast.AST) -> bool:
    """Whether the node stores a "command" key: as a subscript assigned
    to, or as a key of a dict display."""
    def is_command(key) -> bool:
        return isinstance(key, ast.Constant) and key.value == "command"
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, ast.Store) and is_command(node.slice)
    return isinstance(node, ast.Dict) and any(map(is_command, node.keys))


# The off-spec label of relaxed constants is written by
# `EstimatorConstants.report_fields`, which every relaxed report takes it
# from; the command name of a CLI report, by `cli.main` alone.
LABEL_WRITERS = {
    is_off_spec_label: {("distfree.py", "EstimatorConstants.report_fields")},
    stores_command_key: {("harness/cli.py", "main")},
}


def test_each_report_label_has_one_writer():
    trees = package_trees()
    for matches, allowed in LABEL_WRITERS.items():
        writers = {(module, function) for module, tree in trees.items()
                   for function, _ in enclosing_sites(tree, matches)}
        assert writers == allowed, sorted(writers)


def test_detects_label_writers():
    tree = ast.parse(
        "def report_fields():\n"
        "    return {'off_spec_constants': True, **extra}\n"
        "def f(report, args):\n"
        "    report['command'] = args.command\n"
        "    report.update({'command': 'x', 'k': 'off_spec_constants'})\n"
        "    return report['command'], report.get('off_spec_constants')\n"
        "top = {'command': 1}\n"
    )
    assert enclosing_sites(tree, is_off_spec_label) == [
        ("report_fields", 2), ("f", 5), ("f", 6)]
    assert enclosing_sites(tree, stores_command_key) == [("f", 4), ("f", 5), (None, 7)]
