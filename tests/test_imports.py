"""Every name a module under `src/seqfree` or `tests/` imports is used
there: read by its code, or re-exported through its `__all__`. Every
function of the library modules has a caller in the package or the
benchmark, or is exported. The package runs one copy recursion, and none
of it goes through the separator rewrite, which only the tests and the
benchmark keep as the reference for the recursion's lag. The estimators
take their tallies from the sampler, and only the second-event diagnostic
tallies a sample. `draw` and `draw_tallies` are written once, on
`Sampler`, over the one draw hook; only `draw` compacts the dense
counts, and the Poissonized draw has no loop. The whole-text copy measure and its
chunk totals are written once, and both exact oracles take it. Each report label has one writer, and
one function writes the record of an estimator run. In the harness, one
function maps an estimator kind to its estimator, and one builds the
sampler every run draws from."""

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


def calls_of(*names: str):
    """A predicate: whether a node calls one of `names`, by bare name or as
    an attribute. A call on `super()` is an override reaching the method it
    overrides, not a caller, and does not count."""
    def matches(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call) and (
                getattr(func.value.func, "id", None) == "super"):
            return False
        return any(name in (getattr(func, "id", None), getattr(func, "attr", None))
                   for name in names)
    return matches


is_tally_call = calls_of("symbol_density_estimate")
is_draw_tallies_call = calls_of("draw_tallies")
is_tally_positions_call = calls_of("tally_positions")


def defines(*names: str):
    """A predicate: whether a node defines a function named one of `names`."""
    def matches(node: ast.AST) -> bool:
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    return matches


defines_a_draw = defines("draw", "draw_tallies")


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


def is_loop(node: ast.AST) -> bool:
    """Whether the node is a `for` or `while` loop or a comprehension."""
    return isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.GeneratorExp))


# The dense hook hands out its counts in place, so that only `draw`
# compacts them to the drawn positions, and the Poissonized draw corrects
# its bulk total exactly, with no loop that draws the bulk again.
DENSE_DRAW_FREE_OF = {
    calls_of("flatnonzero"): "Sampler._drawn",
    is_loop: "Sampler._poissonized",
}


def test_dense_draw_neither_compacts_nor_redraws():
    tree = package_trees()["core.py"]
    methods = {qualified for qualified, _ in defined_functions(tree)}
    for matches, scope in DENSE_DRAW_FREE_OF.items():
        assert scope in methods
        sites = [line for site, line in enclosing_sites(tree, matches) if site == scope]
        assert not sites, (scope, sites)


def test_detects_compaction_and_loops():
    tree = ast.parse(
        "class Sampler:\n"
        "    def _drawn(self, size, seed):\n"
        "        return np.flatnonzero(self._poissonized(size))\n"
        "    def _poissonized(self, size):\n"
        "        while True:\n"
        "            counts = [c for c in range(size)]\n"
        "        for c in counts:\n"
        "            total = sum(d for d in c)\n"
        "    def draw(self, size, seed):\n"
        "        return flatnonzero(self._drawn(size, seed))\n"
    )
    assert enclosing_sites(tree, calls_of("flatnonzero")) == [
        ("Sampler._drawn", 3), ("Sampler.draw", 10)]
    assert enclosing_sites(tree, is_loop) == [
        ("Sampler._poissonized", 5), ("Sampler._poissonized", 6),
        ("Sampler._poissonized", 7), ("Sampler._poissonized", 8)]


# `exact.text_measure` is the one whole-text measure, over the one
# chunk-total helper `RoleCounts.chunk_totals`, which nothing else reads;
# `copy_count` and `exact_weighted_distance` both take the measure from it.
WHOLE_TEXT_DEFINITIONS = {
    defines("text_measure"): [("exact.py", None)],
    defines("chunk_totals"): [("core.py", "RoleCounts")],
}
WHOLE_TEXT_CALLERS = {
    calls_of("text_measure"): {("exact.py", "copy_count"), ("exact.py", "exact_weighted_distance")},
    calls_of("chunk_totals"): {("exact.py", "text_measure")},
}


def test_one_whole_text_measure():
    trees = package_trees()
    for matches, allowed in WHOLE_TEXT_DEFINITIONS.items():
        sites = sorted((module, scope) for module, tree in trees.items()
                       for scope, _ in enclosing_sites(tree, matches))
        assert sites == allowed, sites
    for matches, allowed in WHOLE_TEXT_CALLERS.items():
        callers = {(module, scope) for module, tree in trees.items()
                   for scope, _ in enclosing_sites(tree, matches)}
        assert callers == allowed, sorted(callers)


def test_detects_measure_definitions_and_callers():
    tree = ast.parse(
        "def text_measure(text, word):\n"
        "    return counts.chunk_totals(0, 1, 64)\n"
        "class RoleCounts:\n"
        "    def chunk_totals(self, start, stop, chunk):\n"
        "        def text_measure():\n"
        "            return chunk_totals(1)\n"
        "        return text_measure()\n"
        "def copy_count(text, word):\n"
        "    return int(exact.text_measure(text, word))\n"
    )
    assert enclosing_sites(tree, defines("text_measure")) == [(None, 1), ("RoleCounts.chunk_totals", 5)]
    assert enclosing_sites(tree, defines("chunk_totals")) == [("RoleCounts", 4)]
    assert enclosing_sites(tree, calls_of("text_measure")) == [
        ("RoleCounts.chunk_totals", 7), ("copy_count", 9)]
    assert enclosing_sites(tree, calls_of("chunk_totals")) == [("text_measure", 2), ("text_measure", 6)]


def is_off_spec_label(node: ast.AST) -> bool:
    """Whether the node is the string literal "off_spec_constants"."""
    return isinstance(node, ast.Constant) and node.value == "off_spec_constants"


def stores_key(name: str):
    """A predicate: whether a node stores the key `name`, as a subscript
    assigned to or as a key of a dict display."""
    def is_name(key) -> bool:
        return isinstance(key, ast.Constant) and key.value == name

    def matches(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, ast.Store) and is_name(node.slice)
        return isinstance(node, ast.Dict) and any(map(is_name, node.keys))
    return matches


stores_command_key = stores_key("command")
stores_samples_key = stores_key("samples")

# The off-spec label of relaxed constants is written by
# `EstimatorConstants.report_fields`, which every relaxed report takes it
# from; the command name of a CLI report, by `cli.main` alone; the draws
# of an estimator run, for the estimate commands and the sweep alike, by
# `experiments.run_record`.
LABEL_WRITERS = {
    is_off_spec_label: {("distfree.py", "EstimatorConstants.report_fields")},
    stores_command_key: {("harness/cli.py", "main")},
    stores_samples_key: {("harness/experiments.py", "run_record")},
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


def test_detects_samples_key_stores():
    tree = ast.parse(
        "def run_record(result):\n"
        "    record = {'seed': 1}\n"
        "    record['samples'] = result.draws\n"
        "    return record\n"
        "def sweep(result):\n"
        "    row = {'trial': 0, 'samples': {'draws': result.draws}}\n"
        "    return row['samples'], row.get('samples'), {'samples_total': 1}\n"
        "top = dict(samples=1)\n"
    )
    assert enclosing_sites(tree, stores_samples_key) == [("run_record", 3), ("sweep", 6)]


is_estimator_call = calls_of(
    "estimate_distance_uniform", "estimate_distance", "estimate_distance_repeat_free")
builds_a_sampler = calls_of("UniformSampler", "WeightedSampler")

# Under `harness/`, `experiments.estimator` alone maps an estimator kind to
# its estimator, for the CLI and the sweep alike, and `experiments.sampler`
# alone builds the sampler that they and the event diagnostics draw from.
ESTIMATOR_TABLE = {
    is_estimator_call: {("harness/experiments.py", "estimator")},
    builds_a_sampler: {("harness/experiments.py", "sampler")},
}


def test_one_estimator_table_in_the_harness():
    trees = {module: tree for module, tree in package_trees().items()
             if module.startswith("harness/")}
    assert "harness/cli.py" in trees and "harness/experiments.py" in trees
    for matches, allowed in ESTIMATOR_TABLE.items():
        sites = {(module, function) for module, tree in trees.items()
                 for function, _ in enclosing_sites(tree, matches)}
        assert sites == allowed, sorted(sites)


def test_detects_estimator_calls_and_sampler_builds():
    tree = ast.parse(
        "def estimator(kind, text, word):\n"
        "    oracle = core.UniformSampler(text)\n"
        "    return lambda a, s: estimate_distance(oracle, word, a, s)\n"
        "def cmd(args):\n"
        "    run = distfree.estimate_distance_repeat_free\n"
        "    return uniform.estimate_distance_uniform(WeightedSampler(t, d), w, a, 0)\n"
        "top = estimate_distance_uniform(o, w, a, 1)\n"
    )
    assert enclosing_sites(tree, is_estimator_call) == [
        ("estimator", 3), ("cmd", 6), (None, 7)]
    assert enclosing_sites(tree, builds_a_sampler) == [("estimator", 2), ("cmd", 6)]


def test_detects_sampler_builds_beside_the_sampler_pick():
    tree = ast.parse(
        "def sampler(text, dist):\n"
        "    return UniformSampler(text) if dist is None else core.WeightedSampler(text, dist)\n"
        "def event_diagnostics(text, dist):\n"
        "    oracle = sampler(text, dist)\n"
        "    return oracle, WeightedSampler(text, Distribution.uniform(text.n))\n"
    )
    assert enclosing_sites(tree, builds_a_sampler) == [
        ("sampler", 2), ("sampler", 2), ("event_diagnostics", 5)]
