"""Per-layer trace: spans recorded around calls into each seqfree layer.

The traced run replays each workload's pipeline through the package's
public functions, with the same seeds as the library call it shadows,
and raises `ReplayMismatch` unless the replay reproduces the library's
exact `raw` value, exact distance or report. Spans and counts stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
from seqfree import (
    Distribution,
    IntervalPartition,
    ReferencePartition,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    bruteforce_distance,
    uniform_distance,
    copies_from_counts,
    copy_count,
    exact_weighted_distance,
    interleave_sentinel,
    prefix_grid,
    quantize_weights,
    uniform_plan,
)
from seqfree.core import drop_zero_weight, subseed
from seqfree.distfree import (
    DEFAULT_CONSTANTS,
    assemble_sentinel_density,
    densities_well_estimated,
    exact_sentinel_reference,
    exact_symbol_density,
    first_sample_size,
    interleave_partition,
    interval_resolution,
    quantization_step,
    second_sample_size,
    symbol_density_estimate,
    weights_well_estimated,
)
from seqfree.exact import EXPANSION_LIMIT, expand_text
from seqfree.harness.experiments import fraction_str
from seqfree.harness.fileio import canonical_json, load_text, load_word
from seqfree.uniform import tally_prefix_counts

import workloads as w

# Bytes one dense pass moves per text position, computed from array sizes
# (cache misses ignored): the multinomial reads n float64 weights and
# writes n int64 counts, which `SampleSet.from_counts` scans once more.
DRAW_BYTES_PER_POSITION = 8 + 8 + 8
# Per distinct word symbol, the uniform tally writes a dense int64 count
# vector and its int64 cumulative sum, reading the first once.
TALLY_BYTES_PER_POSITION = 8 + 8 + 8

# The CLI probe: estimate-uniform on a text file of CLI_N tokens.
CLI_N = 3 * 10**6
CLI_DELTA = Fraction(3, 10)
CLI_LETTERS = np.frombuffer(b"abcd", dtype=np.uint8)
CLI_TIMEOUT_S = 60


class ReplayMismatch(Exception):
    """The traced replay did not reproduce the library call's result."""


class Tracer:
    """In-memory spans and counts, grouped by request.

    A request is one timed operation (its index), the untimed warm-up
    operation (`"warmup"`), the set-up (`"setup"`), the awkward-input
    probe (`"awkward"`) or one of the probe instances (a name starting
    with `"probe"`). Spans nest: each records the span open when it
    started as its parent.
    """

    def __init__(self) -> None:
        self.request: object = "setup"
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "request": self.request, "name": name,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        """Record a count, or a time measured outside this process."""
        self.counts.append({"request": self.request, "name": name, "value": value})

    def per_request(self) -> dict:
        """Sum of span durations and counts, per name and request."""
        out: dict = {}
        for s in self.spans:
            slot = out.setdefault(s["name"], {})
            slot[s["request"]] = slot.get(s["request"], 0.0) + s["end"] - s["start"]
        for c in self.counts:
            slot = out.setdefault(c["name"], {})
            slot[c["request"]] = slot.get(c["request"], 0) + c["value"]
        return out

    def metrics(self) -> dict:
        """Median over the requests that recorded each name, plus the
        share of distinct positions among draws.

        The warm-up is left out. A name that no workload request recorded
        takes its value from the first probe that recorded it.
        """
        table = self.per_request()
        for by_request in table.values():
            by_request.pop("warmup", None)
        draws = table.get("core.draws", {})
        table["core.distinct_ratio"] = {
            r: table["core.distinct_positions"][r] / d for r, d in draws.items() if d
        }
        result = {}
        for name, by_request in table.items():
            own = [v for r, v in by_request.items() if not is_probe(r)]
            result[name] = statistics.median(own) if own else next(iter(by_request.values()))
        return result

    def overhead_s(self) -> float:
        """Seconds the tracer's own bookkeeping adds to one timed
        operation: the median number of spans and counts an operation
        records, times the cost of one, timed on a scratch tracer."""
        per_op: dict = {}
        for record in self.spans + self.counts:
            if isinstance(record["request"], int):
                kind = "spans" if "start" in record else "counts"
                slot = per_op.setdefault(record["request"], {"spans": 0, "counts": 0})
                slot[kind] += 1
        scratch = Tracer()
        repeats = 20000
        start = time.perf_counter()
        for _ in range(repeats):
            with scratch.span("x"):
                pass
        middle = time.perf_counter()
        for _ in range(repeats):
            scratch.count("x", 1)
        end = time.perf_counter()
        spans = statistics.median(c["spans"] for c in per_op.values())
        counts = statistics.median(c["counts"] for c in per_op.values())
        return (spans * (middle - start) + counts * (end - middle)) / repeats

    def probe_only(self) -> set:
        """Names that only probe requests recorded."""
        return {name for name, by_request in self.per_request().items()
                if all(is_probe(r) for r in by_request)}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans + self.counts:
                handle.write(json.dumps(record) + "\n")


def is_probe(request) -> bool:
    return str(request).startswith("probe")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise ReplayMismatch(message)


# -- replays -----------------------------------------------------------------


def record_draw(tr: Tracer, planned: int, sample, n: int) -> None:
    tr.count("core.draws_planned", planned)
    tr.count("core.draws", sample.size)
    tr.count("core.distinct_positions", int(sample.positions.size))
    tr.count("core.draw_bytes_computed", DRAW_BYTES_PER_POSITION * n)


def replay_uniform(tr: Tracer, sampler, word: Word, accuracy, seed: int) -> Fraction:
    """estimate_distance_uniform: plan, draw, tally, recursion."""
    with tr.span("uniform.plan_s"):
        plan = uniform_plan(word.k, accuracy)
        grid = prefix_grid(sampler.n, plan.spacing)
    with tr.span("core.draw_s"):
        sample = sampler.draw(plan.sample_size, seed)
    record_draw(tr, plan.sample_size, sample, sampler.n)
    with tr.span("uniform.tally_s"):
        matrix = tally_prefix_counts(sample, word, grid)
    with tr.span("uniform.recursion_s"):
        measure = copies_from_counts(matrix.tallies)
    tr.count("uniform.grid_size", grid.size)
    tr.count("uniform.tally_bytes_computed",
             TALLY_BYTES_PER_POSITION * sampler.n * word.distinct_count)
    return Fraction(int(measure), plan.sample_size)


def replay_distfree(tr: Tracer, sampler, word: Word, accuracy, seed: int,
                    separator: bool) -> Fraction:
    """estimate_distance (separator) or estimate_distance_repeat_free."""
    resolution = interval_resolution(word.k, accuracy)
    first = first_sample_size(resolution)
    with tr.span("core.draw_s"):
        sample1 = sampler.draw(first, subseed(seed, 1))
    record_draw(tr, first, sample1, sampler.n)
    with tr.span("distfree.partition_s"):
        partition = IntervalPartition.from_sample(sample1, resolution)
    tr.count("distfree.intervals", partition.count)
    tr.count("distfree.heavy_intervals", int(partition.heavy.sum()))
    second = second_sample_size(resolution, word.k, partition.count)
    with tr.span("core.draw_s"):
        sample2 = sampler.draw(second, subseed(seed, 2))
    record_draw(tr, second, sample2, sampler.n)
    with tr.span("distfree.density_s"):
        density = symbol_density_estimate(sample2, partition, word)
    matrix = density.role_tallies
    if separator:
        with tr.span("distfree.assembly_s"):
            sentinel = interleave_partition(partition)
            matrix = assemble_sentinel_density(density, partition, sentinel).numerators
        tr.count("distfree.merged_intervals", sentinel.count)
    with tr.span("distfree.recursion_s"):
        measure = copies_from_counts(matrix)
    return Fraction(int(measure), second)


def replay_exact(tr: Tracer, text: Text, word: Word, dist: Distribution) -> Fraction:
    """exact_weighted_distance: drop zeros, denominator, interleave,
    expand, copy count."""
    with tr.span("exact.drop_zero_s"):
        kept_text, kept = drop_zero_weight(text, dist)
    with tr.span("exact.denominator_s"):
        denom = kept.common_denominator()
    if 2 * denom > EXPANSION_LIMIT:
        raise ValueError(f"common denominator {denom} is above the expansion cap")
    with tr.span("exact.interleave_s"):
        sep_text, sep_word, sep_dist = interleave_sentinel(kept_text, word, kept)
    with tr.span("exact.expand_s"):
        expansion = expand_text(sep_text, sep_dist, Fraction(1, 2 * denom))
    with tr.span("exact.copy_count_s"):
        copies = copy_count(expansion.expanded, sep_word)
    tr.count("exact.expanded_length", expansion.expanded_length)
    return Fraction(2 * copies, expansion.expanded_length)


def replay_uniform_truth(tr: Tracer, text: Text, word: Word) -> Fraction:
    with tr.span("exact.copy_count_s"):
        copies = copy_count(text, word)
    return Fraction(copies, text.n)


def replay_diagnostics(tr: Tracer, text: Text, word: Word, dist: Distribution,
                       accuracy, trials: int, seed: int,
                       check_reference: bool = False) -> dict:
    """The event_diagnostics loop; returns the counts of its report.

    With `check_reference`, the first trial also compares the split
    quantize + reference step against `exact_sentinel_reference`.
    """
    constants = DEFAULT_CONSTANTS
    resolution = interval_resolution(word.k, accuracy, constants)
    first = first_sample_size(resolution, constants)
    with tr.span("distfree.reference_partition_s"):
        reference = ReferencePartition.from_weights(dist, resolution)
    with tr.span("core.sampler_init_s"):
        oracle = WeightedSampler(text, dist)
    light_cap = Fraction(6) / resolution
    density_cap = constants.step_factor / resolution + Fraction(1, 2) / resolution
    counts = {"first_event_hits": 0, "second_event_hits": 0,
              "light_weight_violations": 0, "density_bound_violations": 0}
    second_sizes = []
    for t in range(trials):
        tseed = seed ^ t
        with tr.span("core.draw_s"):
            sample1 = oracle.draw(first, subseed(tseed, 1))
        record_draw(tr, first, sample1, oracle.n)
        with tr.span("distfree.event_checks_s"):
            first_event = weights_well_estimated(dist, sample1, resolution, reference)
        with tr.span("distfree.partition_s"):
            partition = IntervalPartition.from_sample(sample1, resolution)
        tr.count("distfree.intervals", partition.count)
        tr.count("distfree.heavy_intervals", int(partition.heavy.sum()))
        if first_event:
            counts["first_event_hits"] += 1
            with tr.span("distfree.event_checks_s"):
                for lo, hi, is_heavy in partition.intervals():
                    if not is_heavy and dist.interval_weight(lo, hi) >= light_cap:
                        counts["light_weight_violations"] += 1
        second = second_sample_size(resolution, word.k, partition.count, constants)
        second_sizes.append(second)
        with tr.span("core.draw_s"):
            sample2 = oracle.draw(second, subseed(tseed, 2))
        record_draw(tr, second, sample2, oracle.n)
        with tr.span("distfree.exact_density_s"):
            exact = exact_symbol_density(text, dist, word, partition)
        with tr.span("distfree.event_checks_s"):
            second_event = densities_well_estimated(
                text, dist, word, sample2, partition, resolution, exact)
        if not second_event:
            continue
        counts["second_event_hits"] += 1
        with tr.span("distfree.density_s"):
            density = symbol_density_estimate(sample2, partition, word)
        with tr.span("distfree.assembly_s"):
            sentinel = interleave_partition(partition)
            assembled = assemble_sentinel_density(density, partition, sentinel)
        tr.count("distfree.merged_intervals", sentinel.count)
        # exact_sentinel_reference, split so that quantization is timed
        # on its own.
        step = quantization_step(text.n, resolution, constants)
        with tr.span("exact.quantize_s"):
            quant = quantize_weights(dist, step)
        with tr.span("distfree.sentinel_reference_s"):
            ref_nums, ref_denom = sentinel_reference(text, word, sentinel, quant, step)
        if check_reference and t == 0:
            lib_nums, lib_denom = exact_sentinel_reference(
                text, dist, word, partition, sentinel, resolution, constants)
            expect(lib_denom == ref_denom and np.array_equal(lib_nums, ref_nums),
                   "split sentinel reference differs from exact_sentinel_reference")
        with tr.span("distfree.event_checks_s"):
            rows, cols = assembled.numerators.shape
            for i in range(rows):
                for u in range(cols):
                    got = Fraction(int(assembled.numerators[i, u]), assembled.denominator)
                    want = Fraction(int(ref_nums[i, u]), ref_denom)
                    if abs(got - want) > density_cap:
                        counts["density_bound_violations"] += 1
    tr.count("experiments.first_event_hits", counts["first_event_hits"])
    tr.count("experiments.second_event_hits", counts["second_event_hits"])
    counts["second_sample_range"] = [min(second_sizes), max(second_sizes)] if second_sizes else None
    return counts


def sentinel_reference(text: Text, word: Word, sentinel, quant, step) -> tuple:
    """The part of exact_sentinel_reference after quantization."""
    mult = np.array([int(q / step) for q in quant.rounded], dtype=np.int64)
    sep_text, sep_word, _ = interleave_sentinel(text, word)
    sep_mult = np.repeat(mult, 2)
    ends = sentinel.boundaries[1:]
    numerators = np.zeros((sep_word.k, sentinel.count), dtype=np.int64)
    cache: dict = {}
    for i, sym in enumerate(sep_word.ids):
        sym = int(sym)
        if sym not in cache:
            masked = np.where(sep_text.ids == sym, sep_mult, 0)
            cache[sym] = np.concatenate(([0], np.cumsum(masked)))
        numerators[i] = cache[sym][ends]
    return numerators, int(sep_mult.sum())


def interpreter_times(tr: Tracer, python: str, env: dict, cwd: Path) -> None:
    """Bare interpreter start, and the import of the CLI module."""
    with tr.span("cli.interpreter_s"):
        subprocess.run([python, "-c", "pass"], check=True, env=env, cwd=cwd,
                       timeout=CLI_TIMEOUT_S)
    probe = ("import time; t = time.perf_counter(); import seqfree.harness.cli; "
             "print(time.perf_counter() - t)")
    done = subprocess.run([python, "-c", probe], check=True, env=env, cwd=cwd,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    tr.count("cli.import_s", float(done.stdout))


def replay_cli(tr: Tracer, text_path: Path, word_path: Path, delta: Fraction,
               seed: int) -> str:
    """estimate-uniform in-process: load, estimate, serialise."""
    with tr.span("fileio.load_text_s"):
        text = load_text(str(text_path))
        word = load_word(str(word_path), text.alphabet)
    tr.count("fileio.tokens", text.n)
    tr.count("fileio.bytes_read", text_path.stat().st_size + word_path.stat().st_size)
    with tr.span("cli.estimate_s"):
        with tr.span("core.sampler_init_s"):
            sampler = UniformSampler(text)
        raw = replay_uniform(tr, sampler, word, delta, seed)
        clamped = min(max(raw, Fraction(0)), Fraction(1))
        payload = {
            "command": "estimate-uniform", "n": text.n, "k": word.k,
            "delta": float(delta), "seed": seed, "estimate": float(clamped),
            "raw": fraction_str(raw), "repeats": 1,
            "samples": uniform_plan(word.k, delta).sample_size,
        }
    with tr.span("fileio.serialise_s"):
        return canonical_json(payload)


# -- untimed awkward-input probe ---------------------------------------------


def awkward_inputs() -> list:
    """Valid inputs that an exact oracle should answer exactly."""
    word = Word([1, 2])
    text4 = Text([1, 2, 1, 2])
    tiny = Fraction("1e-400")
    floats = np.array([0.1, 0.2, 0.3, 0.4]) / 1.0
    return [
        ("weight 1e-400", text4, word,
         Distribution.from_fractions([tiny, Fraction(1, 2) - tiny, Fraction(1, 4), Fraction(1, 4)])),
        ("n = 1", Text([1]), Word([1]), Distribution.from_fractions([1])),
        ("word token absent from the text", text4, Word([1, 3]),
         Distribution.from_fractions([Fraction(1, 4)] * 4)),
        ("float-derived weights", text4, word,
         Distribution.from_fractions([Fraction(float(w)) for w in floats / floats.sum()])),
    ]


def awkward_probe(tr: Tracer) -> list:
    """Count exact answers (equal to exhaustive search) on awkward inputs."""
    notes = []
    exact = 0
    inputs = awkward_inputs()
    for label, text, word, dist in inputs:
        try:
            got = exact_weighted_distance(text, word, dist)
        except ValueError as err:
            notes.append(f"{label}: rejected ({str(err)[:80]})")
            continue
        want = bruteforce_distance(text, word, dist)
        if got == want:
            exact += 1
            notes.append(f"{label}: exact")
        else:
            notes.append(f"{label}: {got} but exhaustive search gives {want}")
    tr.count("exact.awkward_exact", exact)
    tr.count("exact.awkward_attempted", len(inputs))
    return notes



# -- traced workloads ------------------------------------------------------------


class Case:
    """One workload's library call and its traced replay, run in turns:
    the library first on even operations, the replay first on odd ones,
    so that neither always finds the other's data in the caches."""

    def __init__(self, tr: Tracer, seed: int) -> None:
        self.tr, self.seed = tr, seed

    def traced_operation(self, index: int) -> tuple[float, float]:
        """(library seconds, replay seconds) of one checked operation."""
        s = w.op_seed(self.seed, index)
        order = ("library", "replay") if index % 2 == 0 else ("replay", "library")
        times, results = {}, {}
        for step in order:
            times[step], results[step] = w.timed(getattr(self, step), index, s)
        self.runner.check(index, results["library"])
        self.compare(index, results["library"], results["replay"])
        return times["library"], times["replay"]

    def library(self, index: int, s: int):
        return self.runner.operation(s, index)

    def compare(self, index: int, lib, replayed) -> None:
        expect(replayed == lib.raw, f"replayed raw {replayed} differs from {lib.raw}")


class UniformCase(Case):
    """uniform-large: exact truth by copy_count in set-up, then the
    uniform estimator, replayed step by step."""

    def __init__(self, tr: Tracer, seed: int) -> None:
        super().__init__(tr, seed)
        text, word = w.uniform_inputs(seed)
        truth = replay_uniform_truth(tr, text, word)
        with tr.span("core.sampler_init_s"):
            self.runner = w.UniformLarge(text, word, {"truth": str(truth)})

    def replay(self, index: int, s: int) -> Fraction:
        return replay_uniform(self.tr, self.runner.sampler, self.runner.word,
                              w.UNIFORM_DELTA, s)


class DfCase(Case):
    """df-weighted: exact truths by the replayed weighted oracle in
    set-up, then the two distribution-free estimators in turn."""

    def __init__(self, tr: Tracer, seed: int) -> None:
        super().__init__(tr, seed)
        text, dist, rep, free = w.df_inputs(seed)
        truths = {}
        for key, word in (("repeat", rep), ("free", free)):
            got = replay_exact(tr, text, word, dist)
            expect(got == exact_weighted_distance(text, word, dist),
                   "replayed exact distance differs from exact_weighted_distance")
            truths[key] = str(got)
        with tr.span("core.sampler_init_s"):
            self.runner = w.DfWeighted(text, dist, rep, free, truths)

    def replay(self, index: int, s: int) -> Fraction:
        sep = self.runner.separator(index)
        word = self.runner.repeat if sep else self.runner.free
        return replay_distfree(self.tr, self.runner.sampler, word, w.DF_DELTA, s, sep)


class OracleCase(Case):
    """oracles: exact weighted distance and event diagnostics, replayed."""

    def __init__(self, tr: Tracer, seed: int) -> None:
        super().__init__(tr, seed)
        self.runner = w.Oracles(seed)

    def replay(self, index: int, s: int) -> tuple:
        inst = self.runner.instance(index)
        distance = replay_exact(self.tr, inst.text, inst.word, inst.dist)
        with self.tr.span("experiments.diagnose_s"):
            counts = replay_diagnostics(self.tr, inst.text, inst.word, inst.dist,
                                        w.ORACLE_DELTA, w.ORACLE_TRIALS, s,
                                        check_reference=index == 0)
        return distance, counts

    def compare(self, index: int, lib, replayed) -> None:
        distance, counts = replayed
        expect(distance == lib[0], "replayed exact distance differs")
        for key, value in counts.items():
            expect(lib[1][key] == value, f"replayed diagnostics differ on {key}")


CASES = {"uniform-large": UniformCase, "df-weighted": DfCase, "oracles": OracleCase}


# -- probes of the layers a workload does not reach -------------------------------


def write_tokens(path: Path, ids: np.ndarray) -> None:
    """Write symbols 1..4 as the tokens a..d, one space apart."""
    buf = np.full(2 * ids.size, ord(" "), dtype=np.uint8)
    buf[0::2] = CLI_LETTERS[ids - 1]
    buf[-1] = ord("\n")
    path.write_bytes(buf.tobytes())


def check_cli(returncode: int, stdout: bytes, seed: int, truth: Fraction) -> None:
    w.require(returncode == 0, f"estimate-uniform exited with {returncode}")
    report = json.loads(stdout)
    w.require(report["command"] == "estimate-uniform", "wrong command in report")
    w.require(report["n"] == CLI_N and report["k"] == w.K, "report has wrong n or k")
    w.require(report["seed"] == seed, "report has the wrong seed")
    w.require(report["samples"] == uniform_plan(w.K, CLI_DELTA).sample_size,
              "sample size differs from plan")
    w.check_estimate(Fraction(report["raw"]), report["estimate"], truth, CLI_DELTA)


def cli_probe(tr: Tracer, seed: int) -> None:
    """One checked `python -m seqfree estimate-uniform` child process on a
    text file of CLI_N tokens, then the same steps in this process (after
    timing a bare interpreter and the import in two more children). The
    files are removed afterwards."""
    rng = w.stream(seed, "probe-cli")
    text, word = w.random_text(rng, CLI_N), w.distinct_word(rng)
    truth = uniform_distance(text, word)
    text_path, word_path = w.WORKDIR / "cli-text.txt", w.WORKDIR / "cli-word.txt"
    env = dict(os.environ, PYTHONPATH=str(w.ROOT / "src"))
    s = w.op_seed(seed, 1)
    try:
        write_tokens(text_path, text.ids)
        write_tokens(word_path, word.ids)
        command = [sys.executable, "-m", "seqfree", "estimate-uniform",
                   "--text", str(text_path), "--word", str(word_path),
                   "--delta", str(float(CLI_DELTA)), "--seed", str(s)]
        done = subprocess.run(command, capture_output=True, env=env, cwd=w.ROOT,
                              timeout=CLI_TIMEOUT_S)
        check_cli(done.returncode, done.stdout, s, truth)
        interpreter_times(tr, sys.executable, env, w.ROOT)
        blob = replay_cli(tr, text_path, word_path, CLI_DELTA, s)
        expect(blob == done.stdout.decode(),
               "replayed CLI report differs from the child's stdout")
    finally:
        text_path.unlink(missing_ok=True)
        word_path.unlink(missing_ok=True)


def probe(tr: Tracer, seed: int, skip: str) -> None:
    """The other workloads' pipelines, once each, so that every layer has a
    value on every workload; a name the workload did not record takes the
    first probe's value. The distribution-free and oracle probes are small;
    the CLI probe runs at full size and also covers the uniform layer."""
    rng = w.stream(seed, "probe")
    if skip != "df-weighted":
        tr.request = "probe-distfree"
        text = w.random_text(rng, 10**4)
        mult = w.with_heavy(rng, w.integer_weights(rng, text.n, 20, w.DF_ZERO_SHARE), 3, 1000)
        replay_distfree(tr, WeightedSampler(text, w.rational_distribution(mult)),
                        w.repeat_word(rng), w.DF_DELTA, 1, separator=True)
    if skip != "oracles":
        tr.request = "probe-oracles"
        text = w.random_text(rng, 200)
        dist = w.rational_distribution(w.integer_weights(rng, text.n, 100, w.ORACLE_ZERO_SHARE))
        word = w.repeat_word(rng)
        replay_exact(tr, text, word, dist)
        with tr.span("experiments.diagnose_s"):
            replay_diagnostics(tr, text, word, dist, w.ORACLE_DELTA, 1, 1)
    tr.request = "probe-cli"
    cli_probe(tr, seed)
