"""Acceptance suite: ten criteria covering the exact oracles, the copy
measure bounds, both estimators, the good-sample events, the reduction
identities, the hardness ensembles, and CLI determinism.

Each test prints one PASS/FAIL line (bypassing capture, so the lines
always appear in the terminal) and then asserts, so a red criterion is
both visible and fatal.
"""

import json
import time
from fractions import Fraction

import numpy as np

from seqfree.core import Distribution, UniformSampler, WeightedSampler
from seqfree.distfree import estimate_distance, interval_resolution, quantization_step
from seqfree.exact import (
    bruteforce_distance,
    copy_count,
    exact_weighted_distance,
    expand_text,
    greedy_copies,
    interleave_sentinel,
    quantize_weights,
    uniform_distance,
)
from seqfree.harness.cli import main as cli_main
from seqfree.harness.experiments import concentration_experiment, event_diagnostics
from seqfree.harness.generators import (
    identity_word,
    periodic_text,
    random_rational_weights,
)
from seqfree.uniform import (
    PrefixGrid,
    copies_from_counts,
    estimate_distance_uniform,
    prefix_grid,
    uniform_plan,
)

from conftest import (
    branching_distance,
    ceil_scaled_log,
    exact_count_matrix,
    max_gap,
    positive_rational_weights,
    random_repeat_free_word,
    random_text_ids,
    random_word_ids,
)


def announce(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\n[acceptance] criterion {number:>2}: {status}  {detail}")


def clamped(raw: Fraction) -> Fraction:
    return min(max(raw, Fraction(0)), Fraction(1))


def test_criterion_01_oracle_triple_agreement(capsys):
    """Greedy copies, the recursion table, and exhaustive search agree on
    every small random instance."""
    rng = np.random.default_rng(101)
    instances = 5000
    agree = 0
    start = time.perf_counter()
    for _ in range(instances):
        n = int(rng.integers(1, 13))
        text = random_text_ids(rng, n, 3)
        word = random_word_ids(rng, int(rng.integers(1, 4)), 3)
        greedy = greedy_copies(text, word).count
        table = copy_count(text, word)
        brute = bruteforce_distance(text, word)
        if greedy == table and brute == Fraction(table, n):
            agree += 1
    elapsed = time.perf_counter() - start
    passed = agree == instances and elapsed < 300
    announce(
        capsys, 1, passed,
        f"three oracles agree exactly on {agree}/{instances} instances "
        f"(n <= 12, alphabet 3, k <= 3; {elapsed:.1f}s, limit 300s)",
    )
    assert passed


def test_criterion_02_measure_exact_on_full_grid(capsys):
    """With exact counts at every prefix the measure reproduces the copy
    count, for words without adjacent equal symbols (where this holds;
    see the decisions ledger for the adjacent-repeat counterexample)."""
    rng = np.random.default_rng(202)
    instances = 1000
    exact_hits = 0
    for _ in range(instances):
        n = int(rng.integers(1, 201))
        alphabet = int(rng.integers(2, 5))
        text = random_text_ids(rng, n, alphabet)
        word = random_repeat_free_word(rng, int(rng.integers(1, 5)), alphabet)
        grid = prefix_grid(n, Fraction(1, n))
        measure = copies_from_counts(exact_count_matrix(text, word, grid))
        if measure == copy_count(text, word):
            exact_hits += 1
    passed = exact_hits == instances
    announce(
        capsys, 2, passed,
        f"measure equals copy count on the full prefix grid for "
        f"{exact_hits}/{instances} repeat-free instances (n <= 200)",
    )
    assert passed


def test_criterion_03_grid_gap_bound(capsys):
    """On any prefix grid the measure deviates from the copy count by at
    most (k - 1) times the largest gap."""
    rng = np.random.default_rng(303)
    instances = 1000
    within = 0
    for _ in range(instances):
        n = int(rng.integers(1, 151))
        text = random_text_ids(rng, n, 3)
        k = int(rng.integers(1, 5))
        word = random_word_ids(rng, k, 3)
        cols = np.unique(rng.integers(1, n + 1, size=int(rng.integers(1, 9))))
        if cols.size == 0 or cols[-1] != n:
            cols = np.unique(np.append(cols, n))
        grid = PrefixGrid(n, Fraction(1, n), cols.astype(np.int64))
        measure = copies_from_counts(exact_count_matrix(text, word, grid))
        if abs(measure - copy_count(text, word)) <= (k - 1) * max_gap(grid):
            within += 1
    passed = within == instances
    announce(
        capsys, 3, passed,
        f"|measure - copies| <= (k-1)*max_gap on {within}/{instances} "
        f"random grids (exact integer arithmetic)",
    )
    assert passed


def test_criterion_04_perturbation_bound(capsys):
    """Entrywise count perturbations of at most b move the measure by at
    most (2k - 1) * b."""
    rng = np.random.default_rng(404)
    instances = 1000
    within = 0
    for _ in range(instances):
        k = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 31))
        b = int(rng.integers(0, 26))
        base = rng.integers(0, 500, size=(k, cols))
        noisy = base + rng.integers(-b, b + 1, size=(k, cols))
        if abs(copies_from_counts(base) - copies_from_counts(noisy)) <= (2 * k - 1) * b:
            within += 1
    passed = within == instances
    announce(
        capsys, 4, passed,
        f"|measure(A) - measure(B)| <= (2k-1)*b on {within}/{instances} "
        f"matrix pairs with entrywise gap <= b",
    )
    assert passed


def test_criterion_05_uniform_estimator_success_rate(capsys):
    """Uniform-weights estimator at n = 100000, accuracy 0.1: at least 90
    of 100 fixed seeds land within the accuracy, per word length, with
    the sample count matching the formula exactly."""
    n = 100_000
    accuracy = Fraction(1, 10)
    parts = []
    passed = True
    for k in (2, 3, 4):
        text = periodic_text(n, k)
        word = identity_word(k)
        oracle = UniformSampler(text)
        truth = Fraction(1, k)
        plan = uniform_plan(k, accuracy)
        formula = ceil_scaled_log(
            Fraction(1) / (2 * plan.spacing**2), Fraction(6 * k * plan.grid_size)
        )
        start = time.perf_counter()
        hits = 0
        samples_exact = True
        for trial in range(100):
            result = estimate_distance_uniform(oracle, word, accuracy, (500 + k) ^ trial)
            samples_exact &= result.sample_size == plan.sample_size == formula
            if abs(clamped(result.raw) - truth) <= accuracy:
                hits += 1
        elapsed = time.perf_counter() - start
        ok = hits >= 90 and samples_exact and elapsed < 120
        passed &= ok
        parts.append(f"k={k}: {hits}/100 in {elapsed:.1f}s (s={plan.sample_size})")
    announce(
        capsys, 5, passed,
        "success rate >= 90/100 at accuracy 0.1, samples exact, "
        "limit 120s per k; " + ", ".join(parts),
    )
    assert passed


def test_criterion_06_distribution_free_success_rate(capsys):
    """Distribution-free estimator at n = 10000 with known rational
    weights: at least 90 of 100 fixed seeds within accuracy 0.15 against
    the exact weighted distance, for a spread family at k = 2 and 3 and
    a point-mass-dominated family; phase sizes match the formulas."""
    n = 10_000
    accuracy = Fraction(3, 20)
    families = [
        ("spread k=2", 2, random_rational_weights(n, 100_000, 11), 601),
        ("spread k=3", 3, random_rational_weights(n, 100_000, 12), 602),
        ("pointmass k=2", 2,
         random_rational_weights(n, 99_990, 13, kind="pointmass"), 603),
    ]
    start = time.perf_counter()
    parts = []
    passed = True
    for label, k, dist, master in families:
        text = periodic_text(n, k)
        word = identity_word(k)
        truth = exact_weighted_distance(text, word, dist)
        oracle = WeightedSampler(text, dist)
        resolution = interval_resolution(k, accuracy)
        first_formula = ceil_scaled_log(120 * resolution, 240 * resolution)
        hits = 0
        sizes_exact = True
        for trial in range(100):
            result = estimate_distance(oracle, word, accuracy, master ^ trial)
            sizes_exact &= result.first_size == first_formula
            sizes_exact &= result.second_size == ceil_scaled_log(
                resolution**2, Fraction(40 * k * result.intervals)
            )
            if abs(clamped(result.raw) - truth) <= accuracy:
                hits += 1
        ok = hits >= 90 and sizes_exact
        passed &= ok
        parts.append(f"{label}: {hits}/100 (truth {float(truth):.4f})")
    elapsed = time.perf_counter() - start
    passed &= elapsed < 600
    announce(
        capsys, 6, passed,
        "success rate >= 90/100 at accuracy 0.15, phase sizes exact, "
        f"{elapsed:.1f}s of 600s; " + ", ".join(parts),
    )
    assert passed


def test_criterion_07_good_event_frequencies(capsys):
    """Both good-sample events hold often enough at production sample
    sizes, and every bound they imply holds exactly whenever they do."""
    start = time.perf_counter()
    report = event_diagnostics(
        periodic_text(1000, 2),
        identity_word(2),
        Distribution.uniform(1000),
        Fraction(1, 2),
        200,
        700,
    )
    elapsed = time.perf_counter() - start
    first_ok = report["first_event_hits"] >= 160
    second_ok = report["second_event_hits"] >= 180
    bounds_ok = (
        report["light_weight_violations"] == 0
        and report["density_bound_violations"] == 0
    )
    samples_ok = report["first_sample"] == 550_661
    passed = first_ok and second_ok and bounds_ok and samples_ok
    announce(
        capsys, 7, passed,
        f"first event {report['first_event_hits']}/200 (need 160), "
        f"second event {report['second_event_hits']}/200 (need 180), "
        f"violations {report['light_weight_violations']}+"
        f"{report['density_bound_violations']} (need 0), "
        f"first-phase draws {report['first_sample']} ({elapsed:.1f}s)",
    )
    assert passed


def test_criterion_08_reduction_identities(capsys):
    """Splitting, separator rewrite, and weight quantization all shift
    the distance exactly as claimed, verified against an independent
    branch-and-prune oracle on 500 small rational instances."""
    rng = np.random.default_rng(800)
    instances = 500
    split_ok = half_ok = shift_ok = cap_ok = 0
    start = time.perf_counter()
    for _ in range(instances):
        n = int(rng.integers(1, 11))
        text = random_text_ids(rng, n, 3)
        denominator = int(rng.integers(n, 41))
        dist = Distribution.from_fractions(
            positive_rational_weights(rng, n, denominator)
        )
        # expansion by weight multiplicities preserves the distance for
        # words without adjacent equal symbols
        word_rf = random_repeat_free_word(rng, int(rng.integers(1, 4)), 3)
        base = Fraction(1, dist.common_denominator())
        expanded = expand_text(text, dist, base).expanded
        if uniform_distance(expanded, word_rf) == branching_distance(
            text, word_rf, dist.fractions
        ):
            split_ok += 1
        # separator rewrite halves the distance of the quantized weights
        word = random_word_ids(rng, int(rng.integers(1, 4)), 3)
        resolution = interval_resolution(word.k, Fraction(1, 2))
        step = quantization_step(n, resolution)
        quant = quantize_weights(dist, step)
        sep_text, sep_word, sep_dist = interleave_sentinel(
            text, word, quant.normalized
        )
        if 2 * branching_distance(
            sep_text, sep_word, sep_dist.fractions
        ) == branching_distance(text, word, quant.normalized.fractions):
            half_ok += 1
        # quantization moves the distance by at most its L1 error,
        # itself capped by twice the step budget
        shift = abs(
            branching_distance(text, word, dist.fractions)
            - branching_distance(text, word, quant.normalized.fractions)
        )
        if shift <= quant.l1_error:
            shift_ok += 1
        if quant.l1_error <= 2 * Fraction(1, 16) / resolution:
            cap_ok += 1
    elapsed = time.perf_counter() - start
    passed = split_ok == half_ok == shift_ok == cap_ok == instances
    announce(
        capsys, 8, passed,
        f"splitting {split_ok}/{instances}, halving {half_ok}/{instances}, "
        f"quantization shift {shift_ok}/{instances}, L1 cap "
        f"{cap_ok}/{instances}, all exact ({elapsed:.1f}s)",
    )
    assert passed


def test_criterion_09_lowerbound_concentration(capsys):
    """Copy counts of the two hard block ensembles concentrate on the
    correct sides of their thresholds."""
    start = time.perf_counter()
    report = concentration_experiment(2, Fraction(1, 100), 1_100_000, 100, 900)
    elapsed = time.perf_counter() - start
    passed = (
        report["base_hits"] >= 95
        and report["shifted_hits"] >= 95
        and elapsed < 300
    )
    announce(
        capsys, 9, passed,
        f"base >= 272250 in {report['base_hits']}/100, "
        f"shifted <= 243375 in {report['shifted_hits']}/100 "
        f"(need 95 each; {elapsed:.1f}s, limit 300s)",
    )
    assert passed


def test_criterion_10_cli_determinism(capsys, tmp_path):
    """Identical configuration and seed produce byte-identical reports,
    across independent invocations and in the written file."""
    text_file = tmp_path / "t.txt"
    text_file.write_text(" ".join(["a", "b"] * 30))
    word_file = tmp_path / "w.txt"
    word_file.write_text("a b")
    out_file = tmp_path / "r.json"

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    checks = []
    df_argv = ["estimate-df", "--text", str(text_file), "--word", str(word_file),
               "--delta", "0.5", "--seed", "42", "--out", str(out_file)]
    code1, out1 = run(df_argv)
    file1 = out_file.read_text()
    code2, out2 = run(df_argv)
    checks.append(code1 == code2 == 0)
    checks.append(out1 == out2)
    checks.append(file1 == out1)
    checks.append(json.loads(out1)["seed"] == 42)

    lb_argv = ["lowerbound", "--kd", "2", "--delta", "0.01", "--n", "4000",
               "--trials", "3", "--seed", "5"]
    _, lb1 = run(lb_argv)
    _, lb2 = run(lb_argv)
    checks.append(lb1 == lb2)

    sweep_argv = ["sweep", "--text", str(text_file), "--word", str(word_file),
                  "--estimator", "uniform", "--deltas", "0.3,0.5",
                  "--trials", "3", "--seed", "8"]
    _, sw1 = run(sweep_argv)
    _, sw2 = run(sweep_argv)
    checks.append(sw1 == sw2)

    passed = all(checks)
    announce(
        capsys, 10, passed,
        "byte-identical stdout across repeated runs of estimate-df, "
        "lowerbound, and sweep; --out file matches stdout",
    )
    assert passed
