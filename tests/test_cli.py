"""End-to-end command line behavior: output schema, exit codes, and
byte-level determinism."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from seqfree.core import Text, UniformSampler, Word
from seqfree.harness import experiments
from seqfree.harness.cli import main
from seqfree.exact import bruteforce_distance
from seqfree.harness.experiments import concentration_experiment, fraction_str
from seqfree.harness.fileio import load_text, load_weights, load_word
from seqfree.harness.generators import random_text
from seqfree.uniform import estimate_distance_uniform


@pytest.fixture()
def instance(tmp_path):
    text = tmp_path / "text.txt"
    text.write_text(" ".join(["a", "b"] * 30) + "\n")
    word = tmp_path / "word.txt"
    word.write_text("a b\n")
    return {"text": str(text), "word": str(word), "dir": tmp_path}


PINS = Path(__file__).parent / "data" / "cli_pins"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tiny_weight_instance(tmp_path):
    """Four positions, one of weight 1e-400: the common denominator has
    about 400 digits."""
    text = tmp_path / "tiny_text.txt"
    text.write_text("a b a b\n")
    word = tmp_path / "tiny_word.txt"
    word.write_text("a b\n")
    weights = tmp_path / "tiny_weights.txt"
    weights.write_text("1e-400\n0.5\n0.25\n0.25\n")
    return str(text), str(word), str(weights)


def tiny_weight_truth(text_path, word_path, weights_path) -> str:
    """Exhaustive-search distance of the instance, as the CLI prints it."""
    text = load_text(text_path)
    word = load_word(word_path, text.alphabet)
    truth = bruteforce_distance(text, word, load_weights(weights_path, text.n))
    return fraction_str(truth)


class TestExactCommand:
    def test_uniform_weights_output(self, instance, capsys):
        code, out, err = run_cli(
            ["exact", "--text", instance["text"], "--word", instance["word"]],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["command"] == "exact"
        assert payload["n"] == 60 and payload["k"] == 2
        assert payload["copies"] == 30
        assert payload["distance"] == "1/2"
        assert payload["distance_float"] == 0.5

    def test_weighted_output(self, instance, capsys):
        weights = instance["dir"] / "p.txt"
        weights.write_text("\n".join(["1/60"] * 60))
        code, out, _ = run_cli(
            ["exact", "--text", instance["text"], "--word", instance["word"],
             "--weights", str(weights)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == "file"
        assert payload["distance"] == "1/2"
        assert "copies" not in payload

    def test_tiny_weight_is_exact(self, tmp_path, capsys):
        text, word, weights = write_tiny_weight_instance(tmp_path)
        code, out, err = run_cli(
            ["exact", "--text", text, "--word", word, "--weights", weights],
            capsys,
        )
        assert code == 0 and err == ""
        assert json.loads(out)["distance"] == tiny_weight_truth(text, word, weights)

    def test_empty_text_is_two(self, instance, capsys):
        empty = instance["dir"] / "empty.txt"
        empty.write_text("")
        code, out, err = run_cli(
            ["exact", "--text", str(empty), "--word", instance["word"]], capsys
        )
        assert code == 2 and out == ""
        assert "distance is undefined" in err


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, instance, capsys):
        argv = ["estimate-df", "--text", instance["text"],
                "--word", instance["word"], "--delta", "0.5", "--seed", "3"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    def test_out_file_matches_stdout(self, instance, capsys):
        target = instance["dir"] / "report.json"
        argv = ["estimate-uniform", "--text", instance["text"],
                "--word", instance["word"], "--delta", "0.4",
                "--seed", "9", "--out", str(target)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert target.read_text() == out


    @pytest.mark.parametrize("pin, argv", [
        ("exact", ["exact"]),
        ("sweep-uniform", ["sweep", "--estimator", "uniform", "--deltas", "0.3,0.5",
                           "--trials", "2", "--seed", "3"]),
        ("sweep-df", ["sweep", "--estimator", "df", "--deltas", "0.5",
                      "--trials", "2", "--seed", "3"]),
        ("diagnose-events", ["diagnose-events", "--delta", "0.5", "--trials", "2",
                             "--seed", "3"]),
        # Resolution 400/399 leaves 660 first-phase draws, and trial seed
        # 64633 misses the first event, so its failing branch is pinned too.
        ("diagnose-events-relaxed", ["diagnose-events", "--delta", "0.5", "--trials", "2",
                                     "--seed", "64633", "--relaxed-constants", "399"]),
        ("estimate-uniform", ["estimate-uniform", "--delta", "0.3", "--seed", "3"]),
        ("estimate-uniform-repeats", ["estimate-uniform", "--delta", "0.3", "--seed", "3",
                                      "--repeats", "3"]),
        ("estimate-df", ["estimate-df", "--delta", "0.5", "--seed", "3"]),
        ("estimate-df-weights", ["estimate-df", "--delta", "0.5", "--seed", "3",
                                 "--weights", "weights.txt", "--repeats", "3"]),
        ("estimate-df-relaxed", ["estimate-df", "--delta", "0.5", "--seed", "3",
                                 "--relaxed-constants", "10"]),
        ("estimate-df-wc", ["estimate-df-wc", "--delta", "0.5", "--seed", "3",
                            "--weights", "weights.txt"]),
    ])
    def test_outputs_match_pinned_bytes(self, pin, argv, tmp_path, capsys, monkeypatch):
        # Pinned reports of an eight-position instance, so that a change
        # which keeps runs repeatable but moves their output is caught.
        # Weighted runs read `weights.txt` from the instance's directory.
        monkeypatch.chdir(tmp_path)
        text, word = tmp_path / "text.txt", tmp_path / "word.txt"
        text.write_text("a b a b b a a b\n")
        word.write_text("a b\n")
        (tmp_path / "weights.txt").write_text("1/16\n1/16\n1/8\n1/8\n1/4\n1/8\n1/8\n1/8\n")
        jsonl = tmp_path / "trials.jsonl"
        argv = argv + ["--text", str(text), "--word", str(word)]
        if pin == "sweep-df":
            argv += ["--jsonl", str(jsonl)]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert out == (PINS / f"{pin}.out").read_text()
        if pin == "sweep-df":
            assert jsonl.read_text() == (PINS / "sweep-df.jsonl").read_text()


class TestExitCodes:
    def test_success_is_zero(self, instance, capsys):
        code, _, _ = run_cli(
            ["exact", "--text", instance["text"], "--word", instance["word"]],
            capsys,
        )
        assert code == 0

    def test_unknown_flag_is_two(self, instance, capsys):
        code, _, _ = run_cli(["exact", "--nonsense"], capsys)
        assert code == 2

    def test_relaxed_constants_only_where_read(self, instance, capsys):
        # exact, estimate-uniform and lowerbound never read the estimator
        # constants, nor does the uniform sweep
        files = ["--text", instance["text"], "--word", instance["word"]]
        for argv in (
            ["exact"] + files,
            ["estimate-uniform", "--delta", "0.5"] + files,
            ["lowerbound", "--kd", "2", "--delta", "0.01", "--n", "4000",
             "--trials", "1"],
            ["sweep", "--estimator", "uniform", "--deltas", "0.5",
             "--trials", "1"] + files,
        ):
            code, out, err = run_cli(argv + ["--relaxed-constants", "10"], capsys)
            assert code == 2 and out == "" and err, argv[0]

    def test_fewer_than_one_repeat_is_two(self, instance, capsys):
        files = ["--text", instance["text"], "--word", instance["word"]]
        for repeats in ("0", "-1"):
            code, out, err = run_cli(
                ["estimate-uniform", "--delta", "0.5", "--repeats", repeats] + files, capsys)
            assert code == 2 and out == "" and err.startswith("error:"), repeats

    def test_unreachable_sample_size_is_two(self, instance, capsys):
        # accuracies whose sample sizes overflow a float or int64
        files = ["--text", instance["text"], "--word", instance["word"]]
        for argv in (
            ["estimate-uniform", "--delta", "1e-400"],
            ["sweep", "--estimator", "uniform", "--deltas", "1e-400", "--trials", "1"],
            ["estimate-df", "--delta", "1e-400"],
            ["diagnose-events", "--delta", "1e-400", "--trials", "1"],
            ["sweep", "--estimator", "df", "--deltas", "1e-400", "--trials", "1"],
            ["estimate-df", "--delta", "1e-8"],
            ["estimate-df", "--delta", "0.5", "--relaxed-constants", "1e-300"],
        ):
            code, out, err = run_cli(argv + files, capsys)
            assert code == 2 and out == "" and err.startswith("error:"), argv

    def test_help_is_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_config_error_is_two(self, instance, capsys):
        # specialized estimator rejects words with adjacent repeats
        repeat_word = instance["dir"] / "ww.txt"
        repeat_word.write_text("a a")
        code, out, err = run_cli(
            ["estimate-df-wc", "--text", instance["text"],
             "--word", str(repeat_word), "--delta", "0.5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_bad_delta_is_two(self, instance, capsys):
        files = ["--text", instance["text"], "--word", instance["word"]]
        for delta in ("zero", "1/0"):
            for argv in (
                ["estimate-uniform", "--delta", delta] + files,
                ["estimate-df", "--delta", delta] + files,
                ["estimate-df-wc", "--delta", delta] + files,
                ["diagnose-events", "--delta", delta, "--trials", "1"] + files,
                ["sweep", "--estimator", "df", "--deltas", delta, "--trials", "1"]
                + files,
                ["lowerbound", "--kd", "2", "--delta", delta, "--n", "4000",
                 "--trials", "1"],
            ):
                code, out, err = run_cli(argv, capsys)
                assert code == 2 and out == "" and err.startswith("error:"), argv

    def test_missing_file_is_three(self, instance, capsys):
        code, _, err = run_cli(
            ["exact", "--text", str(instance["dir"] / "absent.txt"),
             "--word", instance["word"]],
            capsys,
        )
        assert code == 3 and "error:" in err

    def test_failed_output_write_is_three_with_no_report(self, instance, capsys):
        absent = str(instance["dir"] / "absent" / "r.json")
        files = ["--text", instance["text"], "--word", instance["word"]]
        for argv in (
            ["exact", "--out", absent] + files,
            ["sweep", "--estimator", "df", "--deltas", "0.5", "--trials", "1",
             "--jsonl", absent] + files,
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 3 and out == "" and err.startswith("error:"), argv


class TestEstimateCommands:
    def test_uniform_matches_library_call(self, instance, capsys):
        code, out, _ = run_cli(
            ["estimate-uniform", "--text", instance["text"],
             "--word", instance["word"], "--delta", "0.3", "--seed", "7"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        text = Text.from_tokens(["a", "b"] * 30)
        word = Word.from_tokens(["a", "b"], text.alphabet)
        direct = estimate_distance_uniform(
            UniformSampler(text), word, Fraction(3, 10), 7
        )
        assert payload["raw"] == f"{direct.raw.numerator}/{direct.raw.denominator}"
        assert payload["estimate"] == direct.estimate
        assert payload["samples"] == direct.sample_size == 1097
        assert payload["repeats"] == 1

    @pytest.mark.parametrize("tokens", ["a a a", "a"])
    def test_uniform_repeat_word_on_a_short_text_is_within_delta(self, tokens, tmp_path, capsys):
        # Every prefix length is a grid column here, and the draws at one
        # position must not serve both roles of "a a".
        text, word = tmp_path / "text.txt", tmp_path / "word.txt"
        text.write_text(tokens + "\n")
        word.write_text("a a\n")
        files = ["--text", str(text), "--word", str(word)]
        _, out, _ = run_cli(["exact"] + files, capsys)
        truth = Fraction(json.loads(out)["distance"])
        for seed in range(5):
            code, out, _ = run_cli(["estimate-uniform", "--delta", "0.3", "--seed", str(seed)]
                                   + files, capsys)
            assert code == 0
            assert abs(Fraction(json.loads(out)["raw"]) - truth) <= Fraction(3, 10), seed

    def test_df_single_run_fields(self, instance, capsys):
        code, out, _ = run_cli(
            ["estimate-df", "--text", instance["text"],
             "--word", instance["word"], "--delta", "0.5", "--seed", "2"],
            capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["weights"] == "uniform"
        assert payload["samples"]["total"] == (
            payload["samples"]["first"] + payload["samples"]["second"]
        )
        assert payload["intervals"] >= 1
        assert 0.0 <= payload["estimate"] <= 1.0

    def test_df_median_of_three(self, instance, capsys):
        code, out, _ = run_cli(
            ["estimate-df", "--text", instance["text"],
             "--word", instance["word"], "--delta", "0.5",
             "--seed", "2", "--repeats", "3"],
            capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["repeats"] == 3
        assert len(payload["runs"]) == 3
        raws = sorted(
            Fraction(*map(int, r["raw"].split("/"))) for r in payload["runs"]
        )
        assert payload["raw"] == f"{raws[1].numerator}/{raws[1].denominator}"
        assert payload["samples_total"] == sum(
            r["samples"]["total"] for r in payload["runs"]
        )

    def test_repeated_runs_are_the_runs_of_the_xored_seeds(self, instance, capsys):
        # Run r of `--repeats 3 --seed 5` is the single run of `--seed 5^r`.
        files = ["--text", instance["text"], "--word", instance["word"], "--delta", "0.3"]
        code, out, _ = run_cli(["estimate-uniform", "--seed", "5", "--repeats", "3"] + files,
                               capsys)
        assert code == 0
        runs = json.loads(out)["runs"]
        assert [run["seed"] for run in runs] == [5, 4, 7]
        for run in runs:
            code, out, _ = run_cli(["estimate-uniform", "--seed", str(run["seed"])] + files,
                                   capsys)
            assert code == 0
            single = json.loads(out)
            assert run == {key: single[key] for key in run}
            assert set(run) == {"seed", "estimate", "raw", "samples"}

    def test_wc_agrees_with_general_on_repeat_free_word(self, instance, capsys):
        base = ["--text", instance["text"], "--word", instance["word"],
                "--delta", "0.5", "--seed", "4"]
        _, out_general, _ = run_cli(["estimate-df"] + base, capsys)
        _, out_wc, _ = run_cli(["estimate-df-wc"] + base, capsys)
        general = json.loads(out_general)
        wc = json.loads(out_wc)
        assert general["raw"] == wc["raw"]
        assert wc["command"] == "estimate-df-wc"

    def test_relaxed_constants_echoed(self, instance, capsys):
        files = ["--text", instance["text"], "--word", instance["word"], "--delta", "0.5"]
        for command in ("estimate-df", "estimate-df-wc"):
            code, out, _ = run_cli([command, "--relaxed-constants", "50"] + files, capsys)
            payload = json.loads(out)
            assert code == 0
            assert payload["off_spec_constants"] is True
            assert payload["relaxed_constants"] == 50.0
            # At factor 1 the constants are the production ones: no label.
            for flag in (["--relaxed-constants", "1"], []):
                code, out, _ = run_cli([command] + flag + files, capsys)
                payload = json.loads(out)
                assert code == 0, command
                assert "off_spec_constants" not in payload
                assert "relaxed_constants" not in payload


class TestSweepCommand:
    def test_sweep_with_truth_and_jsonl(self, instance, capsys):
        lines_file = instance["dir"] / "trials.jsonl"
        code, out, _ = run_cli(
            ["sweep", "--text", instance["text"], "--word", instance["word"],
             "--estimator", "uniform", "--deltas", "0.4,0.5",
             "--trials", "3", "--seed", "1", "--jsonl", str(lines_file)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sweep"
        assert payload["truth"] == "1/2"
        assert [row["accuracy"] for row in payload["rows"]] == [0.4, 0.5]
        lines = [json.loads(l) for l in lines_file.read_text().splitlines()]
        assert len(lines) == 6
        assert {line["accuracy"] for line in lines} == {0.4, 0.5}
        assert all("estimate" in line for line in lines)

    def test_sweep_df_tiny_weight_has_exact_truth(self, tmp_path, capsys):
        text, word, weights = write_tiny_weight_instance(tmp_path)
        code, out, err = run_cli(
            ["sweep", "--text", text, "--word", word, "--weights", weights,
             "--estimator", "df", "--deltas", "0.5", "--trials", "1"],
            capsys,
        )
        assert code == 0 and err == ""
        assert json.loads(out)["truth"] == tiny_weight_truth(text, word, weights)

    def test_unweighted_df_trial_is_the_estimate_df_run(self, tmp_path, capsys):
        # Phase two draws 96 of 1,000 positions, at most n/4, which the
        # unweighted sampler draws sparsely: trial t must draw as
        # `estimate-df --seed 3^t` does.
        text, word = tmp_path / "text.txt", tmp_path / "word.txt"
        text.write_text(" ".join(map(str, random_text(1000, 3, 1).ids.tolist())) + "\n")
        word.write_text("1 2\n")
        instance = ["--text", str(text), "--word", str(word), "--relaxed-constants", "100"]
        code, out, err = run_cli(
            ["sweep", "--estimator", "df", "--deltas", "0.5", "--trials", "2",
             "--seed", "3"] + instance,
            capsys,
        )
        assert code == 0 and err == ""
        trials = json.loads(out)["rows"][0]["results"]
        assert len(trials) == 2
        for t, trial in enumerate(trials):
            assert trial["samples"]["second"] * 4 <= 1000
            code, out, err = run_cli(
                ["estimate-df", "--delta", "0.5", "--seed", str(3 ^ t)] + instance, capsys)
            assert code == 0 and err == ""
            assert json.loads(out)["raw"] == trial["raw"]

    def test_sweep_zero_trials(self, instance, capsys):
        code, out, _ = run_cli(
            ["sweep", "--text", instance["text"], "--word", instance["word"],
             "--estimator", "df", "--deltas", "0.5", "--trials", "0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["results"] == []

    def test_sweep_empty_deltas_is_config_error(self, instance, capsys):
        code, _, err = run_cli(
            ["sweep", "--text", instance["text"], "--word", instance["word"],
             "--estimator", "uniform", "--deltas", "", "--trials", "1"],
            capsys,
        )
        assert code == 2 and "error:" in err


class TestLowerboundCommand:
    def test_matches_library_experiment(self, capsys):
        code, out, _ = run_cli(
            ["lowerbound", "--kd", "2", "--delta", "0.01", "--n", "4000",
             "--trials", "2", "--seed", "5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        direct = concentration_experiment(2, Fraction(1, 100), 4000, 2, 5)
        assert payload["base_hits"] == direct["base_hits"]
        assert payload["shifted_hits"] == direct["shifted_hits"]
        assert payload["thresholds"] == direct["thresholds"]
        assert payload["command"] == "lowerbound"

    def test_invalid_ensemble_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["lowerbound", "--kd", "2", "--delta", "0.3", "--n", "4000",
             "--trials", "1"],
            capsys,
        )
        assert code == 2 and "error:" in err


class TestDiagnoseCommand:
    @pytest.mark.parametrize("weights, sampler", [
        (False, "UniformSampler"), (True, "WeightedSampler")])
    def test_draws_from_the_estimate_df_sampler(self, instance, weights, sampler,
                                                 capsys, monkeypatch):
        # Without `--weights`, `estimate-df` draws from the uniform sampler,
        # which draws a phase of at most n/4 positions sparsely.
        drawn_from = []

        def recording(oracle, *args, **kwargs):
            drawn_from.append(type(oracle).__name__)
            return sample_phases(oracle, *args, **kwargs)

        sample_phases = experiments.sample_phases
        monkeypatch.setattr(experiments, "sample_phases", recording)
        argv = ["diagnose-events", "--text", instance["text"], "--word", instance["word"],
                "--delta", "0.5", "--trials", "2", "--relaxed-constants", "50"]
        if weights:
            path = instance["dir"] / "weights.txt"
            path.write_text("1/60\n" * 60)
            argv += ["--weights", str(path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert drawn_from == [sampler, sampler]

    def test_smoke(self, instance, capsys):
        code, out, _ = run_cli(
            ["diagnose-events", "--text", instance["text"],
             "--word", instance["word"], "--delta", "0.5", "--trials", "2",
             "--relaxed-constants", "50", "--seed", "6"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "diagnose-events"
        assert payload["light_weight_violations"] == 0
        assert payload["density_bound_violations"] == 0
        assert payload["off_spec_constants"] is True
