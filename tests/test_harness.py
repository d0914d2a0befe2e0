"""Generators, experiments, and file plumbing of the test harness."""

import json
from fractions import Fraction

import numpy as np
import pytest

from seqfree.core import Distribution, Text
from seqfree.distfree import DEFAULT_CONSTANTS
from seqfree.exact import bruteforce_distance, copy_count, greedy_copies, uniform_distance
from seqfree.harness.experiments import (
    concentration_experiment,
    estimator_sweep,
    event_diagnostics,
    fraction_str,
    median_low,
    spread_seeds,
    trial_seeds,
)
from seqfree.harness.fileio import (
    canonical_json,
    load_text,
    load_weights,
    load_word,
    parse_weight,
    write_jsonl,
    write_report,
)
from seqfree.harness.generators import (
    block_ensemble_text,
    blockwise_text,
    identity_word,
    lowerbound_premises,
    lowerbound_rates,
    periodic_text,
    random_rational_weights,
    random_text,
    random_word,
)


class TestBasicGenerators:
    def test_identity_word(self):
        assert identity_word(3).ids.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            identity_word(0)

    def test_periodic_text(self):
        assert periodic_text(7, 3).ids.tolist() == [1, 2, 3, 1, 2, 3, 1]
        assert periodic_text(4, 1).ids.tolist() == [1, 1, 1, 1]

    def test_blockwise_text(self):
        assert blockwise_text(7, 3).ids.tolist() == [1, 1, 1, 2, 2, 3, 3]
        assert blockwise_text(6, 2).ids.tolist() == [1, 1, 1, 2, 2, 2]

    def test_interleaved_and_blocked_texts_have_equal_distance(self):
        # same symbol multiset, very different order, same distance
        for n, k in [(12, 2), (12, 3), (12, 4), (20, 5), (9, 3)]:
            w = identity_word(k)
            a = uniform_distance(periodic_text(n, k), w)
            b = uniform_distance(blockwise_text(n, k), w)
            assert a == b == Fraction(n // k, n)

    def test_random_text_deterministic(self):
        a = random_text(50, 3, 9)
        b = random_text(50, 3, 9)
        assert np.array_equal(a.ids, b.ids)
        assert a.ids.min() >= 1 and a.ids.max() <= 3

    def test_random_word_repeat_free_mode(self):
        for seed in range(20):
            w = random_word(6, 3, seed, adjacent_repeats=False)
            assert not w.has_adjacent_repeat
        with pytest.raises(ValueError):
            random_word(2, 1, 0, adjacent_repeats=False)


class TestBlockEnsemble:
    def test_all_filler_heads_kill_every_copy(self):
        t = block_ensemble_text(8, 2, 1, 3)
        assert t.ids.tolist() == [3, 2, 3, 2, 3, 2, 3, 2]
        assert copy_count(t, identity_word(2)) == 0

    def test_no_filler_heads_give_maximal_copies(self):
        t = block_ensemble_text(8, 2, 0, 3)
        assert t.ids.tolist() == [1, 2, 1, 2, 1, 2, 1, 2]
        assert copy_count(t, identity_word(2)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            block_ensemble_text(7, 2, Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            block_ensemble_text(8, 2, Fraction(3, 2), 0)

    def test_rates(self):
        base, shifted = lowerbound_rates(2, Fraction(1, 100))
        assert base == Fraction(1, 2)
        assert shifted == Fraction(14, 25)
        with pytest.raises(ValueError):
            lowerbound_rates(2, Fraction(1, 5))

    def test_premises(self):
        # the headline concentration configuration satisfies the size
        # premise but not the stricter gap cap; both are reported
        flags = lowerbound_premises(2, Fraction(1, 100), 1_100_000)
        assert flags == {"gap_premise": False, "size_premise": True}
        flags = lowerbound_premises(2, Fraction(1, 600), 40_000_000)
        assert flags == {"gap_premise": True, "size_premise": True}
        assert lowerbound_premises(2, 0, 10)["size_premise"] is False


class TestRationalWeights:
    def test_spread_sums_to_one(self, rng):
        for seed in range(10):
            d = random_rational_weights(17, 300, seed)
            assert sum(d.fractions) == 1
            assert all(w.denominator <= 300 for w in d.fractions)
            again = random_rational_weights(17, 300, seed)
            assert d.fractions == again.fractions

    def test_pointmass_shape(self):
        d = random_rational_weights(20, 99_990, 4, kind="pointmass")
        heavy = [w for w in d.fractions if w == Fraction(9, 10)]
        assert len(heavy) == 1
        assert sum(d.fractions) == 1

    def test_pointmass_validation(self):
        with pytest.raises(ValueError):
            random_rational_weights(1, 100, 0, kind="pointmass")
        with pytest.raises(ValueError):
            random_rational_weights(5, 7, 0, kind="pointmass")
        with pytest.raises(ValueError):
            random_rational_weights(5, 100, 0, kind="nonsense")


class TestTrialHelpers:
    def test_trial_seeds(self):
        assert trial_seeds(12, 4) == [12, 13, 14, 15]

    def test_spread_seeds_single_repeat_is_identity(self):
        assert spread_seeds(7, 1) == [7]

    def test_spread_seeds_many(self):
        a = spread_seeds(7, 3)
        assert a == spread_seeds(7, 3)
        assert len(set(a)) == 3
        with pytest.raises(ValueError):
            spread_seeds(7, 0)

    def test_median_low(self):
        assert median_low([3, 1, 2]) == 2
        assert median_low([4, 1, 3, 2]) == 2
        assert median_low([5]) == 5
        with pytest.raises(ValueError):
            median_low([])

    def test_fraction_str_reduced(self):
        assert fraction_str(Fraction(5, 20)) == "1/4"
        assert fraction_str(Fraction(3)) == "3/1"


class TestEstimatorSweep:
    def test_zero_trials_is_valid_and_empty(self):
        t = periodic_text(100, 2)
        w = identity_word(2)
        report = estimator_sweep("uniform", t, w, [Fraction(1, 2)], 0, 7)
        assert report["rows"][0]["results"] == []
        assert "successes" not in report["rows"][0]
        assert report["truth"] == "1/2"
        json.loads(canonical_json(report))

    def test_uniform_statistical(self):
        t = periodic_text(2000, 2)
        w = identity_word(2)
        report = estimator_sweep("uniform", t, w, [Fraction(3, 10)], 10, 0)
        row = report["rows"][0]
        assert row["successes"] >= 9
        assert all(r["samples"]["draws"] == 1097 for r in row["results"])
        assert report["weights"] == "uniform"
        assert "off_spec_constants" not in report

    def test_uniform_rejects_weights(self):
        t = periodic_text(10, 2)
        with pytest.raises(ValueError):
            estimator_sweep(
                "uniform", t, identity_word(2), [Fraction(1, 2)], 1, 0,
                dist=Distribution.uniform(10),
            )

    def test_df_exact_weights(self):
        t = periodic_text(20, 2)
        w = identity_word(2)
        d = random_rational_weights(20, 100, 5)
        report = estimator_sweep("df", t, w, [Fraction(1, 2)], 3, 1, dist=d)
        row = report["rows"][0]
        assert report["weights"] == "exact"
        assert report["truth"] is not None
        assert {"successes", "success_rate", "mean_abs_error"} <= row.keys()
        for r in row["results"]:
            assert r["samples"]["total"] == (
                r["samples"]["first"] + r["samples"]["second"]
            )

    def test_df_float_weights_get_exact_truth(self):
        t = periodic_text(12, 2)
        w = identity_word(2)
        d = Distribution.from_fractions(np.full(12, 1.0 / 12))
        report = estimator_sweep("df", t, w, [Fraction(1, 2)], 2, 1, dist=d)
        assert report["weights"] == "exact"
        assert report["truth"] == "1/2"
        assert report["rows"][0]["successes"] == 2
        assert all(r["truth"] == "1/2" for r in report["rows"][0]["results"])

    def test_df_huge_denominator_has_exact_truth(self):
        t = periodic_text(2, 2)
        w = identity_word(2)
        prime = 10_000_019
        d = Distribution.from_fractions(
            [Fraction(1, prime), Fraction(prime - 1, prime)]
        )
        report = estimator_sweep("df", t, w, [Fraction(1, 2)], 1, 0, dist=d)
        assert report["weights"] == "exact"
        assert report["truth"] == fraction_str(bruteforce_distance(t, w, d))
        assert report["rows"][0]["results"][0]["truth"] == report["truth"]

    def test_relaxed_constants_flagged(self):
        t = periodic_text(20, 2)
        w = identity_word(2)
        report = estimator_sweep(
            "df", t, w, [Fraction(1, 2)], 1, 0,
            constants=DEFAULT_CONSTANTS.relaxed(50),
        )
        assert report["off_spec_constants"] is True

    def test_validation(self):
        t = periodic_text(10, 2)
        w = identity_word(2)
        with pytest.raises(ValueError):
            estimator_sweep("nope", t, w, [Fraction(1, 2)], 1, 0)
        with pytest.raises(ValueError):
            estimator_sweep("uniform", t, w, [Fraction(1, 2)], -1, 0)
        with pytest.raises(ValueError):
            estimator_sweep("uniform", t, w, [Fraction(3, 2)], 1, 0)
        with pytest.raises(ValueError):
            estimator_sweep(
                "uniform", t, w, [Fraction(1, 2)], 1, 0,
                constants=DEFAULT_CONSTANTS.relaxed(10),
            )

    def test_deterministic(self):
        t = periodic_text(200, 2)
        w = identity_word(2)
        a = estimator_sweep("uniform", t, w, [Fraction(1, 2)], 3, 9)
        b = estimator_sweep("uniform", t, w, [Fraction(1, 2)], 3, 9)
        assert canonical_json(a) == canonical_json(b)


class TestConcentrationExperiment:
    def test_structure_and_determinism(self):
        a = concentration_experiment(2, Fraction(1, 100), 4000, 3, 5)
        b = concentration_experiment(2, Fraction(1, 100), 4000, 3, 5)
        assert canonical_json(a) == canonical_json(b)
        assert 0 <= a["base_hits"] <= 3
        assert 0 <= a["shifted_hits"] <= 3
        assert a["filler_rates"] == [0.5, 0.56]
        assert a["thresholds"]["base_floor"] == "990/1"
        assert a["premises"]["size_premise"] is False

    def test_zero_trials(self):
        report = concentration_experiment(2, Fraction(1, 100), 4000, 0, 5)
        assert report["base_hits"] == 0
        assert "base_success_rate" not in report

    def test_zero_gap_collapses_both_ensembles(self):
        report = concentration_experiment(2, 0, 400, 2, 8)
        assert report["filler_rates"] == [0.5, 0.5]

    def test_greedy_matches_recursion_on_ensemble_draw(self):
        word = identity_word(2)
        t = block_ensemble_text(4000, 2, Fraction(1, 2), 17)
        assert greedy_copies(t, word).count == copy_count(t, word)


class TestEventDiagnostics:
    def _instance(self):
        t = periodic_text(40, 2)
        return t, identity_word(2), Distribution.uniform(40)

    def test_smoke_with_relaxed_constants(self):
        t, w, d = self._instance()
        report = event_diagnostics(
            t, w, d, Fraction(1, 2), 3, 0, DEFAULT_CONSTANTS.relaxed(50)
        )
        assert report["trials"] == 3
        assert 0 <= report["first_event_hits"] <= 3
        assert 0 <= report["second_event_hits"] <= 3
        # the bounds those events imply must never be violated
        assert report["light_weight_violations"] == 0
        assert report["density_bound_violations"] == 0
        assert report["off_spec_constants"] is True
        assert report["second_sample_range"][0] >= 1

    def test_deterministic(self):
        t, w, d = self._instance()
        kwargs = dict(constants=DEFAULT_CONSTANTS.relaxed(50))
        a = event_diagnostics(t, w, d, Fraction(1, 2), 2, 3, **kwargs)
        b = event_diagnostics(t, w, d, Fraction(1, 2), 2, 3, **kwargs)
        assert canonical_json(a) == canonical_json(b)

    def test_zero_trials(self):
        t, w, d = self._instance()
        report = event_diagnostics(
            t, w, d, Fraction(1, 2), 0, 0, DEFAULT_CONSTANTS.relaxed(50)
        )
        assert report["second_sample_range"] is None
        assert "first_event_rate" not in report


class TestFileIO:
    def test_text_and_word_round_trip(self, tmp_path):
        tf = tmp_path / "t.txt"
        tf.write_text("a b a\nc a")
        text = load_text(str(tf))
        assert text.n == 5
        wf = tmp_path / "w.txt"
        wf.write_text("a c")
        word = load_word(str(wf), text.alphabet)
        assert word.k == 2
        assert text.alphabet.token(word.symbol(1)) == "a"
        assert text.alphabet.token(word.symbol(2)) == "c"

    def test_empty_word_rejected(self, tmp_path):
        tf = tmp_path / "t.txt"
        tf.write_text("a b")
        wf = tmp_path / "w.txt"
        wf.write_text("  \n ")
        text = load_text(str(tf))
        with pytest.raises(ValueError):
            load_word(str(wf), text.alphabet)

    def test_weights_both_spellings(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text("1/4\n0.25\n0.5\n")
        d = load_weights(str(pf), 3)
        assert d.fractions == (
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)
        )

    def test_weights_length_mismatch(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text("1/2 1/2")
        with pytest.raises(ValueError):
            load_weights(str(pf), 3)

    def test_bad_weight_tokens(self):
        for token in ("x", "1/0", "", "nan?"):
            with pytest.raises(ValueError):
                parse_weight(token)

    def test_weight_tokens_read_as_fraction_reads_them(self):
        tokens = [
            "3", "+3", "-3", "0", "1_000", "٣", "1/4", "+1/2", "-1/2", "00/07", "1_0/3",
            "1/2_0", "0.25", ".5", "5.", "1e-400", "1E5", "1/-2", "1/+2", "1/0", "0/0",
            "1/2/3", "/3", "3/", "1/2_", "_1/2", "1__0", "²", "1/²", "0x10", "1.5/2",
            "1/2.0", "nan", "NaN", "inf", "-inf", "Infinity", "1e", "+", "x",
            "1" * 4301, "1/" + "1" * 4301,
        ]
        for token in tokens:
            try:
                want = Fraction(token)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(ValueError, match="cannot parse weight"):
                    parse_weight(token)
                continue
            got = parse_weight(token)
            assert got.denominator > 0, token
            assert Fraction(got.numerator, got.denominator) == want, token

    def test_canonical_json_is_stable(self):
        payload = {"b": 1, "a": {"z": [1, 2], "y": None}}
        blob = canonical_json(payload)
        assert blob == canonical_json(dict(payload))
        assert blob.endswith("\n")
        assert blob.index('"a"') < blob.index('"b"')

    def test_write_report_round_trip(self, tmp_path):
        target = tmp_path / "r.json"
        payload = {"x": [1, 2, 3], "y": "1/2"}
        write_report(str(target), payload)
        assert json.loads(target.read_text()) == payload
        assert target.read_text() == canonical_json(payload)

    def test_write_jsonl(self, tmp_path):
        target = tmp_path / "rows.jsonl"
        rows = [{"trial": 0, "v": 1}, {"trial": 1, "v": 2}]
        write_jsonl(str(target), rows)
        lines = target.read_text().splitlines()
        assert [json.loads(line) for line in lines] == rows
