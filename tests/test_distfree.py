"""Distribution-free estimation: sampling parameters, the two partition
constructions, the good-sample events, the separator reassembly, and the
end-to-end estimator with its reduction bounds."""

import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from seqfree import distfree
from seqfree.core import (
    Distribution,
    SampleSet,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    exact_dtype,
    subseed,
)
from seqfree.distfree import (
    DEFAULT_CONSTANTS,
    DensityEstimate,
    IntervalPartition,
    ReferencePartition,
    assemble_sentinel_density,
    densities_well_estimated,
    densities_within,
    estimate_distance,
    estimate_distance_repeat_free,
    exact_sentinel_reference,
    exact_symbol_density,
    exactly_within,
    first_sample_size,
    interleave_partition,
    interval_resolution,
    light_weight_violations,
    quantization_step,
    quantized_numerators,
    sample_phases,
    second_sample_size,
    separator_violations,
    symbol_density_estimate,
    weights_well_estimated,
)
from seqfree.exact import (
    exact_weighted_distance,
    final_measure,
    interleave_sentinel,
    quantize_weights,
)
from seqfree.uniform import PrefixGrid, copies_from_counts
from seqfree.exact import copy_count

from conftest import (
    branching_distance,
    ceil_scaled_log,
    exact_count_matrix,
    positive_rational_weights,
    random_repeat_free_word,
    random_text_ids,
    reference_labels,
    sample_from_counts,
    validate_partition,
)


def text_of(s: str) -> Text:
    return Text.from_tokens(list(s))


def word_of(s: str, text: Text) -> Word:
    return Word.from_tokens(list(s), text.alphabet)


def census(dist: Distribution, text: Text) -> SampleSet:
    """Sample whose empirical weights equal the true weights exactly."""
    d = dist.common_denominator()
    counts = np.array([int(w * d) for w in dist.fractions], dtype=np.int64)
    return sample_from_counts(counts, text)


# Common denominators on either side of the int64 limit. Just below it
# the numerators are int64 but their cross products overflow; above it
# they are Python integers, and no census fits an int64 sample.
NEAR_INT64 = 2**62 + 1
PAST_INT64 = 2**64 + 1


def over_denominator(denom: int, n: int) -> Distribution:
    """n weights with common denominator exactly `denom`: 1/denom first,
    the rest of the mass split as evenly as integers allow."""
    share, extra = divmod(denom - 1, n - 1)
    nums = [1] + [share + (j < extra) for j in range(n - 1)]
    return Distribution.from_fractions([Fraction(m, denom) for m in nums])


def near_census(dist: Distribution, text: Text, size: int = 2**40) -> SampleSet:
    """Sample whose empirical weights are the true weights rounded down
    to multiples of 1/size, then renormalized."""
    counts = np.array([int(w * size) for w in dist.fractions], dtype=np.int64)
    return sample_from_counts(counts, text)


def record_exact_dtypes(monkeypatch) -> list:
    """The dtypes that `distfree` picks for its exact checks, in call order."""
    picked = []

    def spy(bound):
        picked.append(exact_dtype(bound))
        return picked[-1]

    monkeypatch.setattr(distfree, "exact_dtype", spy)
    return picked


def record_cover_forms(monkeypatch) -> list:
    """Whether each `_greedy_cover` call doubled pointers, in call order."""
    doubled = []
    by_doubling = distfree._by_doubling

    def spy(listed, total, limit):
        doubled.append(by_doubling(listed, total, limit))
        return doubled[-1]

    monkeypatch.setattr(distfree, "_by_doubling", spy)
    return doubled


def random_covers(rng, count: int):
    """Random `_greedy_cover` inputs (n, positions, prefix, singles, limit)
    that cycle through singles at 1 and at n, an unlisted prefix and
    suffix, and limit 0 (every listed position single). Every other round
    of the four shapes scales its weights and limit by 2**64 into a
    Python-integer prefix."""
    for trial in range(count):
        n = int(rng.integers(1, 60))
        limit = int(rng.integers(0, 8))
        listed = rng.random(n) < rng.uniform(0.2, 1.0)
        mode = trial % 4
        if mode == 0:  # a single at 1 and at n
            listed[[0, -1]] = True
        elif mode == 1:  # an unlisted prefix and suffix
            listed[[0, -1]] = False
        if not listed.any():
            listed[int(rng.integers(0, n))] = True
        positions = np.flatnonzero(listed) + 1
        singles = rng.random(positions.size) < 0.3
        if limit == 0:
            singles[:] = True
        if mode == 0:
            singles[[0, -1]] = True
        weights = np.where(singles, limit + rng.integers(1, 5, size=positions.size),
                           rng.integers(1, max(limit, 1) + 1, size=positions.size))
        prefix = np.concatenate(([0], np.cumsum(weights)))
        if trial // 4 % 2:
            prefix = prefix.astype(object) * 2**64
            limit *= 2**64
        yield n, positions, prefix, singles, limit


def dense_partition_reference(sample: SampleSet, resolution: Fraction) -> tuple:
    """(boundaries, heavy) of the greedy partition, walked over a dense
    length-n prefix sum of the draw counts, one position or interval at a
    time: the construction `IntervalPartition.from_sample` replaces."""
    n = sample.n
    limit = math.floor(Fraction(sample.size) / resolution)
    dense = np.zeros(n, dtype=np.int64)
    dense[sample.positions - 1] = sample.multiplicities
    prefix = np.concatenate(([0], np.cumsum(dense)))
    bounds, heavy = [0], []
    start = 1
    while start <= n:
        if prefix[start] - prefix[start - 1] > limit:
            bounds.append(start)
            heavy.append(True)
            start += 1
            continue
        end = min(int(np.searchsorted(prefix, prefix[start - 1] + limit, side="right")) - 1, n)
        bounds.append(end)
        heavy.append(False)
        start = end + 1
    return bounds, heavy


def per_position_reference(dist: Distribution, resolution: Fraction) -> tuple:
    """(boundaries, single flags, small flags) of the reference partition,
    as lists, walked over every position one at a time: the construction
    `ReferencePartition.from_weights` replaces."""
    weights = dist.numerators().tolist()
    n = dist.n
    unit = resolution.denominator * dist.common_denominator()
    single = 8 * resolution.numerator
    run = 4 * resolution.numerator
    bounds, singles, smalls = [0], [], []
    start = 1
    while start <= n:
        w = weights[start - 1]
        if single * w > unit:
            bounds.append(start)
            singles.append(True)
            smalls.append(False)
            start += 1
            continue
        end, total = start, w
        while end + 1 <= n:
            nxt = weights[end]
            if single * nxt > unit or run * (total + nxt) > unit:
                break
            total += nxt
            end += 1
        bounds.append(end)
        singles.append(False)
        smalls.append(single * total < unit)
        start = end + 1
    return bounds, singles, smalls


def edge_case_weights(rng, count: int):
    """Random (distribution, resolution) pairs that cycle through the
    awkward shapes of a reference partition: zero weights, singles at
    positions 1 and n, a run whose total is exactly the run cap, and
    numerators past int64 (`object` arrays)."""
    for trial in range(count):
        n = int(rng.integers(1, 40))
        res = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 3)))
        mode = trial % 4
        if mode == 0:  # about 40% zero weights
            counts = rng.integers(0, 6, size=n) * (rng.random(n) < 0.6)
        elif mode == 1:  # singles at 1 and at n
            counts = rng.integers(0, 4, size=n)
            counts[[0, -1]] = 50 * n
            res = Fraction(int(rng.integers(2, 9)))
        elif mode == 2:  # the first run can total exactly the run cap
            counts = rng.integers(0, 5, size=n)
            total = int(counts[: int(rng.integers(1, n + 1))].sum())
            if total == 0:
                counts[0] = total = 1
            res = Fraction(int(counts.sum()), 4 * total)
        else:  # numerators past int64, zeros included
            counts = rng.integers(0, 5, size=n)
        counts = [int(c) for c in counts]
        if mode == 3:
            counts = [c * 2**66 + (c > 0) * int(rng.integers(1, 100)) for c in counts]
        if sum(counts) == 0:
            counts[-1] = 1
        yield Distribution.from_numerators(counts), res


def loop_sentinel_reference(partition: IntervalPartition, density: DensityEstimate) -> tuple:
    """(merged boundaries, source, assembled numerators) of the separator
    split and assembly, built one interval at a time."""
    bounds, source = [0], []
    for u in range(1, partition.count + 1):
        end = int(partition.boundaries[u])
        if partition.heavy[u - 1]:
            bounds += [2 * end - 1, 2 * end]
            source += [u, u]
        else:
            bounds.append(2 * end)
            source.append(u)
    prefix_with_zero = [0] + density.prefix_tallies.tolist()
    rows = []
    for role_row in density.role_tallies.tolist():
        rows.append([role_row[src - 1] for src in source])
        rows.append([
            prefix_with_zero[src - 1] if partition.heavy[src - 1] and end % 2 == 1
            else prefix_with_zero[src]
            for src, end in zip(source, bounds[1:])
        ])
    return bounds, source, rows


# (n, largest count, share of zeros, heavy positions, heavy count) of
# inputs shaped like the benchmark's `oracles` instances and `df-weighted`
# phase one, at k = 3 and accuracy 1/2 (resolution 600): a phase-one
# sample of the first doubles, of the second walks.
WORKLOAD_SHAPES = ((2000, 4000, 0.05, 3, 20000), (10**5, 20, 0.1, 5, 3500))


def workload_shaped_instance(rng, n, most, zeros, heavy, weight) -> tuple:
    """(text, weights): integer weights with some zeros and a few heavy
    positions, over a text of four symbols."""
    counts = rng.integers(1, most + 1, size=n)
    counts[rng.random(n) < zeros] = 0
    counts[rng.choice(n, size=heavy, replace=False)] = weight
    return random_text_ids(rng, n, 4), Distribution.from_numerators(counts)


def edge_case_samples(rng, count: int):
    """Random (text, sample, resolution) triples that cycle through the
    awkward shapes of a phase-one sample: fewer draws than the resolution
    (limit 0), heavy positions at 1 and at n, an unsampled suffix, every
    position drawn heavily, and multiplicities exactly at the limit."""
    for trial in range(count):
        n = int(rng.integers(1, 50))
        t = random_text_ids(rng, n, 3)
        res = Fraction(int(rng.integers(2, 30)), int(rng.integers(1, 3)))
        mode = trial % 5
        if mode == 0:  # limit 0: every drawn position is heavy
            counts = np.zeros(n, dtype=np.int64)
            counts[rng.integers(0, n, size=int(rng.integers(1, 4)))] = 1
            res = Fraction(int(counts.sum()) + int(rng.integers(1, 5)))
        elif mode == 1:  # heavy positions at 1 and at n
            counts = rng.integers(0, 2, size=n)
            counts[[0, -1]] += 25
        elif mode == 2:  # an unsampled suffix after `cut`
            counts = np.zeros(n, dtype=np.int64)
            cut = int(rng.integers(1, n + 1))
            counts[:cut] = rng.integers(0, 5, size=cut)
            counts[0] += 1
        elif mode == 3:  # limit one below the smallest multiplicity
            counts = rng.integers(2, 9, size=n)
            res = Fraction(int(counts.sum()), int(counts.min()) - 1)
        else:  # limit exactly reached by some multiplicities
            limit = int(rng.integers(1, 6))
            counts = rng.integers(0, limit + 1, size=n)
            counts[rng.integers(0, n, size=2)] = limit
            res = Fraction(int(counts.sum()), limit)
        yield t, sample_from_counts(counts.astype(np.int64), t), res


class TestParameters:
    def test_resolution_frozen(self):
        assert interval_resolution(2, 0.5) == 400

    def test_resolution_scales_with_inverse_accuracy(self):
        assert interval_resolution(2, 0.25) == 2 * interval_resolution(2, 0.5)
        assert interval_resolution(4, 0.5) == 2 * interval_resolution(2, 0.5)

    def test_first_sample_size_frozen(self):
        assert first_sample_size(Fraction(400)) == 550_661

    def test_first_sample_size_matches_high_precision_route(self):
        for res in (Fraction(400), Fraction(2000, 3), Fraction(80)):
            expected = ceil_scaled_log(120 * res, 240 * res)
            assert first_sample_size(res) == expected

    def test_second_sample_size_frozen(self):
        got = second_sample_size(Fraction(400), 2, 100)
        assert got == math.ceil(160_000 * math.log(8000))
        assert got == ceil_scaled_log(Fraction(160_000), Fraction(8000))

    def test_unreachable_sample_sizes_rejected(self):
        # past int64 draws, past the float range, and both at once
        for res in (Fraction(10**17), Fraction(10**305), Fraction(10**400)):
            with pytest.raises(ValueError):
                first_sample_size(res)
        for res in (Fraction(10**10), Fraction(10**400)):
            with pytest.raises(ValueError):
                second_sample_size(res, 2, 100)

    def test_second_sample_size_needs_intervals(self):
        with pytest.raises(ValueError):
            second_sample_size(Fraction(400), 2, 0)

    def test_quantization_step_frozen(self):
        assert quantization_step(1000, Fraction(400)) == Fraction(1, 6_400_000)
        with pytest.raises(ValueError):
            quantization_step(0, Fraction(400))

    def test_relaxed_constants(self):
        relaxed = DEFAULT_CONSTANTS.relaxed(50)
        assert relaxed.resolution_factor == 2
        assert interval_resolution(2, 0.5, relaxed) == 8
        # Off-spec reports are labelled with the factor, as the float it was.
        for factor in (399, 2.5):
            assert DEFAULT_CONSTANTS.relaxed(factor).report_fields() == {
                "off_spec_constants": True, "relaxed_constants": float(factor)}
        assert DEFAULT_CONSTANTS.relaxed(1) == DEFAULT_CONSTANTS
        assert DEFAULT_CONSTANTS.relaxed(1).report_fields() == {}
        with pytest.raises(ValueError):
            DEFAULT_CONSTANTS.relaxed(0)

    def test_over_relaxation_rejected(self):
        # resolution would drop to 1; every interval bound degenerates
        dangerous = DEFAULT_CONSTANTS.relaxed(400)
        with pytest.raises(ValueError):
            interval_resolution(2, 0.5, dangerous)

    def test_accuracy_validation(self):
        for bad in (0, 1, -0.5, 2):
            with pytest.raises(ValueError):
                interval_resolution(2, bad)
        with pytest.raises(ValueError):
            interval_resolution(0, 0.5)


class TestIntervalPartition:
    def test_hand_example_all_light(self):
        t = text_of("aaaa")
        s = sample_from_counts(np.array([2, 1, 1, 4]), t)
        p = IntervalPartition.from_sample(s, Fraction(2))
        assert p.boundaries.tolist() == [0, 3, 4]
        assert p.heavy.tolist() == [False, False]
        validate_partition(p, s, Fraction(2))

    def test_hand_example_with_heavy_singleton(self):
        t = text_of("aaaa")
        s = sample_from_counts(np.array([0, 4, 0, 0]), t)
        p = IntervalPartition.from_sample(s, Fraction(2))
        assert p.boundaries.tolist() == [0, 1, 2, 4]
        assert p.heavy.tolist() == [False, True, False]
        validate_partition(p, s, Fraction(2))

    def test_census_with_unit_resolution_is_single_interval(self):
        t = text_of("abcabc")
        s = sample_from_counts(np.ones(6, dtype=np.int64), t)
        p = IntervalPartition.from_sample(s, Fraction(1))
        assert p.boundaries.tolist() == [0, 6]
        assert p.heavy.tolist() == [False]

    def test_unsampled_suffix_folds_into_last_interval(self):
        t = text_of("abcd")
        s = sample_from_counts(np.array([5, 0, 0, 0]), t)
        p = IntervalPartition.from_sample(s, Fraction(2))
        assert p.boundaries[-1] == 4
        assert not p.heavy[-1]
        validate_partition(p, s, Fraction(2))

    def test_sums_past_int64_stay_exact(self, monkeypatch):
        # The first interval's sum plus the limit passes int64, which the
        # doubling form, taken here, adds up in one array.
        doubled = record_cover_forms(monkeypatch)
        s = SampleSet(3, [1, 2, 3], [1, 1, 1], [1, 2**62, 2**62 - 2])
        assert s.size == 2**63 - 1
        p = IntervalPartition.from_sample(s, Fraction(3, 2))
        assert p.boundaries.tolist() == [0, 2, 3]
        assert p.heavy.tolist() == [False, False]
        assert doubled == [True]

    def test_empty_sample_rejected(self):
        t = text_of("ab")
        with pytest.raises(ValueError):
            IntervalPartition.from_sample(SampleSet(2, [], [], []), Fraction(2))

    def test_random_partitions_validate(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            t = random_text_ids(rng, n, 3)
            counts = rng.integers(0, 10, size=n)
            if counts.sum() == 0:
                counts[0] = 1
            s = sample_from_counts(counts.astype(np.int64), t)
            res = Fraction(int(rng.integers(2, 9)))
            p = IntervalPartition.from_sample(s, res)
            validate_partition(p, s, res)
            assert p.count == p.heavy.size == p.boundaries.size - 1

    def test_matches_dense_reference(self, rng):
        seen = {"limit 0": 0, "heavy at 1": 0, "heavy at n": 0,
                "unsampled suffix": 0, "all heavy": 0, "at limit": 0}
        for t, s, res in edge_case_samples(rng, 400):
            p = IntervalPartition.from_sample(s, res)
            bounds, heavy = dense_partition_reference(s, res)
            assert p.boundaries.tolist() == bounds
            assert p.heavy.tolist() == heavy
            limit = math.floor(Fraction(s.size) / res)
            seen["limit 0"] += limit == 0
            seen["heavy at 1"] += heavy[0]
            seen["heavy at n"] += heavy[-1] and bounds[-2] == t.n - 1
            seen["unsampled suffix"] += s.positions[-1] < t.n
            seen["all heavy"] += all(heavy) and t.n > 1
            seen["at limit"] += bool(np.any(s.multiplicities == limit))
        assert all(seen.values()), seen

    def test_accessors(self):
        p = IntervalPartition(4, np.array([0, 1, 4]), np.array([True, False]))
        assert p.count == 2
        assert list(p.intervals()) == [(1, 1, True), (2, 4, False)]

    def test_intervals_are_python_scalars_of_boundaries_and_flags(self, rng, monkeypatch):
        # The benchmark passes the ends to `Distribution.interval_weight`
        # and tests the flags for truth, on partitions from either side of
        # the cover.
        doubled = record_cover_forms(monkeypatch)
        res = interval_resolution(3, Fraction(1, 2))
        for shape in WORKLOAD_SHAPES:
            t, d = workload_shaped_instance(rng, *shape)
            p = IntervalPartition.from_sample(WeightedSampler(t, d).draw(first_sample_size(res), 1), res)
            triples = list(p.intervals())
            assert [type(v) for triple in triples for v in triple] == [int, int, bool] * p.count
            assert triples == [(int(p.boundaries[u - 1]) + 1, int(p.boundaries[u]), bool(p.heavy[u - 1]))
                               for u in range(1, p.count + 1)]
            assert any(heavy for _, _, heavy in triples)
            assert sum(d.interval_weight(lo, hi) for lo, hi, _ in triples) == 1
        assert doubled == [True, False]


class TestReferencePartition:
    def test_uniform_eight_positions(self):
        d = Distribution.uniform(8)
        r = ReferencePartition.from_weights(d, Fraction(1))
        assert r.boundaries.tolist() == [0, 2, 4, 6, 8]
        assert set(reference_labels(r)) == {"medium"}

    def test_pointmass_is_single(self):
        d = Distribution.from_fractions(
            [Fraction(9, 10)] + [Fraction(1, 70)] * 7
        )
        r = ReferencePartition.from_weights(d, Fraction(1))
        assert reference_labels(r)[0] == "single"
        assert r.boundaries[:2].tolist() == [0, 1]

    def test_single_position(self):
        r = ReferencePartition.from_weights(Distribution.uniform(1), Fraction(1))
        assert r.count == 1

    def test_weight_exactly_at_per_position_cap_is_medium(self):
        # boundary case: weight equal to the per-position cap joins a run
        # and alone already reaches the medium band
        d = Distribution.from_fractions([Fraction(1, 8), Fraction(7, 8)])
        r = ReferencePartition.from_weights(d, Fraction(1))
        assert reference_labels(r) == ("medium", "single")

    def test_uniform_thousand_at_production_resolution_all_single(self):
        d = Distribution.uniform(1000)
        r = ReferencePartition.from_weights(d, Fraction(400))
        assert r.count == 1000
        assert set(reference_labels(r)) == {"single"}

    def test_class_count_caps(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 60))
            d = Distribution.from_fractions(
                positive_rational_weights(rng, n, max(n, 120))
            )
            res = Fraction(int(rng.integers(1, 6)))
            r = ReferencePartition.from_weights(d, res)
            labels = reference_labels(r)
            counts = collections.Counter(labels)
            assert counts["single"] + counts["medium"] <= 8 * res
            assert counts["small"] <= 8 * res + 1
            # a small interval stops only at a too-heavy next position,
            # so it is followed by a single or ends the text
            for u in range(1, r.count):
                if labels[u - 1] == "small":
                    assert labels[u] == "single"

    def test_matches_per_position_reference(self, rng):
        seen = {"zero weight": 0, "single at 1": 0, "single at n": 0,
                "run at cap": 0, "object numerators": 0}
        for d, res in edge_case_weights(rng, 3000):
            r = ReferencePartition.from_weights(d, res)
            bounds, single, small = per_position_reference(d, res)
            assert r.boundaries.tolist() == bounds
            assert r.single.dtype == r.small.dtype == bool
            assert r.single.tolist() == single
            assert r.small.tolist() == small
            nums = d.numerators()
            cap = res.denominator * d.common_denominator() // (4 * res.numerator)
            totals = np.diff(d.numerator_prefix()[bounds])
            seen["zero weight"] += bool(np.any(nums == 0))
            seen["single at 1"] += single[0]
            seen["single at n"] += single[-1] and d.n > 1
            seen["run at cap"] += any(
                not one and total == cap for one, total in zip(single, totals)
            )
            seen["object numerators"] += nums.dtype == object
        assert all(seen.values()), seen


class TestGreedyCover:
    """The pointer-doubling and the walking form of `_greedy_cover`, and
    which of them each partition takes."""

    def test_forms_agree_on_random_covers(self, rng):
        seen = {"single at 1": 0, "single at n": 0, "unlisted prefix": 0,
                "unlisted suffix": 0, "limit 0": 0, "light run": 0, "object prefix": 0}
        for n, positions, prefix, singles, limit in random_covers(rng, 20_000):
            bounds, flags = distfree._cover_by_doubling(n, positions, prefix, singles, limit)
            walked, walked_flags = distfree._cover_by_walk(n, positions, prefix, singles, limit)
            assert bounds.dtype == walked.dtype == np.int64
            assert flags.dtype == walked_flags.dtype == bool
            assert bounds.tolist() == walked.tolist()
            assert flags.tolist() == walked_flags.tolist()
            assert bounds[0] == 0 and bounds[-1] == n and np.all(np.diff(bounds) > 0)
            seen["single at 1"] += bool(flags[0]) and bounds[1] == 1
            seen["single at n"] += bool(flags[-1]) and n > 1
            seen["unlisted prefix"] += bool(positions[0] > 1)
            seen["unlisted suffix"] += bool(positions[-1] < n)
            seen["limit 0"] += limit == 0
            seen["light run"] += bool(np.any(~flags[:-1] & (np.diff(bounds)[:-1] > 1)))
            seen["object prefix"] += prefix.dtype == object
        assert all(count >= 100 for count in seen.values()), seen

    def test_sample_walk_side_matches_dense_reference(self, rng, monkeypatch):
        doubled = record_cover_forms(monkeypatch)
        with_heavy = 0
        for trial in range(6):
            n = 5000
            t = random_text_ids(rng, n, 3)
            counts = rng.multinomial(50_000, np.full(n, 1 / n))
            counts[rng.integers(0, n, size=trial)] += 50_000  # heavy positions
            counts[n - 200 * trial:] = 0  # an unsampled suffix
            s = sample_from_counts(counts, t)
            res = Fraction(int(rng.integers(10, 40)))
            p = IntervalPartition.from_sample(s, res)
            bounds, heavy = dense_partition_reference(s, res)
            assert p.boundaries.tolist() == bounds
            assert p.heavy.tolist() == heavy
            with_heavy += any(heavy)
        assert doubled == [False] * 6
        assert with_heavy >= 3

    def test_weights_walk_side_matches_per_position_reference(self, monkeypatch):
        doubled = record_cover_forms(monkeypatch)
        point_mass = Distribution.from_numerators([4000] + [1] * 9_998 + [4000])
        for d, res in ((Distribution.uniform(20_000), Fraction(1)),
                       (Distribution.uniform(20_001), Fraction(7, 3)),
                       (point_mass, Fraction(2))):
            r = ReferencePartition.from_weights(d, res)
            bounds, single, small = per_position_reference(d, res)
            assert r.boundaries.tolist() == bounds
            assert r.single.tolist() == single
            assert r.small.tolist() == small
        assert r.single[0] and r.single[-1]  # the point masses
        assert doubled == [False] * 3

    def test_workload_shaped_inputs_take_their_side(self, rng, monkeypatch):
        res = interval_resolution(3, Fraction(1, 2))
        assert res == 600 and first_sample_size(res) == 855_185
        oracles, phase_one = WORKLOAD_SHAPES
        doubled = record_cover_forms(monkeypatch)
        t, d = workload_shaped_instance(rng, *oracles)
        assert 1850 <= np.count_nonzero(d.numerators()) <= 1950
        ReferencePartition.from_weights(d, res)
        IntervalPartition.from_sample(WeightedSampler(t, d).draw(first_sample_size(res), 1), res)
        assert doubled == [True, True]
        t, d = workload_shaped_instance(rng, *phase_one)
        IntervalPartition.from_sample(WeightedSampler(t, d).draw(first_sample_size(res), 1), res)
        assert doubled == [True, True, False]

    def test_doubling_memory_is_a_few_words_per_listed_position(self, rng, monkeypatch):
        # A reference partition shaped like one of 10**6 weights 0-99 at
        # resolution 40,000, scaled down: about 6 listed positions per
        # estimated interval and more than 2**14 intervals, doubling side.
        # A round holds the successors of the 2m + 2 states twice, 4 int64
        # words per listed position; building ends and flags for every
        # state as well took about 12.
        calls = []
        double = distfree._cover_by_doubling

        def traced(*args):
            tracemalloc.start()
            try:
                out = double(*args)
                calls.append((args, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(distfree, "_cover_by_doubling", traced)
        d = Distribution.from_numerators(rng.integers(0, 100, size=120_000))
        r = ReferencePartition.from_weights(d, Fraction(4800))
        [(args, peak)] = calls
        listed = args[1].size
        assert r.count >= 2**14 and 5 <= listed / r.count <= 7
        assert peak <= 6 * 8 * listed, peak / listed
        walked, flags = distfree._cover_by_walk(*args)
        assert r.boundaries.tolist() == walked.tolist()
        assert r.single.tolist() == flags.tolist()


class TestWeightsWellEstimated:
    def test_census_passes(self):
        t = text_of("abababab")
        for d in (Distribution.uniform(8), over_denominator(NEAR_INT64, 8)):
            ref = ReferencePartition.from_weights(d, Fraction(1))
            assert weights_well_estimated(d, census(d, t), Fraction(1), ref)
        d = over_denominator(PAST_INT64, 8)
        ref = ReferencePartition.from_weights(d, Fraction(1))
        assert weights_well_estimated(d, near_census(d, t), Fraction(1), ref)

    def test_factor_bounds_are_inclusive(self):
        # two singles of true weight 1/4 and 3/4, eight draws: the first
        # may take 1 to 3 of them
        d = Distribution.from_fractions([Fraction(1, 4), Fraction(3, 4)])
        t = text_of("ab")
        ref = ReferencePartition.from_weights(d, Fraction(1))
        assert reference_labels(ref) == ("single", "single")
        for counts, ok in (([1, 7], True), ([0, 8], False),
                           ([3, 5], True), ([4, 4], False)):
            s = sample_from_counts(np.array(counts), t)
            assert weights_well_estimated(d, s, Fraction(1), ref) is ok, counts

    def test_small_cap_is_inclusive(self):
        # a small interval may carry empirical weight up to 1/(2 res);
        # the single after it stays within its factor either way
        d = Distribution.from_fractions([Fraction(1, 16), Fraction(15, 16)])
        t = text_of("ab")
        ref = ReferencePartition.from_weights(d, Fraction(1))
        assert reference_labels(ref) == ("small", "single")
        for counts, ok in (([16, 16], True), ([17, 15], False)):
            s = sample_from_counts(np.array(counts), t)
            assert weights_well_estimated(d, s, Fraction(1), ref) is ok, counts

    def test_collapsed_sample_fails(self):
        d = Distribution.uniform(8)
        t = text_of("abababab")
        s = sample_from_counts(
            np.array([8, 0, 0, 0, 0, 0, 0, 0]), t
        )
        ref = ReferencePartition.from_weights(d, Fraction(1))
        assert not weights_well_estimated(d, s, Fraction(1), ref)

    def test_matches_fraction_loop_at_the_int64_limit(self, monkeypatch):
        # D = 2**40: at 2**20 draws every product fits int64; at 2**22,
        # D size = 2**62 still does, but 3 size true for the second single
        # passes it.
        picked = record_exact_dtypes(monkeypatch)
        d = Distribution.from_numerators([2**38 + 1, 3 * 2**38 - 1])
        t = text_of("ab")
        ref = ReferencePartition.from_weights(d, Fraction(1))
        assert reference_labels(ref) == ("single", "single")
        for size, dtype in ((2**20, np.int64), (2**22, object)):
            outcomes = set()
            for factor in (Fraction(1, 2), Fraction(3, 2)):
                edge = factor * size * d.interval_weight(1, 1)
                for drawn in range(math.floor(edge) - 1, math.ceil(edge) + 2):
                    s = sample_from_counts(np.array([drawn, size - drawn]), t)
                    want = all(w / 2 <= Fraction(c, size) <= 3 * w / 2
                               for c, w in zip((drawn, size - drawn), d.fractions))
                    assert weights_well_estimated(d, s, Fraction(1), ref) is want
                    assert picked.pop() is dtype
                    outcomes.add(want)
            assert outcomes == {True, False}

    def test_reads_the_given_reference(self):
        # A census passes on the reference of its own weights. On that of
        # the mirrored weights, the small interval [1, 7] holds the point
        # mass and breaks the small cap.
        d = Distribution.from_fractions(
            [Fraction(9, 10)] + [Fraction(1, 70)] * 7
        )
        mirrored = Distribution.from_fractions([Fraction(1, 70)] * 7 + [Fraction(9, 10)])
        t = text_of("abcdefgh")
        s = census(d, t)
        ref = ReferencePartition.from_weights(d, Fraction(1))
        assert weights_well_estimated(d, s, Fraction(1), ref)
        ref = ReferencePartition.from_weights(mirrored, Fraction(1))
        assert reference_labels(ref) == ("small", "single")
        assert not weights_well_estimated(d, s, Fraction(1), ref)


class TestSymbolDensityEstimate:
    def test_hand_example(self):
        t = text_of("ab")
        w = word_of("ab", t)
        s = sample_from_counts(np.array([1, 3]), t)
        part = IntervalPartition(2, np.array([0, 1, 2]), np.array([False, True]))
        est = symbol_density_estimate(s, part, w)
        # densities [[1/4, 1/4], [0, 3/4]] and prefix weights [1/4, 1]
        assert est.denominator == 4
        assert est.role_tallies.tolist() == [[1, 1], [0, 3]]
        assert est.prefix_tallies.tolist() == [1, 4]

    def test_census_matches_exact(self):
        t = text_of("abcaba")
        d = Distribution.from_fractions(
            [Fraction(x, 12) for x in (1, 2, 3, 1, 4, 1)]
        )
        w = word_of("ab", t)
        for d in (d, over_denominator(NEAR_INT64, t.n)):
            s = census(d, t)
            part = IntervalPartition.from_sample(s, Fraction(3))
            est = symbol_density_estimate(s, part, w)
            exact = exact_symbol_density(t, d, w, part)
            assert exact.denominator == d.common_denominator()
            for i in range(w.k):
                for u in range(part.count):
                    got = Fraction(int(est.role_tallies[i, u]), est.denominator)
                    assert got == Fraction(int(exact.role_tallies[i][u]), exact.denominator)
            for u in range(part.count):
                got = Fraction(int(est.prefix_tallies[u]), est.denominator)
                assert got == Fraction(int(exact.prefix_tallies[u]), exact.denominator)
        # Past int64 no census fits; compare with summed Fractions.
        d = over_denominator(PAST_INT64, t.n)
        part = IntervalPartition(t.n, np.array([0, 2, 3, 6]),
                                 np.array([False, True, False]))
        exact = exact_symbol_density(t, d, w, part)
        assert exact.denominator == PAST_INT64
        for u, end in enumerate(part.boundaries[1:]):
            for i in range(w.k):
                want = sum(f for f, sym in zip(d.fractions[:end], t.ids) if sym == w.ids[i])
                assert Fraction(int(exact.role_tallies[i][u]), PAST_INT64) == want
            assert Fraction(int(exact.prefix_tallies[u]), PAST_INT64) == sum(d.fractions[:end])

    def test_absent_symbol_row_zero(self):
        t = text_of("aaaa")
        w = Word(np.array([5]))
        s = sample_from_counts(np.ones(4, dtype=np.int64), t)
        part = IntervalPartition.from_sample(s, Fraction(2))
        est = symbol_density_estimate(s, part, w)
        assert not est.role_tallies.any()

    def test_errors(self):
        t = text_of("ab")
        w = word_of("ab", t)
        part = IntervalPartition(2, np.array([0, 2]), np.array([False]))
        with pytest.raises(ValueError):
            symbol_density_estimate(SampleSet(2, [], [], []), part, w)
        s3 = sample_from_counts(np.ones(3, dtype=np.int64), text_of("aba"))
        with pytest.raises(ValueError):
            symbol_density_estimate(s3, part, w)


class TestDensitiesWellEstimated:
    def _setups(self):
        t = text_of("abab")
        w = word_of("ab", t)
        for d, s in (
            (Distribution.uniform(4), None),
            (over_denominator(NEAR_INT64, 4), None),
            (over_denominator(PAST_INT64, 4), near_census),
        ):
            s = (s or census)(d, t)
            part = IntervalPartition.from_sample(s, Fraction(2))
            yield t, d, w, s, part

    def test_census_passes(self):
        for t, d, w, s, part in self._setups():
            exact = exact_symbol_density(t, d, w, part)
            assert densities_well_estimated(t, d, w, s, part, Fraction(2), exact)

    def test_collapsed_sample_fails(self):
        for t, d, w, s, part in self._setups():
            bad = sample_from_counts(np.array([4, 0, 0, 0]), t)
            exact = exact_symbol_density(t, d, w, part)
            assert not densities_well_estimated(t, d, w, bad, part, Fraction(2), exact)

    def test_precomputed_exact_path(self):
        # The estimate is held to `exact` alone: each census fails against
        # the exact densities of a point mass at position 1.
        point_mass = Distribution.from_numerators([1, 0, 0, 0])
        for t, d, w, s, part in self._setups():
            exact = exact_symbol_density(t, point_mass, w, part)
            assert not densities_well_estimated(t, d, w, s, part, Fraction(2), exact)

    def test_bound_is_inclusive(self):
        # true role and prefix weights 1/2 at the first end; six of eight
        # draws there are off by exactly 1/res = 1/4, seven are not
        t = text_of("ab")
        w = word_of("ab", t)
        d = Distribution.uniform(2)
        part = IntervalPartition(2, np.array([0, 1, 2]), np.array([False, False]))
        exact = exact_symbol_density(t, d, w, part)
        for counts, ok in (([6, 2], True), ([7, 1], False)):
            s = sample_from_counts(np.array(counts), t)
            assert densities_well_estimated(t, d, w, s, part, Fraction(4), exact) is ok, counts

    def test_prefix_miss_alone_fails(self):
        # Every role density is exact, but the draws of the symbol outside
        # the word all sit at position 1: the prefix weight there is 2/3
        # against a true 1/3.
        t = text_of("cca")
        w = word_of("a", t)
        part = IntervalPartition(3, np.array([0, 1, 2, 3]), np.array([False] * 3))
        s = sample_from_counts(np.array([4, 0, 2]), t)
        d = Distribution.uniform(3)
        exact = exact_symbol_density(t, d, w, part)
        assert not densities_well_estimated(t, d, w, s, part, Fraction(4), exact)
        assert densities_well_estimated(t, d, w, s, part, Fraction(3), exact)


class TestExactlyWithin:
    # (got_denom, want_denom, bound, largest |got|, largest |want|, whether
    # entries may be negative, dtype). The first two straddle the int64
    # limit of the comparison's largest value, ((2**31 - 1) * 2**29 +
    # (2**27 - 2) * 2**33) * 4 < 2**63 <= (2**31 * 2**29 + 2**27 * 2**33) * 4;
    # in the third the cross products themselves pass 2**64.
    CASES = [
        (2**33, 2**29, Fraction(1, 4), 2**31 - 1, 2**27 - 2, True, np.int64),
        (2**33, 2**29, Fraction(1, 4), 2**31 - 1, 2**27 - 1, True, object),
        (2**32 + 3, 2**32 + 1, Fraction(1, 2**10), 2**32, 2**32, False, object),
        (2**40, PAST_INT64, Fraction(1, 7), 2**40, PAST_INT64, False, object),
        (1000, 2000, Fraction(1, 3**45), 1000, 2000, False, object),
        (1000, 2000, Fraction(1, 3), 1000, 2000, False, np.int64),
    ]

    @staticmethod
    def entries(rng, got_denom, want_denom, bound, got_peak, want_peak, signed):
        """Pairs at the extremes, and pairs whose gap lands on, just inside
        and just outside the bound."""
        low = -want_peak if signed else 0
        pairs = [(got_peak, low), (0, want_peak)]
        for _ in range(40):
            want = low + int(rng.integers(0, 2**62)) % (want_peak - low + 1)
            for side in (-1, 1):
                target = Fraction(want * got_denom, want_denom) + side * bound * got_denom
                for got in range(math.floor(target) - 1, math.ceil(target) + 2):
                    pairs.append((min(max(got, 0), got_peak), want))
        return pairs

    def test_matches_fraction_loop(self, rng, monkeypatch):
        picked = record_exact_dtypes(monkeypatch)
        for got_denom, want_denom, bound, got_peak, want_peak, signed, dtype in self.CASES:
            pairs = self.entries(rng, got_denom, want_denom, bound, got_peak, want_peak, signed)
            want_dtype = np.int64 if want_peak < 2**63 else object
            got = np.array([g for g, _ in pairs], dtype=np.int64)
            want = np.array([w for _, w in pairs], dtype=want_dtype)
            expected = [abs(Fraction(g, got_denom) - Fraction(w, want_denom)) <= bound
                        for g, w in pairs]
            assert True in expected and False in expected
            assert exactly_within(got, got_denom, want, want_denom, bound).tolist() == expected
            assert picked.pop() is dtype


class TestLightWeightViolations:
    def test_matches_fraction_loop(self, monkeypatch):
        picked = record_exact_dtypes(monkeypatch)
        part = IntervalPartition(8, np.array([0, 2, 3, 5, 8]),
                                 np.array([False, True, False, False]))
        # 6/res = 1/4: uniform weights put the first and the third interval
        # exactly on the bound. Near int64, 6 D passes it although every
        # weight fits.
        res = Fraction(24)
        for d, dtype in ((Distribution.uniform(8), np.int64),
                         (over_denominator(NEAR_INT64, 8), object),
                         (over_denominator(PAST_INT64, 8), object)):
            want = sum(1 for lo, hi, heavy in part.intervals()
                       if not heavy and d.interval_weight(lo, hi) >= 6 / res)
            assert want >= 2
            assert light_weight_violations(d, part, res) == want
            assert picked.pop() is dtype
        # At res = 12 the bound is 1/2, which no light interval reaches.
        assert light_weight_violations(Distribution.uniform(8), part, Fraction(12)) == 0


class TestInterleavePartition:
    def test_heavy_then_light(self):
        part = IntervalPartition(3, np.array([0, 1, 3]), np.array([True, False]))
        sp = interleave_partition(part)
        assert sp.boundaries.tolist() == [0, 1, 2, 6]
        assert sp.source.tolist() == [1, 1, 2]
        assert sp.count == 3

    def test_all_light_doubles_boundaries(self):
        part = IntervalPartition(5, np.array([0, 2, 5]), np.array([False, False]))
        sp = interleave_partition(part)
        assert sp.boundaries.tolist() == [0, 4, 10]
        assert sp.source.tolist() == [1, 2]

    def test_all_heavy_enumerates_pairs(self):
        part = IntervalPartition(
            3, np.array([0, 1, 2, 3]), np.array([True, True, True])
        )
        sp = interleave_partition(part)
        assert sp.boundaries.tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert sp.source.tolist() == [1, 1, 2, 2, 3, 3]

    def test_odd_boundary_means_heavy_first_half(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            cuts = np.unique(rng.integers(1, n + 1, size=int(rng.integers(1, 8))))
            if cuts.size == 0 or cuts[-1] != n:
                cuts = np.unique(np.append(cuts, n))
            heavy = np.array(
                [lo == hi and bool(rng.integers(0, 2))
                 for lo, hi in zip(np.concatenate(([0], cuts[:-1])) + 1, cuts)]
            )
            part = IntervalPartition(
                n, np.concatenate(([0], cuts)).astype(np.int64), heavy
            )
            sp = interleave_partition(part)
            ends = sp.boundaries[1:]
            for idx, end in enumerate(ends):
                src = int(sp.source[idx])
                if end % 2 == 1:
                    assert part.heavy[src - 1]
            # source is non-decreasing and covers every interval
            assert np.all(np.diff(sp.source) >= 0)
            assert set(sp.source.tolist()) == set(range(1, part.count + 1))


class TestSentinelLayerAgainstLoops:
    def test_split_and_assembly_match_loops(self, rng):
        for t, s, res in edge_case_samples(rng, 400):
            part = IntervalPartition.from_sample(s, res)
            w = Word(rng.integers(1, 4, size=int(rng.integers(1, 4))).astype(np.int32))
            counts = rng.integers(0, 5, size=t.n)
            counts[0] += 1
            density = symbol_density_estimate(sample_from_counts(counts, t), part, w)
            sp = interleave_partition(part)
            out = assemble_sentinel_density(density, part, sp)
            bounds, source, rows = loop_sentinel_reference(part, density)
            assert sp.boundaries.tolist() == bounds
            assert sp.source.tolist() == source
            assert out.numerators.tolist() == rows
            assert out.numerators.dtype == np.int64


class TestAssembleSentinelDensity:
    def test_all_light(self):
        part = IntervalPartition(4, np.array([0, 2, 4]), np.array([False, False]))
        sp = interleave_partition(part)
        density = DensityEstimate(
            role_tallies=np.array([[3, 5], [1, 4]]),
            prefix_tallies=np.array([4, 10]),
            denominator=10,
        )
        out = assemble_sentinel_density(density, part, sp)
        assert out.numerators.tolist() == [[3, 5], [4, 10], [1, 4], [4, 10]]
        assert out.denominator == 20

    def test_heavy_pair_uses_previous_prefix(self):
        part = IntervalPartition(3, np.array([0, 1, 3]), np.array([True, False]))
        sp = interleave_partition(part)
        density = DensityEstimate(
            role_tallies=np.array([[3, 5]]),
            prefix_tallies=np.array([4, 10]),
            denominator=10,
        )
        out = assemble_sentinel_density(density, part, sp)
        # merged boundary 1 is the heavy position itself: no separator
        # drawn before it, so the separator row starts at zero
        assert out.numerators.tolist() == [[3, 3, 5], [0, 4, 10]]
        assert out.denominator == 20

    def test_shape_mismatch_rejected(self):
        part = IntervalPartition(3, np.array([0, 1, 3]), np.array([True, False]))
        sp = interleave_partition(part)
        density = DensityEstimate(
            role_tallies=np.array([[3, 5, 7]]),
            prefix_tallies=np.array([4, 8, 10]),
            denominator=10,
        )
        with pytest.raises(ValueError):
            assemble_sentinel_density(density, part, sp)

    def test_census_matches_exact_separator_densities(self, rng):
        # the assembled matrix, fed census tallies, must agree entrywise
        # with the true cumulative weights on the separator-rewritten
        # text under the halved weights
        for trial in range(25):
            n = int(rng.integers(1, 25))
            t = random_text_ids(rng, n, 3)
            w = Word(rng.integers(1, 4, size=int(rng.integers(1, 4))).astype(np.int32))
            d = Distribution.from_fractions(
                positive_rational_weights(rng, n, max(n, 60))
            )
            s = census(d, t)
            res = Fraction(int(rng.integers(2, 7)))
            part = IntervalPartition.from_sample(s, res)
            density = symbol_density_estimate(s, part, w)
            sp = interleave_partition(part)
            out = assemble_sentinel_density(density, part, sp)

            sep_text, sep_word, sep_dist = interleave_sentinel(t, w, d)
            shadow = IntervalPartition(
                2 * n,
                sp.boundaries.copy(),
                np.zeros(sp.count, dtype=bool),
            )
            exact = exact_symbol_density(sep_text, sep_dist, sep_word, shadow)
            for i in range(sep_word.k):
                for u in range(sp.count):
                    got = Fraction(int(out.numerators[i, u]), out.denominator)
                    want = Fraction(int(exact.role_tallies[i][u]), exact.denominator)
                    assert got == want, (trial, i, u)


class TestExactSentinelReference:
    @staticmethod
    def assert_matches(t: Text, w: Word, d: Distribution, s: SampleSet) -> None:
        # reference numerators over the expansion length must equal the
        # cumulative weights of the quantized, normalized, halved
        # distribution on the rewritten text
        res = Fraction(4)
        part = IntervalPartition.from_sample(s, res)
        sp = interleave_partition(part)
        nums, expanded = exact_sentinel_reference(t, d, w, part, sp, res)

        step = quantization_step(t.n, res)
        quant = quantize_weights(d, step)
        sep_text, sep_word, sep_dist = interleave_sentinel(
            t, w, quant.normalized
        )
        shadow = IntervalPartition(
            2 * t.n, sp.boundaries.copy(), np.zeros(sp.count, dtype=bool)
        )
        exact = exact_symbol_density(sep_text, sep_dist, sep_word, shadow)
        for i in range(sep_word.k):
            for u in range(sp.count):
                want = Fraction(int(exact.role_tallies[i][u]), exact.denominator)
                assert Fraction(int(nums[i, u]), expanded) == want

    def test_matches_quantized_separator_densities(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 15))
            t = random_text_ids(rng, n, 3)
            w = Word(rng.integers(1, 4, size=int(rng.integers(1, 3))).astype(np.int32))
            d = Distribution.from_fractions(
                positive_rational_weights(rng, n, max(n, 40))
            )
            self.assert_matches(t, w, d, census(d, t))

    def test_denominators_near_and_past_int64(self, monkeypatch):
        # Near int64 the numerators fit but their scaling does not.
        picked = record_exact_dtypes(monkeypatch)
        t = text_of("abcaba")
        w = word_of("ab", t)
        d = over_denominator(NEAR_INT64, t.n)
        self.assert_matches(t, w, d, census(d, t))
        d = over_denominator(PAST_INT64, t.n)
        self.assert_matches(t, w, d, near_census(d, t))
        assert picked == [object, object]
        self.assert_matches(t, w, Distribution.uniform(t.n), census(Distribution.uniform(t.n), t))
        assert picked[-1] is np.int64


def phase_runs(rng, count: int):
    """(text, word, weights, resolution, constants, seed, partition,
    phase-two tallies) of `count` real `sample_phases` runs: n < 40,
    k <= 5 over three symbols, spread and point-mass weights in turn,
    relaxed constants 50 to 400 at accuracy 1/5."""
    for trial in range(count):
        n = int(rng.integers(1, 40))
        t = random_text_ids(rng, n, 3)
        w = Word(rng.integers(1, 4, size=int(rng.integers(1, 6))).astype(np.int32))
        if trial % 2:
            nums = rng.integers(1, 20, size=n)
        else:
            nums = rng.integers(0, 2, size=n)
            nums[int(rng.integers(0, n))] = 10 * n
        d = Distribution.from_numerators(nums)
        consts = DEFAULT_CONSTANTS.relaxed(int(rng.choice([50, 100, 200, 400])))
        res = interval_resolution(w.k, Fraction(1, 5), consts)
        seed = int(rng.integers(0, 2**31))
        _, part, density = sample_phases(WeightedSampler(t, d), w, res, seed)
        yield t, w, d, res, consts, seed, part, density


def separator_measure(density: DensityEstimate, part: IntervalPartition) -> int:
    """The reference: copy measure of the separator-assembled matrix."""
    return copies_from_counts(
        assemble_sentinel_density(density, part, interleave_partition(part)).numerators)


class TestLaggedRecursion:
    """The recursion lagged at heavy intervals against the separator
    rewrite, its reference."""

    def test_matches_separator_on_sample_phases_runs(self):
        heavy = changed = 0
        for t, w, d, res, consts, seed, part, density in phase_runs(
                np.random.default_rng(16), 400):
            r = estimate_distance(WeightedSampler(t, d), w, Fraction(1, 5), seed, consts)
            want = separator_measure(density, part)
            assert r.raw == Fraction(want, density.denominator)
            unlagged = final_measure(density.role_tallies, lag=False)
            heavy += bool(part.heavy.any())
            changed += unlagged != want
            if not w.has_adjacent_repeat:
                assert unlagged == want
                special = estimate_distance_repeat_free(
                    WeightedSampler(t, d), w, Fraction(1, 5), seed, consts)
                assert special == r
        assert heavy >= 100 and changed >= 10

    def test_matches_separator_on_synthetic_tallies(self):
        # Symbol rows, one more for the symbols outside the word; a heavy
        # column is one position, so it raises one symbol only.
        rng = np.random.default_rng(1601)
        heavy_seen = changed = 0
        for _ in range(3000):
            symbols, width = int(rng.integers(1, 4)), int(rng.integers(1, 12))
            heavy = rng.integers(0, 2, size=width).astype(bool)
            steps = rng.integers(0, 4, size=(symbols + 1, width))
            for u in np.flatnonzero(heavy):
                steps[:, u] = 0
                steps[int(rng.integers(0, symbols + 1)), u] = int(rng.integers(1, 6))
            tallies = np.cumsum(steps, axis=1)
            ids = rng.integers(0, symbols, size=int(rng.integers(1, 6)))
            density = DensityEstimate(tallies[ids], tallies.sum(axis=0),
                                      max(int(tallies[:, -1].sum()), 1))
            widths = np.where(heavy, 1, rng.integers(1, 4, size=width))
            bounds = np.concatenate(([0], np.cumsum(widths)))
            part = IntervalPartition(int(bounds[-1]), bounds, heavy)
            want = separator_measure(density, part)
            assert final_measure(density.role_tallies, lag=heavy) == want
            heavy_seen += bool(heavy.any())
            changed += final_measure(density.role_tallies, lag=False) != want
        assert heavy_seen >= 1000 and changed >= 100


class TestSeparatorViolations:
    def test_matches_separator_entry_count(self):
        counts = []
        for t, w, d, res, consts, seed, part, density in phase_runs(
                np.random.default_rng(61), 100):
            quantized = Distribution.from_numerators(
                quantized_numerators(d, quantization_step(t.n, res, consts)))
            exact = exact_symbol_density(t, quantized, w, part)
            sp = interleave_partition(part)
            assembled = assemble_sentinel_density(density, part, sp)
            ref_nums, ref_denom = exact_sentinel_reference(t, d, w, part, sp, res, consts)
            for cap in (Fraction(1, 50), Fraction(1, 500), Fraction(1, 5000)):
                want = np.count_nonzero(~exactly_within(
                    assembled.numerators, assembled.denominator, ref_nums, ref_denom, cap))
                got = separator_violations(density, part.heavy, exact, cap)
                assert got == want
                counts.append(want)
        assert sum(c > 0 for c in counts) >= 150


class TestEstimateDistance:
    def test_deterministic(self):
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 500))
        w = Word(np.array([1, 2]))
        o = UniformSampler(t)
        a = estimate_distance(o, w, 0.5, 11)
        b = estimate_distance(o, w, 0.5, 11)
        assert a.raw == b.raw and a.estimate == b.estimate
        assert a.first_size == 550_661

    def test_sizes_are_those_of_sample_phases(self):
        t = Text(np.tile(np.array([1, 2, 2], dtype=np.int32), 50))
        w = Word(np.array([1, 2]))
        d = Distribution.from_fractions([Fraction(1, 2)] + [Fraction(1, 298)] * 149)
        o = WeightedSampler(t, d)
        consts = DEFAULT_CONSTANTS.relaxed(10)
        res = interval_resolution(w.k, 0.5, consts)
        for seed in (0, 5):
            sample1, part, density = sample_phases(o, w, res, seed)
            assert sample1.size == first_sample_size(res, consts)
            assert density.denominator == second_sample_size(res, w.k, part.count, consts)
            assert part.heavy[0]
            for run in (estimate_distance, estimate_distance_repeat_free):
                r = run(o, w, 0.5, seed, consts)
                assert (r.first_size, r.second_size, r.intervals) == (
                    sample1.size, density.denominator, part.count)

    # The benchmark replays phase two as this redraw and tally, and the
    # estimate from the lagged measure of the tallies: n = 300 draws both
    # phases as one multinomial, n = 10**5 Poissonized.
    @pytest.mark.parametrize("n, heavy", [(300, 100), (10**5, 3500)])
    def test_phase_two_is_the_tally_of_its_draw(self, n, heavy):
        rng = np.random.default_rng(n)
        mult = rng.integers(1, 21, size=n)
        mult[rng.random(n) < 0.1] = 0
        mult[rng.choice(n, size=3, replace=False)] = heavy
        o = WeightedSampler(random_text_ids(rng, n, 4), Distribution.from_numerators(mult))
        w = Word(np.array([1, 2, 2], dtype=np.int32))
        res = interval_resolution(w.k, Fraction(1, 2))
        for seed in (1, 2):
            _, part, density = sample_phases(o, w, res, seed)
            drawn = o.draw(second_sample_size(res, w.k, part.count), subseed(seed, 2))
            want = symbol_density_estimate(drawn, part, w)
            assert density.denominator == want.denominator == drawn.size
            for got, tallies in ((density.role_tallies, want.role_tallies),
                                 (density.prefix_tallies, want.prefix_tallies)):
                assert got.dtype == tallies.dtype and np.array_equal(got, tallies)
            measure = final_measure(density.role_tallies, lag=part.heavy)
            r = estimate_distance(o, w, Fraction(1, 2), seed)
            assert r.raw == Fraction(int(measure), density.denominator)

    def test_raw_denominator_divides_phase_two_size(self):
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 500))
        w = Word(np.array([1, 2]))
        r = estimate_distance(UniformSampler(t), w, 0.5, 3)
        assert r.second_size % r.raw.denominator == 0
        assert 0.0 <= r.estimate <= 1.0

    def test_agrees_with_specialized_path_on_repeat_free_words(self):
        # for a word with no adjacent equal symbols the separator rewrite
        # is redundant; both paths must give the same value on one seed
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 500))
        w = Word(np.array([1, 2]))
        o = UniformSampler(t)
        for seed in (0, 7):
            general = estimate_distance(o, w, 0.5, seed)
            special = estimate_distance_repeat_free(o, w, 0.5, seed)
            assert general.raw == special.raw

    def test_specialized_path_rejects_adjacent_repeats(self):
        t = text_of("aaaa")
        w = word_of("aa", t)
        with pytest.raises(ValueError):
            estimate_distance_repeat_free(UniformSampler(t), w, 0.5, 0)

    def test_periodic_text_statistical(self):
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 5000))
        w = Word(np.array([1, 2]))
        o = UniformSampler(t)
        for seed in range(3):
            r = estimate_distance(o, w, 0.3, seed)
            assert 0.2 <= r.estimate <= 0.8

    def test_free_text_statistical(self):
        t = Text(np.repeat(np.array([2, 1], dtype=np.int32), 500))
        w = Word(np.array([1, 2]))
        o = UniformSampler(t)
        hits = sum(
            estimate_distance(o, w, 0.5, seed).estimate <= 0.5
            for seed in range(100)
        )
        assert hits >= 90

    def test_pointmass_weights_statistical(self):
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), 10))
        w = Word(np.array([1, 2]))
        weights = [Fraction(9, 10)] + [Fraction(1, 190)] * 19
        d = Distribution.from_fractions(weights)
        truth = exact_weighted_distance(t, w, d)
        o = WeightedSampler(t, d)
        for seed in range(5):
            r = estimate_distance(o, w, 0.5, seed)
            assert abs(r.estimate - float(truth)) <= 0.5

    def test_single_symbol_word_estimates_occurrence_weight(self):
        ids = np.array([1, 2, 1, 2, 1, 2], dtype=np.int32)
        t = Text(ids)
        w = Word(np.array([1]))
        o = UniformSampler(t)
        r = estimate_distance_repeat_free(o, w, 0.4, 2)
        assert abs(r.estimate - 0.5) <= 0.4


class TestGoodEventFrequencies:
    def test_event_rates_at_small_scale(self):
        # production sample sizes on a 100-position uniform instance;
        # both events should hold in the vast majority of seeded runs
        # (guaranteed rates are 8/10 and 9/10)
        n = 100
        t = Text(np.tile(np.array([1, 2], dtype=np.int32), n // 2))
        w = Word(np.array([1, 2]))
        d = Distribution.uniform(n)
        o = UniformSampler(t)
        res = interval_resolution(w.k, 0.5)
        ref = ReferencePartition.from_weights(d, res)
        first_hits = 0
        second_hits = 0
        trials = 20
        for seed in range(trials):
            sample1, part, density = sample_phases(o, w, res, seed)
            if weights_well_estimated(d, sample1, res, ref):
                first_hits += 1
            if densities_within(density, exact_symbol_density(t, d, w, part), res):
                second_hits += 1
        assert first_hits >= 16
        assert second_hits >= 16


class TestReductionBound:
    def _assert_bound(self, rng, c1: Fraction, c2: Fraction, interleaved: bool):
        for _ in range(40):
            n = int(rng.integers(4, 120))
            t = random_text_ids(rng, n, 3)
            w = random_repeat_free_word(rng, int(rng.integers(1, 4)), 3)
            if interleaved:
                t, w, _ = interleave_sentinel(t, w)
                n = t.n
            acc = Fraction(int(rng.integers(2, 6)), 10)
            ids = t.ids
            run_ends = np.flatnonzero(ids[:-1] != ids[1:]) + 1
            cols = np.unique(np.append(run_ends, n)).astype(np.int64)
            grid = PrefixGrid(n, Fraction(1, n), cols)
            counts = exact_count_matrix(t, w, grid)
            budget = int(c2 * acc * n / w.k)
            noise = rng.integers(-budget, budget + 1, size=counts.shape)
            noisy = np.maximum.accumulate(np.maximum(counts + noise, 0), axis=1)
            assert np.all(np.abs(noisy - counts) <= budget)
            measured = copies_from_counts(noisy)
            truth = copy_count(t, w)
            assert abs(measured - truth) <= (c1 + 2 * c2) * acc * n

    def test_specialized_path_constants(self, rng):
        # grid columns at run ends: any gap stays inside one constant
        # run, so the gap premise holds; counts are perturbed up to the
        # estimation premise's allowance
        self._assert_bound(rng, Fraction(1, 2), Fraction(1, 4), False)

    def test_general_path_constants(self, rng):
        self._assert_bound(rng, Fraction(1, 8), Fraction(1, 8), True)


class TestEndToEndReduction:
    def test_quantize_then_interleave_shifts_distance_by_at_most_l1(self, rng):
        # doubled distance of the rewritten, re-weighted instance stays
        # within the quantization L1 error of the original distance
        for _ in range(20):
            n = int(rng.integers(1, 7))
            t = random_text_ids(rng, n, 2)
            w = Word(rng.integers(1, 3, size=int(rng.integers(1, 3))).astype(np.int32))
            d = Distribution.from_fractions(
                positive_rational_weights(rng, n, max(n, 30))
            )
            step = Fraction(1, 20)
            quant = quantize_weights(d, step)
            t2, w2, d2 = interleave_sentinel(t, w, quant.normalized)
            lhs = 2 * branching_distance(t2, w2, d2.fractions)
            rhs = branching_distance(t, w, d.fractions)
            assert abs(lhs - rhs) <= quant.l1_error
