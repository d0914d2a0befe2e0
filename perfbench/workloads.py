"""Workload inputs, operations and output checks.

Every input is a pure function of the workload seed (or, for the oracle
pool, of fixed instance seeds whose exact answers are stored in
`data/oracle_golden.json`). Each operation receives its own seed, derived
from the workload seed and the operation index, and the program sees only
the generated inputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from seqfree import (
    Distribution,
    Text,
    UniformSampler,
    WeightedSampler,
    Word,
    estimate_distance,
    estimate_distance_repeat_free,
    estimate_distance_uniform,
    exact_weighted_distance,
    uniform_distance,
    uniform_plan,
)
from seqfree.distfree import first_sample_size, interval_resolution, second_sample_size
from seqfree.harness.experiments import event_diagnostics, fraction_str

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "work"  # spans and the CLI probe's text file; ignored by git
GOLDEN_PATH = HERE / "data" / "oracle_golden.json"

ALPHABET = 4
K = 3

UNIFORM_N = 10**7
UNIFORM_DELTA = Fraction(3, 10)

DF_N = 10**5
DF_DELTA = Fraction(1, 2)
DF_ZERO_SHARE = 0.1  # share of positions with weight zero
DF_LIGHT_MAX = 20  # light positions carry weight m/D with 1 <= m <= this
DF_HEAVY = 5  # positions heavier than 1/resolution (resolution 600 here)
DF_HEAVY_MULT = 3500  # about D/275, so each weighs about 1/275 > 1/600

ORACLE_N = 2000
ORACLE_DELTA = Fraction(1, 2)
ORACLE_TRIALS = 3
ORACLE_ZERO_SHARE = 0.05
ORACLE_MULT_MAX = 4000  # common denominator about n * 2000 = 4e6
ORACLE_HEAVY = 3  # positions heavier than 1/resolution (resolution 600 here)
ORACLE_HEAVY_MULT = 20000  # about D/190
ORACLE_POOL_SEEDS = (11, 12, 13, 14)


def timed(fn, *args):
    """(seconds, value) of one call."""
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named input stream of a workload."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int.from_bytes(name.encode(), "little")))
    )


def op_seed(seed: int, index: int) -> int:
    """Distinct seed of operation `index` (0 is the warm-up)."""
    return (int(seed) << 24) + index


def random_text(rng: np.random.Generator, n: int) -> Text:
    return Text(rng.integers(1, ALPHABET + 1, size=n, dtype=np.int32))


def distinct_word(rng: np.random.Generator) -> Word:
    return Word((rng.permutation(ALPHABET)[:K] + 1).astype(np.int32))


def repeat_word(rng: np.random.Generator) -> Word:
    """A word of length K whose first two symbols are equal."""
    a, b = rng.permutation(ALPHABET)[:2] + 1
    return Word(np.array([a, a, b], dtype=np.int32))


def integer_weights(
    rng: np.random.Generator, n: int, mult_max: int, zero_share: float
) -> np.ndarray:
    mult = rng.integers(1, mult_max + 1, size=n, dtype=np.int64)
    mult[rng.random(n) < zero_share] = 0
    return mult


def with_heavy(rng: np.random.Generator, mult: np.ndarray, count: int,
               value: int) -> np.ndarray:
    """Give `count` distinct random positions the multiplicity `value`."""
    mult[rng.choice(mult.size, size=count, replace=False)] = value
    return mult


def rational_distribution(mult: np.ndarray) -> Distribution:
    denom = int(mult.sum())
    return Distribution.from_fractions([Fraction(int(m), denom) for m in mult])


def clamp(raw: Fraction) -> Fraction:
    return min(max(raw, Fraction(0)), Fraction(1))


class CheckFailed(Exception):
    """An operation returned output that fails its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_estimate(raw: Fraction, estimate: float, truth: Fraction, delta: Fraction) -> None:
    require(estimate == float(clamp(raw)), f"estimate {estimate} is not clamp(raw {raw})")
    require(
        abs(clamp(raw) - truth) <= delta,
        f"estimate {float(clamp(raw))} is more than {delta} from truth {float(truth)}",
    )


# -- uniform-large -----------------------------------------------------------


def uniform_inputs(seed: int) -> tuple[Text, Word]:
    rng = stream(seed, "uniform-large")
    return random_text(rng, UNIFORM_N), distinct_word(rng)


def uniform_setup(seed: int) -> dict:
    text, word = uniform_inputs(seed)
    truth = uniform_distance(text, word)
    UniformSampler(text)
    return {"truth": fraction_str(truth)}


class UniformLarge:
    """Uniform estimator, n = 1e7, 2,832 draws per operation (s << n)."""

    def __init__(self, text: Text, word: Word, truths: dict) -> None:
        self.word = word
        self.truth = Fraction(truths["truth"])
        self.sampler = UniformSampler(text)
        self.plan = uniform_plan(K, UNIFORM_DELTA)

    @classmethod
    def from_seed(cls, seed: int, truths: dict) -> "UniformLarge":
        return cls(*uniform_inputs(seed), truths)

    def operation(self, seed: int, index: int):
        return estimate_distance_uniform(self.sampler, self.word, UNIFORM_DELTA, seed)

    def check(self, index: int, result) -> None:
        require(result.sample_size == self.plan.sample_size, "sample size differs from plan")
        check_estimate(result.raw, result.estimate, self.truth, UNIFORM_DELTA)


# -- df-weighted -------------------------------------------------------------


def df_inputs(seed: int) -> tuple[Text, Distribution, Word, Word]:
    rng = stream(seed, "df-weighted")
    text = random_text(rng, DF_N)
    mult = with_heavy(rng, integer_weights(rng, DF_N, DF_LIGHT_MAX, DF_ZERO_SHARE),
                      DF_HEAVY, DF_HEAVY_MULT)
    return text, rational_distribution(mult), repeat_word(rng), distinct_word(rng)


def df_setup(seed: int) -> dict:
    text, dist, rep, free = df_inputs(seed)
    truths = {
        "repeat": fraction_str(exact_weighted_distance(text, rep, dist)),
        "free": fraction_str(exact_weighted_distance(text, free, dist)),
    }
    WeightedSampler(text, dist)
    return truths


class DfWeighted:
    """Distribution-free estimators at n = 1e5, about 4.9M draws (s >> n).

    Even operations run `estimate_distance` on a word with an adjacent
    repeat, odd ones `estimate_distance_repeat_free` on a repeat-free word.
    """

    def __init__(self, text: Text, dist: Distribution, repeat: Word, free: Word,
                 truths: dict) -> None:
        self.repeat, self.free = repeat, free
        self.truths = {"repeat": Fraction(truths["repeat"]), "free": Fraction(truths["free"])}
        self.sampler = WeightedSampler(text, dist)

    @classmethod
    def from_seed(cls, seed: int, truths: dict) -> "DfWeighted":
        return cls(*df_inputs(seed), truths)

    @staticmethod
    def separator(index: int) -> bool:
        return index % 2 == 0

    def operation(self, seed: int, index: int):
        if self.separator(index):
            return estimate_distance(self.sampler, self.repeat, DF_DELTA, seed)
        return estimate_distance_repeat_free(self.sampler, self.free, DF_DELTA, seed)

    def check(self, index: int, result) -> None:
        truth = self.truths["repeat" if self.separator(index) else "free"]
        res = interval_resolution(K, DF_DELTA)
        require(result.resolution == res, "resolution differs from plan")
        require(result.first_size == first_sample_size(res), "first sample size differs from plan")
        require(
            result.second_size == second_sample_size(res, K, result.intervals),
            "second sample size differs from plan",
        )
        check_estimate(result.raw, result.estimate, truth, DF_DELTA)


# -- oracles -----------------------------------------------------------------


@dataclass
class OracleInstance:
    seed: int
    text: Text
    word: Word
    dist: Distribution


def oracle_instance(instance_seed: int) -> OracleInstance:
    rng = stream(instance_seed, "oracles")
    text = random_text(rng, ORACLE_N)
    mult = with_heavy(rng, integer_weights(rng, ORACLE_N, ORACLE_MULT_MAX, ORACLE_ZERO_SHARE),
                      ORACLE_HEAVY, ORACLE_HEAVY_MULT)
    return OracleInstance(instance_seed, text, repeat_word(rng), rational_distribution(mult))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return {int(s): Fraction(d) for s, d in json.load(handle)["distances"].items()}


class Oracles:
    """Exact weighted distance plus event diagnostics for one instance.

    Operations cycle through a fixed pool of instances, starting at an
    offset chosen by the workload seed; the diagnostics seed is the
    operation seed.
    """

    def __init__(self, seed: int) -> None:
        self.pool = [oracle_instance(s) for s in ORACLE_POOL_SEEDS]
        self.golden = load_golden()
        missing = [inst.seed for inst in self.pool if inst.seed not in self.golden]
        if missing:
            raise ValueError(f"no golden distance for oracle instances {missing}")
        self.offset = int(seed) % len(self.pool)

    @classmethod
    def from_seed(cls, seed: int, truths: dict) -> "Oracles":
        return cls(seed)

    def instance(self, index: int) -> OracleInstance:
        return self.pool[(self.offset + index) % len(self.pool)]

    def operation(self, seed: int, index: int):
        inst = self.instance(index)
        distance = exact_weighted_distance(inst.text, inst.word, inst.dist)
        report = event_diagnostics(
            inst.text, inst.word, inst.dist, ORACLE_DELTA, ORACLE_TRIALS, seed
        )
        return distance, report

    def check(self, index: int, result) -> None:
        distance, report = result
        inst = self.instance(index)
        require(distance == self.golden[inst.seed], f"exact distance {distance} is not golden")
        require(report["trials"] == ORACLE_TRIALS, "diagnostics ran the wrong trial count")
        require(report["first_sample"] == first_sample_size(interval_resolution(K, ORACLE_DELTA)),
                "diagnostics first sample size differs from plan")
        require(report["light_weight_violations"] == 0, "light-weight bound violated")
        require(report["density_bound_violations"] == 0, "density bound violated")


def oracle_setup(seed: int) -> dict:
    Oracles(seed)
    return {}


def working_set_bytes(workload: str) -> int:
    """Bytes of the arrays one operation touches, computed from their
    sizes (cache misses ignored): the dense draw (weights, counts), per
    distinct symbol a dense count vector and its cumulative sum, and the
    inputs they read."""
    if workload == "uniform-large":
        return (8 + 8 + 16 * K) * UNIFORM_N
    if workload == "df-weighted":
        # two draws, partition prefix sums, density tallies per symbol
        return (2 * 16 + 24 + 16 + 16 * K) * DF_N
    expanded = ORACLE_N * ORACLE_MULT_MAX  # about twice the common denominator
    # expanded int32 text, then per separated-word symbol a bool mask and
    # two int64 prefix arrays
    return (4 + 17 * K) * expanded


# Set-up of each workload as timed for `setup_s`: inputs, exact truths and
# samplers. The truths it returns are handed to the operations.
SETUPS = {"uniform-large": uniform_setup, "df-weighted": df_setup, "oracles": oracle_setup}
RUNNERS = {"uniform-large": UniformLarge, "df-weighted": DfWeighted, "oracles": Oracles}
