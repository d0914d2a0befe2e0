"""Recompute the exact distances of the oracle workload's instance pool.

Run from the repository root:

    python3 perfbench/make_golden.py

It rewrites `perfbench/data/oracle_golden.json`. The stored fractions
are the answers `exact_weighted_distance` gives for the instances that
`workloads.oracle_instance` builds; the `oracles` workload fails any
operation whose exact distance differs from them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from seqfree import exact_weighted_distance  # noqa: E402
from seqfree.harness.experiments import fraction_str  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    distances = {}
    for seed in workloads.ORACLE_POOL_SEEDS:
        inst = workloads.oracle_instance(seed)
        distance = exact_weighted_distance(inst.text, inst.word, inst.dist)
        distances[str(seed)] = fraction_str(distance)
        print(f"instance {seed}: D = {inst.dist.common_denominator()}, "
              f"distance = {float(distance):.6f}")
    payload = {"n": workloads.ORACLE_N, "distances": distances}
    workloads.GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
