"""seqfree benchmark: closed-loop workloads with checked outputs, and a
separate traced run for per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--workload` is one of uniform-large, df-weighted, oracles, or `all` (the
default), which runs each in turn.

With `--trace 0` a workload reports its end-to-end metrics, measured with
tracing off; with `--trace 1` it replays its pipeline through the
package's public functions and reports the per-layer metrics instead.
BENCHMARK.json names both sets. Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

Each workload is one caller issuing the next operation only after the
previous one returns. The operations run in a fresh worker process, so
that `peak_rss_mb` is the operations' own peak and not that of set-up.
One untimed warm-up operation runs first. Before it, and at even steps
through the timed window, the worker times one set-up (inputs, exact
truths, samplers) in a fresh child process; `setup_s` is their median.
Set-up thus samples the same stretch of time as the operations, each
time from the same cold start. `throughput_ops_s` counts operations per
second of the window, the set-up pauses left out. The package is
imported from `src/` next to this directory; it need not be installed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("uniform-large", "df-weighted", "oracles")
SETUP_REPEATS = {"uniform-large": 7, "df-weighted": 3, "oracles": 15}
SETUP_TIMEOUT_S = 120
# The worker may take this long beyond --seconds: its set-ups, the
# warm-up and the last operation of the window.
WORKER_MARGIN_S = 120


def metric_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and per-layer metrics, in order,
    as BENCHMARK.json at the repository root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def import_program() -> None:
    """Put the checkout's package and this directory on the import path."""
    package = ROOT / "src" / "seqfree" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def machine() -> str:
    """CPU count and last-level cache size, for the working-set line."""
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return f"L3 {l3}, {os.cpu_count()} CPUs"


# -- worker: the operations of one workload, in a fresh process ---------------


def closed_loop(seconds: float, attempt, pauses: int = 0, pause=None) -> dict:
    """Run `attempt(index)` for index 0 (untimed warm-up), 1, 2, ... until
    the operations have taken `seconds`. `pause()` is called, untimed,
    `pauses` times, spread evenly over that window. `attempt` returns None
    or a failure message."""
    failures = []

    def run(index: int) -> None:
        message = attempt(index)
        if message:
            failures.append(message)

    run(0)
    latencies = []
    window = 0.0
    paused = 0
    while window < seconds:
        while paused < pauses and window >= seconds * (paused + 1) / (pauses + 1):
            pause()
            paused += 1
        t0 = time.perf_counter()
        run(len(latencies) + 1)
        latencies.append(time.perf_counter() - t0)
        window += latencies[-1]
    for _ in range(pauses - paused):
        pause()
    return {"latencies": latencies, "window_s": window, "attempted": len(latencies) + 1,
            "failed": len(failures), "failures": failures[:5]}


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space (VmHWM).

    `ru_maxrss` would not do: a child started by vfork, as subprocess
    does, begins with its parent's peak."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def timed_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Seconds of one set-up in a fresh child process, and the truths it
    computed. The child's interpreter start and imports are not timed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr.decode()}")
    result = json.loads(done.stdout)
    return result["seconds"], result["truths"]


def setup_main(workload: str, seed: int) -> int:
    import_program()
    import workloads as w

    seconds, truths = w.timed(w.SETUPS[workload], seed)
    sys.stdout.write(json.dumps({"seconds": seconds, "truths": truths}) + "\n")
    return 0


def worker_main() -> int:
    job = json.loads(sys.stdin.read())
    import_program()
    import workloads as w

    workload, seed = job["workload"], job["seed"]
    setup_times = []

    def setup() -> dict:
        seconds, truths = timed_setup(workload, seed)
        setup_times.append(seconds)
        return truths

    runner = w.RUNNERS[workload].from_seed(seed, setup())

    def attempt(index: int):
        try:
            runner.check(index, runner.operation(w.op_seed(seed, index), index))
        except Exception:  # every failure is counted, the loop keeps running
            return traceback.format_exc(limit=3)
        return None

    result = closed_loop(job["seconds"], attempt, SETUP_REPEATS[workload] - 1, setup)
    result["peak_rss_kb"] = peak_rss_kb()
    result["setup_s"] = setup_times
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def run_worker(workload: str, seed: int, seconds: float) -> dict:
    """Run the worker, and kill it and its set-up children if it overruns."""
    job = json.dumps({"workload": workload, "seed": seed, "seconds": seconds})
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(job.encode(), timeout=seconds + WORKER_MARGIN_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{err.decode()}")
    return json.loads(out)


# -- end-to-end run -------------------------------------------------------------


def tail(latencies: list) -> tuple | None:
    """Highest percentile with at least ten operations beyond it, if it
    lies above the median: (percentile, value)."""
    n = len(latencies)
    if n < 22:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    import workloads as w

    result = run_worker(workload, seed, seconds)
    lat = result["latencies"]
    setups = result["setup_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(lat),
        "throughput_ops_s": len(lat) / result["window_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    print(f"== {workload}  seed {seed}: {len(lat)} timed operations in "
          f"{result['window_s']:.2f} s, closed loop, 1 caller, 1 warm-up")
    units = metric_units()[0]
    for name, unit in units.items():
        print(f"   {name:<18} {metrics[name]:.6g} {unit}")
    found = tail(lat)
    if found:
        print(f"   {'latency_tail_s':<18} {found[1]:.6g} s (p{found[0]:.1f}, "
              f"{len(lat)} operations)")
    else:
        print(f"   {'latency_tail_s':<18} n/a ({len(lat)} operations; needs 22)")
    print(f"   {'failed_ratio':<18} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    q1, _, q3 = statistics.quantiles(lat, n=4) if len(lat) > 1 else (lat[0],) * 3
    print(f"   latency quartiles  {q1:.6g} .. {q3:.6g} s")
    print(f"   setup runs (s)     {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"   working set        {w.working_set_bytes(workload) / 2**20:.1f} MiB computed;"
          f" {machine()}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: (metrics[name], unit) for name, unit in units.items()}}


# -- traced run -----------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float) -> dict:
    import tracing
    import workloads as w

    w.WORKDIR.mkdir(exist_ok=True)
    tr = tracing.Tracer()
    case = tracing.CASES[workload](tr, seed)
    differences: list = []

    def attempt(index: int):
        tr.request = index if index else "warmup"
        try:
            lib_s, replay_s = case.traced_operation(index)
        except Exception:  # counted as a failed replay; the loop keeps running
            return traceback.format_exc(limit=3)
        if index > 0:
            differences.append(replay_s - lib_s)
        return None

    loop = closed_loop(seconds, attempt)
    loop["attempted"] += 1
    try:
        tracing.probe(tr, seed, skip=workload)
    except Exception:  # a failed probe replay is counted like a failed operation
        loop["failed"] += 1
        loop["failures"].append(traceback.format_exc(limit=3))
    if not differences:
        raise RuntimeError("no operation was replayed successfully:\n"
                           + "\n".join(loop["failures"]))
    tr.request = "awkward"
    notes = tracing.awkward_probe(tr)
    values = tr.metrics()
    values["trace.overhead_s"] = tr.overhead_s()
    units = metric_units()[1]
    missing = [name for name in units if name not in values]
    if missing:
        raise RuntimeError(f"trace recorded no value for {missing}")
    spans_path = w.WORKDIR / f"trace-{workload}.jsonl"
    tr.write(spans_path)

    probed = tr.probe_only()
    print(f"== {workload}  seed {seed}: traced replay of {len(differences)} operations "
          f"(+1 warm-up); spans in {spans_path.relative_to(ROOT)}")
    q1, mid, q3 = (statistics.quantiles(differences, n=4) if len(differences) > 1
                   else (differences[0],) * 3)
    print(f"   traced minus untraced, paired per operation: median {mid:.6g} s "
          f"(quartiles {q1:.6g} .. {q3:.6g} s)")
    for name, unit in units.items():
        origin = "  (probe instance, off this workload's path)" if name in probed else ""
        print(f"   {name:<32} {values[name]:.6g} {unit}{origin}")
    print(f"   working set {w.working_set_bytes(workload) / 2**20:.1f} MiB computed; "
          f"{machine()}")
    for note in notes:
        print(f"   awkward input: {note}")
    for failure in loop["failures"]:
        print(f"   FAILED: {failure}")
    return {"attempted": loop["attempted"], "failed": loop["failed"],
            "metrics": {name: (values[name], unit) for name, unit in units.items()}}


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker_main()
    if args.setup:
        return setup_main(args.workload, args.seed)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    import_program()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    run = traced if args.trace else end_to_end
    results = {name: run(name, args.seed, args.seconds) for name in names}

    def key(workload: str, metric: str) -> str:
        return metric if args.workload != "all" else f"{workload}.{metric}"

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(name, metric): {"value": value, "unit": unit}
            for name, r in results.items() for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
