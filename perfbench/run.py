"""Benchmark of the strahler command line, engine and sampler.

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run makes whole rounds of the
workload's operation list, each round in a fresh interpreter (``worker.py``)
so module-level caches start cold, until ``--seconds`` would be exceeded
(at least four rounds untraced; with ``--trace 1`` untraced and traced
rounds alternate, at least one of each). The run is pinned to one core;
this process times a short speed probe (``calibrate.py``) before each round,
after its set-up and after each operation, and the end-to-end times are
scaled by the probes to a reference speed. Every output is checked against
references computed without the engine (``reference.py``), and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the rounds; with ``--trace 1`` they are the per-layer ones.
The line before it holds the environment. Exit codes: 0 result printed,
1 a round crashed or timed out, 2 usage or no program to measure,
3 the checkers' own self-test failed.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import selftest
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 4  # untraced: every end-to-end figure is a median of at least four
DEADLINE_S = 170  # a run must end within 180 s
# Seconds ``calibrate.probe`` takes on the development machine (README): the
# end-to-end times are reported as the seconds they take at that speed.
PROBE_REFERENCE_S = 0.030


class RoundError(Exception):
    pass


def _version(name: str) -> str:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, ops) -> dict:
    seeds = {"workload": args.seed}
    seeds.update({op["id"]: op["seed"] for op in ops if "seed" in op})
    if any(op["kind"] == "uniform" for op in ops):
        seeds["uniform n=6"] = f"fixed stream {workloads.UNIFORM_SEED!r}"
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seeds": seeds,
    }


def spawn_round(args, traced: bool, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its report.

    The worker writes a line ``probe`` to its stdout before its first
    operation and after each one, and waits for a reply on its stdin; this
    process times ``calibrate.probe`` meanwhile. ``doc["probes"]`` holds
    the probe taken just before the round started and then those.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probes = [calibrate.probe()]
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line == "probe\n":
                probes.append(calibrate.probe())
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(line)
    except BrokenPipeError:
        pass
    finally:
        proc.stdin.close()
        returncode = proc.wait()
        watchdog.cancel()
    if returncode != 0 or not lines:
        raise RoundError(f"a round exited {returncode} (killed at the run's deadline if -9)")
    doc = json.loads(lines[-1])
    doc["traced"] = traced
    doc["probes"] = probes
    if len(probes) != len(doc["ops"]) + 2:
        raise RoundError(f"{len(probes)} probes for {len(doc['ops'])} operations")
    return doc


def run_rounds(args) -> list:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(spawn_round(args, traced, deadline))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        enough = len(rounds) >= 2 if args.trace else len(rounds) >= MIN_ROUNDS
        if args.trace and len(rounds) % 2:
            continue  # traced runs end on a whole pair
        if enough and elapsed + per_round * (2 if args.trace else 1) > args.seconds:
            return rounds


def _setup_problems(text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1 or rows[0].get("value") != "22/7":
        return [f"set-up answer {text!r} is not E_12[S_2] = 22/7"]
    return []


def tally(ops: list, rounds: list) -> tuple:
    """(attempted, failed, problems) over every round's outputs."""
    checker = workloads.Checker()
    attempted = failed = 0
    problems = []
    checked: dict = {}
    for doc in rounds:
        problems += _setup_problems(doc["setup_out"])
        key = ("spots", json.dumps(doc.get("spots")))
        if "spots" in doc and key not in checked:
            checked[key] = checker.spots(doc["spots"])
            problems += checked[key]
        for op, result in zip(ops, doc["ops"]):
            if result["id"] != op["id"]:
                raise RoundError(f"worker ran {result['id']!r} where {op['id']!r} was due")
            attempted += 1
            if result["error"] is not None or result["rc"] != op["rc"]:
                failed += 1
                continue
            # Outputs repeat across rounds; check each distinct one once.
            key = (op["id"], json.dumps(result["out"], sort_keys=True))
            if key not in checked:
                checked[key] = [f"{op['id']}: {p}" for p in checker.check(op, result["out"])]
                problems += checked[key]
    return attempted, failed, sorted(set(problems))


def _trees_per_s(ops: list, doc: dict) -> float:
    trees = seconds = 0.0
    for op, result in zip(ops, doc["ops"]):
        if op["kind"] == "cli" and op["argv"][0] == "sample":
            trees += op["trials"]
            seconds += result["s"]
    return trees / seconds if seconds else 0.0


def _speed(probes: list, i: int) -> float:
    """How much faster than the reference the machine ran between probes i and i+1."""
    return 2 * PROBE_REFERENCE_S / (probes[i] + probes[i + 1])


def _scaled_setup(doc: dict) -> float:
    return doc["setup_s"] * _speed(doc["probes"], 0)


def _scaled_wall(doc: dict) -> float:
    return sum(op["s"] * _speed(doc["probes"], i + 1) for i, op in enumerate(doc["ops"]))


def metric_values(args, ops: list, rounds: list) -> dict:
    plain = [doc for doc in rounds if not doc["traced"]]
    if not args.trace:
        return {
            "setup_s": statistics.median(_scaled_setup(doc) for doc in plain),
            "wall_s": statistics.median(_scaled_wall(doc) for doc in plain),
            "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in plain),
        }
    traced = [doc for doc in rounds if doc["traced"]]
    wall = statistics.median(doc["wall_s"] for doc in plain)
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(doc["layers"][name] for doc in traced)
    values["wall_raw_s"] = wall
    values["setup_raw_s"] = statistics.median(doc["setup_s"] for doc in plain)
    values["probe_ms"] = 1000 * statistics.median(p for doc in plain for p in doc["probes"])
    values["trace.overhead_s"] = statistics.median(doc["wall_s"] for doc in traced) - wall
    values["trees_per_s"] = statistics.median(_trees_per_s(ops, doc) for doc in plain)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "strahler" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no strahler sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    broken = selftest.problems()
    if broken:
        print("error: checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 3

    ops = workloads.build(args.workload, args.seed)
    # One core for this process, its rounds and its probes, so that a probe
    # measures the core the operations it brackets ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        rounds = run_rounds(args)
        attempted, failed, problems = tally(ops, rounds)
    except RoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)

    values = metric_values(args, ops, rounds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"environment": environment(args, ops), "rounds": len(rounds)}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
