"""Repeatability of the benchmark on one commit.

    python3 perfbench/repeat.py [--workloads exact-grid,verify]

Runs two sets of ten untraced runs of each workload, every run with its own
seed (set 1 uses seeds 1..10, set 2 uses 101..110). For
each workload and end-to-end metric it prints each set's median and spread
(the distance between the first and third quartile, as a share of the
median) and a verdict:

* ``agree``: every spread is within the metric's bound and the medians
  differ by no more than the bound;
* ``differ``: the spreads are within the bound but the medians are not;
* ``unresolved``: a spread is wider than the bound, so the runs cannot
  tell.

It also compares the share of failed operations between the sets, which
must be identical. Exit code 0 when every row agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    all_agree = True
    print(f"{'workload':12} {'metric':12} {'median 1':>10} {'spread 1':>9} "
          f"{'median 2':>10} {'spread 2':>9} {'bound':>6}  verdict")
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            seeds = range(1 + 100 * k, 1 + 100 * k + RUNS)
            sets.append([one_run(workload, s, spec["run_seconds"]) for s in seeds])
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets}
        fail_share = {f"{f}/{a}" if a else "-" for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            print(json.dumps({"workload": workload, "metric": name, "values": values}),
                  file=sys.stderr)
            worse = medians[1] / medians[0] - 1
            if metric["better"] == "higher":
                worse = -worse
            if max(spreads) > bound:
                verdict = "unresolved"
            elif abs(worse) <= bound:
                verdict = "agree"
            else:
                verdict = "differ"
            all_agree &= verdict == "agree"
            print(f"{workload:12} {name:12} {medians[0]:10.4g} {spreads[0]:9.3f} "
                  f"{medians[1]:10.4g} {spreads[1]:9.3f} {bound:6.2f}  {verdict}")
        same_share = len({f / a for f, a in shares}) == 1
        all_agree &= correct and same_share
        print(f"{workload:12} correct={correct} failed/attempted per set: "
              f"{sorted(fail_share)} {'same' if same_share else 'DIFFERENT'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
