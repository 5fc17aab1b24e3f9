#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (the distance between the first and third
quartile as a share of the median) against its bound.

    python3 bench/spread.py --seeds 1-10 --sets 2

For each seed the workloads run in turn, so a slow stretch of the host
falls on all of them alike.  With ``--sets 2`` the whole sequence runs
twice, and each metric's second median is compared with its first: the
change in the metric's worse direction must stay within its bound.
Quartiles are those of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tally

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, seconds) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worsening(metric, first: float, second: float) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    ok = True
    # values[set][workload][metric] -> one value per seed
    values = [{w: {m["name"]: [] for m in spec["end_to_end"]} for w in args.workloads}
              for _ in range(args.sets)]
    for n, by_workload in enumerate(values, 1):
        for seed in args.seeds:
            for workload in args.workloads:
                result = run_once(spec, workload, seed, args.seconds)
                ok &= result["correct"]
                for name, m in result["metrics"].items():
                    by_workload[workload][name].append(m["value"])
                print(f"set {n} {workload} seed {seed}: " + " ".join(
                    f"{k}={v[-1]:.5g}" for k, v in by_workload[workload].items()), flush=True)
    for workload in args.workloads:
        for m in spec["end_to_end"]:
            line = f"  {workload:<9} {m['name']:<12}"
            medians = []
            for by_workload in values:
                v = by_workload[workload][m["name"]]
                spread = tally.quartile_spread(v) if len(v) > 1 else 0.0
                medians.append(tally.median(v))
                flag = "" if spread < m["bound"] / 3 else "!"
                line += f" | median {medians[-1]:.6g} spread {spread:.4f}{flag}"
            if len(medians) > 1:
                worse = worsening(m, medians[0], medians[-1])
                line += f" | worse by {worse:+.4f}" + ("" if worse <= m["bound"] else " OVER")
            print(f"{line} | {m['unit']}, bound {m['bound']}")
    print("  ! marks a spread above a third of its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
