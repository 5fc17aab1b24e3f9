#!/usr/bin/env python3
"""Benchmark of g2orbits: cold CLI calls, lattice censuses and verification.

Run from the repository root::

    python3 bench/run.py --workload cold_cli --seed 1 --seconds 35 --trace 0

Workloads, each a closed loop with one client in which every operation is
a fresh process, so process-wide caches are paid for in every operation:

    cold_cli  seeded ``python -m g2orbits`` calls (table, roots, derivations,
              classify --json on rescaled Weyl images of each orbit type)
    census    set-up, then ``scan`` at a small and a large seeded radius,
              in CSV and JSON, in-process
    verify    ``g2orbits check``

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the traced layer sweep and reports the per-layer
metrics.  Every output is checked by an oracle in ``oracle.py``.  A
readable report precedes the last line of stdout, which is one JSON object
with the result; inputs, samples and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle
import spans
import tally

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2orbits"
PROBE = str(Path(__file__).resolve().parent / "probe.py")
OUT = ROOT / ".bench_out"
PY = sys.executable
WORKLOADS = ("cold_cli", "census", "verify")

#: fresh-process set-up measurements per run, spread evenly over it
SETUP_PROBES = 8
INTERPRETER_PROBES = 3
CHILD_TIMEOUT_S = 120

#: A fixed pure-Python task in a fresh interpreter that does not use the
#: package.  The host the benchmark was tuned on switches between speeds up
#: to 1.9x apart for tens of seconds at a time.  The reference runs between
#: the timed processes throughout a run, and its median wall time tracks
#: the speed the run had.
REFERENCE = ("from fractions import Fraction as F\n"
             "for i in range(1, 30000):\n"
             "    x = F(i, i + 7) * F(i + 3, i + 11) + F(i, 13)\n")
#: the reference's wall time to which calibrated figures are scaled
REFERENCE_S = 0.4
#: the reference runs before a timed process once this much time has passed
#: since its last run, so short operations share one reference
CALIBRATE_EVERY_S = 2.0


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float


def run_child(argv, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run argv from the repository root with the checkout's package first
    on the path; a child that outlives ``timeout`` is killed and fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Child(-9, "", f"killed after {timeout} s", time.perf_counter() - start)
    return Child(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


def peak_rss_mb() -> float:
    """Largest resident set of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Run:
    """State of one benchmark run: clock, failure count, inputs, spans."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.inputs = {}
        self.notes = []
        self.samples = {}
        self.rec = spans.Recorder(keep=trace)
        self.spans = self.rec.spans
        self.ops = 0
        self.references = []
        self._reference_at = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def reference(self):
        """Run the reference task if CALIBRATE_EVERY_S have passed since it
        last ran."""
        now = self.elapsed()
        if self._reference_at is None or now - self._reference_at >= CALIBRATE_EVERY_S:
            ref = run_child([PY, "-c", REFERENCE])
            if ref.returncode != 0:
                raise SystemExit(f"the reference task failed: {ref.stderr}")
            self.references.append(ref.wall_s)
            self._reference_at = now

    def host_factor(self) -> float:
        """REFERENCE_S over the reference's median wall time in this run.
        A wall time of the run, times this factor, is calibrated: it reads
        as if the run's host had run the reference in REFERENCE_S."""
        return REFERENCE_S / tally.median(self.references)

    def judge(self, what: str, problems) -> bool:
        """Count one attempted operation, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failures.append({"op": what, "problems": list(problems[:3])})
            print(f"FAILED {what}: {problems[0]}", file=sys.stderr)
        return not problems

    def probe(self, mode: str, *args, traced=False):
        """Run ``probe.py mode args`` in a fresh process: (child, result or None).

        A traced probe runs inside an op span, and its spans join the run's.
        """
        argv = [PY, PROBE, mode]
        if traced:
            self.ops += 1
            span = self.rec.span(f"op.{mode}")
            rest = ["--trace", str(self.ops), span.record["id"], *map(str, args)]
            with span:
                c = run_child(argv + rest)
        else:
            c = run_child(argv + [str(a) for a in args])
        try:
            result = json.loads(c.stdout.rstrip().rsplit("\n", 1)[-1])
        except ValueError:
            result = None
        if c.returncode != 0 or result is None:
            tail = c.stderr.strip().splitlines()[-1:] or [""]
            return c, {"problems": [f"probe {mode} exited {c.returncode}: {tail[0]}"], "failed": True}
        if result["package"] != str(PACKAGE):
            result["problems"].append(f"imported g2orbits from {result['package']}")
        self.spans.extend(result["spans"])
        return c, result


def closed_loop(run: Run, op, setup_probes=SETUP_PROBES) -> list:
    """Call op() back to back for run.seconds (at least once), with
    ``setup_probes`` fresh-process set-up measurements spread evenly over
    the run.  Returns the set-up times."""
    setups, probes, done = [], 0, 0
    while True:
        t = run.elapsed()
        if probes < setup_probes and t >= probes * run.seconds / setup_probes:
            probes += 1
            run.reference()
            _, res = run.probe("setup")
            if run.judge("setup", res["problems"]):
                setups.append(res["setup_s"])
            continue
        if done and t >= run.seconds:
            return setups
        op()
        done += 1


def end_to_end(run: Run, setups, per_op, work: float, busy_s: float, names) -> dict:
    """The end-to-end metrics, every timing calibrated by the run's host
    factor; ``names`` gives each its workload-specific alias."""
    if not setups or not per_op:
        raise SystemExit("no successful measurement: every operation failed")
    run.samples.update(setup_s=setups, per_op=per_op, reference_s=run.references)
    factor = run.host_factor()
    tail, pct, n = tally.tail(per_op)
    run.notes += [
        f"timings      wall times x {factor:.4f}: the reference task took a median"
        f" {tally.median(run.references):.4f} s over {len(run.references)} runs,"
        f" calibrated to {REFERENCE_S} s",
        f"             uncalibrated: setup_s {tally.median(setups):.6g},"
        f" op_p50_s {tally.median(per_op):.6g}",
        f"setup_s      median of {len(setups)} fresh-process set-ups",
        f"op_p50_s     {names[0]}, median of n={n}",
        f"op_tail_s    {names[1]}, p{pct:.1f} of n={n}",
        f"ops_per_s    {names[2]}: {work:g} in {busy_s:.3f} s uncalibrated",
        "peak_rss_mb  max resident memory of any program process",
    ]
    return {
        "setup_s": tally.median(setups) * factor,
        "op_p50_s": tally.median(per_op) * factor,
        "op_tail_s": tail * factor,
        "ops_per_s": work / (busy_s * factor),
        "peak_rss_mb": peak_rss_mb(),
    }


def cold_cli(run: Run) -> dict:
    calls = gen.cli_calls(run.seed)
    walls = []

    def op():
        command, argv, tau = next(calls)
        run.reference()
        c = run_child([PY, "-m", "g2orbits", *argv])
        run.judge(" ".join(argv), oracle.check_cli(command, tau, c.returncode, c.stdout))
        run.inputs.setdefault("argv", []).append(argv)
        walls.append(c.wall_s)

    setups = closed_loop(run, op)
    return end_to_end(run, setups, walls, len(walls), sum(walls),
                      ("cli_p50_s", "cli_tail_s", "CLI calls per second"))


#: census operations alternate between the two formats scan prints
SCAN_FORMATS = ("csv", "json")


def _census_op(run: Run, fmt: str, radii, traced=False):
    """One census operation: (seconds per point, points, scan seconds,
    set-up seconds) or None."""
    _, res = run.probe("scan", fmt, *radii, traced=traced)
    run.judge(f"scan {fmt} {radii}", res["problems"])
    if res.get("failed"):
        return None
    points = sum(s["points"] for s in res["scans"])
    seconds = sum(s["seconds"] for s in res["scans"])
    return seconds / points, points, seconds, res["setup_s"]


def census(run: Run) -> dict:
    radii = gen.census_radii(run.seed)
    run.inputs["radii"] = radii
    formats = itertools.cycle(SCAN_FORMATS)
    done = []

    def op():
        run.reference()
        r = _census_op(run, next(formats), radii)
        if r:
            done.append(r)

    # every operation sets up in a fresh process first, and times that
    # set-up just as a set-up probe would, so no separate probes are needed
    closed_loop(run, op, setup_probes=0)
    setups = [d[3] for d in done]
    points, seconds = sum(d[1] for d in done), sum(d[2] for d in done)
    run.samples["op_s_per_point"] = [d[0] for d in done]
    # A run holds only a handful of operations, and the host's speed drifts
    # between them, so the run's total is steadier than their median.
    return end_to_end(run, setups, [seconds / points] if points else [], points, seconds,
                      (f"scan seconds per point over the run (radii {radii[0]} and {radii[1]})",
                       "the same", "scan_points_per_s"))


def verify(run: Run) -> dict:
    walls = []

    def op():
        run.reference()
        c = run_child([PY, "-m", "g2orbits", "check"])
        run.judge("check", oracle.check_check_output(c.returncode, c.stdout))
        walls.append(c.wall_s)

    setups = closed_loop(run, op)
    return end_to_end(run, setups, walls, len(walls), sum(walls),
                      ("check_s", "its tail", "check runs per second"))


# --------------------------------------------------------------- traced run

class Pairs:
    """Untraced and traced figures of the same operations."""

    def __init__(self):
        self.untraced, self.traced = [], []

    def overhead(self) -> float:
        return tally.median(self.traced) - tally.median(self.untraced)


def _cli_pair(run: Run, call, pairs: Pairs, walls: dict):
    command, argv, tau = call
    run.inputs.setdefault("argv", []).append(argv)
    c = run_child([PY, "-m", "g2orbits", *argv])
    if run.judge(" ".join(argv), oracle.check_cli(command, tau, c.returncode, c.stdout)):
        walls.setdefault(command, []).append(c.wall_s)
        pairs.untraced.append(c.wall_s)
    t, res = run.probe("cli", "--", *argv, traced=True)
    problems = res["problems"] if res.get("failed") else oracle.check_cli(command, tau, res["exit"], res["stdout"])
    if run.judge("traced " + " ".join(argv), problems):
        pairs.traced.append(t.wall_s)


def _check_pair(run: Run, pairs: Pairs, untraced=True):
    if untraced:
        c = run_child([PY, "-m", "g2orbits", "check"])
        if run.judge("check", oracle.check_check_output(c.returncode, c.stdout)):
            pairs.untraced.append(c.wall_s)
    t, res = run.probe("check", traced=True)
    problems = res["problems"] if res.get("failed") else oracle.check_check_output(res["exit"], res["stdout"])
    if run.judge("traced check", problems):
        pairs.traced.append(t.wall_s)


#: layers named in self.<layer>_s, the module each span name starts with
LAYERS = ("cli", "derivations", "linalg", "roots", "orbits", "cayley", "checks")


def traced(run: Run) -> dict:
    """Per-layer metrics from a fixed part (the layer sweep, one block of
    CLI pairs and one check pair), then untraced/traced pairs of the
    workload's own operation until run.seconds have passed."""
    _, res = run.probe("layers", run.seed, traced=True)
    run.judge("layers", res["problems"])
    if res.get("failed"):
        raise SystemExit("the layer sweep failed")
    metrics = dict(res["metrics"])
    run.inputs["layer_radii"] = res["radii"]
    interpreter = [run_child([PY, "-c", "pass"]).wall_s for _ in range(INTERPRETER_PROBES)]

    calls = gen.cli_calls(run.seed)
    cli_walls, cli_pairs, check_pairs = {}, Pairs(), Pairs()
    for _ in range(gen.BLOCK):  # one block covers every CLI command
        _cli_pair(run, next(calls), cli_pairs, cli_walls)
    _check_pair(run, check_pairs, untraced=run.workload == "verify")
    # self times come from these operations only, so the clock-bounded loop
    # below sets no layer's total
    fixed_ops = run.ops

    radii, formats = gen.census_radii(run.seed), itertools.cycle(SCAN_FORMATS)
    work = {"cold_cli": cli_pairs, "verify": check_pairs}.get(run.workload, Pairs())

    def step():
        if run.workload == "cold_cli":
            _cli_pair(run, next(calls), cli_pairs, cli_walls)
        elif run.workload == "verify":
            _check_pair(run, work)
        else:
            fmt = next(formats)
            for traced_op, figures in ((False, work.untraced), (True, work.traced)):
                r = _census_op(run, fmt, radii, traced=traced_op)
                if r:
                    figures.append(r[0])

    if run.workload == "census":
        step()
    while run.elapsed() < run.seconds:
        step()
    run.samples.update(untraced=work.untraced, traced=work.traced, cli=cli_walls,
                       interpreter=interpreter)

    def span_median(name):
        return tally.median([s["end"] - s["start"] for s in run.spans if s["name"] == name])

    metrics["cli.interpreter_s"] = tally.median(interpreter)
    metrics["cli.import_s"] = span_median("cli.import")
    for command in gen.FIXED_COMMANDS + ("classify",):
        metrics[f"cli.{command}_p50_s"] = tally.median(cli_walls[command])
    for check_id in oracle.CHECK_IDS:
        metrics[f"checks.{check_id}_s"] = span_median(f"checks.{check_id}")
    own = spans.layer_self_times([s for s in run.spans if s["op"] is not None and s["op"] <= fixed_ops])
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = own[layer]
    metrics["trace.overhead_s"] = work.overhead()
    run.notes += [
        f"self.<layer>_s    over the layer sweep, {gen.BLOCK} traced CLI calls and one traced check",
        f"trace.overhead_s  traced minus untraced median of {run.workload}'s operation figure,"
        f" {len(work.traced)} traced and {len(work.untraced)} untraced samples",
        "cli.<cmd>_p50_s   samples: " + ", ".join(f"{k} {len(v)}" for k, v in sorted(cli_walls.items())),
    ]
    return metrics


# ------------------------------------------------------------------- report

def _expected_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _report(run: Run, values: dict, expected) -> dict:
    metrics = {}
    print(f"g2orbits benchmark: workload {run.workload}, seed {run.seed}, "
          f"{run.seconds} s, trace {int(run.trace)}, {run.elapsed():.1f} s wall")
    for m in expected:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")
    for note in run.notes:
        print("  " + note)
    failed = len(run.failures)
    print(f"  failed_ratio {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no g2orbits package at {PACKAGE}", file=sys.stderr)
        return 2
    # compile the package once, so that no measured process pays for it
    warm = run_child([PY, PROBE, "setup"])
    if warm.returncode != 0:
        print(f"error: the package does not set up:\n{warm.stderr}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    expected = _expected_metrics(run.trace)
    if run.trace:
        values = traced(run)
    else:
        values = {"cold_cli": cold_cli, "census": census, "verify": verify}[run.workload](run)
    missing = {m["name"] for m in expected} ^ set(values)
    if missing:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    metrics = _report(run, values, expected)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    record.write_text(json.dumps({
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "inputs": run.inputs, "samples": run.samples, "metrics": metrics, "failures": run.failures,
        "spans": run.spans,
    }))
    print(f"  inputs, samples and spans: {record.relative_to(ROOT)}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
