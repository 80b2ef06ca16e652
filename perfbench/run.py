"""Run one mfaclab benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Set-up is timed first, in fresh interpreters.  Then whole passes of the
workload run back to back in this process for about S seconds.  Every pass
is checked, and all passes must leave byte-identical outputs.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-layer ones.  ``BENCHMARK.json`` names the
metrics and their units.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2


def import_program():
    """Import mfaclab from this checkout's src/, and nowhere else."""
    if not (SRC / "mfaclab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no mfaclab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mfaclab

    if Path(mfaclab.__file__).resolve().parent != SRC / "mfaclab":
        raise SystemExit(f"run.py: imported mfaclab from {mfaclab.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median time from interpreter start to built inputs, over fresh processes."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--setup-probe", str(work / f"probe{i}")]
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - started)
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed with status {proc.returncode}")
    return statistics.median(times)


def run_passes(workload, inputs, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Back-to-back passes until the next one would overrun ``seconds``."""
    from tracing import Tracer, installed, layer_metrics

    deadline = time.perf_counter() + seconds
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        tracer = Tracer() if traced else None
        begun = time.perf_counter()
        with installed(tracer) if traced else contextlib.nullcontext():
            started = time.perf_counter()
            state = workload.run(inputs, out)
            wall = time.perf_counter() - started
        outcome = workload.check(inputs, out, state)
        shutil.rmtree(out, ignore_errors=True)
        passes.append({
            "traced": traced,
            "wall": wall,
            "outcome": outcome,
            "layers": layer_metrics(tracer, outcome) if traced else None,
            "cost": time.perf_counter() - begun,
        })
        if len(passes) >= MIN_PASSES:
            upcoming = trace and len(passes) % 2 == 1
            typical = statistics.median(p["cost"] for p in passes if p["traced"] == upcoming)
            if time.perf_counter() + typical > deadline:
                return passes


def summarize(passes: list[dict], trace: bool, setup_s: float | None) -> tuple[dict, list[str]]:
    """Metric values by name, and the problems found."""
    problems: list[str] = []
    for p in passes:
        problems += [msg for msg in p["outcome"].problems if msg not in problems]
    if len({p["outcome"].digest for p in passes}) != 1:
        problems.append("passes left different outputs"
                        + (" (traced and untraced passes disagree)" if trace else ""))
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall"] for p in plain)
    if not trace:
        return {
            "wall_s": wall,
            "ops_per_s": statistics.median(p["outcome"].ops / p["wall"] for p in plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, problems
    traced = [p for p in passes if p["traced"]]
    metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    outcome = traced[0]["outcome"]
    metrics["trace_overhead_s"] = statistics.median(p["wall"] for p in traced) - wall
    metrics["fail_ratio"] = outcome.solver_failed / outcome.attempted if outcome.attempted else 0.0
    metrics["marginal"] = outcome.marginal
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help="build the inputs into DIR, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        workload.build(args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = ROOT / ".perfbench-out" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, work)
        inputs = workload.build(args.seed, work / "inputs")
        passes = run_passes(workload, inputs, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    values, problems = summarize(passes, bool(args.trace), setup_s)
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"run.py: computed metrics {sorted(values)} do not match BENCHMARK.json")

    first = passes[0]["outcome"]
    walls = " ".join(f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, wall s {walls} (t = traced)")
    print(f"per pass: {first.ops} ops, {first.attempted} attempted, {first.failed} failed, "
          f"fail_ratio {first.solver_failed}/{first.attempted}, {first.marginal} marginal, "
          f"digest {first.digest[:16]}")
    for msg in problems[:20]:
        print(f"problem: {msg}")
    result = {
        "correct": not problems,
        "attempted": sum(p["outcome"].attempted for p in passes),
        "failed": sum(p["outcome"].failed for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
