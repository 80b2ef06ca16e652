"""Self-tests of the benchmark.

    python3 -m pytest perfbench/selftest.py

They run every workload briefly through ``run.py`` (about two minutes in
all), so they live here rather than in the package's test suite.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mfaclab import analysis, controller, edlm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNUSED = ROOT / ".perfbench-out" / "unused"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # A traced run is correct only if its traced and untraced passes left
    # identical outputs.
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_traced_pass_leaves_the_same_outputs():
    # The stability workload writes no files, so it needs no directories.
    stability = workloads.WORKLOADS["stability"]
    loops = stability.build(11, UNUSED)
    plain = stability.check(loops, UNUSED, stability.run(loops, UNUSED))
    with tracing.installed(tracing.Tracer()) as tracer:
        results = stability.run(loops, UNUSED)
    traced = stability.check(loops, UNUSED, results)
    assert traced.digest == plain.digest
    assert tracing.layer_metrics(tracer, traced)["analysis.stability_check.calls"] > len(loops)


def test_missing_traced_name_reports_zero(monkeypatch):
    monkeypatch.delattr(sys.modules["mfaclab.kinematics"], "condition_number")
    traced = dict(tracing.TRACED, **{"plant.gone": ("mfaclab.plant", "NoSuchClass.method")})
    with tracing.installed(tracing.Tracer(), traced) as tracer:
        analysis.stability_check(analysis.closed_loop_matrix(
            edlm.PseudoJacobian((), (np.eye(1),)), controller.Weighting(np.ones(1))))
    m = tracing.layer_metrics(tracer, workloads.Outcome(ops=1, attempted=1, failed=0, solver_failed=0, loops=1))
    assert m["kinematics.condition_number.calls"] == 0
    assert m["kinematics.condition_number.self_s"] == 0.0
    assert m["plant.gone.calls"] == 0
    assert m["analysis.stability_check.calls"] == 1


def test_reference_agrees_with_analysis():
    rng = np.random.default_rng(5)
    for My, Ly, Lu in workloads.Stability.SHAPES:
        out_blocks = rng.normal(0.0, 0.5, (Ly, My, My))
        in_blocks = rng.normal(0.0, 1.0, (Lu, My, My))
        weights = rng.uniform(0.0, 1.0, My)
        report = analysis.stability_check(analysis.closed_loop_matrix(
            edlm.PseudoJacobian(tuple(out_blocks), tuple(in_blocks)), controller.Weighting(weights)))
        radius = max((abs(r) for r in report.characteristic_roots), default=0.0)
        assert reference.spectral_radius(out_blocks, in_blocks, weights) == pytest.approx(radius, abs=1e-10)


def test_reference_splits_off_roots_at_infinity():
    # det(T_0 z + T_1) = (z - 0.5) * 1: one finite root, one at infinity.
    T = np.array([np.diag([1.0, 0.0]), np.diag([-0.5, 1.0])])
    assert np.allclose(reference.pencil_roots(T), [0.5])
    # On an invertible lead block the shifted pencil matches the companion matrix.
    T = np.random.default_rng(2).normal(size=(3, 2, 2))
    direct = np.sort_complex(reference.pencil_roots(T))
    shifted = np.sort_complex(reference.singular_lead_roots(*reference._companion_parts(T)))
    assert np.allclose(direct, shifted)


def test_same_seed_same_population():
    stability = workloads.WORKLOADS["stability"]

    def weights(seed):
        return [tuple(w.entries) for _, w in stability.build(seed, UNUSED)]

    assert weights(4) == weights(4)
    assert weights(4) != weights(5)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench-out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "stability", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
