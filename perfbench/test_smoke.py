"""Smoke tests of the benchmark, at minimal input size.

    python3 -m pytest perfbench/test_smoke.py -q

They run every workload untraced and traced and check that each metric
named in BENCHMARK.json is reported with its unit, and that the call counts
of the traced run are the ones the workload's inputs imply.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: Per-op call counts at smoke size (a two-point sweep for cli-bench).
COUNTS = {
    "engine-m4": {"spectral.mir_calls": 15, "spectral.integrate_band_calls": 666,
                  "decomposition.aggregate_coarse_calls": 1, "var.lyapunov_calls": 0},
    "cli-decompose": {"var.lyapunov_calls": 11, "baselines.submodel_calls": 10,
                      "spectral.mir_calls": 15, "spectral.integrate_band_calls": 666,
                      "decomposition.aggregate_coarse_calls": 2},
    "cli-bench": {"var.lyapunov_calls": 14, "baselines.submodel_calls": 12},
    "cli-fit": {"var.lyapunov_calls": 0, "spectral.mir_calls": 0},
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    if trace:
        for name, count in COUNTS[workload].items():
            assert result["metrics"][name]["value"] == count, name
        assert result["metrics"]["spectral.errors"]["value"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "engine-m4", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_skips_missing_bindings(monkeypatch):
    import pird.cli
    import tracer

    main = pird.cli.main
    points = tracer.POINTS + (
        ("pird.no_such_module", "f", "var.gone_s", None),
        ("pird.cli", "no_such_function", "cli.gone_s", "cli.gone_calls"),
    )
    monkeypatch.setattr(tracer, "POINTS", points)
    t = tracer.Tracer()
    t.install()
    try:
        assert pird.cli.main is not main
        assert {"var.gone_s", "cli.gone_s", "cli.gone_calls"}.isdisjoint(t.present)
        assert "cli.self_s" in t.present
    finally:
        t.uninstall()
    assert pird.cli.main is main


def test_sim3_inputs_match_the_package():
    import inputs
    import numpy as np
    import pird

    model = pird.build_scenario(pird.Scenario("sim3"))
    np.testing.assert_array_equal(inputs.sim3_coeffs(), model.coeffs)
    np.testing.assert_array_equal(np.eye(4), model.sigma)
