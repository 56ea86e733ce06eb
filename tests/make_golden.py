"""Write ``tests/data/golden.json``: reference values that ``test_golden.py``
compares ``decompose`` with, so that a change which only moves roundoff can
be told from one that changes the answer.

Run from the repository root on a committed ``src/`` tree:

    PYTHONPATH=src python tests/make_golden.py

The file records the commit it was generated from. Regenerating it resets
the reference, so it is a reviewed act: say why in CHANGES.md.

Per model the file holds the FULL and band atom PI and redundancy values, the
coarse terms, the joint MIR, the ``staticPID:``/``tePID:`` terms and about
300 profile values at fixed sampled (row, frequency) positions.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

from pird import (
    Band,
    FrequencyGrid,
    Scenario,
    build_scenario,
    decompose,
    psd_from_var,
    random_stable_var,
    static_pid,
    te_pid,
)

PATH = Path(__file__).parent / "data" / "golden.json"
BANDS = (Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2"))
CASES = ("sim1 c=0", "sim1 c=0.4", "sim1 c=0.8", "sim2 c=0.4", "sim3",
         "var6 seed=1", "var6 seed=2", "var6 seed=3")
N_SAMPLES = 300


def case_model(case: str):
    """``(model, sources)`` of a golden case; the target is channel 0 and
    ``None`` means every other channel."""
    name, _, arg = case.partition(" ")
    if name in ("sim1", "sim2"):
        return build_scenario(Scenario(name, {"c": float(arg.split("=")[1])})), None
    if name == "sim3":
        return build_scenario(Scenario("sim3")), None
    seed = int(arg.split("=")[1])
    return random_stable_var(6, 1 + seed % 4, seed=seed, radius=0.9), (1, 2, 4, 5)


def case_values(case: str) -> dict[str, list[float]]:
    """Every golden quantity of one case, keyed by name."""
    model, sources = case_model(case)
    psd = psd_from_var(model, FrequencyGrid(fs=model.fs, n_points=2049))
    res = decompose(psd, 0, sources, BANDS)
    out = {}
    for k, label in enumerate(res.span_labels):
        out[f"pi:{label}"] = res.atom_pi_spans[k]
        out[f"redundancy:{label}"] = res.atom_redundancy_spans[k]
        out[f"joint_mir:{label}"] = res.mir_spans[k, :1]
    if len(res.sources) >= 2:
        for label in res.span_labels:
            t = res.coarse[label]
            out[f"coarse:{label}"] = [*t.unique, t.redundancy, t.synergy, t.joint_mir]
        stat = static_pid(model, 0, res.sources)
        out["staticPID"] = [*stat.unique, stat.redundancy, stat.synergy, stat.joint_mir]
        tep = te_pid(model, 0, res.sources)
        out["tePID"] = [*tep.unique, tep.redundancy, tep.synergy, tep.joint_mir]
    profiles = np.vstack([res.atom_pi, res.atom_redundancy, res.marginal_profiles,
                          res.joint_profile])
    rows, cols = sample_positions(profiles.shape)
    out["profiles"] = profiles[rows, cols]
    return {key: [float(v) for v in np.ravel(val)] for key, val in out.items()}


def sample_positions(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Fixed (row, column) positions in a stack of profiles: both grid ends
    of every fourth row, the rest drawn from a fixed seed."""
    rng = np.random.default_rng(20250206)
    n_rows, n_cols = shape
    ends = np.arange(0, n_rows, 4)
    rows = np.concatenate([ends, ends, rng.integers(0, n_rows, N_SAMPLES)])
    cols = np.concatenate([np.zeros_like(ends), np.full_like(ends, n_cols - 1),
                           rng.integers(0, n_cols, N_SAMPLES)])
    return rows[:N_SAMPLES], cols[:N_SAMPLES]


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    if subprocess.run(["git", "status", "--porcelain", "src"], cwd=root,
                      capture_output=True, text=True, check=True).stdout:
        raise SystemExit("src/ has uncommitted changes; golden values come from a commit")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True, check=True).stdout.strip()
    data = {"commit": commit, "numpy": np.__version__,
            "cases": {case: case_values(case) for case in CASES}}
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH} at {commit}")


if __name__ == "__main__":
    main()
