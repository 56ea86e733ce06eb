"""The four workloads: one operation each, the checks on its output, and the
models fed to the accuracy probe.

Operations and checks use only the ``pird`` command line (in process, through
``pird.cli.main``) and the library API of the README, looked up at call time
so the tracer can wrap them. A workload object is built during set-up; its
first :meth:`op` is the untimed warm-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
from pathlib import Path

import numpy as np

import inputs
import pird


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(value: float, expected: float, tol: float, what: str) -> None:
    _require(abs(value - expected) <= tol, f"{what}: {value!r} vs {expected!r} (tol {tol:g})")


def _load_cli() -> None:
    # Imported by the CLI workloads only, so the library workload's set-up
    # does not pay for the command-line front end.
    importlib.import_module("pird.cli")


def _cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return pird.cli.main(args)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _digest_and_lines(path: Path) -> tuple[str, int]:
    sha, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            lines += chunk.count(b"\n")
    return sha.hexdigest(), lines


_BAND_SPEC = ",".join(f"{label}:{lo}-{hi}" for label, lo, hi in inputs.BANDS)
_BAND_LABELS = ("FULL",) + tuple(label for label, _, _ in inputs.BANDS)
_ATOMS_M4 = 166


def _sweep(spec: str) -> np.ndarray:
    start, step, stop = (float(v) for v in spec.split(":"))
    return np.arange(start, stop + step / 2.0, step)


class EngineM4:
    """Library ``psd_from_var`` + ``decompose`` on 5-channel VARs, M = 4."""

    def __init__(self, work: Path, spec: dict):
        paths = sorted(work.glob("model*.json"), key=lambda p: int(p.stem[5:]))
        self.models = [pird.VarModel.from_json(p.read_text(encoding="utf-8")) for p in paths]
        self.grid = pird.FrequencyGrid(fs=1.0, n_points=spec["grid"])
        self.bands = [pird.Band(lo, hi, label) for label, lo, hi in inputs.BANDS]
        self.n_ops = 0

    def op(self):
        model = self.models[self.n_ops % len(self.models)]
        self.n_ops += 1
        return pird.decompose(pird.psd_from_var(model, self.grid), 0, bands=self.bands)

    def check(self, result) -> None:
        _require(len(result.lattice.atoms) == _ATOMS_M4, f"{len(result.lattice.atoms)} atoms")
        _close(float(np.sum(result.atom_pi_time)), result.joint_mir, 1e-9, "sum of atom PIs")
        for label in _BAND_LABELS:
            t = result.coarse[label]
            _close(sum(t.unique) + t.redundancy + t.synergy, t.joint_mir, 1e-9, f"U+R+S in {label}")

    def probe_models(self):
        return [(f"model{i}", m, 0, None) for i, m in enumerate(self.models)]


class CliDecompose:
    """``pird decompose`` on an 8-channel VAR(5), four sources, two bands."""

    FILES = ("atoms.csv", "coarse.csv", "profiles.csv")

    def __init__(self, work: Path, spec: dict):
        _load_cli()
        self.model_path = work / "net8.json"
        self.out = work / "out"
        self.grid = spec["grid"]
        self.args = [
            "decompose", "--model", str(self.model_path),
            "--sources", ",".join(inputs.NET_SOURCES), "--bands", _BAND_SPEC,
            "--grid", str(self.grid), "--out", str(self.out),
        ]
        self.first: dict[str, str] | None = None

    def op(self) -> int:
        return _cli(self.args)

    def check(self, code: int) -> None:
        _require(code == 0, f"exit code {code}")
        digests, lines = {}, {}
        for name in self.FILES:
            digests[name], lines[name] = _digest_and_lines(self.out / name)
        if self.first is None:
            self.first = digests
        _require(digests == self.first, "outputs differ from the first operation's")
        m = len(inputs.NET_SOURCES)
        _require(lines["atoms.csv"] == 1 + _ATOMS_M4 * len(_BAND_LABELS), f"{lines['atoms.csv']} lines in atoms.csv")
        # Per frequency: every atom, I_ and U_ per source, R, S and JointMIR.
        per_freq = _ATOMS_M4 + 2 * m + 3
        _require(lines["profiles.csv"] == 1 + self.grid * per_freq, f"{lines['profiles.csv']} lines in profiles.csv")
        coarse = {(r["term"], r["band"]): float(r["value_nats"]) for r in _rows(self.out / "coarse.csv")}
        for band in _BAND_LABELS:
            parts = [coarse[(f"U_{s}", band)] for s in inputs.NET_SOURCES]
            parts += [coarse[("R", band)], coarse[("S", band)]]
            _close(sum(parts), coarse[("JointMIR", band)], 1e-9, f"U+R+S in coarse.csv {band}")

    def probe_models(self):
        model = pird.VarModel.from_json(self.model_path.read_text(encoding="utf-8"))
        sources = [model.names.index(s) for s in inputs.NET_SOURCES]
        return [("net8", model, 0, sources)]


class CliBench:
    """``pird bench`` for sim1, sim2 and sim3 in turn."""

    def __init__(self, work: Path, spec: dict):
        _load_cli()
        self.out = work / "out"
        self.sweep = spec["sweep"]
        common = ["--grid", str(spec["grid"]), "--out", str(self.out)]
        self.calls = [
            ["bench", "--scenario", "sim1", "--sweep", self.sweep, *common],
            ["bench", "--scenario", "sim2", "--sweep", self.sweep, *common],
            ["bench", "--scenario", "sim3", *common],
        ]

    def op(self) -> list[int]:
        return [_cli(args) for args in self.calls]

    def check(self, codes: list[int]) -> None:
        _require(codes == [0, 0, 0], f"exit codes {codes}")
        # At c = 0 sim1 is white noise with all correlations 0.8.
        row = next(r for r in _rows(self.out / "bench_sim1.csv") if float(r["c"]) == 0.0)
        joint, red = 0.5 * math.log(0.36 / 0.104), -0.5 * math.log(0.36)
        for prefix in ("pird", "staticPID"):
            _close(float(row[f"{prefix}_JointMIR"]), joint, 1e-6, f"sim1 c=0 {prefix}_JointMIR")
            _close(float(row[f"{prefix}_R"]), red, 1e-6, f"sim1 c=0 {prefix}_R")
        # At c = 0.8 no source drives the sim2 target.
        row = next(r for r in _rows(self.out / "bench_sim2.csv") if abs(float(r["c"]) - 0.8) < 1e-9)
        for key, value in row.items():
            if key.startswith("tePID_"):
                _require(abs(float(value)) < 1e-6, f"sim2 c=0.8 {key} = {value}")
        bands = {r["band"]: float(r["Delta"]) for r in _rows(self.out / "bench_sim3.csv")}
        _require(bands["B1"] < 0.0 < bands["B2"], f"sim3 Delta B1 {bands['B1']}, B2 {bands['B2']}")

    def probe_models(self):
        models = [
            (f"{sim} c={c:.2f}", pird.build_scenario(pird.Scenario(sim, {"c": float(c)})), 0, None)
            for sim in ("sim1", "sim2")
            for c in _sweep(self.sweep)
        ]
        return models + [("sim3", pird.build_scenario(pird.Scenario("sim3")), 0, None)]


class CliFit:
    """``pird fit`` with AIC order selection on a simulated sim3 series."""

    def __init__(self, work: Path, spec: dict):
        _load_cli()
        self.out = work / "out"
        self.args = [
            "fit", "--input", str(work / "s3.csv"),
            "--max-order", str(inputs.FIT_MAX_ORDER), "--out", str(self.out),
        ]
        self.truth = inputs.sim3_coeffs()

    def op(self) -> int:
        return _cli(self.args)

    def check(self, code: int) -> None:
        _require(code == 0, f"exit code {code}")
        doc = json.loads((self.out / "model.json").read_text(encoding="utf-8"))
        _require(doc["order"] == 2, f"selected order {doc['order']}")
        err = float(np.max(np.abs(np.array(doc["coeffs"]) - self.truth)))
        _require(err <= 0.02, f"coefficients {err:.4f} from sim3")

    def probe_models(self):
        model = pird.VarModel.from_json((self.out / "model.json").read_text(encoding="utf-8"))
        return [("fitted", model, 0, None)]


WORKLOADS = {
    "engine-m4": EngineM4,
    "cli-decompose": CliDecompose,
    "cli-bench": CliBench,
    "cli-fit": CliFit,
}


def mir_identity_resid(model, target: int, sources, grid_points: int) -> float:
    """|integrated joint spectral MIR - (T->target + T->sources + instantaneous)|."""
    sources = sources or [c for c in range(model.dim) if c != target]
    to_target, to_sources, inst = pird.mir_decomposition(model, target, sources)
    psd = pird.psd_from_var(model, pird.FrequencyGrid(fs=model.fs, n_points=grid_points))
    joint = pird.integrate_full(pird.spectral_mir(psd, target, sources))
    return abs(joint - (to_target + to_sources + inst))
