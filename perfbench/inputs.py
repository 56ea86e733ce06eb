"""Seeded inputs of the benchmark workloads.

The inputs are made with numpy alone, never with the package under test, so a
change to the package cannot change what it is measured on. The package only
sees the files written here: model JSON files in its documented schema and a
time-series CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Input sizes per run size. ``smoke`` only exists for the smoke test.
SIZES = {
    "full": {"engine_models": 8, "grid": 2049, "samples": 100_000, "sweep": "0:0.05:0.8"},
    "smoke": {"engine_models": 2, "grid": 257, "samples": 40_000, "sweep": "0:0.8:0.8"},
}

BANDS = (("B1", 0.04, 0.15), ("B2", 0.15, 0.4))
ENGINE_DIM = 5
NET_DIM, NET_ORDER, NET_RADIUS = 8, 5, 0.9
NET_SOURCES = ("X1", "X2", "X3", "X4")
FIT_MAX_ORDER = 10


def _pole_pair(rho: float, f: float) -> tuple[float, float]:
    return 2.0 * rho * np.cos(2.0 * np.pi * f), -(rho**2)


def sim3_coeffs() -> np.ndarray:
    """Lag matrices of the paper's sim3 system (common drive plus common child)."""
    a = np.zeros((2, 4, 4))
    a[0][0, 1] = a[0][0, 3] = a[0][2, 1] = 1.0
    for ch, (rho, f) in ((1, (0.8, 0.3)), (2, (0.8, 0.3)), (3, (0.9, 0.1))):
        a[0][ch, ch], a[1][ch, ch] = _pole_pair(rho, f)
    return a


def _companion_radius(coeffs: np.ndarray) -> float:
    p, q, _ = coeffs.shape
    comp = np.zeros((p * q, p * q))
    comp[:q] = coeffs.transpose(1, 0, 2).reshape(q, p * q)
    comp[q:, :-q] = np.eye((p - 1) * q)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def random_var(rng: np.random.Generator, dim: int, order: int, radius: float):
    """Gaussian lag matrices rescaled to companion spectral radius ``radius``,
    and a random innovation covariance with unit diagonal."""
    w = rng.standard_normal((dim, dim))
    sigma = w @ w.T / dim + 0.5 * np.eye(dim)
    d = 1.0 / np.sqrt(np.diag(sigma))
    sigma = sigma * np.outer(d, d)
    coeffs = rng.standard_normal((order, dim, dim)) / np.sqrt(order * dim)
    # Scaling lag k by s**k scales every companion eigenvalue by s.
    scale = radius / _companion_radius(coeffs)
    coeffs = np.stack([coeffs[k] * scale ** (k + 1) for k in range(order)])
    return coeffs, sigma


def names_for(dim: int) -> list[str]:
    return ["Y"] + [f"X{i}" for i in range(1, dim)]


def _write_model(path: Path, coeffs: np.ndarray, sigma: np.ndarray) -> None:
    dim = sigma.shape[0]
    doc = {
        "dim": dim,
        "order": coeffs.shape[0],
        "fs": 1.0,
        "names": names_for(dim),
        "coeffs": [a.tolist() for a in coeffs],
        "sigma": sigma.tolist(),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def simulate(coeffs: np.ndarray, n: int, rng: np.random.Generator, burn_in: int = 1000):
    """``n`` samples of a VAR with identity innovation covariance."""
    p, q, _ = coeffs.shape
    stacked = coeffs.transpose(1, 0, 2).reshape(q, p * q)
    noise = rng.standard_normal((burn_in + n, q))
    z = np.zeros((p + burn_in + n, q))
    for t in range(p, p + burn_in + n):
        # The p previous samples, most recent first, against [A_1 ... A_p].
        z[t] = stacked @ z[t - p : t][::-1].reshape(-1) + noise[t - p]
    return z[p + burn_in :]


def _write_series(path: Path, samples: np.ndarray, names: list[str]) -> None:
    lines = [",".join(names)]
    lines += [",".join(map(repr, row)) for row in samples.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, size: str, work: Path) -> dict:
    """Write the inputs of ``workload`` into ``work``; return their sizes."""
    spec = SIZES[size]
    rng = np.random.default_rng([seed, sorted(SIZES).index(size)])
    sizes: dict = {"grid_points": spec["grid"]}
    if workload == "engine-m4":
        models = []
        for i in range(spec["engine_models"]):
            order, radius = 1 + i % 4, float(rng.uniform(0.5, 0.95))
            coeffs, sigma = random_var(rng, ENGINE_DIM, order, radius)
            _write_model(work / f"model{i}.json", coeffs, sigma)
            models.append({"dim": ENGINE_DIM, "order": order, "radius": round(radius, 4)})
        sizes["models"] = models
    elif workload == "cli-decompose":
        coeffs, sigma = random_var(rng, NET_DIM, NET_ORDER, NET_RADIUS)
        _write_model(work / "net8.json", coeffs, sigma)
        sizes["models"] = [{"dim": NET_DIM, "order": NET_ORDER, "radius": NET_RADIUS}]
    elif workload == "cli-bench":
        sizes["sweep"] = spec["sweep"]
    elif workload == "cli-fit":
        samples = simulate(sim3_coeffs(), spec["samples"], rng)
        path = work / "s3.csv"
        _write_series(path, samples, names_for(4))
        sizes.update(samples=spec["samples"], channels=4, csv_bytes=path.stat().st_size)
        del sizes["grid_points"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "spec.json").write_text(json.dumps({"workload": workload, **spec}), encoding="utf-8")
    return sizes
