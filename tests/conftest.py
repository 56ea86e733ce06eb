import numpy as np
import pytest

from pird import FrequencyGrid, Scenario, build_scenario, random_stable_var


@pytest.fixture(scope="session")
def grid():
    return FrequencyGrid(fs=1.0, n_points=2049)


@pytest.fixture(scope="session")
def sim3_model():
    return build_scenario(Scenario("sim3"))


def make_model_set(count=20, seed=2024, max_dim=4, max_order=4, max_radius=0.9):
    """Reproducible random stable VARs; every fifth one is white (no lags)."""
    rng = np.random.default_rng(seed)
    models = []
    for k in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        if k % 5 == 4:
            order = 0
        else:
            order = int(rng.integers(1, max_order + 1))
        radius = float(rng.uniform(0.3, max_radius))
        models.append(random_stable_var(dim, order, rng, radius=radius))
    return models


@pytest.fixture(scope="session")
def benchmark_models():
    models = [build_scenario(Scenario("sim1", {"c": c})) for c in (0.0, 0.4, 0.8)]
    models += [build_scenario(Scenario("sim2", {"c": c})) for c in (0.0, 0.4, 0.8)]
    models += [build_scenario(Scenario("sim3"))]
    return models


def reference_band_integral(row, grid, band):
    """One row's band integral as ``np.interp`` at the band edges and the
    grid points between them, then a 1-D ``np.trapezoid``."""
    w_lo = 2.0 * np.pi * band.lo / grid.fs
    w_hi = min(2.0 * np.pi * band.hi / grid.fs, np.pi)
    omegas = grid.omegas
    inner = omegas[(omegas > w_lo) & (omegas < w_hi)]
    xs = np.concatenate([[w_lo], inner, [w_hi]])
    return float(np.trapezoid(np.interp(xs, omegas, row), xs) / np.pi)
