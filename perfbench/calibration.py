"""Machine-speed calibration of the end-to-end times.

The machine this benchmark was built on is a shared two-core VM whose speed
drifts by a third within minutes as neighbouring load comes and goes: the
same engine operation took 80 ms in one minute and 145 ms a few minutes
later, and a fixed calibration kernel slowed down with it. So each run also
times :func:`kernel`, a fixed piece of the benchmark's own work that never
calls the package under test, between operations, and the end-to-end times
are reported in reference seconds:

    reference time = wall time * REFERENCE_KERNEL_S / kernel time around it

where the kernel time around an operation is the mean of the median kernel
times just before and just after it.

A change to the package moves the operation, not the kernel, so it still
shows in full; drift of the machine moves both and cancels. The raw wall
times and the speed factor are printed with every result.

The kernel mixes the kinds of work the workloads do, at their array sizes,
so that it slows down with them whether the neighbours take CPU time or
cache. Per operation it tracks imperfectly (a single kernel sample and a
single operation correlate at about 0.5 to 0.7); what it removes is the
drift of the machine between runs and between minutes of one run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the reference machine state; it sets the scale of
#: reference seconds and never changes once baselines are recorded.
REFERENCE_KERNEL_S = 0.010
#: After each operation the kernel runs for this share of the operation's
#: time, and at least once.
SHARE = 0.05
#: Kernel time spent after a set-up, to scale that process's set-up time.
SETUP_SAMPLING_S = 0.1

_rng = np.random.default_rng(20250207)
_VALUES = _rng.standard_normal(2000).tolist()
_SPECTRA = _rng.standard_normal((2049, 5, 5)) + 1j * _rng.standard_normal((2049, 5, 5))
_PROFILES = _rng.standard_normal((166, 2049))
_AXIS = np.linspace(0.0, np.pi, 2049)
_MAT = _rng.standard_normal((200, 200)) + 200.0 * np.eye(200)
_RHS = _rng.standard_normal((200, 20))


def kernel() -> float:
    """A miniature of the pipeline's work, on fixed data: batched small
    complex factorisations, row operations on atom-by-frequency arrays, many
    small numpy calls, float formatting, interpreted Python and a dense
    solve."""
    psd = _SPECTRA @ _SPECTRA.conj().transpose(0, 2, 1) + 5.0 * np.eye(5)
    acc = float(np.linalg.slogdet(psd)[1].sum())
    red = np.minimum(_PROFILES, _PROFILES[::-1])
    acc += float(np.trapezoid(red, _AXIS, axis=1).sum())
    part = _AXIS[100:400]
    for row in _PROFILES[:40]:
        acc += float(np.trapezoid(np.interp(part, _AXIS, row), part))
    acc += len(",".join(f"{v:.12g}" for v in _VALUES))
    for i in range(10_000):
        acc += i * i % 7
    return acc + float(np.linalg.solve(_MAT, _RHS).sum())


def sample(seconds: float) -> list[float]:
    """Kernel times, run until they add up to ``seconds`` (at least one)."""
    times: list[float] = []
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def reference_scale(kernel_times: list[float]) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_times)
