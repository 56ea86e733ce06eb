"""One BLAS thread for every process of the benchmark.

On a two-core shared machine a second OpenBLAS thread makes small factorisations
bimodal (see NOTES.md), so :func:`pin` must run before numpy is first imported.
"""

from __future__ import annotations

import ctypes
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin() -> None:
    """Ask every BLAS the process will load for a single thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def loaded_threads() -> dict[str, int]:
    """Thread count each OpenBLAS library loaded in this process reports."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(path)] = int(fn())
                break
    return threads
