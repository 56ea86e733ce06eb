"""One fresh benchmark process: set-up, warm-up, then the timed closed loop.

    python3 perfbench/worker.py --work DIR [--setup-only] [--seconds S] [--trace 0|1]

``DIR`` holds ``spec.json`` and the inputs written by ``inputs.generate``.
Set-up is timed from just before ``import pird`` to the end of the warm-up
operation, so it includes the numpy and scipy imports a CLI user pays too.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import blas

blas.pin()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_SETUP_START = time.perf_counter()
import pird  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    def blas_of(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pird": getattr(pird, "__version__", "unknown"),
        "blas_numpy": blas_of(numpy),
        "blas_scipy": blas_of(scipy),
        "blas_threads": blas.loaded_threads(),
    }


def _timed(fn):
    start = time.perf_counter()
    try:
        return fn(), None, time.perf_counter() - start
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start


def _checked(workload, output, error):
    if error is None:
        try:
            workload.check(output)
        except Exception as exc:  # malformed output of any kind fails the op
            error = f"check failed: {type(exc).__name__}: {exc}"
    return error


def _probe(workload, grid_points: int) -> tuple[dict, str | None]:
    try:
        return {
            label: workloads.mir_identity_resid(model, target, sources, grid_points)
            for label, model, target, sources in workload.probe_models()
        }, None
    except Exception as exc:  # the probe is diagnostic; its absence is reported
        return {}, f"{type(exc).__name__}: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((args.work / "spec.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[spec["workload"]](args.work, spec)
    tracer = Tracer() if args.trace else None

    if tracer:
        tracer.install()
        tracer.start_op()
    output, warmup_error, wall = _timed(workload.op)
    setup_s = time.perf_counter() - _SETUP_START
    warmup_layers = tracer.finish_op(wall) if tracer else {}
    if tracer:
        tracer.uninstall()
    warmup_error = _checked(workload, output, warmup_error)
    setup_scale = calibration.reference_scale(calibration.sample(calibration.SETUP_SAMPLING_S))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * setup_scale, "warmup_error": warmup_error}))
        return 0

    # Closed loop: the next operation starts when the previous one returns.
    # Checks and, untraced, the calibration kernel run between operations;
    # their time is not counted. Each untraced operation is scaled by the
    # kernel times just before and just after it (see calibration.py). A
    # traced run alternates untraced and traced operations and makes at
    # least one of each.
    kernel_before = statistics.median(calibration.sample(0.0))
    times, ref_times, ref_all, traced_times, layer_ops, failures = [], [], [], [], [], []
    kernel_times = []
    attempted, between = 0, 0.0
    min_ops = 2 if tracer else 1
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or attempted < min_ops:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
            tracer.start_op()
        output, error, wall = _timed(workload.op)
        if traced:
            layer_ops.append((tracer.finish_op(wall), wall))
            tracer.uninstall()
        gap_start = time.perf_counter()
        error = _checked(workload, output, error)
        if not tracer:
            gap = calibration.sample(calibration.SHARE * wall)
            kernel_times += gap
            kernel_after = statistics.median(gap)
            ref_all.append(wall * calibration.reference_scale([kernel_before, kernel_after]))
            kernel_before = kernel_after
        between += time.perf_counter() - gap_start
        attempted += 1
        if error:
            failures.append(error)
        else:
            (traced_times if traced else times).append(wall)
            if not tracer:
                ref_times.append(ref_all[-1])
    ops_wall_s = time.perf_counter() - start - between

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * setup_scale,
        "warmup_error": warmup_error,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "op_s": times,
        "ops_wall_s": ops_wall_s,
        "op_ref_s": ref_times,
        "ops_ref_s": sum(ref_all),
        "kernel_s": statistics.median(kernel_times) if kernel_times else None,
        "kernel_samples": len(kernel_times),
        "reference_scale": calibration.reference_scale(kernel_times) if kernel_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": _versions(),
    }
    if tracer:
        names = sorted({k for op, _ in layer_ops for k in op} | tracer.present)
        result["traced_op_s"] = traced_times
        result["layers"] = {
            k: statistics.fmean(op.get(k, 0.0) for op, _ in layer_ops) for k in names
        } if layer_ops else {}
        result["present"] = sorted(tracer.present)
        result["warmup_layers"] = warmup_layers
        # Self times are the only keys ending in _s; they must add up to the op.
        result["self_sum_error"] = max(
            (abs(sum(v for k, v in op.items() if k.endswith("_s")) - wall) for op, wall in layer_ops),
            default=0.0,
        )
        result["mir_identity_resid"], result["probe_error"] = _probe(workload, spec["grid"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
