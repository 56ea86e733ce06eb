"""Benchmark of the pird pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them in turn) as a closed loop with a single
caller, from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed``, every operation's output is
checked, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run. The lines before it print every metric
with its unit, and a manifest of what ran. See NOTES.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import blas

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("engine-m4", "cli-decompose", "cli-bench", "cli-fit")
#: Fresh processes whose set-up time is measured per run (the timed worker
#: is one of them); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Every process of one run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "var.load_csv_s": "s",
    "var.select_order_aic_s": "s",
    "var.fit_ols_s": "s",
    "var.covariance_s": "s",
    "var.lyapunov_calls": "count",
    "var.other_s": "s",
    "var.errors": "count",
    "spectral.transfer_function_s": "s",
    "spectral.psd_s": "s",
    "spectral.mir_s": "s",
    "spectral.mir_calls": "count",
    "spectral.integrate_s": "s",
    "spectral.integrate_band_calls": "count",
    "spectral.errors": "count",
    "lattice.invert_s": "s",
    "lattice.enumerate_s": "s",
    "lattice.enumerate_setup_s": "s",
    "lattice.other_s": "s",
    "lattice.errors": "count",
    "decomposition.engine_s": "s",
    "decomposition.aggregate_coarse_calls": "count",
    "decomposition.write_csv_s": "s",
    "decomposition.csv_bytes": "bytes",
    "decomposition.csv_mb_per_s": "MB/s",
    "decomposition.errors": "count",
    "baselines.te_pid_s": "s",
    "baselines.static_pid_s": "s",
    "baselines.submodel_calls": "count",
    "baselines.mir_identity_resid": "nats",
    "baselines.errors": "count",
    "cli.self_s": "s",
    "cli.errors": "count",
    "bench.self_s": "s",
    "traced_op_s": "s",
    "trace_overhead_s": "s",
}


def _spawn(work: Path, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work), *extra]
    timeout = max(deadline - time.monotonic(), 1.0)
    # subprocess.run kills and reaps the worker if it overruns.
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below 21 samples that rule
    reaches no higher than the median, so the median is returned: a higher
    percentile of so few samples would be set by single outliers.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _end_to_end(res: dict, setups: list[dict]) -> tuple[dict, dict, dict]:
    """Metrics in reference seconds (see calibration.py), notes, wall times."""
    tail, pct, beyond = _tail(res["op_ref_s"])
    scale = res["reference_scale"]
    metrics = {
        "op_s_p50": statistics.median(res["op_ref_s"]),
        "op_s_tail": tail,
        "ops_per_s": len(res["op_ref_s"]) / res["ops_ref_s"],
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    times = res["op_s"]
    wall = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": _tail(times)[0],
        "ops_per_s": len(times) / res["ops_wall_s"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "kernel_s": res["kernel_s"],
        "kernel_samples": res["kernel_samples"],
        "reference_scale": scale,
    }
    notes = {
        "op_s_p50": f"wall {wall['op_s_p50']:.6g} s",
        "op_s_tail": f"wall {wall['op_s_tail']:.6g} s; p{pct:.1f} of {len(times)} ops, {beyond} beyond",
        "ops_per_s": f"wall {wall['ops_per_s']:.6g} 1/s",
        "setup_s": f"wall {wall['setup_s']:.6g} s; median of {len(setups)} fresh processes",
    }
    return metrics, notes, wall


def _per_layer(res: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics (wall seconds per traced operation) and notes."""
    layers, present = res["layers"], set(res["present"])
    metrics = {k: layers.get(k, 0.0) for k in PER_LAYER if k in present}
    traced, untraced = res["traced_op_s"], res["op_s"]
    metrics["traced_op_s"] = statistics.fmean(traced)
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    if "lattice.enumerate_s" in present:
        metrics["lattice.enumerate_setup_s"] = res["warmup_layers"].get("lattice.enumerate_s", 0.0)
    if {"decomposition.csv_bytes", "decomposition.write_csv_s"} <= present:
        seconds = layers.get("decomposition.write_csv_s", 0.0)
        mbytes = layers.get("decomposition.csv_bytes", 0.0) / 1e6
        metrics["decomposition.csv_mb_per_s"] = mbytes / seconds if seconds > 0 else 0.0
    if res["mir_identity_resid"]:
        metrics["baselines.mir_identity_resid"] = max(res["mir_identity_resid"].values())
    notes = {
        "traced_op_s": f"mean of {len(traced)} traced ops; the *_s self times add up to it",
        "trace_overhead_s": f"median traced minus median of {len(untraced)} untraced ops",
    }
    return metrics, notes, {}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def run_workload(name: str, args) -> dict:
    """Generate inputs, measure set-up, run the timed worker; summarise."""
    import inputs

    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sizes = inputs.generate(name, args.seed, args.size, work)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = _spawn(work, deadline, "--setup-only")
                if probe["warmup_error"]:
                    raise RuntimeError(f"set-up warm-up failed: {probe['warmup_error']}")
                setups.append(probe)
        res = _spawn(work, deadline, "--seconds", str(args.seconds), "--trace", str(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not res["op_s"] or (args.trace and not res["traced_op_s"]):
        raise RuntimeError(f"no successful operation to time: {res['failures'][:1] or res['warmup_error']}")

    if args.trace:
        metrics, notes, wall = _per_layer(res)
        units = PER_LAYER
        consistent = res["self_sum_error"] <= 1e-9
    else:
        metrics, notes, wall = _end_to_end(res, setups + [res])
        units = END_TO_END
        consistent = True
    attempted, failed = res["attempted"], res["failed"]
    manifest = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in blas.THREAD_VARS},
        **res["versions"],
        "inputs": sizes,
        "wall": wall,
        "error_rate": failed / attempted,
        "failures": res["failures"],
        "warmup_error": res["warmup_error"],
        "absent_metrics": sorted(set(units) - set(metrics)),
    }
    if args.trace:
        manifest["mir_identity_resid"] = res["mir_identity_resid"]
        manifest["probe_error"] = res["probe_error"]
        manifest["self_sum_error_s"] = res["self_sum_error"]
    return {
        "correct": failed == 0 and res["warmup_error"] is None and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "notes": notes,
        "manifest": manifest,
    }


def _report(name: str, result: dict) -> None:
    print(f"== {name}")
    for key, metric in result["metrics"].items():
        note = result["notes"].get(key)
        print(f"  {key:38s} {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    m = result["manifest"]
    print(f"  {'error_rate':38s} {m['error_rate']:.6g} fraction  ({result['failed']} of {result['attempted']} ops failed)")
    for key in m["absent_metrics"]:
        print(f"  {key:38s} absent")
    print("manifest " + json.dumps(m, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is the minimal size of the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pird" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'pird'}", file=sys.stderr)
        return 2
    blas.pin()  # before numpy is imported here or in any worker

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
            _report(name, results[name])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
