"""Per-layer tracing from outside the package under test.

The tracer replaces, for the duration of one traced operation, the names
that caller modules bind (``pird.decomposition.spectral_mir``,
``pird.cli.decompose``, ...) with wrappers that record a span per call.
Nothing under ``src/`` is edited. A layer's self time is the time of its
spans minus the time of the spans they caused, so the self times of all
layers plus the harness add up to the operation's wall time.

A binding that no longer exists (after a refactor) is skipped, and a metric
left without any binding is not in :attr:`Tracer.present`, so it is reported
absent; the untraced run never depends on the tracer.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

#: (owner, attribute, self-time metric, call-count metric or None).
#: The owner is a module, or ``module:Class`` for methods and classmethods.
POINTS = (
    ("pird.var:TimeSeriesMatrix", "load_csv", "var.load_csv_s", None),
    ("pird.cli", "select_order_aic", "var.select_order_aic_s", None),
    ("pird.cli", "fit_ols", "var.fit_ols_s", None),
    ("pird.var", "zero_lag_covariance", "var.covariance_s", None),
    ("pird.baselines", "autocovariance_sequence", "var.covariance_s", None),
    ("pird.var", "_companion_covariance", "var.covariance_s", "var.lyapunov_calls"),
    ("pird.var:VarModel", "from_json", "var.other_s", None),
    ("pird.cli", "build_scenario", "var.other_s", None),
    ("pird.cli", "is_stable", "var.other_s", None),
    ("pird.spectral", "is_stable", "var.other_s", None),
    ("pird.spectral", "transfer_function", "spectral.transfer_function_s", None),
    ("pird", "psd_from_var", "spectral.psd_s", None),
    ("pird.cli", "psd_from_var", "spectral.psd_s", None),
    ("pird.decomposition", "spectral_mir", "spectral.mir_s", "spectral.mir_calls"),
    ("pird.decomposition", "integrate_band", "spectral.integrate_s", "spectral.integrate_band_calls"),
    ("pird.cli", "integrate_band", "spectral.integrate_s", "spectral.integrate_band_calls"),
    ("pird.decomposition", "integrate_full", "spectral.integrate_s", None),
    ("pird.cli", "integrate_full", "spectral.integrate_s", None),
    ("pird.lattice:RedundancyLattice", "invert_values", "lattice.invert_s", None),
    ("pird.lattice:RedundancyLattice", "coarse_groups", "lattice.other_s", None),
    ("pird.decomposition", "enumerate_antichains", "lattice.enumerate_s", None),
    ("pird", "decompose", "decomposition.engine_s", None),
    ("pird.cli", "decompose", "decomposition.engine_s", None),
    ("pird.decomposition", "spectral_pird", "decomposition.engine_s", None),
    ("pird.decomposition", "time_pird", "decomposition.engine_s", None),
    ("pird.decomposition", "aggregate_coarse", "decomposition.engine_s", "decomposition.aggregate_coarse_calls"),
    ("pird.cli", "write_atoms_csv", "decomposition.write_csv_s", None),
    ("pird.cli", "write_coarse_csv", "decomposition.write_csv_s", None),
    ("pird.cli", "write_profiles_csv", "decomposition.write_csv_s", None),
    ("pird.cli", "atomic_write_text", "decomposition.write_csv_s", None),
    ("pird.decomposition", "atomic_write_text", "decomposition.write_csv_s", None),
    ("pird.baselines", "static_pid", "baselines.static_pid_s", None),
    ("pird.baselines", "te_pid", "baselines.te_pid_s", None),
    ("pird.baselines", "transfer_entropy", "baselines.te_pid_s", None),
    ("pird.baselines", "submodel_innovation", "baselines.te_pid_s", "baselines.submodel_calls"),
    ("pird.cli", "main", "cli.self_s", None),
)

#: Self time outside every traced call: the benchmark's own code in the op.
HARNESS = "bench.self_s"
#: The file writer whose first argument is the path written; feeds csv_bytes.
_WRITER = "atomic_write_text"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Installs wrappers around :data:`POINTS` and sums spans per operation."""

    def __init__(self):
        self._saved = []
        self._stack: list[list] = []
        self.op: dict[str, float] = {}
        self.present: set[str] = {HARNESS}

    def install(self) -> None:
        for owner, attr, metric, count in POINTS:
            try:
                target = _resolve(owner)
                static = inspect.getattr_static(target, attr)
            except (ImportError, AttributeError):
                continue
            self._saved.append((target, attr, static))
            self.present.update(m for m in (metric, count) if m)
            self.present.add(metric.split(".")[0] + ".errors")
            if attr == _WRITER:
                self.present.add("decomposition.csv_bytes")
            if isinstance(static, classmethod):
                setattr(target, attr, classmethod(self._wrap(static.__func__, metric, count, attr)))
            else:
                setattr(target, attr, self._wrap(static, metric, count, attr))

    def uninstall(self) -> None:
        for target, attr, static in reversed(self._saved):
            setattr(target, attr, static)
        self._saved.clear()

    def start_op(self) -> None:
        self.op = defaultdict(float)
        self._stack = [[HARNESS, 0.0]]

    def finish_op(self, wall: float) -> dict[str, float]:
        """Close the operation whose wall time the caller measured."""
        (_, child), = self._stack
        self.op[HARNESS] += wall - child
        self._stack = []
        return dict(self.op)

    def _wrap(self, fn, metric: str, count: str | None, attr: str):
        layer = metric.split(".")[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            if not stack:
                return fn(*args, **kwargs)
            frame = [metric, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, clock() - start, count)
                if stack[-1][0].split(".")[0] != layer:
                    self.op[f"{layer}.errors"] += 1
                raise
            self._close(frame, clock() - start, count)
            if attr == _WRITER:
                self.op["decomposition.csv_bytes"] += os.stat(args[0]).st_size
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, span: float, count: str | None) -> None:
        self._stack.pop()
        self._stack[-1][1] += span
        self.op[frame[0]] += span - frame[1]
        if count:
            self.op[count] += 1
