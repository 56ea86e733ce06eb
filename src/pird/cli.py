"""Command-line front end.

Three verbs:

``pird fit``
    Fit a VAR model to a CSV time series (AIC order selection unless an
    explicit order is forced) and write ``model.json`` plus ``aic.csv``.

``pird decompose``
    Run the full decomposition plus the baseline PIDs on a fitted model,
    a CSV (fit inline), or a built-in scenario, writing ``atoms.csv``,
    ``coarse.csv`` and ``profiles.csv``.

``pird bench``
    Reproduce the benchmark sweeps: coupling sweeps with the matching
    baseline for ``sim1``/``sim2``, the band table for ``sim3``.

Exit codes: 0 success, 2 format error, 3 argument error, 4 numerical
error, 5 capability error.

A flat ``key = value`` config file can prefill any flag (``--config``);
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines as bl
from .decomposition import (
    FULL_BAND,
    atomic_write_text,
    coarse_values,
    decompose,
    write_atoms_csv,
    write_coarse_csv,
    write_profiles_csv,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    FormatError,
    NumericalError,
    PirdError,
)
from .spectral import (
    Band,
    FrequencyGrid,
    _check_nyquist,
    parse_bands,
    psd_from_var,
)
from .var import (
    Scenario,
    TimeSeriesMatrix,
    VarModel,
    _resolve_sources,
    build_scenario,
    fit_ols,
    is_stable,
    select_order_aic,
)

_EXIT_CODES = {
    FormatError: 2,
    ArgumentError: 3,
    NumericalError: 4,
    CapabilityError: 5,
}

_BENCH_BANDS = "B1:0.04-0.15,B2:0.15-0.4"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as argument errors (exit 3)."""

    def error(self, message):
        raise ArgumentError(message)


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    command: str
    input: str | None = None
    model: str | None = None
    scenario: str | None = None
    c: float | None = None
    target: str | None = None
    sources: str | None = None
    fs: float | None = None  # None: the model's own rate (1 Hz for a CSV)
    order: int | None = None
    max_order: int = 10
    grid: int = 2049
    bands: str | None = None
    units: str = "nats"
    out: str = "pird_out"
    seed: int = 0
    sweep: str = "0:0.05:0.8"
    conditioned_te: bool = False
    diag_load: float = 0.0


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOL_KEYS = {"conditioned_te"}
_INT_KEYS = {"order", "max_order", "grid", "seed"}
_FLOAT_KEYS = {"c", "fs", "diag_load"}


def _coerce(key: str, value: str):
    try:
        if key in _BOOL_KEYS:
            if value.lower() in ("1", "true", "yes", "on"):
                return True
            if value.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        return value
    except ValueError as exc:
        raise FormatError(f"config key {key!r}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="pird", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file; flags win")
        p.add_argument("--input", help="input CSV time series")
        p.add_argument(
            "--fs", type=float,
            help="sampling frequency in Hz (default: a stored model's own, else 1)",
        )
        p.add_argument("--out", help="output directory (default pird_out)")
        p.add_argument("--units", choices=("nats", "bits"), help="output units")
        p.add_argument(
            "--seed", type=int,
            help="accepted and unused: every verb is deterministic",
        )

    fit = sub.add_parser("fit", help="fit a VAR model to a CSV time series")
    add_common(fit)
    fit.add_argument("--order", type=int, help="force this order, skip AIC")
    fit.add_argument("--max-order", type=int, help="AIC search limit (default 10)")

    dec = sub.add_parser("decompose", help="decompose information rates")
    add_common(dec)
    dec.add_argument("--model", help="load a fitted model.json instead of fitting")
    dec.add_argument("--scenario", help="built-in system: sim1, sim2 or sim3")
    dec.add_argument("--c", type=float, help="coupling parameter for sim1/sim2")
    dec.add_argument("--order", type=int, help="force fit order for --input")
    dec.add_argument("--max-order", type=int, help="AIC search limit for --input")
    dec.add_argument("--target", help="target channel name (default: first)")
    dec.add_argument("--sources", help="comma list of source names (default: rest)")
    dec.add_argument("--grid", type=int, help="frequency grid points (default 2049)")
    dec.add_argument("--bands", help='bands, e.g. "LF:0.04-0.15,HF:0.15-0.4"')
    dec.add_argument(
        "--conditioned-te",
        action="store_true",
        default=None,
        help="condition marginal transfer entropies on the other sources",
    )
    dec.add_argument(
        "--diag-load", type=float, help="diagonal loading factor for the PSD"
    )

    bench = sub.add_parser("bench", help="reproduce the benchmark sweeps")
    add_common(bench)
    bench.add_argument("--scenario", help="sim1, sim2 or sim3")
    bench.add_argument("--sweep", help="coupling grid start:step:stop (default 0:0.05:0.8)")
    bench.add_argument("--grid", type=int, help="frequency grid points (default 2049)")
    bench.add_argument("--bands", help="bands for the sim3 table (default B1/B2)")
    bench.add_argument(
        "--conditioned-te",
        action="store_true",
        default=None,
        help="condition marginal transfer entropies on the other sources (sim2)",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, raw in file_values.items():
        if not hasattr(config, key) or key == "command":
            raise FormatError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, raw))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        setattr(config, key, value)
    return config


def _load_series(config: RunConfig) -> TimeSeriesMatrix:
    if not config.input:
        raise ArgumentError("an input CSV is required (--input)")
    return TimeSeriesMatrix.load_csv(config.input, fs=1.0 if config.fs is None else config.fs)


def _fit_from_series(config: RunConfig, ts: TimeSeriesMatrix):
    if config.order is not None:
        return fit_ols(ts, config.order), None
    p_star, curve = select_order_aic(ts, config.max_order)
    return fit_ols(ts, p_star), curve


def _obtain_model(config: RunConfig) -> tuple[VarModel, list[float] | None]:
    given = [
        name
        for name, flag in (
            ("--model", config.model),
            ("--scenario", config.scenario),
            ("--input", config.input),
        )
        if flag
    ]
    if len(given) != 1:
        raise ArgumentError(
            f"exactly one of --model, --scenario or --input is required, got {given or 'none'}"
        )
    if config.model:
        try:
            text = Path(config.model).read_text(encoding="utf-8")
        except OSError as exc:
            raise FormatError(f"cannot read {config.model}: {exc}") from exc
        return VarModel.from_json(text), None
    if config.scenario:
        params = {} if config.c is None else {"c": config.c}
        return build_scenario(Scenario(config.scenario, params)), None
    return _fit_from_series(config, _load_series(config))


def _resolve_channels(model: VarModel, config: RunConfig) -> tuple[int, tuple[int, ...]]:
    """The target and the sorted, distinct sources named by the config."""
    names = list(model.names)

    def lookup(name: str) -> int:
        if name not in names:
            raise ArgumentError(f"channel {name!r} not among {names}")
        return names.index(name)

    target = lookup(config.target) if config.target else 0
    if config.sources:
        sources = [lookup(n.strip()) for n in config.sources.split(",") if n.strip()]
    else:
        sources = [i for i in range(model.dim) if i != target]
    return target, _resolve_sources(model.dim, target, sources)


def _bands_for(config: RunConfig, fs: float, default: str | None = None) -> list[Band]:
    spec = config.bands if config.bands else default
    if not spec:
        return []
    bands = parse_bands(spec)
    for band in bands:
        _check_nyquist(band, fs)
    return bands


def _unit_scale(config: RunConfig) -> tuple[float, str]:
    if config.units == "bits":
        return float(np.log(2.0)), "bits"
    return 1.0, "nats"


def _outdir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_fit(config: RunConfig) -> int:
    ts = _load_series(config)
    model, curve = _fit_from_series(config, ts)
    if not is_stable(model):
        raise NumericalError(
            f"fitted model is unstable (companion spectral radius "
            f"{model.spectral_radius():.6f}); try a different order"
        )
    out = _outdir(config)
    atomic_write_text(out / "model.json", (model.to_json(), "\n"))
    if curve is not None:
        lines = ["p,aic"] + [f"{p},{_fmt(a)}" for p, a in enumerate(curve, start=1)]
        atomic_write_text(out / "aic.csv", (line + "\n" for line in lines))
    margin = 1.0 - model.spectral_radius()
    print(f"selected order: {model.order}")
    print(f"stability margin: {_fmt(margin)}")
    print(f"wrote {out / 'model.json'}" + ("" if curve is None else f", {out / 'aic.csv'}"))
    return 0


def _retimed(model: VarModel, config: RunConfig) -> VarModel:
    """The model at an explicit ``--fs``; a loaded model or scenario keeps
    its own rate otherwise."""
    if config.fs is None or model.fs == config.fs:
        return model
    return VarModel(coeffs=model.coeffs, sigma=model.sigma, fs=config.fs, names=model.names)


def cmd_decompose(config: RunConfig) -> int:
    model = _retimed(_obtain_model(config)[0], config)
    target, sources = _resolve_channels(model, config)
    fs = model.fs
    bands = _bands_for(config, fs)
    grid = FrequencyGrid(fs=fs, n_points=config.grid)
    psd = psd_from_var(model, grid)
    if config.diag_load > 0.0:
        psd = psd.with_diagonal_loading(config.diag_load)
    result = decompose(psd, target, sources, bands)
    scale, unit = _unit_scale(config)

    baselines = {}
    if len(sources) >= 2:
        baselines["staticPID"] = bl.static_pid(model, target, sources)
        baselines["tePID"] = bl.te_pid(model, target, sources, conditioned=config.conditioned_te)
    out = _outdir(config)
    write_atoms_csv(result, out / "atoms.csv", scale, unit)
    write_coarse_csv(result, out / "coarse.csv", scale, unit, baselines)
    write_profiles_csv(result, out / "profiles.csv", scale)
    print(
        f"target {model.names[target]}, sources "
        f"{', '.join(model.names[s] for s in sources)}; joint MIR = "
        f"{_fmt(result.joint_mir / scale)} {unit}"
    )
    print(f"wrote {out / 'atoms.csv'}, {out / 'coarse.csv'}, {out / 'profiles.csv'}")
    return 0


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        start, step, stop = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ArgumentError(f"cannot parse sweep {spec!r} (expected start:step:stop)") from None
    if step <= 0 or stop < start:
        raise ArgumentError(f"invalid sweep {spec!r}")
    return np.arange(start, stop + step / 2.0, step)


def _coupling_sweep(config: RunConfig, scenario: str) -> int:
    cs = _parse_sweep(config.sweep)
    scale, unit = _unit_scale(config)
    prefix = "staticPID" if scenario == "sim1" else "tePID"
    terms = ["U_X1", "U_X2", "R", "S", "Delta", "JointMIR"]  # coarse_values order
    lines = [",".join(["c"] + [f"pird_{t}" for t in terms] + [f"{prefix}_{t}" for t in terms])]
    for c in cs:
        model = _retimed(build_scenario(Scenario(scenario, {"c": float(c)})), config)
        grid = FrequencyGrid(fs=model.fs, n_points=config.grid)
        result = decompose(psd_from_var(model, grid), 0)
        if scenario == "sim1":
            base = bl.static_pid(model, 0)
        else:
            base = bl.te_pid(model, 0, conditioned=config.conditioned_te)
        values = coarse_values(result.coarse[FULL_BAND]) + coarse_values(base)
        lines.append(",".join([f"{c:.12g}"] + [_fmt(v / scale) for v in values]))
    out = _outdir(config)
    path = out / f"bench_{scenario}.csv"
    atomic_write_text(path, (line + "\n" for line in lines))
    print(f"swept c over {len(cs)} points ({unit}); wrote {path}")
    return 0


def _band_table(config: RunConfig) -> int:
    model = _retimed(build_scenario(Scenario("sim3")), config)
    bands = _bands_for(config, model.fs, default=_BENCH_BANDS)
    grid = FrequencyGrid(fs=model.fs, n_points=config.grid)
    psd = psd_from_var(model, grid)
    result = decompose(psd, 0, bands=bands)
    scale, unit = _unit_scale(config)
    src = result.source_names
    header = (
        ["band"]
        + [f"I_{n}" for n in src]
        + ["JointMIR"]
        + [f"U_{n}" for n in src]
        + ["R", "S", "Delta"]
    )
    lines = [",".join(header)]
    for label, terms in result.coarse.items():
        values = [*terms.marginals, terms.joint_mir, *terms.unique]
        values += [terms.redundancy, terms.synergy, terms.delta]
        lines.append(",".join([label] + [_fmt(v / scale) for v in values]))
    out = _outdir(config)
    path = out / "bench_sim3.csv"
    atomic_write_text(path, (line + "\n" for line in lines))
    print(f"band table in {unit}; wrote {path}")
    return 0


def cmd_bench(config: RunConfig) -> int:
    if config.scenario in ("sim1", "sim2"):
        return _coupling_sweep(config, config.scenario)
    if config.scenario == "sim3":
        return _band_table(config)
    raise ArgumentError(
        f"unknown scenario {config.scenario!r} (use sim1, sim2 or sim3)"
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        config = _resolve_config(args)
        if config.command == "fit":
            return cmd_fit(config)
        if config.command == "decompose":
            return cmd_decompose(config)
        return cmd_bench(config)
    except PirdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in _EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
