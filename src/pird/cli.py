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

Exit codes: 0 success, 2 format error, 3 argument error (an ``--out``
that cannot be written among them), 4 numerical error, 5 capability error.

Each verb's options are declared once, in its subparser; ``pird VERB
--help`` lists them with their defaults. ``--config FILE`` reads a flat
``key = value`` file (a ``#`` at the start of a line or after whitespace
starts a comment) whose keys are the verb's own flags
without the leading dashes (``max_order`` or ``max-order``). Each value is
parsed as its flag's would be and becomes the verb's default, so explicit
flags win. A key the verb does not declare, or a value its flag rejects, is
a format error (exit 2).
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from . import baselines as bl
from .decomposition import (
    FULL_BAND,
    UNIT_SCALES,
    _fmt,
    atomic_write_text,
    decompose,
    unit_scale,
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
from .spectral import DEFAULT_GRID_POINTS, FrequencyGrid, parse_bands, psd_from_var
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

#: Most coupling values one ``bench --sweep`` may ask for (the default has 17).
MAX_SWEEP_POINTS = 1001

#: Most frequency grid points ``--grid`` may ask for: 64 times the default.
MAX_GRID_POINTS = 2**17 + 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as argument errors (exit 3)."""

    def error(self, message):
        raise ArgumentError(message)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # A "#" starts a comment at the start of a line or after whitespace
        # only, so that a value such as ``out = run#2`` keeps it.
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_SWITCH_SPELLINGS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _config_defaults(verb: _Parser, path: str) -> dict:
    """A config file's values by option dest, each parsed by the ``verb``
    subparser as its flag's would be. A key must name one of the verb's
    options exactly (``_`` standing for ``-``); an unknown key, or a value
    the flag rejects, is a format error."""
    defaults = {}
    for key, value in _read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        action = verb._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise FormatError(f"unknown config key {key!r} for {verb.prog}")
        if action.nargs == 0:  # a switch: its spellings pick between [flag] and []
            if value.lower() not in _SWITCH_SPELLINGS:
                raise FormatError(f"config key {key!r}: not a boolean: {value!r}")
            tokens = [flag] if _SWITCH_SPELLINGS[value.lower()] else []
        else:
            tokens = [f"{flag}={value}"]
        try:
            defaults[action.dest] = getattr(verb.parse_args(tokens), action.dest)
        except ArgumentError as exc:
            raise FormatError(f"config key {key!r}: {exc}") from None
    return defaults


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The ``pird`` parser and its verbs' subparsers: the one declaration of
    each verb's options and their defaults."""
    parser = _Parser(prog="pird", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    fit = sub.add_parser("fit", help="fit a VAR model to a CSV time series")
    dec = sub.add_parser("decompose", help="decompose information rates")
    bench = sub.add_parser("bench", help="reproduce the benchmark sweeps")
    for p in (fit, dec, bench):
        p.add_argument("--config", help="flat key = value file of this verb's flags; flags win")
        p.add_argument(
            "--fs", type=float,
            help="sampling frequency in Hz (default: a stored model's own, else 1)",
        )
        p.add_argument("--out", default="pird_out", help="output directory (default %(default)s)")
    for p in (fit, dec):
        p.add_argument("--input", help="input CSV time series (decompose fits it inline)")
        p.add_argument("--order", type=int, help="force this VAR order, skip AIC")
        p.add_argument(
            "--max-order", type=int, default=10, help="AIC search limit (default %(default)s)"
        )
    for p in (dec, bench):
        p.add_argument("--scenario", help="built-in system: sim1, sim2 or sim3")
        p.add_argument(
            "--units", choices=tuple(UNIT_SCALES), default="nats",
            help="output units (default %(default)s)",
        )
        p.add_argument(
            "--grid", type=int, default=DEFAULT_GRID_POINTS,
            help=f"frequency grid points, at most {MAX_GRID_POINTS} (default %(default)s)",
        )
        p.add_argument(
            "--conditioned-te", action="store_true",
            help="condition the TE PID's marginal transfer entropies on the other sources",
        )
    dec.add_argument("--model", help="load a fitted model.json instead of fitting")
    dec.add_argument("--c", type=float, help="coupling parameter for sim1/sim2")
    dec.add_argument("--target", help="target channel name (default: first)")
    dec.add_argument("--sources", help="comma list of source names (default: rest)")
    dec.add_argument("--bands", help='bands, e.g. "LF:0.04-0.15,HF:0.15-0.4"')
    dec.add_argument(
        "--diag-load", type=float, default=0.0,
        help="diagonal loading factor for the PSD (default %(default)s: none)",
    )
    bench.add_argument(
        "--sweep", default="0:0.05:0.8",
        help=f"sim1/sim2 coupling grid start:step:stop, at most {MAX_SWEEP_POINTS} "
        "points (default %(default)s)",
    )
    bench.add_argument(
        "--bands", default=_BENCH_BANDS, help="sim3 table bands (default %(default)s)"
    )
    return parser, sub.choices


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The resolved options of one invocation. A ``--config`` file's keys
    become the verb's defaults, and ``argv`` is parsed again over them, so
    explicit flags win. A ``--grid`` is bounded here, before anything is
    allocated."""
    parser, verbs = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        verb = verbs[args.command]
        verb.set_defaults(**_config_defaults(verb, args.config))
        args = parser.parse_args(argv)
    if args.command != "fit" and args.grid > MAX_GRID_POINTS:
        raise ArgumentError(f"--grid {args.grid} has more than {MAX_GRID_POINTS} points")
    return args


def _load_series(args: argparse.Namespace) -> TimeSeriesMatrix:
    if not args.input:
        raise ArgumentError("an input CSV is required (--input)")
    return TimeSeriesMatrix.load_csv(args.input, fs=1.0 if args.fs is None else args.fs)


def _fit_from_series(args: argparse.Namespace, ts: TimeSeriesMatrix):
    if args.order is not None:
        return fit_ols(ts, args.order), None
    p_star, curve = select_order_aic(ts, args.max_order)
    return fit_ols(ts, p_star), curve


def _obtain_model(args: argparse.Namespace) -> tuple[VarModel, list[float] | None]:
    given = [
        name
        for name, flag in (
            ("--model", args.model),
            ("--scenario", args.scenario),
            ("--input", args.input),
        )
        if flag
    ]
    if len(given) != 1:
        raise ArgumentError(
            f"exactly one of --model, --scenario or --input is required, got {given or 'none'}"
        )
    # An ignored option whose absence would change the run is an error.
    if args.order is not None and not args.input:
        raise ArgumentError(f"--order applies to --input (the inline fit), not to {given[0]}")
    if args.c is not None and not args.scenario:
        raise ArgumentError(f"--c applies to --scenario sim1/sim2, not to {given[0]}")
    if args.model:
        try:
            text = Path(args.model).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise FormatError(f"cannot read {args.model}: {exc}") from exc
        return VarModel.from_json(text), None
    if args.scenario:
        params = {} if args.c is None else {"c": args.c}
        return build_scenario(Scenario(args.scenario, params)), None
    return _fit_from_series(args, _load_series(args))


def _resolve_channels(model: VarModel, args: argparse.Namespace) -> tuple[int, tuple[int, ...]]:
    """The target and the sorted, distinct sources named by the args."""
    names = list(model.names)

    def lookup(name: str) -> int:
        if name not in names:
            raise ArgumentError(f"channel {name!r} not among {names}")
        return names.index(name)

    target = lookup(args.target) if args.target else 0
    sources = None
    if args.sources:
        sources = [lookup(n.strip()) for n in args.sources.split(",") if n.strip()]
    return target, _resolve_sources(model.dim, target, sources)


@contextmanager
def _outdir(args: argparse.Namespace) -> Iterator[Path]:
    """The ``--out`` directory, created if missing, for the writes of the
    block. An OSError from creating it or writing into it (a regular file
    in its place, a directory where an output goes) is an argument error."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        raise ArgumentError(f"cannot write the output to --out {out}: {exc}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    ts = _load_series(args)
    model, curve = _fit_from_series(args, ts)
    if not is_stable(model):
        raise NumericalError(
            f"fitted model is unstable (companion spectral radius "
            f"{model.spectral_radius:.6f}); try a different order"
        )
    with _outdir(args) as out:
        atomic_write_text(out / "model.json", [f"{model.to_json()}\n".encode()])
        if curve is not None:
            lines = ["p,aic"] + [f"{p},{_fmt(a)}" for p, a in enumerate(curve, start=1)]
            atomic_write_text(out / "aic.csv", [("\n".join(lines) + "\n").encode()])
    margin = 1.0 - model.spectral_radius
    print(f"selected order: {model.order}")
    print(f"stability margin: {_fmt(margin)}")
    print(f"wrote {out / 'model.json'}" + ("" if curve is None else f", {out / 'aic.csv'}"))
    return 0


def _retimed(model: VarModel, args: argparse.Namespace) -> VarModel:
    """The model at an explicit ``--fs``; a loaded model or scenario keeps
    its own rate otherwise."""
    if args.fs is None or model.fs == args.fs:
        return model
    return VarModel(coeffs=model.coeffs, sigma=model.sigma, fs=args.fs, names=model.names)


def cmd_decompose(args: argparse.Namespace) -> int:
    model = _retimed(_obtain_model(args)[0], args)
    target, sources = _resolve_channels(model, args)
    if args.conditioned_te and len(sources) < 2:
        raise ArgumentError("--conditioned-te applies to the TE PID, which needs two sources")
    bands = parse_bands(args.bands) if args.bands else []
    psd = psd_from_var(model, FrequencyGrid(fs=model.fs, n_points=args.grid))
    if args.diag_load != 0.0:  # a negative or NaN factor is rejected, not skipped
        psd = psd.with_diagonal_loading(args.diag_load)
    result = decompose(psd, target, sources, bands)

    baselines = {}
    if len(sources) >= 2:
        baselines["staticPID"] = bl.static_pid(model, target, sources)
        baselines["tePID"] = bl.te_pid(model, target, sources, conditioned=args.conditioned_te)
    with _outdir(args) as out:
        write_atoms_csv(result, out / "atoms.csv", args.units)
        write_coarse_csv(result, out / "coarse.csv", args.units, baselines)
        write_profiles_csv(result, out / "profiles.csv", args.units)
    print(
        f"target {model.names[target]}, sources "
        f"{', '.join(model.names[s] for s in sources)}; joint MIR = "
        f"{_fmt(result.joint_mir, unit_scale(args.units))} {args.units}"
    )
    print(f"wrote {out / 'atoms.csv'}, {out / 'coarse.csv'}, {out / 'profiles.csv'}")
    return 0


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        start, step, stop = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ArgumentError(f"cannot parse sweep {spec!r} (expected start:step:stop)") from None
    if not np.all(np.isfinite([start, step, stop])) or step <= 0 or stop < start:
        raise ArgumentError(f"invalid sweep {spec!r} (finite start <= stop, step > 0)")
    too_many = ArgumentError(f"sweep {spec!r} has more than {MAX_SWEEP_POINTS} points")
    # np.arange makes ceil(this) points, at most one past stop: bound them before it allocates
    if (stop + step / 2.0 - start) / step > MAX_SWEEP_POINTS + 1:
        raise too_many
    # arange makes none at start == stop if roundoff eats the half step. Of
    # its points, those past stop go, and one within its roundoff is stop.
    cs = np.arange(start, stop + step / 2.0, step) if stop > start else np.array([stop])
    tol = 2 * (len(cs) + 1) * np.spacing(max(abs(start), abs(stop)))
    cs = cs[cs <= stop + tol]
    cs[-1] = stop if stop - cs[-1] <= tol else cs[-1]
    if len(cs) > MAX_SWEEP_POINTS:
        raise too_many
    return cs


def _coupling_sweep(args: argparse.Namespace, scenario: str) -> int:
    cs = _parse_sweep(args.sweep)
    scale = unit_scale(args.units)
    prefix = "staticPID" if scenario == "sim1" else "tePID"
    models = [_retimed(build_scenario(Scenario(scenario, {"c": float(c)})), args) for c in cs]
    # One grid for the sweep, whose models share their rate, and one batch
    # of reference PIDs.
    grid = FrequencyGrid(fs=models[0].fs, n_points=args.grid)
    labels = [f"the model at c = {_fmt(c)}" for c in cs]
    if scenario == "sim1":
        bases = bl._static_pids(models, 0, None, labels)
    else:
        bases = bl._te_pids(models, 0, None, args.conditioned_te, labels)
    rows = []
    for c, model, base in zip(cs, models, bases):
        result = decompose(psd_from_var(model, grid), 0)
        ours, theirs = (t.row(result.source_names) for t in (result.coarse[FULL_BAND], base))
        values = [*ours.values(), *theirs.values()]
        rows.append(",".join([_fmt(c)] + [_fmt(v, scale) for v in values]))
    header = ",".join(["c"] + [f"pird_{t}" for t in ours] + [f"{prefix}_{t}" for t in theirs])
    with _outdir(args) as out:
        path = out / f"bench_{scenario}.csv"
        atomic_write_text(path, [("\n".join([header, *rows]) + "\n").encode()])
    print(f"swept c over {len(cs)} points ({args.units}); wrote {path}")
    return 0


def _band_table(args: argparse.Namespace) -> int:
    model = _retimed(build_scenario(Scenario("sim3")), args)
    psd = psd_from_var(model, FrequencyGrid(fs=model.fs, n_points=args.grid))
    result = decompose(psd, 0, bands=parse_bands(args.bands))
    scale = unit_scale(args.units)
    src, lines = result.source_names, []
    for label, terms in result.coarse.items():
        # JointMIR keeps its place here, after the single-source rates.
        row = {**{f"I_{n}": v for n, v in zip(src, terms.marginals)}, "JointMIR": None,
               **terms.row(src)}
        lines.append(",".join([label] + [_fmt(v, scale) for v in row.values()]))
    with _outdir(args) as out:
        path = out / "bench_sim3.csv"
        atomic_write_text(path, [("\n".join([",".join(["band", *row]), *lines]) + "\n").encode()])
    print(f"band table in {args.units}; wrote {path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.conditioned_te and args.scenario in ("sim1", "sim3"):
        raise ArgumentError(f"--conditioned-te applies to sim2's TE PID, not to {args.scenario}")
    if args.scenario in ("sim1", "sim2"):
        return _coupling_sweep(args, args.scenario)
    if args.scenario == "sim3":
        return _band_table(args)
    what = f"unknown scenario {args.scenario!r}" if args.scenario else "--scenario is required"
    raise ArgumentError(f"{what} (use sim1, sim2 or sim3)")


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    try:
        args = _parse_args(argv)
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "decompose":
            return cmd_decompose(args)
        return cmd_bench(args)
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
