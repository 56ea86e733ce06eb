import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pird
from pird import Scenario, VarModel, build_scenario, simulate
from pird import cli
from pird.cli import _build_parser, _parse_args, _parse_sweep, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="session")
def sim3_csv(tmp_path_factory, sim3_model):
    path = tmp_path_factory.mktemp("data") / "sim3.csv"
    ts = simulate(sim3_model, 100_000, burn_in=1000, seed=7)
    ts.save_csv(path)
    return path


def read_coarse(path):
    rows = {}
    for line in Path(path).read_text().strip().splitlines()[1:]:
        term, band, value = line.split(",")
        rows[(term, band)] = float(value)
    return rows


# ---------------------------------------------------------------------------
# fit


def test_fit_selects_true_order_and_recovers_coefficients(sim3_csv, sim3_model, tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(sim3_csv), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "selected order: 2" in printed
    assert "stability margin" in printed
    doc = json.loads((out / "model.json").read_text())
    assert doc["order"] == 2
    fitted = np.array(doc["coeffs"])
    assert np.max(np.abs(fitted - sim3_model.coeffs)) < 0.02
    aic = (out / "aic.csv").read_text().strip().splitlines()
    assert aic[0] == "p,aic"
    assert len(aic) == 11


def test_fit_accepts_channels_in_units_twelve_decades_apart(tmp_path):
    # raw columns read condition number 6.9e12 here; unit-norm ones 6.2
    ts = simulate(pird.random_stable_var(3, 2, seed=4, radius=0.95), 3000, seed=1)
    path = tmp_path / "scaled.csv"
    pird.TimeSeriesMatrix(samples=ts.samples * [1e-6, 1.0, 1e6]).save_csv(path)
    assert main(["fit", "--input", str(path), "--max-order", "5", "--out", str(tmp_path / "fit")]) == 0
    assert json.loads((tmp_path / "fit" / "model.json").read_text())["order"] == 2


@pytest.mark.parametrize("order", [["--order", "0"], ["--order", "2"], []])
def test_fit_of_a_constant_channel_exits_4_at_every_order(tmp_path, capsys, order):
    samples = np.random.default_rng(5).standard_normal((1000, 3))
    samples[:, 1] = 2.5
    path = tmp_path / "constant.csv"
    pird.TimeSeriesMatrix(samples=samples, names=("Y", "X1", "X2")).save_csv(path)
    assert main(["fit", "--input", str(path), *order, "--out", str(tmp_path / "fit")]) == 4
    assert "channel 'X1' is constant" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_fit_forced_order_skips_aic(sim3_csv, tmp_path):
    out = tmp_path / "forced"
    assert main(["fit", "--input", str(sim3_csv), "--order", "3", "--out", str(out)]) == 0
    assert (out / "model.json").exists()
    assert not (out / "aic.csv").exists()


def test_fit_missing_header_is_format_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,4.0\n")
    assert main(["fit", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_fit_unreadable_input(tmp_path):
    assert main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# decompose


def test_decompose_sim1_c0_values(tmp_path):
    out = tmp_path / "d"
    code = main(["decompose", "--scenario", "sim1", "--c", "0", "--out", str(out)])
    assert code == 0
    rows = read_coarse(out / "coarse.csv")
    assert rows[("R", "FULL")] == pytest.approx(-0.5 * np.log(0.36), abs=1e-6)
    assert rows[("JointMIR", "FULL")] == pytest.approx(0.5 * np.log(0.36 / 0.104), abs=1e-6)
    assert rows[("staticPID:R", "FULL")] == pytest.approx(rows[("R", "FULL")], abs=1e-6)
    atoms = (out / "atoms.csv").read_text().splitlines()
    assert atoms[0] == "atom,band,pi_nats,redundancy_nats"
    assert (out / "profiles.csv").exists()


def test_decompose_units_bits(tmp_path):
    out_n = tmp_path / "nats"
    out_b = tmp_path / "bits"
    args = ["decompose", "--scenario", "sim2", "--c", "0.4"]
    assert main(args + ["--out", str(out_n)]) == 0
    assert main(args + ["--units", "bits", "--out", str(out_b)]) == 0
    nats = read_coarse(out_n / "coarse.csv")
    bits = read_coarse(out_b / "coarse.csv")
    header = (out_b / "coarse.csv").read_text().splitlines()[0]
    assert header == "term,band,value_bits"
    for key, value in nats.items():
        assert bits[key] == pytest.approx(value / np.log(2.0), rel=1e-9, abs=1e-12)


def test_decompose_is_deterministic(tmp_path):
    args = [
        "decompose", "--scenario", "sim3",
        "--bands", "B1:0.04-0.15,B2:0.15-0.4",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("atoms.csv", "coarse.csv", "profiles.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_decompose_band_table_signs(tmp_path):
    out = tmp_path / "sim3"
    assert main([
        "decompose", "--scenario", "sim3",
        "--bands", "B1:0.04-0.15,B2:0.15-0.4", "--out", str(out),
    ]) == 0
    rows = read_coarse(out / "coarse.csv")
    assert rows[("Delta", "B1")] < 0.0
    assert rows[("Delta", "B2")] > 0.0
    assert abs(rows[("U_X2", "FULL")]) < 1e-6


def test_decompose_from_model_json(sim3_csv, tmp_path):
    fit_out = tmp_path / "fit"
    assert main(["fit", "--input", str(sim3_csv), "--order", "2", "--out", str(fit_out)]) == 0
    dec_out = tmp_path / "dec"
    code = main([
        "decompose", "--model", str(fit_out / "model.json"), "--out", str(dec_out),
        "--target", "Y", "--sources", "X1,X2,X3",
    ])
    assert code == 0
    rows = read_coarse(dec_out / "coarse.csv")
    # estimated from 1e5 samples of the true system: close to the analytic run
    assert rows[("JointMIR", "FULL")] == pytest.approx(0.904134652869, abs=0.02)


def test_decompose_model_in_mixed_units(tmp_path):
    # Channel X3 in units 1e8 times larger: the reference PIDs, log-det
    # ratios read at unit innovation variance, print the same values (this
    # model's stationary covariance once failed a positive-definiteness
    # test taken in the channels' units, exit 3).
    model = pird.random_stable_var(5, 4, seed=3, radius=0.95)
    f = np.array([1.0, 1.0, 1.0, 1e-8, 1.0])
    mixed = VarModel(
        coeffs=np.diag(f) @ model.coeffs @ np.diag(1.0 / f),
        sigma=np.diag(f) @ model.sigma @ np.diag(f),
    )
    rows = []
    for name, m in (("plain", model), ("mixed", mixed)):
        path = tmp_path / f"{name}.json"
        path.write_text(m.to_json())
        assert main(["decompose", "--model", str(path), "--grid", "257",
                     "--out", str(tmp_path / name)]) == 0
        rows.append(read_coarse(tmp_path / name / "coarse.csv"))
    assert rows[1].keys() == rows[0].keys()
    assert any(key[0].startswith("staticPID:") for key in rows[0])
    for key, value in rows[0].items():
        assert abs(rows[1][key] - value) <= 1e-12 * max(1.0, abs(value)), key


def test_every_input_file_may_start_with_a_byte_order_mark(sim3_csv, tmp_path):
    # The time series, model.json and --config are each read as UTF-8 with
    # an optional byte-order mark, as spreadsheet exports write them.
    bom = b"\xef\xbb\xbf"
    series = tmp_path / "bom.csv"
    series.write_bytes(bom + sim3_csv.read_bytes()[:200_000].rsplit(b"\n", 1)[0] + b"\n")
    fit_out = tmp_path / "fit"
    assert main(["fit", "--input", str(series), "--order", "2", "--out", str(fit_out)]) == 0
    model = tmp_path / "bom.json"
    model.write_bytes(bom + (fit_out / "model.json").read_bytes())
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(bom + b"units = bits\ngrid = 65\n")
    runs = {
        "input": ["--input", str(series), "--order", "2"],
        "model": ["--model", str(model)],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        code = main(["decompose", *argv, "--target", "Y", "--config", str(cfg), "--out", str(out)])
        assert code == 0, name
        assert (out / "coarse.csv").read_text().splitlines()[0] == "term,band,value_bits"
    assert (tmp_path / "input" / "coarse.csv").read_bytes() == (
        tmp_path / "model" / "coarse.csv"
    ).read_bytes()


def test_decompose_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = sim1\n"
        "c = 0.0\n"
        "units = bits\n"
        f"out = {tmp_path / 'cfg_out'}\n"
        "# comment line\n"
    )
    override = tmp_path / "override_out"
    assert main(["decompose", "--config", str(cfg), "--out", str(override)]) == 0
    assert (override / "coarse.csv").exists()
    assert not (tmp_path / "cfg_out").exists()
    header = (override / "coarse.csv").read_text().splitlines()[0]
    assert header == "term,band,value_bits"  # config value survived


def test_config_hash_starts_a_comment_only_after_whitespace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "  # indented comment line\n"
        "grid = 65  # note\n"
        "bands = B#1:0.04-0.15,B2:0.15-0.4\t# tab before the comment\n"
        f"out = {tmp_path / 'run#2'}\n"
    )
    args = _parse_args(["decompose", "--config", str(cfg)])
    assert args.grid == 65
    assert args.bands == "B#1:0.04-0.15,B2:0.15-0.4"
    assert args.out == str(tmp_path / "run#2")
    assert main(["decompose", "--config", str(cfg), "--scenario", "sim3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#2", "run.cfg"]
    coarse = (tmp_path / "run#2" / "coarse.csv").read_text().splitlines()
    assert {line.split(",")[1] for line in coarse[1:]} == {"FULL", "B#1", "B2"}


def test_band_edges_in_exponent_notation_equal_their_decimal_forms(tmp_path):
    plain = "VLF:0.001-0.04,LF:0.04-0.15"
    runs = {"plain": ["--bands", plain], "flag": ["--bands", "VLF:1e-3-0.04,LF:4e-2-1.5e-1"]}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bands = VLF:1e-3-4e-2,LF:4.0e-2-1.5E-1\n")
    runs["config"] = ["--config", str(cfg)]
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["decompose", "--scenario", "sim3", "--grid", "257", *argv,
                     "--out", str(out)]) == 0, name
    coarse = (tmp_path / "plain" / "coarse.csv").read_bytes()
    assert {line.split(b",")[1] for line in coarse.splitlines()[1:]} == {b"FULL", b"VLF", b"LF"}
    for name in ("flag", "config"):
        assert (tmp_path / name / "coarse.csv").read_bytes() == coarse, name


def test_decompose_requires_exactly_one_model_source(tmp_path):
    assert main(["decompose", "--out", str(tmp_path)]) == 3
    assert main([
        "decompose", "--scenario", "sim3", "--model", "x.json", "--out", str(tmp_path),
    ]) == 3


def test_decompose_argument_errors(tmp_path):
    assert main(["decompose", "--scenario", "sim9", "--out", str(tmp_path)]) == 3
    assert main([
        "decompose", "--scenario", "sim3", "--bands", "LF:0.2-0.9", "--out", str(tmp_path),
    ]) == 3
    assert main([
        "decompose", "--scenario", "sim3", "--target", "Q", "--out", str(tmp_path),
    ]) == 3
    assert main([
        "decompose", "--scenario", "sim1", "--c", "0.95", "--out", str(tmp_path),
    ]) == 3
    for sources in (",", "X1,Y", "Y", "X1,Q"):
        assert main([
            "decompose", "--scenario", "sim3", "--sources", sources, "--out", str(tmp_path),
        ]) == 3
    # one channel: no source left besides the target
    white = tmp_path / "white1.json"
    white.write_text(VarModel(coeffs=np.zeros((0, 1, 1)), sigma=np.eye(1)).to_json())
    assert main(["decompose", "--model", str(white), "--out", str(tmp_path)]) == 3
    # duplicate channel names, which --sources could not tell apart
    dup = tmp_path / "dup.json"
    doc = json.loads(VarModel(coeffs=np.zeros((0, 3, 3)), sigma=np.eye(3)).to_json())
    doc["names"] = ["Y", "X", "X"]
    dup.write_text(json.dumps(doc))
    assert main(["decompose", "--model", str(dup), "--sources", "X", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("field", ["coeffs", "sigma"])
def test_decompose_rejects_a_model_with_a_non_finite_entry(tmp_path, field):
    doc = json.loads(VarModel(coeffs=np.full((1, 2, 2), 0.1), sigma=np.eye(2)).to_json())
    matrix = doc[field][0] if field == "coeffs" else doc[field]
    matrix[0][0] = float("nan")  # json writes it as NaN
    model = tmp_path / "nan.json"
    model.write_text(json.dumps(doc))
    assert main(["decompose", "--model", str(model), "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()
    # a ragged coefficient list is a malformed file
    doc[field] = [[[0.1, 0.0], [0.0]]] if field == "coeffs" else [[1.0, 0.0], [0.0]]
    model.write_text(json.dumps(doc))
    assert main(["decompose", "--model", str(model), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("changes", [{"dim": 5, "order": 3}, {"dim": 3}, {"order": 2}])
def test_decompose_rejects_a_model_whose_dim_or_order_disagrees(tmp_path, capsys, changes):
    doc = json.loads(VarModel(coeffs=np.full((1, 2, 2), 0.1), sigma=np.eye(2)).to_json())
    doc.update(changes)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["decompose", "--model", str(model), "--out", str(tmp_path / "o")]) == 2
    assert "disagree with 2 sigma rows and 1 lag matrices" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_decompose_explicit_fs_retimes_a_stored_model(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(VarModel(coeffs=np.zeros((1, 2, 2)), sigma=np.eye(2), fs=2.0).to_json())
    args = ["decompose", "--model", str(model), "--bands", "A:0.6-0.9", "--out", str(tmp_path)]
    assert main(args) == 0
    # at the explicit 1 Hz the band lies above the 0.5 Hz Nyquist frequency
    assert main(args + ["--fs", "1"]) == 3


@pytest.mark.parametrize("fs", ["nan", "inf", "-1"])
def test_fs_must_be_positive_and_finite(fs, tmp_path, capsys):
    series = tmp_path / "white.csv"
    simulate(VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2)), 200, seed=1).save_csv(series)
    for argv in (
        ["fit", "--input", str(series)],
        ["decompose", "--input", str(series), "--order", "1", "--grid", "65"],
        ["decompose", "--scenario", "sim1", "--c", "0.4", "--grid", "65"],
    ):
        out = tmp_path / "out"
        assert main(argv + ["--fs", fs, "--out", str(out)]) == 3
        assert "fs must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


def test_band_beyond_nyquist_same_message_from_cli_and_decompose(tmp_path, sim3_model, capsys):
    psd = pird.psd_from_var(sim3_model, pird.FrequencyGrid(fs=sim3_model.fs, n_points=257))
    with pytest.raises(pird.ArgumentError) as raised:
        pird.decompose(psd, 0, bands=[pird.Band(0.2, 0.9, "LF")])
    out = tmp_path / "out"
    args = ["decompose", "--scenario", "sim3", "--bands", "LF:0.2-0.9", "--out", str(out)]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert not out.exists()  # rejected before any file is written


def test_outputs_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["decompose", "--scenario", "sim1", "--c", "0", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("atoms.csv", "coarse.csv", "profiles.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atoms.csv", "coarse.csv", "profiles.csv"]


def test_an_out_that_cannot_be_written_is_an_argument_error(tmp_path, capsys):
    series = tmp_path / "white.csv"
    simulate(VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2)), 200, seed=1).save_csv(series)
    # a regular file where the output directory goes
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    for argv in (
        ["fit", "--input", str(series), "--order", "1"],
        ["decompose", "--scenario", "sim1", "--c", "0.4", "--grid", "65"],
        ["bench", "--scenario", "sim2", "--sweep", "0:0.4:0.4", "--grid", "65"],
        ["bench", "--scenario", "sim3", "--grid", "65"],
    ):
        assert main(argv + ["--out", str(blocker)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write the output to --out {blocker}: ")
        assert "File exists" in err
    assert blocker.read_text() == "kept\n"
    # a directory where an output file goes
    out = tmp_path / "out"
    (out / "atoms.csv").mkdir(parents=True)
    argv = ["decompose", "--scenario", "sim1", "--c", "0.4", "--grid", "65", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"--out {out}: " in err and str(out / "atoms.csv") in err
    assert sorted(p.name for p in out.iterdir()) == ["atoms.csv"]  # no temp file left behind


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario sim1\n")
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    cfg.write_text("unknown_key = 3\n")
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# (verb, option action) for every option a verb's parser declares, except
# --help and --config itself
VERB_OPTIONS = [
    (name, action)
    for name, verb in _build_parser()[1].items()
    for action in verb._actions
    if action.option_strings and action.dest not in ("help", "config")
]


def _sample_value(action):
    """A value the option accepts that differs from its default."""
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    return {int: "7", float: "0.25"}.get(action.type, "abc")


@pytest.mark.parametrize(
    "verb,action",
    VERB_OPTIONS,
    ids=[f"{verb}{action.option_strings[-1]}" for verb, action in VERB_OPTIONS],
)
def test_config_key_equals_its_flag(verb, action, tmp_path):
    flag = action.option_strings[-1]
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    if action.nargs == 0:  # a switch
        from_flag = _parse_args([verb, flag])
        cfg.write_text(f"{key} = yes\n")
    else:
        value = _sample_value(action)
        from_flag = _parse_args([verb, flag, value])
        cfg.write_text(f"{key} = {value}\n")
    from_file = _parse_args([verb, "--config", str(cfg)])
    assert from_file.config == str(cfg) and from_flag.config is None
    from_file.config = None
    assert from_file == from_flag
    assert getattr(from_file, action.dest) != action.default  # the option took effect


SIM1 = ["decompose", "--scenario", "sim1", "--c", "0"]


@pytest.mark.parametrize(
    "argv,config,code,message",
    [
        # a config value goes through its flag's type and choices
        (SIM1, "units = bit", 2, "'units'"),
        (SIM1, "grid = 0x10", 2, "'grid'"),
        (["bench", "--scenario", "sim2"], "conditioned_te = maybe", 2, "'conditioned_te'"),
        # a config key must be one of the verb's own flags, spelled out
        (["bench", "--scenario", "sim3"], "target = Z", 2, "'target' for pird bench"),
        (["bench", "--scenario", "sim3"], "diag_load = 0.1", 2, "'diag_load' for pird bench"),
        (["bench", "--scenario", "sim3"], "input = x.csv", 2, "'input' for pird bench"),
        (["fit", "--input", "x.csv"], "units = bits", 2, "'units' for pird fit"),
        (SIM1, "max = 3", 2, "'max' for pird decompose"),
        (SIM1, "help = 1", 2, "'help'"),
        (SIM1, "config = x.cfg", 2, "'config'"),
        # flags a verb never read are gone from it
        (["bench", "--scenario", "sim3", "--input", "x.csv"], None, 3, "--input"),
        (["fit", "--input", "x.csv", "--units", "bits"], None, 3, "--units"),
        # a negative or NaN diagonal loading is rejected, not skipped
        (SIM1 + ["--diag-load", "-0.5"], None, 3, "loading"),
        (SIM1 + ["--diag-load", "nan"], None, 3, "loading"),
        (SIM1, "diag_load = -0.5", 3, "loading"),
        # a non-finite sweep is an argument error, not numpy's ValueError
        (["bench", "--scenario", "sim1", "--sweep", "0:nan:0.8"], None, 3, "invalid sweep"),
        (["bench", "--scenario", "sim1", "--sweep", "nan:0.1:0.8"], None, 3, "invalid sweep"),
        (["bench", "--scenario", "sim1", "--sweep", "0:0.1:inf"], None, 3, "invalid sweep"),
        # an option the run would ignore, and whose absence would show, is rejected
        (SIM1 + ["--order", "3"], None, 3, "--order applies"),
        (SIM1, "order = 3", 3, "--order applies"),
        (["decompose", "--model", "x.json", "--order", "3"], None, 3, "--order applies"),
        (["decompose", "--model", "x.json", "--c", "0.2"], None, 3, "--c applies"),
        (["decompose", "--input", "x.csv", "--c", "0.2"], None, 3, "--c applies"),
        (["bench", "--scenario", "sim1", "--conditioned-te"], None, 3, "--conditioned-te"),
        (["bench", "--scenario", "sim3", "--conditioned-te"], None, 3, "--conditioned-te"),
        (["decompose", "--scenario", "sim3", "--sources", "X1", "--conditioned-te"], None, 3,
         "--conditioned-te"),
        # a sweep is counted before np.arange allocates it
        (["bench", "--scenario", "sim1", "--sweep", "0:1e-300:0.8"], None, 3, "more than 1001 points"),
        (["bench", "--scenario", "sim2", "--sweep", "0:0.000799:0.8"], None, 3, "more than 1001 points"),
        # a band label follows the channel-name rule of the unquoted CSV outputs
        (["decompose", "--scenario", "sim3", "--bands", '"q:0.1-0.2'], None, 3, "cannot hold"),
        (["decompose", "--scenario", "sim3", "--bands", "a\rb:0.1-0.2"], None, 3, "cannot hold"),
        (["decompose", "--scenario", "sim3", "--bands", "a\nb:0.1-0.2"], None, 3, "cannot hold"),
        (["decompose", "--scenario", "sim3", "--bands", ":0.1-0.2"], None, 3, "non-empty"),
        (["bench", "--scenario", "sim3", "--bands", '"q:0.1-0.2'], None, 3, "cannot hold"),
        (["bench", "--scenario", "sim3", "--bands", ":0.1-0.2"], None, 3, "non-empty"),
        # a band range splits at the one hyphen with a number on either side
        (["decompose", "--scenario", "sim3", "--bands", "X:-0.1-0.2"], None, 3, "need 0 <= lo"),
        (["decompose", "--scenario", "sim3"], "bands = X:-1e-2-0.2", 3, "need 0 <= lo"),
        (["decompose", "--scenario", "sim3", "--bands", "X:1e-3"], None, 3, "cannot parse band"),
        (["decompose", "--scenario", "sim3"], "bands = X:0.1-0.2-0.3", 3, "cannot parse band"),
        (["bench"], None, 3, "--scenario is required (use sim1, sim2 or sim3)"),
        (["bench", "--scenario", "sim4"], None, 3, "unknown scenario 'sim4' (use sim1, sim2"),
        # there is no --seed: every verb is deterministic
        (["fit", "--input", "x.csv", "--seed", "1"], None, 3, "--seed"),
        (SIM1 + ["--seed", "1"], None, 3, "--seed"),
        (["bench", "--scenario", "sim1", "--seed", "1"], None, 3, "--seed"),
        (SIM1, "seed = 1", 2, "'seed' for pird decompose"),
    ],
)
def test_options_behave_as_declared(argv, config, code, message, tmp_path, capsys):
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--grid", "65"] * (argv[0] != "fit") + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_take_dashes_and_lose_to_their_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-order = 3\nunits = bits\nconditioned-te = off\n")
    args = _parse_args(["decompose", "--config", str(cfg), "--units", "nats"])
    assert (args.max_order, args.units, args.conditioned_te) == (3, "nats", False)
    assert _parse_args(["decompose", "--config", str(cfg), "--conditioned-te"]).conditioned_te


def test_diag_load_zero_is_the_default(tmp_path):
    args = ["decompose", "--scenario", "sim1", "--c", "0.4", "--grid", "257"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert main(args + ["--diag-load", "0", "--out", str(tmp_path / "zero")]) == 0
    assert main(args + ["--diag-load", "0.1", "--out", str(tmp_path / "loaded")]) == 0
    plain, zero, loaded = (
        (tmp_path / d / "coarse.csv").read_bytes() for d in ("plain", "zero", "loaded")
    )
    assert plain == zero
    assert plain != loaded


def test_help_shows_the_parser_defaults(capsys):
    with pytest.raises(SystemExit) as done:
        main(["bench", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for default in ("(default 2049)", "(default 0:0.05:0.8)", "(default B1:0.04-0.15,B2:0.15-0.4)"):
        assert default in text


def test_readme_lists_each_verbs_flags():
    text = README.read_text(encoding="utf-8")
    lists = dict(re.findall(r"^\* `pird (\w+)`:(.*?)(?=^\* |^$)", text, re.M | re.S))
    _, verbs = _build_parser()
    assert set(lists) == set(verbs)
    for name, verb in verbs.items():
        declared = {s for a in verb._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"`(--[a-z][a-z-]*)", lists[name])) == declared, name


def test_readme_states_each_flags_parser_default_and_choices():
    # Beyond the flag names: a default, a choice list (`--flag a|b`) or a
    # cap ("at most N points") that README states for a flag is the one
    # its subparser declares; choices the parser leaves to the verb are
    # the ones its help text names.
    text = README.read_text(encoding="utf-8")
    lists = dict(re.findall(r"^\* `pird (\w+)`:(.*?)(?=^\* |^$)", text, re.M | re.S))
    _, verbs = _build_parser()
    checked = []
    for name, verb in verbs.items():
        actions = {s: a for a in verb._actions for s in a.option_strings}
        parts = re.split(r"`(--[a-z][a-z-]*)", lists[name])
        for flag, said in zip(parts[1::2], parts[2::2]):
            action = actions[flag]
            default = re.search(r"default (?:`([^`]+)`|([^\s,)`]+))", said)
            if default:
                assert (default[1] or default[2]) == str(action.default), (name, flag)
                checked.append((name, flag, "default"))
            choices = re.match(r" (\w+(?:\|\w+)+)`", said)
            if choices:
                listed = choices[1].split("|")
                if action.choices is not None:
                    assert listed == list(action.choices), (name, flag)
                else:
                    assert all(c in action.help for c in listed), (name, flag)
                checked.append((name, flag, "choices"))
            cap = re.search(r"at most (\d+)", said)
            if cap:
                caps = {"--sweep": cli.MAX_SWEEP_POINTS, "--grid": cli.MAX_GRID_POINTS}
                assert int(cap[1]) == caps[flag], (name, flag)
                checked.append((name, flag, "cap"))
    assert len(checked) >= 7, checked


# ---------------------------------------------------------------------------
# bench


@pytest.mark.parametrize("argv", [
    ["decompose", "--scenario", "sim1", "--c", "0.4"],
    ["bench", "--scenario", "sim1"],
    ["bench", "--scenario", "sim3"],
])
def test_grid_is_bounded_before_anything_is_allocated(argv, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frequency grid was built")

    monkeypatch.setattr(cli, "FrequencyGrid", refuse)
    out = tmp_path / "out"
    too_many = str(cli.MAX_GRID_POINTS + 1)
    assert main(argv + ["--grid", too_many, "--out", str(out)]) == 3
    assert f"more than {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid = {too_many}\n")
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("spec,on_grid", [
    ("0:0.3:0.5", False),
    ("0:0.3:0.8", False),
    ("0.3:0.1:0.8", True),
    ("0:0.05:0.8", True),  # the default
    ("0.5:1e-20:0.5", True),  # arange makes no point here
])
def test_sweep_never_passes_stop(spec, on_grid, tmp_path):
    stop = float(spec.split(":")[2])
    cs = _parse_sweep(spec)
    assert len(cs) and cs.max() <= stop
    assert (cs[-1] == stop) == on_grid
    out = tmp_path / "out"
    assert main(["bench", "--scenario", "sim1", "--sweep", spec, "--grid", "65",
                 "--out", str(out)]) == 0
    rows = (out / "bench_sim1.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [float(f"{c:.12g}") for c in cs]


def test_sweep_cap_counts_the_points_up_to_stop():
    # np.arange makes 1002 points here, the last past stop: the sweep has 1001.
    cs = _parse_sweep("0:0.001:1.0006")
    assert len(cs) == cli.MAX_SWEEP_POINTS and cs[-1] < 1.0006


@pytest.mark.parametrize("scenario,header", [
    ("sim1", "c,pird_U_X1,pird_U_X2,pird_R,pird_S,pird_Delta,pird_JointMIR,"
             "staticPID_U_X1,staticPID_U_X2,staticPID_R,staticPID_S,staticPID_Delta,"
             "staticPID_JointMIR"),
    ("sim2", "c,pird_U_X1,pird_U_X2,pird_R,pird_S,pird_Delta,pird_JointMIR,"
             "tePID_U_X1,tePID_U_X2,tePID_R,tePID_S,tePID_Delta,tePID_JointMIR"),
    ("sim3", "band,I_X1,I_X2,I_X3,JointMIR,U_X1,U_X2,U_X3,R,S,Delta"),
])
def test_bench_headers(scenario, header, tmp_path):
    argv = ["bench", "--scenario", scenario, "--sweep", "0:0.8:0.8", "--grid", "65"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / f"bench_{scenario}.csv").read_text().splitlines()
    assert lines[0] == header
    assert {len(line.split(",")) for line in lines} == {header.count(",") + 1}


def test_bench_sim2_mini_sweep(tmp_path):
    out = tmp_path / "bench"
    code = main([
        "bench", "--scenario", "sim2", "--sweep", "0:0.4:0.8", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "bench_sim2.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "c"
    assert "pird_JointMIR" in header and "tePID_JointMIR" in header
    assert len(lines) == 4  # header + c in {0, 0.4, 0.8}
    te_joint = [float(line.split(",")[header.index("tePID_JointMIR")]) for line in lines[1:]]
    assert te_joint[0] > te_joint[1] > te_joint[2]
    assert te_joint[2] < 1e-6


def test_bench_conditioned_te_flag_equals_config_key(tmp_path):
    sweep = ["bench", "--scenario", "sim2", "--sweep", "0:0.4:0.8"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("conditioned_te = true\n")
    assert main(sweep + ["--conditioned-te", "--out", str(tmp_path / "flag")]) == 0
    assert main(sweep + ["--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    assert main(sweep + ["--out", str(tmp_path / "plain")]) == 0
    flag, cfg_out, plain = (
        (tmp_path / d / "bench_sim2.csv").read_bytes() for d in ("flag", "cfg", "plain")
    )
    assert flag == cfg_out
    assert flag != plain  # the conditioned marginals differ from the bivariate ones


def test_bench_sim3_band_table(tmp_path):
    out = tmp_path / "bench3"
    assert main(["bench", "--scenario", "sim3", "--out", str(out)]) == 0
    lines = (out / "bench_sim3.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "band"
    rows = {line.split(",")[0]: dict(zip(header[1:], map(float, line.split(",")[1:])))
            for line in lines[1:]}
    assert set(rows) == {"FULL", "B1", "B2"}
    assert rows["B1"]["Delta"] < 0 < rows["B2"]["Delta"]
    assert abs(rows["FULL"]["U_X2"]) < 1e-6


def test_bench_sim3_band_table_honours_fs(tmp_path):
    bands = "B1:0.04-0.15,B2:0.15-0.4"
    assert main(["bench", "--scenario", "sim3", "--fs", "2", "--out", str(tmp_path / "b")]) == 0
    assert main([
        "decompose", "--scenario", "sim3", "--fs", "2", "--bands", bands,
        "--out", str(tmp_path / "d"),
    ]) == 0
    lines = (tmp_path / "b" / "bench_sim3.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    coarse = {}
    for line in (tmp_path / "d" / "coarse.csv").read_text().strip().splitlines()[1:]:
        term, band, value = line.split(",")
        coarse[(term, band)] = value
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["band"] == "FULL":
            continue
        for term in ("U_X1", "U_X2", "U_X3", "R", "S", "Delta", "JointMIR"):
            assert row[term] == coarse[(term, row["band"])]


def test_bench_sim1_agrees_with_static_pid_at_rest(tmp_path):
    out = tmp_path / "bench1"
    assert main([
        "bench", "--scenario", "sim1", "--sweep", "0:0.4:0.8", "--out", str(out),
    ]) == 0
    lines = (out / "bench_sim1.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, map(float, lines[1].split(","))))
    last = dict(zip(header, map(float, lines[-1].split(","))))
    assert first["c"] == 0.0 and last["c"] == pytest.approx(0.8)
    for term in ("R", "S", "U_X1", "U_X2", "JointMIR"):
        assert first[f"pird_{term}"] == pytest.approx(
            first[f"staticPID_{term}"], abs=1e-6
        )
    assert last["pird_S"] > last["pird_R"]


def test_decompose_single_source(tmp_path, sim3_model):
    out = tmp_path / "single"
    assert main([
        "decompose", "--scenario", "sim3", "--sources", "X1", "--out", str(out),
        "--bands", "B1:0.04-0.15,B2:0.15-0.4",
    ]) == 0
    # No coarse split for one source: one JointMIR row per span, in span order.
    psd = pird.psd_from_var(sim3_model, pird.FrequencyGrid(fs=sim3_model.fs))
    res = pird.decompose(psd, 0, [1], pird.parse_bands("B1:0.04-0.15,B2:0.15-0.4"))
    lines = (out / "coarse.csv").read_text().splitlines()[1:]
    assert lines == [f"JointMIR,{label},{joint:.12g}"
                     for label, joint in zip(res.span_labels, res.mir_spans[:, 0], strict=True)]
    atoms = (out / "atoms.csv").read_text().strip().splitlines()
    assert len(atoms) == 1 + 3  # header + the single trivial atom per span


def test_decompose_repeated_source_is_one_source(tmp_path):
    # the source list is a set: naming X1 twice is the one-source run
    args = ["decompose", "--scenario", "sim3", "--bands", "B1:0.04-0.15,B2:0.15-0.4"]
    assert main(args + ["--sources", "X1", "--out", str(tmp_path / "once")]) == 0
    assert main(args + ["--sources", "X1,X1", "--out", str(tmp_path / "twice")]) == 0
    for name in ("atoms.csv", "coarse.csv", "profiles.csv"):
        assert (tmp_path / "twice" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()


@pytest.mark.parametrize("argv,models", [
    (["bench", "--scenario", "sim2", "--sweep", "0:0.4:0.8"],
     [build_scenario(Scenario("sim2", {"c": float(c)})) for c in _parse_sweep("0:0.4:0.8")]),
    (["decompose", "--scenario", "sim3"], [build_scenario(Scenario("sim3"))]),
])
def test_one_companion_eigen_solve_per_model(monkeypatch, tmp_path, argv, models):
    # Every stability check of a model reads its one cached spectral
    # radius: the spectrum, the Lyapunov solve and each Riccati solve of
    # the reference PIDs. The Riccati solver's closed-loop checks are not
    # counted; a closed loop can equal a companion matrix, so they are told
    # apart by their caller.
    solved, closed_loop = [], []
    eigvals = np.linalg.eigvals

    def spy(a):
        from_dare = sys._getframe(1).f_code is pird.var._dare.__code__
        (closed_loop if from_dare else solved).append(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    assert main(argv + ["--grid", "65", "--out", str(tmp_path)]) == 0
    companions = [m.companion() for m in models]
    counts = [sum(a.shape == c.shape and np.array_equal(a, c) for a in solved) for c in companions]
    assert counts == [1] * len(models)
    assert len(solved) == len(models)  # every other solve is a closed loop
    assert closed_loop  # and those ran


@pytest.mark.parametrize("scenario, named", [
    ("sim1", "Lyapunov equation has no stable solution: doubling did not converge in 50 steps "
     "for the model at c = 0.35\n"),
    ("sim2", "Riccati equation has no stabilising solution: "),
])
def test_sweep_solver_failure_names_the_channel_set_and_the_model(
    monkeypatch, tmp_path, capsys, scenario, named
):
    # One member of the sweep's batch is replaced by an equation the solver
    # must refuse: for sim1 a Lyapunov equation whose state does not decay,
    # for sim2 the target-only Riccati equation with an unseen, driven unit
    # mode. The others are solved; the failure names its model.
    solve = pird.var._dare
    member = 7  # c = 0.35 in the default sweep

    def forced(a, c, q, r, s):
        if c.shape[-2] < 2:
            a, c, q, r, s = (x.copy() for x in (a, c, q, r, s))
            if c.shape[-2] == 0:
                a[member] = np.eye(a.shape[-1])
            else:
                a[member], c[member] = np.diag([1.0, 0.5, 0.5]), [[0.0, 0.5, 0.0]]
                q[member], r[member], s[member] = np.eye(3), np.eye(1), 0.0
        return solve(a, c, q, r, s)

    monkeypatch.setattr(pird.var, "_dare", forced)
    assert main(["bench", "--scenario", scenario, "--grid", "65", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert named in err
    if scenario == "sim2":
        assert err.endswith(" for channels (0,) of the model at c = 0.35\n")
    assert not (tmp_path / f"bench_{scenario}.csv").exists()


def test_bench_unknown_scenario(tmp_path):
    assert main(["bench", "--scenario", "simX", "--out", str(tmp_path)]) == 3
    assert main(["bench", "--scenario", "sim1", "--sweep", "oops", "--out", str(tmp_path)]) == 3


def test_usage_error_is_argument_error():
    assert main(["frobnicate"]) == 3


def test_cli_import_does_not_load_scipy():
    # scipy.linalg alone used to be most of the CLI's cold start.
    env = dict(os.environ, PYTHONPATH=str(Path(pird.__file__).resolve().parents[1]))
    code = "import pird.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
