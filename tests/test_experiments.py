import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lse_precoding
from lse_precoding import cli, experiments
from lse_precoding.experiments import (ConfigError, ExperimentConfig,
                                       apply_overrides, csv_text,
                                       load_config, manifest_text,
                                       match_random_selection,
                                       operating_point, parse_config,
                                       plot_svg, run, validate_config)
from lse_precoding.penalty import PenaltySpec
from lse_precoding.replica import (NotAchievableError, SystemParams,
                                   decoupled_cdf, random_tas_baseline)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# calibration targets p = 0.5 at lambda_s = 1 on the full plane
TARGETS = ExperimentConfig(p_target=0.5)


def read_csv(path):
    """(header, data rows) of a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


BASE = """
[run]
mode = replica
seed = 11

[system]
alpha_inverse = 2.0
lambda_s = 1.0

[penalty]
support = full
p_target = 0.5
eta_target = 0.5
"""


def cfg_from(text=BASE, **kw):
    cfg = parse_config(text)
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_parse_round_values():
    cfg = parse_config(BASE)
    assert cfg.mode == "replica" and cfg.seed == 11
    assert cfg.alpha_inverse == (2.0,)
    assert cfg.p_target == 0.5 and cfg.eta_target == 0.5


def test_parse_grid_forms():
    assert parse_config("[system]\nalpha_inverse = 1.0:0.5:2.0\n").alpha_inverse == \
        (1.0, 1.5, 2.0)
    assert parse_config("[system]\nalpha_inverse = 1.0,1.7\n").alpha_inverse == \
        (1.0, 1.7)
    # a grid ends at the last point that does not pass stop, whichever way
    # (stop - start) / step rounds
    for grid, values in (("1:0.6:2", (1.0, 1.6)), ("1:0.65:2", (1.0, 1.65)),
                         ("1:0.4:2", (1.0, 1.4, 1.8)),
                         ("1.0:0.1:2.8", tuple(round(1.0 + 0.1 * i, 1)
                                               for i in range(19)))):
        cfg = parse_config(f"[system]\nalpha_inverse = {grid}\n")
        assert cfg.alpha_inverse == values, grid


def test_parse_rejects_decreasing_grid():
    with pytest.raises(ConfigError) as exc:
        parse_config("[system]\nalpha_inverse = 2.0,1.0\n")
    assert str(exc.value) == ("bad value for system.alpha_inverse: '2.0,1.0': "
                              "alpha_inverse grid must be strictly increasing")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("[system]\nbogus = 1\n")


@pytest.mark.parametrize("grid, reason", [
    ("1:2", "grid must be start:step:stop"),
    ("1:0:2", "grid step must be positive"),
], ids=["two_part_grid", "zero_step_grid"])
def test_parse_rejects_malformed_grid(grid, reason):
    with pytest.raises(ConfigError, match="bad value for system.alpha_inverse") as exc:
        parse_config(f"[system]\nalpha_inverse = {grid}\n")
    assert str(exc.value).endswith(f": {grid!r}: {reason}")


@pytest.mark.parametrize("text, reason", [
    ("mode = replica\n", "File contains no section headers. "),
    ("[run]\nseed = 1\n[run]\nseed = 2\n", "section 'run' already exists"),
    ("[DEFAULT]\nn = 10\n", "[DEFAULT] sets "),
], ids=["no_section_header", "repeated_section", "default_section"])
def test_malformed_ini_exits_2_on_one_line(tmp_path, capsys, text, reason):
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert cli.main(["replica", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert reason in err and str(path) in err


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nn = 10\n",
    # configparser would set both tolerances and make [solver] take n
    "[DEFAULT]\ntol = 1e-3\nn = 10\n[simulation]\ntrials = 4\n[solver]\nmax_iter = 5\n",
], ids=["alone", "merged"])
def test_parse_rejects_default_section(text):
    with pytest.raises(ConfigError, match=r"^run\.ini: \[DEFAULT\] sets "):
        parse_config(text, "run.ini")


def test_stray_versions_key_exits_2_on_one_line(tmp_path, capsys):
    # [versions] takes the manifest's three keys, whatever their values
    path = tmp_path / "run.ini"
    path.write_text("[versions]\nn = 10\nbogus = 1\n[penalty]\nlambda = 0.1\n")
    assert cli.main(["replica", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {path}: [versions] sets n, bogus; "
                   "it holds only lse_precoding, numpy, blas\n")
    cfg = parse_config("[versions]\nlse_precoding = 0\nnumpy = ?\nblas = none\n")
    assert cfg == ExperimentConfig()


def test_bad_seed_flag_exits_2_on_one_line(tmp_path, capsys):
    assert cli.main(["replica", "--set", "penalty.lambda=0.1", "--seed", "abc",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad value for run.seed: 'abc': ")
    assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()


def test_flags_override_run_keys_after_set(tmp_path, capsys):
    # the mode, --out and --seed beat --set run.*, and --out is taken as given
    out = tmp_path / " spaced out "
    assert cli.main(["replica", "--set", "penalty.lambda=0.1", "--set", "run.mode=sweep",
                     "--set", "run.seed=5", "--seed", "9", "--set", f"run.out={tmp_path}",
                     "--out", str(out)]) == 0
    manifest = (out / "manifest.cfg").read_text()
    assert "[run]\nmode = replica\nseed = 9\n" in manifest
    assert capsys.readouterr().out.splitlines()[0] == f"manifest: {out / 'manifest.cfg'}"


def test_validate_requires_exactly_one_parameterization():
    cfg = cfg_from()
    cfg.lam = 0.1  # both direct and targets
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = cfg_from()
    cfg.p_target = None
    cfg.eta_target = None
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_disk_direct_needs_peak():
    cfg = cfg_from()
    cfg.p_target = cfg.eta_target = None
    cfg.lam = 0.1
    cfg.support = "disk"
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_single_point_modes():
    cfg = cfg_from()
    cfg.alpha_inverse = (1.0, 2.0)
    with pytest.raises(ConfigError):
        validate_config(cfg)


DISK = "penalty.support=disk"
# the rule that rejects each of these values; the peak-cap cases put theirs
# on a disk, since the full plane rejects any peak cap before these rules run
_OWN_RULE = {"papr_db_targets": "must be >= 0 dB", "papr_db_target": "must be >= 0 dB",
             "peak_power": "peak_power must be positive",
             "support": "support must be 'full' or 'disk'"}


@pytest.mark.parametrize("mode, override", [
    ("sweep", "system.alpha_inverse=2.0:0.5:1.0"),  # empty grid
    ("replica", "system.alpha_inverse=0"),
    ("replica", "system.lambda_s=-1"),
    ("compare", "simulation.n=0"),
    ("compare", "simulation.n=1"),  # no index halves to compare
    ("compare", "simulation.trials=1"),
    ("simulate", "simulation.n=1"),  # k = round(1 / 2) = 0 users
    ("simulate", "simulation.init=bogus"),
    ("replica", "solver.damping=-0.5"),
    ("replica", "solver.damping=0"),
    ("replica", "solver.damping=1.5"),
    ("replica", "solver.tol=-1e-12"),
    ("replica", "solver.max_iter=0"),
    ("compare", "simulation.tol=-1e-10"),
    ("compare", "simulation.max_sweeps=0"),
    ("simulate", "simulation.restarts=0"),
    ("simulate", "simulation.restarts=4"),
    ("simulate", "simulation.init=zero"),
    ("simulate", "simulation.init=greedy"),
    ("replica", "simulation.restarts=2"),
    ("simulate", "simulation.zero_eps=-1"),
    ("sweep", [DISK, "penalty.papr_db_targets=3,-1"]),
    ("replica", [DISK, "penalty.papr_db_target=-1"]),
    ("replica", [DISK, "penalty.peak_power=0"]),
    ("replica", "penalty.p_target=-1"),
    ("replica", "penalty.p_target=0"),
    ("replica", "penalty.eta_target=0"),
    ("replica", "penalty.eta_target=1.5"),
    ("sweep", "penalty.eta_targets=0.5,1.5"),
    ("saving", "penalty.eta_targets=0,0.5"),
    ("replica", "penalty.support=square"),
], ids=["empty_grid", "zero_load", "negative_lambda_s", "no_antennas",
        "compare_one_antenna",
        "one_trial", "no_users", "unknown_init", "negative_damping",
        "zero_damping", "damping_above_one", "negative_solver_tol",
        "zero_max_iter", "negative_sim_tol", "zero_max_sweeps",
        "zero_restarts", "four_restarts", "zero_init", "greedy_init",
        "replica_two_restarts", "negative_zero_eps",
        "negative_papr_db_targets",
        "negative_papr_db_target", "zero_peak_power", "negative_p_target",
        "zero_p_target", "zero_eta_target", "eta_target_above_one",
        "eta_targets_above_one", "zero_eta_targets", "unknown_support"])
def test_validate_rejects_out_of_range(mode, override):
    overrides = [override] if isinstance(override, str) else override
    cfg = apply_overrides(parse_config(BASE), overrides)
    cfg.mode = mode
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    # restarts and init take one value each, in every mode
    name = overrides[-1].split("=")[0]
    key = name.split(".")[1]
    if key in ("restarts", "init"):
        assert key in str(exc.value)
    if mode == "compare" and key == "n":
        assert name in str(exc.value)
    if key in _OWN_RULE:
        assert _OWN_RULE[key] in str(exc.value)


# BASE with direct weights in place of its calibration targets
DIRECT = BASE.replace("p_target = 0.5\neta_target = 0.5", "lambda = 0.1\nlambda0 = 0.05")


@pytest.mark.parametrize("text, mode, message", [
    (DIRECT, "sweep", "sweep mode needs calibration targets"),
    (DIRECT, "saving", "saving mode needs calibration targets"),
    (BASE.replace("eta_target =", "eta_targets ="), "replica",
     "replica mode needs eta_target"),
], ids=["sweep_without_targets", "saving_without_targets",
        "single_load_with_eta_targets_only"])
def test_validate_names_the_missing_setting(text, mode, message):
    cfg = parse_config(text)
    cfg.mode = mode
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(cfg)


@pytest.mark.parametrize("text, overrides", [
    (BASE, [DISK]),
    (BASE, ["penalty.papr_db_target=3"]),
    (BASE, ["penalty.papr_db_targets=0,3"]),
    (BASE, ["penalty.peak_power=2"]),
    (BASE, [DISK, "penalty.peak_power=2", "penalty.papr_db_target=3"]),
    (BASE, [DISK, "penalty.peak_power=0"]),
    (DIRECT, ["penalty.peak_power=2"]),
    (DIRECT, [DISK, "penalty.papr_db_target=3"]),
    (DIRECT, [DISK, "penalty.peak_power=2", "penalty.papr_db_target=3"]),
    (DIRECT, ["penalty.eta_target=0.3"]),
    (DIRECT, ["penalty.eta_targets=0.3"]),
], ids=["disk_targets_without_cap", "full_with_papr_target",
        "full_with_papr_targets", "full_with_peak_power",
        "disk_with_peak_power_and_papr_target", "disk_zero_peak_power",
        "direct_full_with_peak_power", "direct_disk_with_papr_target",
        "direct_disk_with_peak_power_and_papr_target", "direct_with_eta_target",
        "direct_with_eta_targets"])
def test_validate_rejects_unused_peak_cap(text, overrides):
    # a peak-cap or target setting the run would not use is a config error:
    # the full plane takes neither peak_power nor a papr target, a disk
    # exactly one (peak_power with direct weights), and direct weights take
    # no eta target
    cfg = apply_overrides(parse_config(text), overrides)
    with pytest.raises(ConfigError):
        validate_config(cfg)


@pytest.mark.parametrize("text, overrides", [
    (BASE, []),
    (BASE, [DISK, "penalty.peak_power=2"]),
    (BASE, [DISK, "penalty.papr_db_target=3"]),
    (DIRECT, []),
    (DIRECT, [DISK, "penalty.peak_power=2"]),
], ids=["full_targets", "disk_targets_peak_power", "disk_targets_papr_target",
        "full_direct", "disk_direct_peak_power"])
def test_validate_accepts_used_peak_cap(text, overrides):
    validate_config(apply_overrides(parse_config(text), overrides))


@pytest.mark.parametrize("mode, config, override", [
    ("replica", None, "penalty.lambda=nan"),
    ("replica", "compare.ini", "system.alpha_inverse=inf"),
    ("sweep", "fig1.ini", "system.alpha_inverse=1:1:inf"),
    ("sweep", "fig1.ini", "penalty.p_target=inf"),
    ("sweep", "fig2.ini", "penalty.papr_db_targets=0,nan"),
    ("replica", None, "system.alpha_inverse=1:2"),
], ids=["nan_lambda", "inf_load", "inf_grid_stop", "inf_p_target",
        "nan_papr_db_targets", "two_part_grid"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, mode, config, override):
    # nan and inf parse as floats, but no solver takes them: the value is
    # rejected by name, with its reason, before anything runs
    args = [mode, "--set", override, "--out", str(tmp_path / "out")]
    if config is not None:
        args += ["--config", str(CONFIGS / config)]
    assert cli.main(args) == 2
    key, raw = override.split("=")
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad value for {key}: {raw!r}: ")
    assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, message", [
    (["penalty.lambda=-1"], "penalty.lambda must be non-negative, got -1.0"),
    (["penalty.lambda=0.1", "penalty.lambda0=-0.5"],
     "penalty.lambda0 must be non-negative, got -0.5"),
], ids=["negative_lambda", "negative_lambda0"])
def test_negative_weight_exits_2_naming_the_key(tmp_path, capsys, overrides, message):
    args = ["replica", "--out", str(tmp_path / "out")]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, override, values", [
    ("fig1.ini", "penalty.eta_targets=0.5,0.5000001", ("0.5", "0.5000001")),
    ("fig1.ini", "penalty.eta_targets=1.0,0.5,0.5", ("0.5", "0.5")),
    ("fig2.ini", "penalty.papr_db_targets=0,3,3.0000001", ("3.0", "3.0000001")),
], ids=["eta_prints_alike", "eta_repeated", "papr_prints_alike"])
def test_targets_that_name_one_curve_exit_2(tmp_path, capsys, config, override,
                                            values):
    # each (eta, papr) target pair of a sweep writes its own CSV, named by
    # the targets as %g prints them; two targets that print alike would
    # write their curves into one file
    args = ["sweep", "--config", str(CONFIGS / config), "--set", override,
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    key = override.split("=")[0].split(".")[1]
    assert f"{key} {values[0]} and {values[1]} " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make, reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"[run]\nseed = 1\n# \xff\n"),
     "can't decode byte 0xff"),
], ids=["missing_file", "directory", "not_utf8"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, make, reason):
    path = tmp_path / "run.ini"
    make(path)
    args = ["replica", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert str(path) in err and reason in err


# every key at a value other than its default
_EVERY_KEY = ExperimentConfig(
    mode="compare", out="elsewhere", seed=7, alpha_inverse=(1.0, 1.5),
    lambda_s=2.0, support="disk", lam=0.1234567890123456, lam0=0.05,
    peak_power=3.0, p_target=0.4, eta_target=0.3, papr_db_target=4.0,
    eta_targets=(1.0, 0.5), papr_db_targets=(3.0, 6.0), n=64, trials=6,
    zero_eps=1e-8, max_sweeps=50, sim_tol=1e-9, restarts=2, init="zero",
    damping=0.7, solver_tol=1e-11, max_iter=500)


def test_manifest_writes_every_key_in_schema_order():
    text = manifest_text(_EVERY_KEY)
    assert text.split("[versions]\n")[0] == (
        "[run]\nmode = compare\nseed = 7\n\n"
        "[system]\nalpha_inverse = 1,1.5\nlambda_s = 2\n\n"
        "[penalty]\nsupport = disk\nlambda = 0.1234567890123456\nlambda0 = 0.05\n"
        "peak_power = 3\np_target = 0.4\neta_target = 0.3\npapr_db_target = 4\n"
        "eta_targets = 1,0.5\npapr_db_targets = 3,6\n\n"
        "[simulation]\nn = 64\ntrials = 6\nzero_eps = 1e-08\nmax_sweeps = 50\n"
        "tol = 1e-09\nrestarts = 2\ninit = zero\n\n"
        "[solver]\ndamping = 0.7\ntol = 1e-11\nmax_iter = 500\n\n")
    assert parse_config(text) == replace(_EVERY_KEY, out=ExperimentConfig().out)


def test_overrides():
    cfg = apply_overrides(parse_config(BASE), ["penalty.eta_target=0.3",
                                               "run.seed=99"])
    assert cfg.eta_target == 0.3 and cfg.seed == 99
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nonsense"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["foo.bar=1"])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_twelve_digits(tmp_path):
    rows = [((1.0 / 3.0, 2.0 ** 0.5, -1.2345678901234e-7), "ok"),
            ((math.inf, 0.0, 42.0), "ok")]
    path = tmp_path / "t.csv"
    path.write_text(csv_text(("a", "b", "c"), rows))
    header, data = read_csv(str(path))
    assert header == ["a", "b", "c", "status"]
    for (orig, _), got in zip(rows, data):
        for o, g in zip(orig, got[:-1]):
            assert float(g) == pytest.approx(o, rel=1e-11)
            # and formatting is stable under one more round trip
            assert f"{float(g):.12g}" == g


# ---------------------------------------------------------------------------
# manifest and reruns
# ---------------------------------------------------------------------------

def test_manifest_skips_execution_knobs():
    text = manifest_text(cfg_from())
    assert "threads" not in text and "out =" not in text
    assert "[versions]" in text
    versions = text.split("[versions]\n", 1)[1].splitlines()
    assert [line.split(" = ")[0] for line in versions if line] == \
        ["lse_precoding", "numpy", "blas"]
    blas = [line for line in text.splitlines() if line.startswith("blas = ")]
    assert len(blas) == 1 and len(blas[0].split()) == 4  # blas = <name> <version>
    simulation = text.split("[simulation]\n", 1)[1].split("\n\n", 1)[0]
    assert {"restarts = 1", "init = auto"} <= set(simulation.splitlines())


# mode, config text and the flags of a first run, which a rerun from its
# manifest.cfg must reproduce byte for byte. The sweep grid holds points
# (1.7) that start + i * step misses by an ulp, and the replica lambda has
# more digits than the outputs print.
_DIRECT_WEIGHTS = BASE.replace("p_target = 0.5\neta_target = 0.5",
                               "lambda = 0.1234567890123456\nlambda0 = 0.05")


@pytest.mark.parametrize("mode, text, flags", [
    ("replica", BASE, []),
    ("replica", _DIRECT_WEIGHTS, []),
    ("sweep", BASE, ["--set", "system.alpha_inverse=1.0:0.1:1.7",
                     "--set", "penalty.eta_targets=1.0,0.5,0.3"]),
    ("saving", BASE, []),
    ("simulate", BASE, ["--set", "simulation.n=32", "--set", "simulation.trials=3"]),
], ids=["replica_targets", "replica", "sweep", "saving", "simulate"])
def test_every_mode_reruns_from_manifest_byte_identical(tmp_path, mode, text, flags):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert cli.main([mode, "--config", str(ini), "--out", str(first)] + flags) == 0
    assert cli.main([mode, "--config", str(first / "manifest.cfg"),
                     "--out", str(rerun)]) == 0
    files = {p.name: p.read_bytes() for p in first.iterdir()}
    assert len(files) >= 2
    assert {p.name: p.read_bytes() for p in rerun.iterdir()} == files


def test_sweep_single_point_matches_replica_mode(tmp_path):
    cfg = cfg_from(out=str(tmp_path / "r"))
    run(cfg)
    cfg2 = cfg_from(out=str(tmp_path / "s"))
    cfg2.mode = "sweep"
    files = run(cfg2)
    _, data = read_csv(files["eta0.5"])
    assert len(data) == 1
    row = dict(zip(("alpha_inverse", "lambda", "lambda0", "chi", "p", "eta",
                    "papr_db", "distortion_db", "residual", "iterations",
                    "status"), data[0]))
    with open(os.path.join(str(tmp_path / "r"), "replica.txt")) as fh:
        ref = dict(line.strip().split(" = ") for line in fh if " = " in line)
    assert float(row["chi"]) == pytest.approx(float(ref["chi"]), rel=1e-10)
    assert float(row["distortion_db"]) == pytest.approx(float(ref["distortion_db"]), rel=1e-10)
    assert row["status"] == "ok"


# ---------------------------------------------------------------------------
# calibrated points and savings
# ---------------------------------------------------------------------------

def _capped_point(source, ainv, eta_target, papr_db):
    """operating_point at TARGETS on the disk of the cap papr * p_target,
    given as a papr target or as the peak_power it stands for. Both must
    give the same point, nan weights included (compared by repr)."""
    pt = operating_point(TARGETS, ainv, eta_target, papr_db)
    if source == "peak_power":
        peak = 10.0 ** (papr_db / 10.0) * TARGETS.p_target
        cfg = parse_config(f"[penalty]\nsupport = disk\np_target = "
                           f"{TARGETS.p_target!r}\npeak_power = {peak!r}\n")
        by_peak = operating_point(cfg, ainv, eta_target, None)
        assert repr(by_peak) == repr(pt)
        pt = by_peak
    return pt


@pytest.mark.parametrize("source", ["papr", "peak_power"])
def test_operating_point_peak_clamp_status(source):
    pt = _capped_point(source, 2.0, 0.5, papr_db=0.0)
    assert pt.status == "peak-clamped"
    # the boundary solution transmits eta * P = papr * p * eta
    assert pt.solution.state.p == pytest.approx(0.25, rel=1e-10)
    assert pt.solution.eta == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("source", ["papr", "peak_power"])
def test_operating_point_on_the_boundary_is_constant_envelope(source):
    # papr = 1/eta sits exactly on the feasibility boundary p = eta * P
    pt = _capped_point(source, 2.0, 0.5, papr_db=10.0 * math.log10(2.0))
    assert pt.status == "ok"
    assert pt.params.penalty.peak_power == pytest.approx(1.0, rel=1e-12)
    assert pt.solution.state.p == pytest.approx(0.5, abs=1e-10)
    assert pt.solution.eta == pytest.approx(0.5, abs=1e-12)
    assert pt.solution.papr == pytest.approx(2.0, rel=1e-12)


def test_sweep_peak_power_rows_match_papr_target_rows(tmp_path):
    # one cap, two spellings: the sweep under peak_power = papr * p_target
    # writes the papr-target sweep's rows, clamped where p > eta * P
    papr_db = 3.0
    peak = 10.0 ** (papr_db / 10.0) * 0.5
    ini = tmp_path / "sweep.ini"
    ini.write_text(BASE.replace("support = full", "support = disk")
                   .replace("eta_target = 0.5", "eta_targets = 1.0,0.3"))
    for out, cap in (("papr", f"papr_db_target={papr_db!r}"),
                     ("peak", f"peak_power={peak!r}")):
        assert cli.main(["sweep", "--config", str(ini),
                         "--set", "system.alpha_inverse=1.2,2.0",
                         "--set", f"penalty.{cap}", "--out", str(tmp_path / out)]) == 0
    for eta in ("1", "0.3"):
        by_papr = read_csv(str(tmp_path / "papr" / f"sweep_eta{eta}_papr3db.csv"))
        assert read_csv(str(tmp_path / "peak" / f"sweep_eta{eta}.csv")) == by_papr
    # the last eta, 0.3, has p = 0.5 > eta * P = 0.299
    assert [row[-1] for row in by_papr[1]] == ["peak-clamped"] * 2
    # and the figure draws the peak-clamped rows with the ok ones
    svg = (tmp_path / "papr" / "plot.svg").read_text()
    assert [len(pts.split()) for pts in re.findall(r'points="([^"]*)"', svg)] == [2, 2]


def _boundary_run(tmp_path, mode, eta_target):
    """`lse <mode>` at the 0 dB cap on disk support; (exit code, report)."""
    ini = tmp_path / "boundary.ini"
    ini.write_text(BASE.replace("support = full", "support = disk")
                   .replace("eta_target = 0.5", f"eta_target = {eta_target}")
                   + "papr_db_target = 0\n\n[simulation]\nn = 32\ntrials = 2\n")
    out = tmp_path / "out"
    rc = cli.main([mode, "--config", str(ini), "--out", str(out)])
    name = {"simulate": "simulation"}.get(mode, mode)
    path = out / f"{name}.txt"
    report = dict(line.split(" = ") for line in path.read_text().splitlines()) \
        if path.exists() else None
    return rc, report


def test_calibrate_below_the_boundary_is_peak_clamped(tmp_path):
    # p = 0.5 with half the antennas at P = p: the boundary transmits eta P
    rc, report = _boundary_run(tmp_path, "replica", 0.5)
    assert rc == 0
    assert report["status"] == "peak-clamped"
    assert float(report["p"]) == pytest.approx(0.25, rel=1e-12)


def test_replica_on_the_boundary_is_ok_without_weights(tmp_path):
    # every antenna at P = p lies exactly on the boundary p = eta P
    rc, report = _boundary_run(tmp_path, "replica", 1)
    assert rc == 0
    assert report["status"] == "ok"
    assert math.isnan(float(report["lambda"]))
    assert math.isnan(float(report["lambda0"]))
    assert float(report["p"]) == 0.5


def test_simulate_on_the_boundary_without_weights_exits_2(tmp_path, capsys):
    rc, report = _boundary_run(tmp_path, "simulate", 1)
    assert rc == 2 and report is None
    assert "no representable penalty weights" in capsys.readouterr().err


def test_match_random_selection_frozen_anchor():
    pt = operating_point(TARGETS, 2.0, 0.5, papr_db=None)
    eta_r = match_random_selection(2.0, 1.0, 0.5, pt.solution.distortion)
    assert eta_r == pytest.approx(0.84657359, abs=1e-4)


def test_match_random_selection_paper_identity():
    # without a peak cap the matched fraction is eta (1 - ln eta) at every
    # load, so the saving at eta = 0.5 is ln 2 / 2
    for ainv in (1.0, 1.2, 2.0, 2.8, 3.2, 3.5):
        for eta_t in (0.5, 0.3):
            pt = operating_point(TARGETS, ainv, eta_t, papr_db=None)
            eta_r = match_random_selection(ainv, 1.0, 0.5, pt.solution.distortion)
            assert abs(eta_r - eta_t * (1.0 - math.log(eta_t))) <= 1e-11, (ainv, eta_t)


def test_match_random_selection_meets_calibrated_baseline():
    cfg = load_config(str(CONFIGS / "saving_peak_capped.ini"))
    rows = 0
    for papr_db in cfg.papr_db_targets:
        for eta_t in cfg.eta_targets:
            for ainv in cfg.alpha_inverse:
                pt = operating_point(cfg, ainv, eta_t, papr_db)
                d = pt.solution.distortion
                eta_r = match_random_selection(ainv, cfg.lambda_s, cfg.p_target, d)
                params = SystemParams(alpha=1.0 / ainv, lambda_s=cfg.lambda_s,
                                      penalty=PenaltySpec())
                base = random_tas_baseline(params, eta_r, cfg.p_target)
                assert base.distortion == pytest.approx(d, rel=1e-10, abs=0.0)
                rows += 1
    assert rows == 6


def test_match_random_selection_bounds():
    # above the worst feasible baseline distortion 1/1.5 the power would
    # need a negative ridge weight; the floor alpha p / (lambda_s + p) = 1/6
    # is no crossing
    with pytest.raises(NotAchievableError, match="feasibility floor"):
        match_random_selection(2.0, 1.0, 0.5, 0.7)
    full = random_tas_baseline(SystemParams(alpha=0.5, lambda_s=1.0,
                                            penalty=PenaltySpec()), 1.0, 0.5)
    with pytest.raises(NotAchievableError, match="cannot reach"):
        match_random_selection(2.0, 1.0, 0.5, 0.5 * full.distortion)


def test_saving_row_below_the_feasibility_floor(tmp_path):
    out = tmp_path / "sv"
    assert cli.main(["saving", "--config", str(CONFIGS / "saving_peak_capped.ini"),
                     "--set", "system.alpha_inverse=1.1",
                     "--set", "penalty.papr_db_targets=0",
                     "--set", "penalty.eta_targets=0.1", "--out", str(out)]) == 0
    _, data = read_csv(str(out / "antenna_saving.csv"))
    assert [row[-1] for row in data] == \
        ["error: no crossing above the feasibility floor"]


def test_saving_rows_where_full_selection_is_infeasible(tmp_path):
    # at inverse load 3.2 the ridge baseline cannot carry p = 0.5 on every
    # antenna, yet the crossing exists
    out = tmp_path / "sv"
    assert cli.main(["saving", "--config", str(CONFIGS / "saving_unconstrained.ini"),
                     "--set", "system.alpha_inverse=2.0,3.2",
                     "--out", str(out)]) == 0
    header, data = read_csv(str(out / "antenna_saving.csv"))
    assert [row[-1] for row in data] == ["ok"] * 4
    eta_random = [float(dict(zip(header, row))["eta_random"]) for row in data]
    assert eta_random[1] == pytest.approx(0.84657359028, abs=1e-11)


def test_saving_mode_csv(tmp_path):
    cfg = cfg_from(out=str(tmp_path / "sv"))
    cfg.mode = "saving"
    cfg.eta_targets = (0.5,)
    files = run(cfg)
    header, data = read_csv(files["saving"])
    row = dict(zip(header, data[0]))
    assert float(row["eta_random"]) == pytest.approx(0.8466, abs=0.01)
    assert float(row["saving"]) == pytest.approx(0.3466, abs=0.01)


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

# one curve (name, xs, ys) of two points
_TINY = [("c.csv", (1.0, 2.0), (-10.0, -12.0))]


def test_emit_plot_single_polyline():
    text = plot_svg(_TINY, "t")
    assert text.count("<polyline") == 1
    pts = text.split('points="')[1].split('"')[0].split()
    assert len(pts) == 2


def _sweep(tmp_path, eta_targets):
    """`lse sweep` of BASE at two loads and the given eta targets; its
    output directory."""
    ini = tmp_path / "base.ini"
    ini.write_text(BASE)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(ini),
                     "--set", "system.alpha_inverse=1.5,2.0",
                     "--set", f"penalty.eta_targets={eta_targets}",
                     "--out", str(out)]) == 0
    return out


def test_emit_plot_empty_inputs(tmp_path):
    # every row is an error row: the CSV is written, the figure is not
    out = _sweep(tmp_path, "1e-100")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.cfg",
                                                      "sweep_eta1e-100.csv"]


def test_plot_skips_error_rows(tmp_path):
    # a point the solver could not take is an error row, and no curve
    # passes through it: one polyline, one point per drawable row
    out = _sweep(tmp_path, "0.5,1e-100")
    header, data = read_csv(str(out / "sweep_eta0.5.csv"))
    drawable = [row for row in data if row[-1] in ("ok", "peak-clamped")
                and math.isfinite(float(row[header.index("distortion_db")]))]
    svg = (out / "plot.svg").read_text()
    ET.fromstring(svg)
    assert svg.count("<polyline") == 1
    assert len(svg.split('points="')[1].split('"')[0].split()) == len(drawable) == 2
    assert "sweep_eta0.5.csv" in svg and "sweep_eta1e-100.csv" not in svg
    assert "distortion vs inverse load, power 0.5</text>" in svg


def test_plot_section_is_an_unknown_key(tmp_path, capsys):
    # the figure comes with its sweep; a config that still names input
    # CSVs is a config error
    ini = tmp_path / "plot.ini"
    ini.write_text("[plot]\ninputs = a.csv\n")
    rc = cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and len(err.splitlines()) == 1
    assert err.startswith("config error: ") and "plot.inputs" in err
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys):
    # an --out that is a file cannot take the outputs: a config error, not a
    # traceback with the solver's exit status
    out = tmp_path / "taken"
    out.write_text("")
    rc = cli.main(["replica", "--set", "penalty.lambda=0.1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: cannot write {out}: ")
    assert len(err.splitlines()) == 1 and "File exists" in err
    assert out.read_text() == ""


@pytest.mark.parametrize("mode, config, flags", [
    ("compare", "compare.ini", ["--set", "simulation.n=64", "--set", "simulation.trials=6"]),
    ("sweep", "fig1.ini", []),
], ids=["compare", "sweep"])
def test_unwritable_output_fails_before_the_mode_runs(tmp_path, capsys, monkeypatch,
                                                      mode, config, flags):
    # the output directory is made before any solve or trial, so a bad
    # --out costs nothing
    def never(*args, **kwargs):
        pytest.fail("the mode ran before its output directory was made")

    monkeypatch.setattr(experiments, "monte_carlo", never)
    monkeypatch.setattr(experiments, "operating_point", never)
    out = tmp_path / "taken"
    out.write_text("")
    rc = cli.main([mode, "--config", str(CONFIGS / config), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot write {out}: ")


def test_emit_plot_byte_identical():
    # the figure's bytes are pinned: a change to what plot_svg writes must
    # replace this digest on purpose
    text = plot_svg(_TINY, "t")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b6d7dffb7f18c5278f98ea2ec25f5ae88acf077bf83695f752b67b10f52130b2")


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def test_compare_mode_small_run(tmp_path):
    cfg = cfg_from(out=str(tmp_path / "cmp"))
    cfg.mode = "compare"
    cfg.p_target = cfg.eta_target = None
    cfg.lam = 0.0
    cfg.lam0 = 0.0
    cfg.alpha_inverse = (0.5,)   # overloaded: exact closed form D = 0.5
    cfg.n = 48
    cfg.trials = 8
    files = run(cfg)
    header, data = read_csv(files["compare"])
    rows = {r[0]: r for r in data}
    replica_d = float(rows["distortion"][1])
    empirical_d = float(rows["distortion"][2])
    assert replica_d == pytest.approx(0.5, abs=1e-10)
    assert empirical_d == pytest.approx(0.5, abs=0.1)
    summary = Path(files["summary"]).read_text()
    assert "ks_decoupled" in summary and "ks_index_halves" in summary


def test_simulate_histogram_masses(tmp_path):
    # |x| pooled over trials and antennas, and each half of the antenna
    # indices, in 128 bins: every mass column sums to one
    cfg = cfg_from(out=str(tmp_path / "sim"), mode="simulate", seed=8, n=24,
                   trials=3, p_target=None, eta_target=None, lam=0.2)
    header, data = read_csv(run(cfg)["histogram"])
    assert header == ["bin_left", "mass", "first_half", "second_half", "status"]
    assert len(data) == 128 and float(data[0][0]) == 0.0
    for col in (1, 2, 3):
        assert math.fsum(float(row[col]) for row in data) == pytest.approx(1.0, abs=1e-9)


def test_simulate_trial_without_power_warns_nothing(tmp_path):
    # one antenna at unit load: a trial that switches it off has power 0
    # and papr = inf, so papr's mean is inf and its spread nan, and no
    # numpy warning escapes (the suite turns warnings into errors)
    out = tmp_path / "n1"
    assert cli.main(["simulate", "--config", str(CONFIGS / "compare.ini"),
                     "--set", "simulation.n=1", "--set", "system.alpha_inverse=1",
                     "--set", "simulation.trials=4", "--out", str(out)]) == 0
    assert "papr_mean = inf\npapr_ci95 = nan\n" in (out / "simulation.txt").read_text()


def test_fig_style_sweep_orderings(tmp_path):
    # more antenna freedom never hurts; looser peak caps never hurt
    cfg = cfg_from(out=str(tmp_path / "o1"))
    cfg.mode = "sweep"
    cfg.alpha_inverse = (1.0, 1.9, 2.8)
    cfg.eta_targets = (1.0, 0.5, 0.3)
    files = run(cfg)
    assert sorted(k for k in files if k.startswith("eta")) == \
        ["eta0.3", "eta0.5", "eta1"]
    by_eta = {}
    for key in ("eta1", "eta0.5", "eta0.3"):
        _, data = read_csv(files[key])
        by_eta[key] = [float(r[7]) for r in data]  # distortion_db
    for a, b, c in zip(by_eta["eta1"], by_eta["eta0.5"], by_eta["eta0.3"]):
        assert a <= b <= c

    cfg = cfg_from(out=str(tmp_path / "o2"))
    cfg.mode = "sweep"
    cfg.support = "disk"
    cfg.alpha_inverse = (1.0, 1.9, 2.8)
    cfg.eta_targets = (1.0, 0.5)
    cfg.papr_db_targets = (0.0, 3.0, 8.0)
    files = run(cfg)
    for eta in ("eta1", "eta0.5"):
        curves = []
        for papr in ("papr0db", "papr3db", "papr8db"):
            _, data = read_csv(files[f"{eta}_{papr}"])
            curves.append([float(r[7]) for r in data])
        for d0, d3, d8 in zip(*curves):
            assert d0 >= d3 - 1e-9 and d3 >= d8 - 1e-9


def test_validate_sweep_needs_eta_targets():
    cfg = cfg_from()
    cfg.mode = "sweep"
    cfg.eta_target = None
    with pytest.raises(ConfigError):
        validate_config(cfg)


# ---------------------------------------------------------------------------
# shipped experiment configs
# ---------------------------------------------------------------------------

def test_config_files_validate():
    paths = sorted(CONFIGS.glob("*.ini"))
    assert paths
    for path in paths:
        cfg = load_config(str(path))
        validate_config(cfg)
        assert cfg.out.startswith("runs/"), path.name


def test_fig1_configs_run_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--config", str(CONFIGS / "fig1.ini"),
                     "--set", "system.alpha_inverse=1.5,2.0"]) == 0
    svg = (tmp_path / "runs" / "fig1" / "plot.svg").read_text()
    assert svg.count("<polyline") == 3
    for name in ("sweep_eta1.csv", "sweep_eta0.5.csv", "sweep_eta0.3.csv"):
        _, data = read_csv(str(tmp_path / "runs" / "fig1" / name))
        assert [row[-1] for row in data] == ["ok", "ok"]


def test_solver_error_exits_1_with_message(tmp_path, capsys, monkeypatch):
    # no penalty at all on a system with twice as many antennas as users:
    # the fixed-point iterate runs off
    ini = tmp_path / "unpenalized.ini"
    ini.write_text(BASE.replace("p_target = 0.5\neta_target = 0.5",
                                "lambda = 0\nlambda0 = 0"))
    assert cli.main(["replica", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and len(err.splitlines()) == 1

    def broken(cfg):
        raise RuntimeError("not a solver error")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(RuntimeError, match="not a solver error"):
        cli.main(["replica", "--config", str(ini)])


def test_unreachable_eta_target_is_a_solver_error(tmp_path, capsys):
    # calibration walks at most 200 unit steps of lambda0 / lambda_rs, so it
    # reaches active fractions down to about exp(-200); below that the
    # target is not achievable: error rows in a sweep that still writes its
    # other targets, and exit 1 with one line from calibrate
    ini = tmp_path / "base.ini"
    ini.write_text(BASE)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(ini),
                     "--set", "system.alpha_inverse=1.5,2.0",
                     "--set", "penalty.eta_targets=0.5,1e-100",
                     "--out", str(out)]) == 0
    _, rows = read_csv(str(out / "sweep_eta0.5.csv"))
    assert [row[-1] for row in rows] == ["ok", "ok"]
    _, rows = read_csv(str(out / "sweep_eta1e-100.csv"))
    assert len(rows) == 2
    assert all(row[-1].startswith("error: active fraction 1e-100 ") for row in rows)
    capsys.readouterr()
    assert cli.main(["replica", "--config", str(ini), "--set",
                     "penalty.eta_target=1e-100",
                     "--out", str(tmp_path / "replica")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver error: active fraction 1e-100 ")
    assert len(err.splitlines()) == 1


def _package_env(**extra):
    """Environment for a fresh interpreter that imports this lse_precoding."""
    src = os.path.dirname(os.path.dirname(lse_precoding.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _compare_under_blas_threads(tmp_path, *sets):
    """compare.ini with `--set` overrides, run under one and under two
    OpenBLAS threads; returns the files each run wrote."""
    outputs = {}
    for blas in ("1", "2"):
        env = _package_env(OPENBLAS_NUM_THREADS=blas)
        out = tmp_path / f"blas{blas}"
        args = [a for kv in sets for a in ("--set", kv)]
        subprocess.run([sys.executable, "-m", "lse_precoding.cli", "compare",
                        "--config", str(CONFIGS / "compare.ini"), *args,
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs[blas] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outputs["1"]) == ["compare.csv", "compare_summary.txt",
                                    "manifest.cfg"]
    return outputs


def test_compare_outputs_independent_of_blas_threads(tmp_path):
    # one OpenBLAS thread runs the trials in worker processes, two (on two
    # cores) run them serially: the files must not tell the two apart
    outputs = _compare_under_blas_threads(
        tmp_path, "simulation.n=64", "simulation.trials=6")
    assert outputs["1"] == outputs["2"]


def test_disk_compare_ks_independent_of_blas_threads(tmp_path):
    # at a peak-clamped disk point every active magnitude is sqrt(P) up to
    # rounding that moves with the thread count; the KS distances must not
    outputs = _compare_under_blas_threads(
        tmp_path, "penalty.support=disk", "penalty.papr_db_target=0",
        "simulation.n=200", "simulation.trials=20")
    assert b"peak-clamped" in outputs["1"]["compare_summary.txt"]
    assert outputs["1"] == outputs["2"]


def test_simulate_more_users_than_antennas_independent_of_blas_threads(tmp_path):
    # k = 500 > n = 400 at the ridge floor: the ridge start is solved on
    # the antenna side, whose conditioning does not amplify the rounding
    # that moves with the thread count
    outputs = {}
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        subprocess.run([sys.executable, "-m", "lse_precoding.cli", "simulate",
                        "--set", "system.alpha_inverse=0.8", "--set", "penalty.lambda=0",
                        "--set", "penalty.lambda0=0", "--set", "simulation.trials=16",
                        "--seed", "20240", "--out", str(out)],
                       env=_package_env(OPENBLAS_NUM_THREADS=blas), check=True,
                       capture_output=True)
        outputs[blas] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outputs["1"]) == ["histogram.csv", "manifest.cfg", "simulation.txt"]
    assert outputs["1"] == outputs["2"]


COMPARE_CASES = pytest.mark.parametrize("sets", [
    (),
    ("penalty.support=disk", "penalty.papr_db_target=8"),
], ids=["full_plane", "disk_8db"])


@COMPARE_CASES
def test_compare_ks_decoupled_is_the_exact_ks_of_the_snapped_magnitudes(
        tmp_path, monkeypatch, sets):
    # compare scores the trials' magnitudes, pooled and snapped onto the rim
    # on a disk, against the decoupled law's CDF F; the statistic is
    # recomputed here from the order statistics x_(1) <= ... <= x_(N) as
    # max_i max(i/N - F(x_(i)), F(x_(i)-) - (i - 1)/N), ties included. At
    # seed 2 both cases take the sup on the left-limit side, F above F_n
    seen = {}

    def point(*args):
        seen["pt"] = operating_point(*args)
        return seen["pt"]

    real_mc = experiments.monte_carlo

    def recording_mc(*args, **kwargs):
        report = real_mc(*args, **kwargs)
        seen["mags"] = report.magnitudes.copy()
        return report

    monkeypatch.setattr(experiments, "operating_point", point)
    monkeypatch.setattr(experiments, "monte_carlo", recording_mc)
    out = tmp_path / "cmp"
    args = [a for kv in ("simulation.n=64", "simulation.trials=6", *sets) for a in ("--set", kv)]
    assert cli.main(["compare", "--config", str(CONFIGS / "compare.ini"), *args,
                     "--seed", "2", "--out", str(out)]) == 0
    state = seen["pt"].solution.state
    x = seen["mags"].ravel()
    if sets:
        rim = seen["pt"].params.penalty.radius
        assert state.thresholds.radius == rim
        x = np.where(abs(x - rim) <= 1e-12 * rim, rim, x)
    x = np.sort(x)
    i = np.arange(1, x.size + 1)
    expected = max((i / x.size - decoupled_cdf(state, x)).max(),
                   (decoupled_cdf(state, x, left=True) - (i - 1) / x.size).max())
    summary = (out / "compare_summary.txt").read_text()
    assert f"ks_decoupled = {expected:.12g}\n" in summary


# Prints the tracemalloc peak, in bytes, of experiments.run_compare on the
# config file argv[1] with the section.key=value overrides that follow it.
_COMPARE_PEAK = """
import sys
import tracemalloc

from lse_precoding import experiments

cfg = experiments.apply_overrides(experiments.load_config(sys.argv[1]), sys.argv[2:])
experiments.validate_config(cfg)
tracemalloc.start()
experiments.run_compare(cfg)
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("blas", ["1", "2"])
@COMPARE_CASES
def test_compare_peak_memory_holds_no_law_sample(sets, blas):
    # compare keeps the trials' magnitudes and its reports, well under 4 MB
    # at n = 64; 10^6 draws of the decoupled law alone would take 8 MB
    proc = subprocess.run([sys.executable, "-c", _COMPARE_PEAK,
                           str(CONFIGS / "compare.ini"), "simulation.n=64",
                           "simulation.trials=6", *sets],
                          env=_package_env(OPENBLAS_NUM_THREADS=blas),
                          check=True, capture_output=True, text=True)
    assert int(proc.stdout) < 4 * 10 ** 6


# Runs the modes in an interpreter where scipy cannot be imported: a finder
# at the front of sys.meta_path refuses scipy and every scipy submodule.
_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not importable here")
        return None


sys.meta_path.insert(0, NoScipy())

from lse_precoding import cli
from lse_precoding.penalty import PenaltySpec
from lse_precoding.replica import SystemParams, fixed_point_update, make_state

configs, out, tests = sys.argv[1:]
sys.path.insert(0, tests)
from oracles import quadrature_update

rc = cli.main(["compare", "--config", configs + "/compare.ini",
               "--set", "simulation.n=64", "--set", "simulation.trials=6",
               "--out", out + "/compare"])
rc = rc or cli.main(["sweep", "--config", configs + "/fig2.ini",
                     "--set", "system.alpha_inverse=1.5,2.0",
                     "--set", "penalty.papr_db_targets=3",
                     "--out", out + "/sweep"])
params = SystemParams(alpha=0.5, lambda_s=1.0, penalty=PenaltySpec(
    lam=0.3, lam0=0.2, peak_power=2.0))
state = make_state(params, 0.8, 0.5)
closed = fixed_point_update(state)
quad = quadrature_update(params, state)
gap = max(abs(c - q) for c, q in zip(closed, quad))
rc = rc or (0 if gap <= 1e-7 else 3)
sys.exit(rc)
"""


def test_runs_without_scipy(tmp_path):
    env = _package_env()
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(CONFIGS),
                           str(tmp_path), str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "compare" / "compare.csv").is_file()
    _, data = read_csv(str(tmp_path / "sweep" / "sweep_eta1_papr3db.csv"))
    assert len(data) == 2
    # nothing may import scipy quietly, e.g. behind a caught ImportError
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, lse_precoding.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
