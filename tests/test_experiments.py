import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lse_precoding
from lse_precoding import cli
from lse_precoding.experiments import (ConfigError, ExperimentConfig,
                                       SchemaError, apply_overrides,
                                       emit_plot, load_config, manifest_text,
                                       match_random_selection,
                                       operating_point, parse_config,
                                       read_csv, run, validate_config,
                                       write_csv)
from lse_precoding.penalty import PenaltySpec
from lse_precoding.replica import (NotAchievableError, SystemParams,
                                   random_tas_baseline)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# calibration targets p = 0.5 at lambda_s = 1 on the full plane
TARGETS = ExperimentConfig(p_target=0.5)

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


def test_parse_rejects_decreasing_grid():
    with pytest.raises(ConfigError):
        parse_config("[system]\nalpha_inverse = 2.0,1.0\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("[system]\nbogus = 1\n")


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


@pytest.mark.parametrize("mode, override", [
    ("sweep", "system.alpha_inverse=2.0:0.5:1.0"),  # empty grid
    ("replica", "system.alpha_inverse=0"),
    ("replica", "system.lambda_s=-1"),
    ("compare", "simulation.n=0"),
    ("compare", "simulation.trials=1"),
    ("simulate", "simulation.n=1"),  # k = round(1 / 2) = 0 users
    ("simulate", "simulation.init=bogus"),
    ("replica", "solver.damping=-0.5"),
    ("replica", "solver.damping=0"),
    ("replica", "solver.damping=1.5"),
    ("replica", "solver.tol=-1e-12"),
    ("calibrate", "solver.max_iter=0"),
    ("compare", "simulation.tol=-1e-10"),
    ("compare", "simulation.max_sweeps=0"),
    ("simulate", "simulation.restarts=0"),
    ("simulate", "simulation.zero_eps=-1"),
    ("sweep", "penalty.papr_db_targets=3,-1"),
    ("calibrate", "penalty.papr_db_target=-1"),
    ("replica", "penalty.peak_power=0"),
    ("calibrate", "penalty.p_target=-1"),
    ("calibrate", "penalty.p_target=0"),
    ("calibrate", "penalty.eta_target=0"),
    ("replica", "penalty.eta_target=1.5"),
    ("sweep", "penalty.eta_targets=0.5,1.5"),
    ("saving", "penalty.eta_targets=0,0.5"),
], ids=["empty_grid", "zero_load", "negative_lambda_s", "no_antennas",
        "one_trial", "no_users", "unknown_init", "negative_damping",
        "zero_damping", "damping_above_one", "negative_solver_tol",
        "zero_max_iter", "negative_sim_tol", "zero_max_sweeps",
        "zero_restarts", "negative_zero_eps", "negative_papr_db_targets",
        "negative_papr_db_target", "zero_peak_power", "negative_p_target",
        "zero_p_target", "zero_eta_target", "eta_target_above_one",
        "eta_targets_above_one", "zero_eta_targets"])
def test_validate_rejects_out_of_range(mode, override):
    cfg = apply_overrides(parse_config(BASE), [override])
    cfg.mode = mode
    with pytest.raises(ConfigError):
        validate_config(cfg)


# BASE with direct weights in place of its calibration targets
DIRECT = BASE.replace("p_target = 0.5\neta_target = 0.5", "lambda = 0.1\nlambda0 = 0.05")
DISK = "penalty.support=disk"


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
], ids=["disk_targets_without_cap", "full_with_papr_target",
        "full_with_papr_targets", "full_with_peak_power",
        "disk_with_peak_power_and_papr_target", "disk_zero_peak_power",
        "direct_full_with_peak_power", "direct_disk_with_papr_target",
        "direct_disk_with_peak_power_and_papr_target"])
def test_validate_rejects_unused_peak_cap(text, overrides):
    # a peak-cap setting the run would not use is a config error: the full
    # plane takes neither peak_power nor a papr target, a disk exactly one
    # (peak_power with direct weights)
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
    path = write_csv(str(tmp_path / "t.csv"), ("a", "b", "c"), rows)
    header, data = read_csv(path)
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


# mode, config text (None: a plot of a BASE sweep) and the flags of a first
# run, which a rerun from its manifest.cfg must reproduce byte for byte. The
# sweep grid holds points (1.7) that start + i * step misses by an ulp, and
# the replica lambda has more digits than the outputs print.
_DIRECT_WEIGHTS = BASE.replace("p_target = 0.5\neta_target = 0.5",
                               "lambda = 0.1234567890123456\nlambda0 = 0.05")


@pytest.mark.parametrize("mode, text, flags", [
    ("replica", BASE, []),
    ("replica", _DIRECT_WEIGHTS, []),
    ("calibrate", BASE, []),
    ("sweep", BASE, ["--set", "system.alpha_inverse=1.0:0.1:1.7",
                     "--set", "penalty.eta_targets=1.0,0.5,0.3"]),
    ("saving", BASE, []),
    ("simulate", BASE, ["--set", "simulation.n=32", "--set", "simulation.trials=3"]),
    ("plot", None, []),
], ids=["replica_targets", "replica", "calibrate", "sweep", "saving",
        "simulate", "plot"])
def test_every_mode_reruns_from_manifest_byte_identical(tmp_path, mode, text, flags):
    ini = tmp_path / "run.ini"
    if text is None:
        ini.write_text(BASE)
        assert cli.main(["sweep", "--config", str(ini),
                         "--out", str(tmp_path / "sweep")]) == 0
        text = f"[plot]\ninputs = {tmp_path / 'sweep' / 'sweep_eta0.5.csv'}\n"
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

def test_operating_point_peak_clamp_status():
    pt = operating_point(TARGETS, 2.0, 0.5, papr_db=0.0)
    assert pt.status == "peak-clamped"
    # the boundary solution transmits eta * P = papr * p * eta
    assert pt.solution.state.p == pytest.approx(0.25, rel=1e-10)
    assert pt.solution.eta == pytest.approx(0.5, rel=1e-12)


def _boundary_run(tmp_path, mode, eta_target):
    """`lse <mode>` at the 0 dB cap on disk support; (exit code, report)."""
    ini = tmp_path / "boundary.ini"
    ini.write_text(BASE.replace("support = full", "support = disk")
                   .replace("eta_target = 0.5", f"eta_target = {eta_target}")
                   + "papr_db_target = 0\n\n[simulation]\nn = 32\ntrials = 2\n")
    out = tmp_path / "out"
    rc = cli.main([mode, "--config", str(ini), "--out", str(out)])
    name = {"calibrate": "calibration", "simulate": "simulation"}.get(mode, mode)
    path = out / f"{name}.txt"
    report = dict(line.split(" = ") for line in path.read_text().splitlines()) \
        if path.exists() else None
    return rc, report


def test_calibrate_below_the_boundary_is_peak_clamped(tmp_path):
    # p = 0.5 with half the antennas at P = p: the boundary transmits eta P
    rc, report = _boundary_run(tmp_path, "calibrate", 0.5)
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

def _tiny_csv(tmp_path, name="c.csv", rows=((1.0, -10.0), (2.0, -12.0))):
    data = [((ainv, 0.1, 0.0, 1.0, 0.5, 1.0, math.inf, ddb, 0.0, 3), "ok")
            for ainv, ddb in rows]
    cols = ("alpha_inverse", "lambda", "lambda0", "chi", "p", "eta",
            "papr_db", "distortion_db", "residual", "iterations")
    return write_csv(str(tmp_path / name), cols, data)


def test_emit_plot_single_polyline(tmp_path):
    path = _tiny_csv(tmp_path)
    svg = emit_plot([path], str(tmp_path / "p.svg"))
    text = Path(svg).read_text()
    assert text.count("<polyline") == 1
    pts = text.split('points="')[1].split('"')[0].split()
    assert len(pts) == 2


def test_emit_plot_empty_inputs():
    with pytest.raises(SchemaError):
        emit_plot([], "nowhere.svg")


def test_emit_plot_missing_column(tmp_path):
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.write("x,y\n1,2\n")
    with pytest.raises(SchemaError):
        emit_plot([bad], str(tmp_path / "p.svg"))


def test_emit_plot_byte_identical(tmp_path):
    path = _tiny_csv(tmp_path)
    a = emit_plot([path], str(tmp_path / "a.svg"))
    b = emit_plot([path], str(tmp_path / "b.svg"))
    assert Path(a).read_bytes() == Path(b).read_bytes()


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
    assert cli.main(["plot", "--config", str(CONFIGS / "fig1_plot.ini")]) == 0
    svg = (tmp_path / "runs" / "fig1" / "plot" / "plot.svg").read_text()
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
from lse_precoding.penalty import PenaltySpec, Support
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
    lam=0.3, lam0=0.2, support=Support.disk(2.0)))
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
