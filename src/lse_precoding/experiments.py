"""Experiment driver: config files, replica sweeps, replica-vs-simulation
comparison reports, antenna-saving studies, CSV and SVG emission.

Config files are line-oriented ``key = value`` text with section headers
(INI). Every run writes a manifest with the fully resolved configuration
next to its outputs; re-running any mode from the manifest reproduces the
outputs byte for byte (no timestamps, fixed float formatting, trial
results independent of the thread count).
"""
from __future__ import annotations

import configparser
import csv
import io
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .numerics import RandomStream, ks_distance
from .penalty import PenaltySpec, Support
from .replica import (NoConvergenceError, NotAchievableError, ReplicaSolution,
                      SystemParams, calibrate, decoupled_sample,
                      match_random_selection, peak_cap_boundary,
                      solve_constant_envelope, solve_fixed_point)
from .simulator import INIT_KINDS, monte_carlo

# stream indices 0..trials-1 belong to Monte Carlo trials; the decoupled-law
# sampler uses a far-away reserved index off the same master seed
_DECOUPLED_STREAM_INDEX = 1 << 52


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class SchemaError(ValueError):
    """Malformed CSV input for plotting."""


SWEEP_COLUMNS = ("alpha_inverse", "lambda", "lambda0", "chi", "p", "eta",
                 "papr_db", "distortion_db", "residual", "iterations")
SAVING_COLUMNS = ("alpha_inverse", "papr_db", "eta_target", "distortion_db",
                  "eta_random", "saving")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def db10(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    mode: str = "replica"
    out: str = "out"
    seed: int = 1

    alpha_inverse: tuple = (2.0,)
    lambda_s: float = 1.0

    support: str = "full"
    lam: float | None = None
    lam0: float | None = None
    peak_power: float | None = None
    p_target: float | None = None
    eta_target: float | None = None
    papr_db_target: float | None = None
    eta_targets: tuple = ()
    papr_db_targets: tuple = ()

    n: int = 400
    trials: int = 100
    zero_eps: float = 1e-9
    max_sweeps: int = 500
    sim_tol: float = 1e-10
    restarts: int = 1
    init: str = "auto"

    damping: float = 0.5
    solver_tol: float = 1e-12
    max_iter: int = 100_000

    plot_inputs: tuple = ()
    plot_title: str = ""

    def solver_opts(self) -> dict:
        return dict(damping=self.damping, tol=self.solver_tol,
                    max_iter=self.max_iter)

    def sim_opts(self) -> dict:
        return dict(init=self.init, max_sweeps=self.max_sweeps,
                    tol=self.sim_tol, restarts=self.restarts)

    @property
    def uses_targets(self) -> bool:
        return self.p_target is not None


_KEY_MAP = {
    ("run", "mode"): ("mode", str),
    ("run", "out"): ("out", str),
    ("run", "seed"): ("seed", int),
    ("system", "alpha_inverse"): ("alpha_inverse", "grid"),
    ("system", "lambda_s"): ("lambda_s", float),
    ("penalty", "support"): ("support", str),
    ("penalty", "lambda"): ("lam", float),
    ("penalty", "lambda0"): ("lam0", float),
    ("penalty", "peak_power"): ("peak_power", float),
    ("penalty", "p_target"): ("p_target", float),
    ("penalty", "eta_target"): ("eta_target", float),
    ("penalty", "papr_db_target"): ("papr_db_target", float),
    ("penalty", "eta_targets"): ("eta_targets", "floats"),
    ("penalty", "papr_db_targets"): ("papr_db_targets", "floats"),
    ("simulation", "n"): ("n", int),
    ("simulation", "trials"): ("trials", int),
    ("simulation", "zero_eps"): ("zero_eps", float),
    ("simulation", "max_sweeps"): ("max_sweeps", int),
    ("simulation", "tol"): ("sim_tol", float),
    ("simulation", "restarts"): ("restarts", int),
    ("simulation", "init"): ("init", str),
    ("solver", "damping"): ("damping", float),
    ("solver", "tol"): ("solver_tol", float),
    ("solver", "max_iter"): ("max_iter", int),
    ("plot", "inputs"): ("plot_inputs", "strings"),
    ("plot", "title"): ("plot_title", str),
}


def _parse_grid(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        parts = [float(tok) for tok in text.split(":")]
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:step:stop, got {text!r}")
        start, step, stop = parts
        if step <= 0:
            raise ConfigError("grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        # each point is the decimal it prints as (1.7, not 1.7000000000000002),
        # so the manifest's grid parses back to the same floats
        values = tuple(float(_fmt(start + i * step)) for i in range(count))
    elif "," in text:
        values = tuple(float(tok) for tok in text.split(","))
    else:
        values = (float(text),)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("alpha_inverse grid must be strictly increasing")
    return values


def _convert(kind, raw: str):
    if kind == "grid":
        return _parse_grid(raw)
    if kind == "floats":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if kind == "strings":
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    return kind(raw)


def _assign(cfg: ExperimentConfig, section: str, key: str, raw: str) -> None:
    spec = _KEY_MAP.get((section, key))
    if spec is None:
        raise ConfigError(f"unknown config key {section}.{key}")
    name, kind = spec
    try:
        setattr(cfg, name, _convert(kind, raw))
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section == "versions":  # informational manifest block
            continue
        for key, raw in parser.items(section):
            _assign(cfg, section, key, raw)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply ``section.key=value`` strings on top of file values."""
    cfg = replace(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, _, key = dotted.partition(".")
        _assign(cfg, section.strip(), key.strip(), raw.strip())
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.mode not in _RUNNERS:
        raise ConfigError(f"mode must be one of {tuple(_RUNNERS)}, got {cfg.mode!r}")
    if cfg.mode == "plot":
        if not cfg.plot_inputs:
            raise ConfigError("plot mode needs [plot] inputs")
        return
    if not cfg.alpha_inverse:
        raise ConfigError("alpha_inverse grid is empty")
    if not all(a > 0 for a in cfg.alpha_inverse) or not cfg.lambda_s > 0:
        raise ConfigError("alpha_inverse and lambda_s must be positive")
    if not (0 < cfg.damping <= 1 and cfg.solver_tol >= 0) or cfg.max_iter < 1:
        raise ConfigError("solver needs 0 < damping <= 1, tol >= 0 and max_iter >= 1")
    if cfg.support not in ("full", "disk"):
        raise ConfigError("support must be 'full' or 'disk'")
    direct = cfg.lam is not None or cfg.lam0 is not None
    targets = cfg.uses_targets or bool(cfg.eta_targets)
    if direct and targets:
        raise ConfigError("give either direct weights or calibration targets, not both")
    if cfg.mode in ("calibrate", "sweep", "saving"):
        if not targets:
            raise ConfigError(f"{cfg.mode} mode needs calibration targets")
        if cfg.mode in ("sweep", "saving") and not cfg.eta_targets \
                and cfg.eta_target is None:
            raise ConfigError(f"{cfg.mode} mode needs eta_target or eta_targets")
    if not direct and not targets:
        raise ConfigError("give direct weights or calibration targets")
    papr = cfg.papr_db_target is not None or bool(cfg.papr_db_targets)
    if cfg.support == "full" and (cfg.peak_power is not None or papr):
        raise ConfigError("full support takes no peak_power and no papr target")
    if cfg.support == "disk" and (cfg.peak_power is not None) == papr:
        raise ConfigError("disk support needs one of peak_power and a papr target")
    if direct and papr:
        raise ConfigError("direct weights take peak_power, not a papr target")
    if cfg.peak_power is not None and not cfg.peak_power > 0:
        raise ConfigError("peak_power must be positive")
    if any(db < 0 for db in cfg.papr_db_targets + (cfg.papr_db_target or 0.0,)):
        raise ConfigError("papr_db_target and papr_db_targets must be >= 0 dB "
                          "(a peak-to-average ratio is at least one)")
    if targets and (cfg.p_target is None or not cfg.p_target > 0):
        raise ConfigError("calibration targets need a positive p_target")
    if not all(0 < eta <= 1 for eta in cfg.eta_targets
               + (() if cfg.eta_target is None else (cfg.eta_target,))):
        raise ConfigError("eta_target and eta_targets must lie in (0, 1]")
    if cfg.mode in ("replica", "simulate", "compare", "calibrate"):
        if len(cfg.alpha_inverse) != 1:
            raise ConfigError(f"{cfg.mode} mode needs a single alpha_inverse")
        if targets and cfg.eta_target is None:
            raise ConfigError(f"{cfg.mode} mode needs eta_target")
    if cfg.mode in ("simulate", "compare"):
        if cfg.n < 1 or cfg.trials < 2:
            raise ConfigError("simulation needs n >= 1 and trials >= 2")
        if _user_count(cfg) < 1:
            raise ConfigError(f"n = {cfg.n} at alpha_inverse = "
                              f"{_fmt(cfg.alpha_inverse[0])} leaves no user")
        if cfg.init not in INIT_KINDS:
            raise ConfigError(f"init must be one of {INIT_KINDS}, got {cfg.init!r}")
        if not (cfg.sim_tol >= 0 and cfg.zero_eps >= 0
                and cfg.max_sweeps >= 1 and cfg.restarts >= 1):
            raise ConfigError("simulation needs tol >= 0, zero_eps >= 0, "
                              "max_sweeps >= 1 and restarts >= 1")


def _user_count(cfg: ExperimentConfig) -> int:
    """Users k = round(n / alpha_inverse) of a single-load simulation."""
    return int(round(cfg.n / cfg.alpha_inverse[0]))


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _manifest_value(value) -> str:
    """`_fmt`, or repr where 12 digits do not give the float back."""
    text = _fmt(value)
    if isinstance(value, float) and float(text) != value:
        return repr(value)
    return text


def manifest_text(cfg: ExperimentConfig) -> str:
    """Fully resolved config as INI text. Every float is written so that it
    parses back to itself. The output path is an execution knob, not part
    of the experiment, and is left out so a rerun from the manifest is
    byte-identical wherever it lands. [versions] names the
    package, numpy and the BLAS numpy was built against, which is all the
    code the outputs depend on; it holds no thread count, since the outputs
    do not depend on it."""
    lines = []
    sections: dict[str, list[str]] = {}
    for (sec, key), (name, _) in _KEY_MAP.items():
        if key == "out":
            continue
        value = getattr(cfg, name)
        if value is None or value == () or value == "":
            continue
        if isinstance(value, tuple):
            text = ",".join(_manifest_value(v) for v in value)
        else:
            text = _manifest_value(value)
        sections.setdefault(sec, []).append(f"{key} = {text}")
    for sec in ("run", "system", "penalty", "simulation", "solver", "plot"):
        if sec in sections:
            lines.append(f"[{sec}]")
            lines.extend(sections[sec])
            lines.append("")
    lines.append("[versions]")
    lines.append(f"lse_precoding = {__version__}")
    lines.append(f"numpy = {np.__version__}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines.append(f"blas = {blas['name']} {blas['version']}")
    lines.append("")
    return "\n".join(lines)


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# operating points
# ---------------------------------------------------------------------------

class OperatingPoint(NamedTuple):
    """A replica point at one load: the parameters it was solved at, the
    solution and its status ("ok" or "peak-clamped")."""

    params: SystemParams
    solution: ReplicaSolution
    status: str

    @property
    def weights(self) -> tuple[float, float]:
        """Reported (lambda, lambda0), nan where the boundary solution has
        no representable pair."""
        return self.params.penalty.lam, self.params.penalty.lam0


def operating_point(cfg: ExperimentConfig, alpha_inverse: float,
                    eta_target: float | None, papr_db: float | None
                    ) -> OperatingPoint:
    """Replica point at one load.

    With direct weights it is the fixed point at cfg's weights. With
    calibration targets it is the calibrated point at (p_target,
    eta_target) under the peak cap P = papr * p_target. Where that cap
    binds (`peak_cap_boundary`, decided before any solve) the point is the
    boundary solution: every active antenna at the peak, power eta * P,
    with status "peak-clamped" when that is below p_target.
    """
    support = Support.disk(cfg.peak_power) \
        if cfg.support == "disk" and cfg.peak_power is not None else Support.full_plane()
    base = SystemParams(alpha=1.0 / alpha_inverse, lambda_s=cfg.lambda_s,
                        penalty=PenaltySpec(support=support))
    if not cfg.uses_targets:
        params = replace(base, penalty=replace(
            base.penalty, lam=cfg.lam or 0.0, lam0=cfg.lam0 or 0.0))
        return OperatingPoint(params, solve_fixed_point(params, **cfg.solver_opts()),
                              "ok")
    papr = None if papr_db is None else 10.0 ** (papr_db / 10.0)
    power = peak_cap_boundary(cfg.p_target, eta_target, papr)
    status = "ok"
    if power is None:
        lam, lam0, sol = calibrate(base, cfg.p_target, eta_target, papr,
                                   cfg.solver_opts())
        if papr is not None:
            support = Support.disk(papr * cfg.p_target)
    else:
        sol, lam, lam0 = solve_constant_envelope(base, power, eta_target)
        support = Support.disk(power / eta_target)
        if power < cfg.p_target:
            status = "peak-clamped"
    penalty = PenaltySpec(lam=lam, lam0=lam0, support=support)
    return OperatingPoint(replace(base, penalty=penalty), sol, status)


def _grid_rows(cfg: ExperimentConfig, row, blank: tuple):
    """(load, eta target, papr target in dB or None, values, status) over the
    target grid of a sweep or saving study: papr outermost, then eta, then
    load. values is row(load, eta target, point), or blank
    with status "error: <reason>" where the point cannot be solved."""
    for papr_db in cfg.papr_db_targets or (cfg.papr_db_target,):
        for eta_t in cfg.eta_targets or (cfg.eta_target,):
            for ainv in cfg.alpha_inverse:
                try:
                    pt = operating_point(cfg, ainv, eta_t, papr_db)
                    values, status = row(ainv, eta_t, pt), pt.status
                except (NotAchievableError, NoConvergenceError) as exc:
                    values, status = blank, f"error: {exc}"
                yield ainv, eta_t, papr_db, values, status


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def write_csv(path: str, columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns) + ["status"])
    for row, status in rows:
        writer.writerow([_fmt(v) for v in row] + [status])
    return _write(path, buf.getvalue())


def read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{path}: empty CSV")
    header, data = rows[0], rows[1:]
    return header, data


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _header_lines(pt: OperatingPoint) -> list[str]:
    lam, lam0 = pt.weights
    return [f"status = {pt.status}", f"lambda = {_fmt(lam)}", f"lambda0 = {_fmt(lam0)}"]


def run_replica_point(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Fixed-point solve at the single configured load; replica mode writes
    replica.txt, calibrate mode the same report as calibration.txt."""
    pt = operating_point(cfg, cfg.alpha_inverse[0], cfg.eta_target,
                         cfg.papr_db_target)
    sol = pt.solution
    st = sol.state
    lines = _header_lines(pt) + [
        f"chi = {_fmt(st.chi)}",
        f"p = {_fmt(st.p)}",
        f"lambda_rs = {_fmt(st.lambda_rs)}",
        f"kappa = {_fmt(st.kappa)}",
        f"tau = {_fmt(st.thresholds.tau)}",
        f"tau_tilde = {_fmt(st.thresholds.tau_tilde)}",
        f"tau_hat = {_fmt(st.thresholds.tau_hat)}",
        f"distortion = {_fmt(sol.distortion)}",
        f"distortion_db = {_fmt(db10(sol.distortion))}",
        f"eta = {_fmt(sol.eta)}",
        f"papr = {_fmt(sol.papr)}",
        f"papr_db = {_fmt(db10(sol.papr))}",
        f"residual = {_fmt(sol.residual)}",
        f"iterations = {sol.iterations}",
    ]
    name = "calibration" if cfg.mode == "calibrate" else "replica"
    return {name: _write(os.path.join(out_dir, f"{name}.txt"), "\n".join(lines) + "\n")}


def run_replica_sweep(cfg: ExperimentConfig, out_dir: str) -> dict:
    """One CSV per (eta target, papr target) curve over the load grid."""
    def row(ainv, eta_t, pt):
        sol = pt.solution
        return pt.weights + (sol.state.chi, sol.state.p, sol.eta, db10(sol.papr),
                             db10(sol.distortion), sol.residual, sol.iterations)

    curves: dict[str, list] = {}
    for ainv, eta_t, papr_db, values, status in _grid_rows(
            cfg, row, (math.nan,) * 8 + (0,)):
        tag = f"eta{eta_t:g}" + ("" if papr_db is None else f"_papr{papr_db:g}db")
        curves.setdefault(tag, []).append(((ainv,) + values, status))
    return {tag: write_csv(os.path.join(out_dir, f"sweep_{tag}.csv"), SWEEP_COLUMNS, rows)
            for tag, rows in curves.items()}


# the four observables of a Monte Carlo report and their replica values
_OBSERVABLES = (("distortion", lambda sol: sol.distortion),
                ("power", lambda sol: sol.state.p),
                ("eta", lambda sol: sol.eta),
                ("papr", lambda sol: sol.papr))


def _simulated_point(cfg: ExperimentConfig):
    """Operating point and Monte Carlo report at the single configured load."""
    pt = operating_point(cfg, cfg.alpha_inverse[0], cfg.eta_target,
                         cfg.papr_db_target)
    if any(math.isnan(w) for w in pt.weights):
        raise ConfigError("the clamped boundary point has no representable "
                          "penalty weights; simulate with direct weights")
    report = monte_carlo(cfg.n, _user_count(cfg), cfg.lambda_s, pt.params.penalty,
                         trials=cfg.trials, master_seed=cfg.seed,
                         solver_opts=cfg.sim_opts(), zero_eps=cfg.zero_eps)
    return pt, report


def _report_lines(report) -> list[str]:
    lines = [f"trials = {report.trials}"]
    for name, _ in _OBSERVABLES:
        lines += [f"{name}_mean = {_fmt(getattr(report, name + '_mean'))}",
                  f"{name}_ci95 = {_fmt(getattr(report, name + '_ci95'))}"]
    return lines


def run_simulate(cfg: ExperimentConfig, out_dir: str) -> dict:
    pt, report = _simulated_point(cfg)
    path = _write(os.path.join(out_dir, "simulation.txt"),
                  "\n".join(_header_lines(pt) + _report_lines(report)) + "\n")
    hist_rows = [((edge, mass, first, second), "ok") for edge, mass, first, second
                 in zip(report.histogram_edges[:-1], report.magnitude_histogram,
                        report.per_index_marginals["first_half"],
                        report.per_index_marginals["second_half"])]
    hist = write_csv(os.path.join(out_dir, "histogram.csv"),
                     ("bin_left", "mass", "first_half", "second_half"), hist_rows)
    return {"simulation": path, "histogram": hist}


def run_compare(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Replica solve and Monte Carlo at the same parameters, side by side,
    plus distribution distances against the decoupled law."""
    pt, report = _simulated_point(cfg)
    sol = pt.solution

    stream = RandomStream(cfg.seed, _DECOUPLED_STREAM_INDEX)
    law = np.abs(decoupled_sample(sol.state, stream, 10 ** 6))
    mags = report.magnitudes
    spec = pt.params.penalty
    if spec.is_disk:
        # snap rim ties, sqrt(P) up to thread-count-dependent rounding
        rim = spec.support.radius
        mags, law = (np.where(abs(a - rim) <= 1e-12 * rim, rim, a)
                     for a in (mags, law))
    ks_law = ks_distance(mags, law)
    n = cfg.n
    mags = mags.reshape(report.trials, n)
    ks_halves = ks_distance(mags[:, : n // 2].ravel(), mags[:, n // 2:].ravel())

    rows = []
    for name, replica_of in _OBSERVABLES:
        replica_v = replica_of(sol)
        emp_v = getattr(report, name + "_mean")
        gap = abs(emp_v - replica_v)
        rel = gap / abs(replica_v) if replica_v not in (0.0, math.inf) else math.nan
        rows.append(((name, replica_v, emp_v, getattr(report, name + "_ci95"), rel),
                     "ok"))
    csv_path = write_csv(os.path.join(out_dir, "compare.csv"),
                         ("metric", "replica", "empirical", "ci95", "rel_gap"),
                         rows)
    lines = _header_lines(pt) + [f"ks_decoupled = {_fmt(ks_law)}",
                                 f"ks_index_halves = {_fmt(ks_halves)}"] \
        + _report_lines(report)
    summary = _write(os.path.join(out_dir, "compare_summary.txt"),
                     "\n".join(lines) + "\n")
    return {"compare": csv_path, "summary": summary}


def run_antenna_saving(cfg: ExperimentConfig, out_dir: str) -> dict:
    """For each (papr, eta, load): solve the penalized precoder, then find
    the random-selection fraction with equal distortion; saving is the
    difference."""
    def row(ainv, eta_t, pt):
        eta_r = match_random_selection(ainv, cfg.lambda_s, cfg.p_target,
                                       pt.solution.distortion)
        return db10(pt.solution.distortion), eta_r, eta_r - eta_t

    rows = [((ainv, math.nan if papr_db is None else papr_db, eta_t) + values, status)
            for ainv, eta_t, papr_db, values, status
            in _grid_rows(cfg, row, (math.nan,) * 3)]
    return {"saving": write_csv(os.path.join(out_dir, "antenna_saving.csv"),
                                SAVING_COLUMNS, rows)}


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#e377c2")


def _curve_from_csv(path: str):
    header, data = read_csv(path)
    try:
        xi = header.index("alpha_inverse")
        yi = header.index("distortion_db")
        si = header.index("status") if "status" in header else None
    except ValueError as exc:
        raise SchemaError(f"{path}: missing required column") from exc
    xs, ys = [], []
    for row in data:
        if si is not None and row[si] != "ok" and not row[si].startswith("peak-clamped"):
            continue
        try:
            x, y = float(row[xi]), float(row[yi])
        except ValueError as exc:
            raise SchemaError(f"{path}: non-numeric row {row!r}") from exc
        if math.isfinite(x) and math.isfinite(y):
            xs.append(x)
            ys.append(y)
    if not xs:
        raise SchemaError(f"{path}: no plottable rows")
    return xs, ys


def emit_plot(csv_paths, out_path: str, title: str = "") -> str:
    """Deterministic SVG: one polyline per CSV, axes in inverse load and
    distortion dB, legend from file names. Identical inputs give identical
    bytes."""
    if not csv_paths:
        raise SchemaError("no input CSVs")
    curves = [(os.path.basename(p), *_curve_from_csv(p)) for p in csv_paths]
    width, height = 640.0, 480.0
    ml, mr, mt, mb = 60.0, 160.0, 30.0, 45.0
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{ml:.1f}" y1="{height - mb:.1f}" x2="{width - mr:.1f}" '
        f'y2="{height - mb:.1f}" stroke="black"/>',
        f'<line x1="{ml:.1f}" y1="{mt:.1f}" x2="{ml:.1f}" '
        f'y2="{height - mb:.1f}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - mb + 18:.1f}" '
                     f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<text x="{ml - 8:.1f}" y="{sy(yv) + 4:.1f}" '
                     f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 8:.1f}" '
                 f'font-size="13" text-anchor="middle">&#945;&#8315;&#185;</text>')
    parts.append(f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(mt + height - mb) / 2:.1f})">D in [dB]</text>')
    if title:
        parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="20" '
                     f'font-size="14" text-anchor="middle">{title}</text>')
    for i, (name, xs, ys) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{width - mr + 8:.1f}" y1="{ly:.1f}" '
                     f'x2="{width - mr + 28:.1f}" y2="{ly:.1f}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr + 32:.1f}" y="{ly + 4:.1f}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return _write(out_path, "\n".join(parts) + "\n")


def run_plot(cfg: ExperimentConfig, out_dir: str) -> dict:
    return {"plot": emit_plot(cfg.plot_inputs, os.path.join(out_dir, "plot.svg"),
                              cfg.plot_title)}


# mode -> runner; each runner returns {name: path} of the files it wrote
_RUNNERS = {
    "replica": run_replica_point,
    "sweep": run_replica_sweep,
    "simulate": run_simulate,
    "compare": run_compare,
    "calibrate": run_replica_point,
    "saving": run_antenna_saving,
    "plot": run_plot,
}


def run(cfg: ExperimentConfig) -> dict:
    """Validate cfg, run its mode into cfg.out and write manifest.cfg next
    to the outputs; returns {name: path} of every file written."""
    validate_config(cfg)
    written = _RUNNERS[cfg.mode](cfg, cfg.out)
    written["manifest"] = _write(os.path.join(cfg.out, "manifest.cfg"),
                                 manifest_text(cfg))
    return written
