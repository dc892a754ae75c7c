"""Experiment driver: config files, replica points (with calibration
targets, the calibration report), replica sweeps with their SVG figure,
replica-vs-simulation comparison reports, antenna-saving studies, CSV and
SVG text.

Config files are line-oriented ``key = value`` text with section headers
(INI); each key is declared once, on the `ExperimentConfig` field it sets,
with its section, kind and default. The config is the only input the
package reads. Runners return their files' text; `run` alone writes them,
into a directory it makes before the mode runs, next to a manifest with
the fully resolved configuration. Re-running any mode from the manifest
reproduces the outputs byte for byte (no timestamps, fixed float
formatting, trial results independent of the thread count).
"""
from __future__ import annotations

import configparser
import csv
import io
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .numerics import ks_distance
from .penalty import PenaltySpec
from .replica import (NoConvergenceError, NotAchievableError, ReplicaSolution,
                      SystemParams, calibrate, ks_decoupled,
                      match_random_selection, snap_to_rim,
                      solve_constant_envelope, solve_fixed_point)
from .simulator import TRIAL_COLUMNS, monte_carlo


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


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

def _key(section: str, key: str, kind, default=None):
    """A config field, set by ``key`` in ``[section]`` and parsed as kind (a
    type, or "grid" or "floats"); manifests list it in field order."""
    return field(default=default, metadata={"ini": (section, key, kind)})


@dataclass
class ExperimentConfig:
    mode: str = _key("run", "mode", str, "replica")
    out: str = _key("run", "out", str, "out")
    seed: int = _key("run", "seed", int, 1)

    alpha_inverse: tuple = _key("system", "alpha_inverse", "grid", (2.0,))
    lambda_s: float = _key("system", "lambda_s", float, 1.0)

    support: str = _key("penalty", "support", str, "full")
    lam: float | None = _key("penalty", "lambda", float)
    lam0: float | None = _key("penalty", "lambda0", float)
    peak_power: float | None = _key("penalty", "peak_power", float)
    p_target: float | None = _key("penalty", "p_target", float)
    eta_target: float | None = _key("penalty", "eta_target", float)
    papr_db_target: float | None = _key("penalty", "papr_db_target", float)
    eta_targets: tuple = _key("penalty", "eta_targets", "floats", ())
    papr_db_targets: tuple = _key("penalty", "papr_db_targets", "floats", ())

    n: int = _key("simulation", "n", int, 400)
    trials: int = _key("simulation", "trials", int, 100)
    zero_eps: float = _key("simulation", "zero_eps", float, 1e-9)
    max_sweeps: int = _key("simulation", "max_sweeps", int, 500)
    sim_tol: float = _key("simulation", "tol", float, 1e-10)
    # single-valued: every manifest records them (validate_config)
    restarts: int = _key("simulation", "restarts", int, 1)
    init: str = _key("simulation", "init", str, "auto")

    damping: float = _key("solver", "damping", float, 0.5)
    solver_tol: float = _key("solver", "tol", float, 1e-12)
    max_iter: int = _key("solver", "max_iter", int, 100_000)

    def solver_opts(self) -> dict:
        return dict(damping=self.damping, tol=self.solver_tol,
                    max_iter=self.max_iter)

    def sim_opts(self) -> dict:
        return dict(max_sweeps=self.max_sweeps, tol=self.sim_tol)

    @property
    def uses_targets(self) -> bool:
        return self.p_target is not None


# (section, key) -> (field name, kind); every field has its key
_KEY_MAP = {f.metadata["ini"][:2]: (f.name, f.metadata["ini"][2])
            for f in fields(ExperimentConfig)}


def _parse_grid(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        parts = [_finite(tok) for tok in text.split(":")]
        if len(parts) != 3:
            raise ConfigError("grid must be start:step:stop")
        start, step, stop = parts
        if step <= 0:
            raise ConfigError("grid step must be positive")
        # the points start + i step that do not pass stop, to 1e-9 of a step
        count = math.floor((stop - start) / step + 1e-9) + 1
        # each point is the decimal it prints as (1.7, not 1.7000000000000002),
        # so the manifest's grid parses back to the same floats
        values = tuple(float(_fmt(start + i * step)) for i in range(count))
    elif "," in text:
        values = tuple(_finite(tok) for tok in text.split(","))
    else:
        values = (_finite(text),)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("alpha_inverse grid must be strictly increasing")
    return values


def _finite(text: str) -> float:
    """A float config value; nan and inf parse but are no operating point."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _convert(kind, raw: str):
    if kind == "grid":
        return _parse_grid(raw)
    if kind == "floats":
        return tuple(_finite(tok) for tok in raw.split(",") if tok.strip())
    return _finite(raw) if kind is float else kind(raw)


def _assign(cfg: ExperimentConfig, section: str, key: str, raw: str) -> None:
    spec = _KEY_MAP.get((section, key))
    if spec is None:
        raise ConfigError(f"unknown config key {section}.{key}")
    name, kind = spec
    try:
        setattr(cfg, name, _convert(kind, raw))
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}: {exc}") from exc


_VERSION_KEYS = ("lse_precoding", "numpy", "blas")  # the manifest's [versions] lines


def parse_config(text: str, source: str = "<string>") -> ExperimentConfig:
    """The config of INI text; source names it in configparser's errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc
    if parser.defaults():  # configparser would merge it into every section
        raise ConfigError(f"{source}: [DEFAULT] sets {', '.join(parser.defaults())}; "
                          "give each key in its own section")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section == "versions":  # the manifest's block; its values go unchecked
            stray = [key for key in parser[section] if key not in _VERSION_KEYS]
            if stray:
                raise ConfigError(f"{source}: [versions] sets {', '.join(stray)}; "
                                  f"it holds only {', '.join(_VERSION_KEYS)}")
            continue
        for key, raw in parser.items(section):
            _assign(cfg, section, key, raw)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """The config of the INI file at path; ConfigError("<path>: <reason>")
    where the file cannot be opened or decoded as UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_config(text, path)


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


def _curve_tag(eta: float, papr_db: float | None) -> str:
    """The <tag> of a sweep curve's sweep_<tag>.csv: its targets as %g."""
    return f"eta{eta:g}" + ("" if papr_db is None else f"_papr{papr_db:g}db")


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.mode not in _RUNNERS:
        raise ConfigError(f"mode must be one of {tuple(_RUNNERS)}, got {cfg.mode!r}")
    # every manifest records these two; the descent takes one start
    for key, only in (("restarts", 1), ("init", "auto")):
        if getattr(cfg, key) != only:
            raise ConfigError(f"[simulation] {key} takes only {only!r}, "
                              f"got {getattr(cfg, key)!r}")
    if not cfg.alpha_inverse:
        raise ConfigError("alpha_inverse grid is empty")
    if not all(a > 0 for a in cfg.alpha_inverse) or not cfg.lambda_s > 0:
        raise ConfigError("alpha_inverse and lambda_s must be positive")
    if not (0 < cfg.damping <= 1 and cfg.solver_tol >= 0) or cfg.max_iter < 1:
        raise ConfigError("solver needs 0 < damping <= 1, tol >= 0 and max_iter >= 1")
    if cfg.support not in ("full", "disk"):
        raise ConfigError("support must be 'full' or 'disk'")
    direct = cfg.lam is not None or cfg.lam0 is not None
    targets = cfg.uses_targets or cfg.eta_target is not None or bool(cfg.eta_targets)
    if direct and targets:
        raise ConfigError("give either direct weights or calibration targets, not both")
    for key, weight in (("lambda", cfg.lam), ("lambda0", cfg.lam0)):
        if weight is not None and weight < 0:
            raise ConfigError(f"penalty.{key} must be non-negative, got {weight!r}")
    if cfg.mode in ("sweep", "saving"):
        if not targets:
            raise ConfigError(f"{cfg.mode} mode needs calibration targets")
        if not cfg.eta_targets and cfg.eta_target is None:
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
    # two targets of one list that print alike would share one sweep CSV
    for key, tags in (("eta_targets", [_curve_tag(e, None) for e in cfg.eta_targets]),
                      ("papr_db_targets", [_curve_tag(1, d) for d in cfg.papr_db_targets])):
        values = getattr(cfg, key)
        for i, tag in enumerate(tags):
            if tags.index(tag) < i:
                raise ConfigError(f"{key} {values[tags.index(tag)]!r} and {values[i]!r} "
                                  "print alike in the sweep's CSV names")
    if cfg.mode in ("replica", "simulate", "compare"):
        if len(cfg.alpha_inverse) != 1:
            raise ConfigError(f"{cfg.mode} mode needs a single alpha_inverse")
        if targets and cfg.eta_target is None:
            raise ConfigError(f"{cfg.mode} mode needs eta_target")
    if cfg.mode in ("simulate", "compare"):
        # compare splits the antenna indices into two non-empty halves
        min_n = 2 if cfg.mode == "compare" else 1
        if cfg.n < min_n:
            raise ConfigError(f"{cfg.mode} mode needs simulation.n >= {min_n}, "
                              f"got {cfg.n}")
        if cfg.trials < 2:
            raise ConfigError(f"simulation.trials must be >= 2, got {cfg.trials}")
        if _user_count(cfg) < 1:
            raise ConfigError(f"n = {cfg.n} at alpha_inverse = "
                              f"{_fmt(cfg.alpha_inverse[0])} leaves no user")
        if not (cfg.sim_tol >= 0 and cfg.zero_eps >= 0 and cfg.max_sweeps >= 1):
            raise ConfigError("simulation needs tol >= 0, zero_eps >= 0 "
                              "and max_sweeps >= 1")


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
    sections: dict[str, list[str]] = {}
    for (sec, key), (name, _) in _KEY_MAP.items():
        value = getattr(cfg, name)
        if key == "out" or value is None or value == () or value == "":
            continue
        values = value if isinstance(value, tuple) else (value,)
        sections.setdefault(sec, []).append(
            f"{key} = {','.join(_manifest_value(v) for v in values)}")
    lines = []
    for sec, body in sections.items():  # in field order
        lines += [f"[{sec}]", *body, ""]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = (__version__, np.__version__, f"{blas['name']} {blas['version']}")
    lines += ["[versions]", *(f"{key} = {value}" for key, value
                              in zip(_VERSION_KEYS, versions)), ""]
    return "\n".join(lines)


def _write(path: str, text: str) -> str:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
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

    The support is the disk of the peak power P, else the whole plane:
    P is cfg's peak_power, or papr * p_target under a papr target, and
    one rule serves both. With direct weights the point is the fixed point
    at cfg's weights. With calibration targets this is the one place that
    decides whether the cap binds, by the hard bound p <= eta * P. Where
    eta * P exceeds p_target by more than 1e-9 relative the point is
    calibrated to (p_target, eta_target); otherwise it is the boundary
    solution on the disk of P = power / eta, every active antenna at the
    peak, at power p_target within the band and at eta * P, status
    "peak-clamped", below it.
    """
    peak = cfg.peak_power if papr_db is None else 10.0 ** (papr_db / 10.0) * cfg.p_target
    base = SystemParams(alpha=1.0 / alpha_inverse, lambda_s=cfg.lambda_s,
                        penalty=PenaltySpec(peak_power=peak))
    if not cfg.uses_targets:
        params = replace(base, penalty=replace(
            base.penalty, lam=cfg.lam or 0.0, lam0=cfg.lam0 or 0.0))
        return OperatingPoint(params, solve_fixed_point(params, **cfg.solver_opts()),
                              "ok")
    bound = math.inf if peak is None else eta_target * peak
    if bound > cfg.p_target * (1 + 1e-9):
        lam, lam0, sol = calibrate(base, cfg.p_target, eta_target, cfg.solver_opts())
        status = "ok"
    else:
        power = bound if bound < cfg.p_target * (1 - 1e-9) else cfg.p_target
        base = replace(base, penalty=PenaltySpec(peak_power=power / eta_target))
        lam, lam0, sol = solve_constant_envelope(base, power, eta_target)
        status = "peak-clamped" if power < cfg.p_target else "ok"
    penalty = replace(base.penalty, lam=lam, lam0=lam0)
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

def csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns) + ["status"])
    for row, status in rows:
        writer.writerow([_fmt(v) for v in row] + [status])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _header_lines(pt: OperatingPoint) -> list[str]:
    lam, lam0 = pt.weights
    return [f"status = {pt.status}", f"lambda = {_fmt(lam)}", f"lambda0 = {_fmt(lam0)}"]


def run_replica_point(cfg: ExperimentConfig) -> dict:
    """Fixed-point solve at the single configured load, reported in
    replica.txt: at the direct weights, or at the weights calibrated to
    the targets (the calibration report)."""
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
    return {"replica": ("replica.txt", "\n".join(lines) + "\n")}


def run_replica_sweep(cfg: ExperimentConfig) -> dict:
    """One CSV per (eta target, papr target) curve over the load grid, and
    plot.svg, whose polylines, in CSV order, draw each curve's rows with
    status ok or peak-clamped and a finite distortion_db. A curve with no
    such row is left out, and a sweep with none writes no plot.svg."""
    def row(ainv, eta_t, pt):
        sol = pt.solution
        return pt.weights + (sol.state.chi, sol.state.p, sol.eta, db10(sol.papr),
                             db10(sol.distortion), sol.residual, sol.iterations)

    curves: dict[str, list] = {}
    for ainv, eta_t, papr_db, values, status in _grid_rows(
            cfg, row, (math.nan,) * 8 + (0,)):
        tag = _curve_tag(eta_t, papr_db)
        curves.setdefault(tag, []).append(((ainv,) + values, status))
    files = {tag: (f"sweep_{tag}.csv", csv_text(SWEEP_COLUMNS, rows))
             for tag, rows in curves.items()}
    drawn = []
    for tag, rows in curves.items():
        # (alpha_inverse, distortion_db) of the drawable rows
        points = [(v[0], v[7]) for v, status in rows
                  if status in ("ok", "peak-clamped") and math.isfinite(v[7])]
        if points:
            drawn.append((f"sweep_{tag}.csv", *zip(*points)))
    if drawn:
        files["plot"] = ("plot.svg", plot_svg(
            drawn, f"distortion vs inverse load, power {cfg.p_target:g}"))
    return files


# the replica value of each per-trial statistic, by its TRIAL_COLUMNS name
_OBSERVABLES = {"distortion": lambda sol: sol.distortion,
                "power": lambda sol: sol.state.p,
                "eta": lambda sol: sol.eta,
                "papr": lambda sol: sol.papr}


def _simulate(cfg: ExperimentConfig, pt: OperatingPoint):
    """Monte Carlo report at the operating point pt of the single configured
    load."""
    if any(math.isnan(w) for w in pt.weights):
        raise ConfigError("the clamped boundary point has no representable "
                          "penalty weights; simulate with direct weights")
    return monte_carlo(cfg.n, _user_count(cfg), cfg.lambda_s, pt.params.penalty,
                       trials=cfg.trials, master_seed=cfg.seed,
                       solver_opts=cfg.sim_opts(), zero_eps=cfg.zero_eps)


def _mean_ci95(report, name: str) -> tuple[float, float]:
    """Mean and 95 % half-width of the per-trial statistic `name`, from its
    own column (a reduction over axis 0 of the table can round otherwise)."""
    values = report.table[:, TRIAL_COLUMNS.index(name)]
    # a trial that transmits nothing has papr = inf, whose spread is nan
    with np.errstate(invalid="ignore"):
        return (float(values.mean()),
                float(1.96 * values.std(ddof=1) / math.sqrt(values.size)))


def _index_halves(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x| of the first and of the second half of the antenna indices,
    pooled over the trials (the rows of mags)."""
    half = mags.shape[1] // 2
    return mags[:, :half].ravel(), mags[:, half:].ravel()


def _report_stats(report) -> tuple[dict, list[str]]:
    """{name: (mean, 95 % half-width)} of every column of the report's
    table, in TRIAL_COLUMNS order, and the report lines that state them."""
    stats = {name: _mean_ci95(report, name) for name in TRIAL_COLUMNS}
    lines = [f"trials = {len(report.table)}"]
    for name, (mean, ci95) in stats.items():
        lines += [f"{name}_mean = {_fmt(mean)}", f"{name}_ci95 = {_fmt(ci95)}"]
    return stats, lines


def run_simulate(cfg: ExperimentConfig) -> dict:
    """Monte Carlo at the single configured load: the report's statistics,
    and a 128-bin histogram of |x| pooled over trials and antennas, with
    the mass of each half of the antenna indices next to it."""
    pt = operating_point(cfg, cfg.alpha_inverse[0], cfg.eta_target,
                         cfg.papr_db_target)
    report = _simulate(cfg, pt)
    mags = report.magnitudes
    edges = np.linspace(0.0, float(mags.max()) or 1.0, 129)
    pooled = np.histogram(mags, bins=edges)[0]
    halves = [np.histogram(h, bins=edges)[0] for h in _index_halves(mags)]
    hist_rows = [(row, "ok") for row in zip(
        edges[:-1], pooled / pooled.sum(), *(h / max(h.sum(), 1) for h in halves))]
    return {"simulation": ("simulation.txt",
                           "\n".join(_header_lines(pt) + _report_stats(report)[1]) + "\n"),
            "histogram": ("histogram.csv", csv_text(
                ("bin_left", "mass", "first_half", "second_half"), hist_rows))}


def run_compare(cfg: ExperimentConfig) -> dict:
    """Replica solve and Monte Carlo at the same parameters, side by side,
    plus two KS distances of the trials' magnitudes |x|, pooled and
    snapped onto the rim (`snap_to_rim`): against the decoupled law's exact
    CDF (`ks_decoupled`), and between the two halves of the antenna
    indices."""
    pt = operating_point(cfg, cfg.alpha_inverse[0], cfg.eta_target,
                         cfg.papr_db_target)
    sol = pt.solution
    report = _simulate(cfg, pt)
    ks_law = ks_decoupled(report.magnitudes.ravel(), sol.state)
    ks_halves = ks_distance(*_index_halves(snap_to_rim(report.magnitudes, sol.state)))

    stats, stat_lines = _report_stats(report)
    rows = []
    for name, (emp_v, ci95) in stats.items():
        replica_v = _OBSERVABLES[name](sol)
        gap = abs(emp_v - replica_v)
        rel = gap / abs(replica_v) if replica_v not in (0.0, math.inf) else math.nan
        rows.append(((name, replica_v, emp_v, ci95, rel), "ok"))
    lines = _header_lines(pt) + [f"ks_decoupled = {_fmt(ks_law)}",
                                 f"ks_index_halves = {_fmt(ks_halves)}"] \
        + stat_lines
    return {"compare": ("compare.csv", csv_text(
                ("metric", "replica", "empirical", "ci95", "rel_gap"), rows)),
            "summary": ("compare_summary.txt", "\n".join(lines) + "\n")}


def run_antenna_saving(cfg: ExperimentConfig) -> dict:
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
    return {"saving": ("antenna_saving.csv", csv_text(SAVING_COLUMNS, rows))}


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#e377c2")


def plot_svg(curves, title: str) -> str:
    """Deterministic SVG: one polyline per curve (name, xs, ys), axes in
    inverse load and distortion dB, legend from the names. The names and
    the title are written as given, so they must hold no XML markup.
    Identical curves give identical bytes."""
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
    return "\n".join(parts) + "\n"


# mode -> runner; each runner returns {name: (file name, text)} of its files
_RUNNERS = {
    "replica": run_replica_point,
    "sweep": run_replica_sweep,
    "simulate": run_simulate,
    "compare": run_compare,
    "saving": run_antenna_saving,
}


def run(cfg: ExperimentConfig) -> dict:
    """Validate cfg, make the directory cfg.out ("": the working directory)
    before the mode runs, then write the mode's files and, last,
    manifest.cfg into it; returns {name: path} of every file written."""
    validate_config(cfg)
    try:
        os.makedirs(cfg.out or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    files = _RUNNERS[cfg.mode](cfg)
    files["manifest"] = ("manifest.cfg", manifest_text(cfg))
    return {name: _write(os.path.join(cfg.out, file_name), text)
            for name, (file_name, text) in files.items()}
