"""Workload definitions, output parsing and the correctness gate.

Each workload is a fixed list of `lse` invocations. The benchmark writes one
INI config per invocation (the program sees nothing else), runs them in
order through `cli.main`, and parses the files the program wrote. A repeat
is one pass over the list; repeats of a run use identical configs, so every
repeat must write byte-identical files.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# Reference outputs under reference/ were captured at this seed; at any
# other seed only the seed-independent values can be compared.
DEFAULT_SEED = 1

# Stated tolerance of the reference comparison. A different OpenBLAS thread
# count moves results in the last bit (≈1e-16 relative); anything beyond
# 1e-6 is a change of behaviour.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# README acceptance bounds for replica vs Monte Carlo at n = 400.
D_REL_BOUND = 0.10
P_ABS_BOUND = 0.05
ETA_ABS_BOUND = 0.05


@dataclass(frozen=True)
class Invocation:
    name: str    # label and output subdirectory
    mode: str    # lse mode
    config: str  # INI text without the [run] section

    def config_text(self, seed: int) -> str:
        return f"[run]\nseed = {seed}\n\n{self.config}"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "compare", "simulate" or "curves"
    invocations: tuple
    n: int = 0                # Monte Carlo size (mc_* only)
    trials: int = 0
    readme_bounds: bool = True
    rows: dict = field(default_factory=dict)     # curves: CSV rows per invocation
    clamped: dict = field(default_factory=dict)  # curves: peak-clamped rows


def _mc_config(n: int, trials: int, penalty: str) -> str:
    return (f"[system]\nalpha_inverse = 2.0\nlambda_s = 1.0\n\n"
            f"[penalty]\n{penalty}\n"
            f"[simulation]\nn = {n}\ntrials = {trials}\n")


_SPARSE_FULL = "support = full\np_target = 0.5\neta_target = 0.5\n"
_PEAK_DENSE = ("support = disk\np_target = 0.5\neta_target = 1.0\n"
               "papr_db_target = 3.0\n")

# the replica curves of run_fig1.py, run_fig2.py and run_antenna_saving.py
_FIG1 = ("[system]\nalpha_inverse = {grid}\nlambda_s = 1.0\n\n"
         "[penalty]\nsupport = full\np_target = 0.5\neta_targets = {etas}\n")
_FIG2 = ("[system]\nalpha_inverse = {grid}\nlambda_s = 1.0\n\n"
         "[penalty]\nsupport = disk\np_target = 0.5\neta_targets = 1.0,0.5\n"
         "papr_db_targets = 0,3,8\n")
_SAVING_FULL = ("[system]\nalpha_inverse = 2.0\nlambda_s = 1.0\n\n"
                "[penalty]\nsupport = full\np_target = 0.5\neta_targets = {etas}\n")
_SAVING_PEAK = ("[system]\nalpha_inverse = 1.1,1.2\nlambda_s = 1.0\n\n"
                "[penalty]\nsupport = disk\np_target = 0.5\neta_targets = 0.5\n"
                "papr_db_targets = 0,3,8\n")

NAMES = ("mc_sparse_full", "mc_peak_dense", "replica_curves")


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload at benchmark size, or at self-test size (n = 40,
    four trials, a 2-point curve) when `tiny` is set."""
    if name == "mc_sparse_full":
        n, trials = (40, 4) if tiny else (400, 16)
        return Workload(name, "compare",
                        (Invocation("compare", "compare",
                                    _mc_config(n, trials, _SPARSE_FULL)),),
                        n=n, trials=trials, readme_bounds=not tiny)
    if name == "mc_peak_dense":
        n, trials = (40, 4) if tiny else (400, 24)
        return Workload(name, "simulate",
                        (Invocation("simulate", "simulate",
                                    _mc_config(n, trials, _PEAK_DENSE)),),
                        n=n, trials=trials, readme_bounds=not tiny)
    if name == "replica_curves":
        if tiny:
            invs = (Invocation("fig1", "sweep", _FIG1.format(grid="1.5,2.0", etas="0.5")),
                    Invocation("saving_full", "saving", _SAVING_FULL.format(etas="0.5")))
            return Workload(name, "curves", invs,
                            rows={"fig1": 2, "saving_full": 1},
                            clamped={"fig1": 0, "saving_full": 0})
        grid = "1.0:0.1:2.8"  # 19 loads, the same values as the scripts' grid
        invs = (Invocation("fig1", "sweep", _FIG1.format(grid=grid, etas="1.0,0.5,0.3")),
                Invocation("fig2", "sweep", _FIG2.format(grid=grid)),
                Invocation("saving_full", "saving", _SAVING_FULL.format(etas="0.5,0.3")),
                Invocation("saving_peak", "saving", _SAVING_PEAK))
        return Workload(name, "curves", invs,
                        rows={"fig1": 57, "fig2": 114, "saving_full": 2,
                              "saving_peak": 6},
                        clamped={"fig1": 0, "fig2": 38, "saving_full": 0,
                                 "saving_peak": 4})
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_outputs(files: dict) -> dict:
    """Flatten the written files into {"<invocation>/<file>:<key>": value}.

    `files` maps invocation name to the paths it reported. Text reports give
    one key per line, CSVs one key per cell (row index and column name),
    manifests one key per line outside the [versions] block.
    """
    values = {}
    for inv, paths in files.items():
        for path in paths:
            path = Path(path)
            prefix = f"{inv}/{path.name}:"
            if path.suffix == ".csv":
                with open(path, newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                header = rows[0]
                for i, row in enumerate(rows[1:]):
                    for col, cell in zip(header, row):
                        values[f"{prefix}{i}:{col}"] = _value(cell)
                continue
            section = ""
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.startswith("["):
                    section = line.strip("[]")
                elif " = " in line and section != "versions":
                    key, raw = line.split(" = ", 1)
                    values[f"{prefix}{section + '.' if section else ''}{key}"] = _value(raw)
    return values


def csv_rows(values: dict, inv: str, filename_prefix: str) -> list:
    """Rows (as {column: value}) of the CSVs of one invocation whose file
    name starts with `filename_prefix`, in file and row order."""
    rows: dict = {}
    pat = re.compile(rf"^{re.escape(inv)}/({re.escape(filename_prefix)}[^:]*\.csv):(\d+):(.+)$")
    for key, value in values.items():
        m = pat.match(key)
        if m:
            rows.setdefault((m.group(1), int(m.group(2))), {})[m.group(3)] = value
    return [rows[k] for k in sorted(rows)]


def _report(workload: Workload) -> str:
    """Key prefix of a Monte Carlo workload's text report."""
    name = "compare_summary" if workload.kind == "compare" else "simulation"
    return f"{workload.invocations[0].name}/{name}.txt:"


def items(workload: Workload) -> int:
    """Units of work one repeat completes: Monte Carlo trials, or CSV rows
    (the gate checks that the row counts are the expected ones)."""
    return workload.trials if workload.kind != "curves" else sum(workload.rows.values())


def objective_mean(workload: Workload, values: dict) -> float:
    """Mean penalized objective.

    mc_*: per Monte Carlo trial, k·D + n(λ·p + λ0·η), from the report means
    (the objective is linear in them). replica_curves: the large-system
    objective per antenna, α·D + λ·p + λ0·η, averaged over the sweep rows
    with status ok and finite weights.
    """
    if workload.kind != "curves":
        report = _report(workload)
        k = round(workload.n / float(config_value(workload, "alpha_inverse")))
        return (k * values[report + "distortion_mean"]
                + workload.n * (values[report + "lambda"] * values[report + "power_mean"]
                                + values[report + "lambda0"] * values[report + "eta_mean"]))
    total, count = 0.0, 0
    for inv in workload.invocations:
        for row in csv_rows(values, inv.name, "sweep_"):
            # constant-envelope rows have no representable weights (nan)
            if row["status"] != "ok" or not math.isfinite(row["lambda"] + row["lambda0"]):
                continue
            d = 10.0 ** (row["distortion_db"] / 10.0)
            total += (d / row["alpha_inverse"] + row["lambda"] * row["p"]
                      + row["lambda0"] * row["eta"])
            count += 1
    return total / count


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

_SEEDED = re.compile(r"/manifest\.cfg:run\.seed$")
# values that do not depend on the seed: calibration, the replica column,
# labels and the echoed configuration
_SEED_INVARIANT = re.compile(
    r"(:(status|lambda|lambda0|trials)$|compare\.csv:\d+:(metric|replica|status)$"
    r"|manifest\.cfg:)")


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def compare_reference(workload: Workload, values: dict, reference: dict,
                      seed: int) -> list:
    """Checks against the captured reference values: [(name, ok, detail)].

    One check per output file. At the reference seed every value is
    compared; at other seeds only the seed-independent ones (all of them for
    replica_curves, which uses no randomness).
    """
    if reference["configs"] != {inv.name: inv.config for inv in workload.invocations}:
        return [("reference.configs", False,
                 "workload configs differ from those the reference was captured with")]
    full = seed == reference["seed"] or workload.kind == "curves"
    by_file: dict = {}
    for key in set(reference["values"]) | set(values):
        if _SEEDED.search(key) or not (full or _SEED_INVARIANT.search(key)):
            continue
        by_file.setdefault(key.split(":", 1)[0], []).append(key)
    checks = []
    for fname in sorted(by_file):
        bad = [key for key in sorted(by_file[fname])
               if key not in values or key not in reference["values"]
               or not _close(values[key], reference["values"][key])]
        detail = "" if not bad else (
            f"{len(bad)} values differ, first {bad[0]}: "
            f"got {values.get(bad[0])!r}, reference {reference['values'].get(bad[0])!r}")
        checks.append((f"reference {fname}", not bad, detail))
    return checks


def _bound(name: str, got: float, want: float, tol: float, rel: bool = False):
    gap = abs(got - want) / abs(want) if rel else abs(got - want)
    return (name, gap <= tol,
            f"{got:.6g} vs {want:.6g}: {'relative ' if rel else ''}gap {gap:.4g} > {tol}")


def acceptance_checks(workload: Workload, values: dict) -> list:
    """Checks that hold at every seed: [(name, ok, detail)].

    compare: the README bounds, replica vs empirical distortion within 10 %,
    power and active fraction within 0.05. simulate: power and active
    fraction within 0.05 of the calibration targets, and no magnitude above
    the peak cap. curves: the row count of each CSV and the expected number
    of peak-clamped rows (error rows are counted by `error_rows`).
    """
    checks = []
    if workload.kind == "curves":
        for inv in workload.invocations:
            rows = csv_rows(values, inv.name, "")
            checks.append((f"{inv.name} rows", len(rows) == workload.rows[inv.name],
                           f"{len(rows)} rows, expected {workload.rows[inv.name]}"))
            clamped = sum(r["status"] == "peak-clamped" for r in rows)
            checks.append((f"{inv.name} peak-clamped rows",
                           clamped == workload.clamped[inv.name],
                           f"{clamped}, expected {workload.clamped[inv.name]}"))
        return checks

    inv = workload.invocations[0].name
    report = _report(workload)
    checks.append(("status", values.get(report + "status") == "ok",
                   f"status {values.get(report + 'status')!r}"))
    checks.append(("trials", values.get(report + "trials") == workload.trials,
                   f"{values.get(report + 'trials')} trials"))
    hist = csv_rows(values, inv, "histogram")
    if hist:
        mass = sum(r["mass"] for r in hist)
        checks.append(("histogram mass", abs(mass - 1.0) <= 1e-9, f"sums to {mass!r}"))
    if not workload.readme_bounds:
        return checks
    if workload.kind == "compare":
        rows = {r["metric"]: r for r in csv_rows(values, inv, "compare")}
        d, p, eta = rows["distortion"], rows["power"], rows["eta"]
        checks.append(_bound("distortion vs replica", d["empirical"], d["replica"],
                             D_REL_BOUND, rel=True))
        checks.append(_bound("power vs replica", p["empirical"], p["replica"], P_ABS_BOUND))
        checks.append(_bound("eta vs replica", eta["empirical"], eta["replica"],
                             ETA_ABS_BOUND))
        return checks
    p_target = float(config_value(workload, "p_target"))
    eta_target = float(config_value(workload, "eta_target"))
    peak = 10.0 ** (float(config_value(workload, "papr_db_target")) / 10.0) * p_target
    checks.append(_bound("power vs target", values[report + "power_mean"], p_target,
                         P_ABS_BOUND))
    checks.append(_bound("eta vs target", values[report + "eta_mean"], eta_target,
                         ETA_ABS_BOUND))
    top = hist[-1]["bin_left"] + (hist[-1]["bin_left"] - hist[-2]["bin_left"])
    checks.append(("peak cap", top ** 2 <= peak * (1 + 1e-9),
                   f"largest magnitude² {top ** 2:.6g} above the cap {peak:.6g}"))
    return checks


def config_value(workload: Workload, key: str) -> str:
    """A value of the first invocation's config."""
    m = re.search(rf"^{key} = (.+)$", workload.invocations[0].config, re.M)
    return m.group(1)


def error_rows(workload: Workload, values: dict) -> int:
    """CSV rows whose status reports an error."""
    return sum(str(r.get("status", "")).startswith("error")
               for inv in workload.invocations for r in csv_rows(values, inv.name, ""))
