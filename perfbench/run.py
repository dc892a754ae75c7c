#!/usr/bin/env python3
"""Benchmark of the lse-precoding toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --write-reference

Run from a checkout of the repository; the package is imported from its
`src/` directory. The workload's `lse` invocations run in this process
through `cli.main`, as one closed-loop caller: a repeat starts only after
the previous one has finished, until `--seconds` have been measured. Every
repeat gets the same generated configs, whose `[run] seed` is `--seed`.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced repeats and reports the per-layer metrics; the spans go
to `.bench_build/perfbench/<workload>/spans-seed<N>.jsonl`. Either way the
outputs pass the correctness gate (reference values at the reference seed,
the README acceptance bounds, byte-identical repeats), the last line of
stdout is one JSON object, and a human-readable summary with the run
metadata goes to stderr and to `.bench_build/perfbench/results/`.

`--write-reference` runs one repeat and stores its output values as the
reference the gate compares against.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy is imported. With OpenBLAS's default of
# one thread per core, any other load on a small shared host stalls each
# matrix product on a descheduled thread: on 2 vCPUs with one core busy,
# mc_sparse_full repeats ran 3-4x slower and erratic, against 1.2x with one
# thread, so the timings measured the scheduler. At n = 400 the second
# thread gains nothing on an idle box. The values found go to the metadata.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
THREADS_FOUND = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import tracing
import workloads
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "objective_mean": "1"}
PER_LAYER = {
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "experiments.self_s": "s", "simulator.self_s": "s", "replica.self_s": "s",
    "numerics.self_s": "s",
    "simulator.warm_start_s": "s", "simulator.greedy_drops": "count",
    "simulator.greedy_gflop_per_s": "GFLOP/s",
    "simulator.descent_s": "s", "simulator.ccd_sweeps": "count",
    "simulator.ccd_converged_frac": "frac",
    "simulator.generate_problem_s": "s", "simulator.measure_s": "s",
    "simulator.monte_carlo.self_s": "s",
    "replica.calibrate_s": "s", "replica.calibrate.calls": "count",
    "replica.solve_fixed_point_s": "s", "replica.solve_fixed_point.calls": "count",
    "replica.fixed_point_iterations": "count", "replica.solves_per_point": "count",
    "replica.random_tas_baseline_s": "s", "replica.solve_constant_envelope.calls": "count",
    "replica.decoupled_sample_s": "s", "numerics.ks_distance_s": "s",
    "experiments.bytes_written": "B",
}
MIN_REPEATS = 3         # untraced repeats per untraced run
MIN_TRACE_REPEATS = 2   # of each kind per traced run
SETUP_LAUNCHES = 7      # timed fresh interpreters behind setup_s

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import lse_precoding.cli; "
               "from lse_precoding.experiments import load_config; load_config(sys.argv[2])")


class BenchmarkError(Exception):
    """The benchmark cannot run here."""


def import_package():
    """Import lse_precoding from this checkout's src/, never from elsewhere."""
    if not (SRC / "lse_precoding" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'lse_precoding'}; "
                             "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lse_precoding
    if SRC.resolve() not in Path(lse_precoding.__file__).resolve().parents:
        raise BenchmarkError(f"lse_precoding imported from {lse_precoding.__file__}")
    return lse_precoding


def write_configs(workload: Workload, seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inv in workload.invocations:
        path = work / f"{inv.name}.cfg"
        path.write_text(inv.config_text(seed), encoding="utf-8")
        paths[inv.name] = path
    return paths


def run_repeat(workload: Workload, configs: dict, out: Path, tracer=None):
    """One pass over the workload's invocations; returns the wall time spent
    in `cli.main` and the files each invocation reported."""
    from lse_precoding import cli
    wall = 0.0
    files = {}
    for inv in workload.invocations:
        argv = [inv.mode, "--config", str(configs[inv.name]), "--out", str(out / inv.name)]
        buf = io.StringIO()
        root = tracer.span(tracing.ROOT, "experiments") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), root:
            rc = cli.main(argv)
        wall += time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"lse {' '.join(argv)} exited with {rc}")
        files[inv.name] = [line.split(": ", 1)[1] for line in buf.getvalue().splitlines()]
    return wall, files


def setup_launch(config: Path) -> float:
    """Time for a fresh interpreter to import the package and parse `config`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(config)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def capture_reference(workload: Workload, seed: int, work: Path) -> dict:
    configs = write_configs(workload, seed, work)
    _, files = run_repeat(workload, configs, work / "out")
    return {"seed": seed,
            "configs": {inv.name: inv.config for inv in workload.invocations},
            "values": workloads.parse_outputs(files)}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, work: Path) -> dict:
    """Run the workload until `seconds` of repeats are measured, and gate
    its outputs.

    Untraced, SETUP_LAUNCHES `setup_s` launches are spread evenly between
    the repeats (and topped up at the end), so that set-up is sampled over
    the same stretch of machine time as the repeats. Returns the result object
    (correct, attempted, failed, metrics) plus the checks and timings
    behind it.
    """
    configs = write_configs(workload, seed, work)
    setup_config = configs[workload.invocations[0].name]
    out = work / "out"
    tracer = tracing.Tracer() if trace else None
    setup = []
    if not trace:
        setup_launch(setup_config)  # untimed: fills the page and bytecode caches

    attempted = failed = 0
    checks = []
    plain = []    # untraced repeat walls
    traced = {}   # traced run id -> repeat wall
    bytes_written = {}
    first = None
    values = {}
    measured = 0.0
    run = 0
    while True:
        walls = plain + list(traced.values())
        enough = (len(plain) >= MIN_TRACE_REPEATS and len(traced) >= MIN_TRACE_REPEATS
                  if trace else len(plain) >= MIN_REPEATS)
        if enough and measured + statistics.median(walls) > seconds:
            break
        is_traced = trace and run % 2 == 1
        try:
            with tracer.tracing(run) if is_traced else contextlib.nullcontext():
                wall, files = run_repeat(workload, configs, out,
                                         tracer if is_traced else None)
            # spread the set-up launches evenly over the measured time
            if not trace and len(setup) * seconds <= (measured + wall) * SETUP_LAUNCHES:
                setup.append(setup_launch(setup_config))
        except Exception:
            traceback.print_exc()
            attempted += workloads.items(workload)
            failed += workloads.items(workload)
            break
        measured += wall
        blobs = {p: Path(p).read_bytes() for paths in files.values() for p in paths}
        if first is None:
            first = blobs
            values = workloads.parse_outputs(files)
            checks += workloads.compare_reference(workload, values, reference, seed)
            checks += workloads.acceptance_checks(workload, values)
        else:
            checks.append((f"repeat {run} identical to repeat 0", blobs == first,
                           "output files differ between repeats"))
        attempted += workloads.items(workload)
        failed += workloads.error_rows(workload, values)
        if is_traced:
            traced[run] = wall
            bytes_written[run] = sum(len(b) for b in blobs.values())
        else:
            plain.append(wall)
        run += 1

    if plain and not trace:
        try:
            while len(setup) < SETUP_LAUNCHES:
                setup.append(setup_launch(setup_config))
        except subprocess.CalledProcessError as exc:
            checks.append(("setup launch", False, str(exc)))
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    metrics = {}
    if not trace and plain and len(setup) >= SETUP_LAUNCHES:
        # the mean repeat, not the median: on a box whose speed drifts
        # within minutes the mean spreads less from run to run
        wall = statistics.fmean(plain)
        metrics = {"wall_s": wall,
                   "items_per_s": workloads.items(workload) / wall,
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "objective_mean": workloads.objective_mean(workload, values)}
    elif trace and plain and traced:
        per_run = {}
        for r in traced:
            spans = [s for s in tracer.spans if s.run == r]
            per_run[r] = {**tracing.repeat_metrics(spans, workload.trials),
                          "experiments.bytes_written": bytes_written[r]}
        # every figure from the median traced repeat, so that they add up
        ranked = sorted(per_run.values(), key=lambda m: m["trace.wall_s"])
        metrics = dict(ranked[(len(ranked) - 1) // 2])
        metrics["trace.overhead_s"] = (statistics.median(traced.values())
                                       - statistics.median(plain))
        metrics.update(tracing.warm_start_split(tracer))
        tracer.write(work / f"spans-seed{seed}.jsonl")
    if metrics:
        bad = sorted(name for name, v in metrics.items() if not math.isfinite(v))
        attempted += 1
        failed += bool(bad)
        checks.append(("metrics finite", not bad, f"not finite: {bad}"))
    units = PER_LAYER if trace else END_TO_END
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items() if name in metrics},
            "checks": checks,
            "timings": {"untraced_s": plain, "traced_s": list(traced.values()),
                        "setup_s": setup}}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    path = ROOT / ".git" / ref
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or None


def run_metadata(seed: int) -> dict:
    import numpy as np
    import scipy
    import lse_precoding
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "lse_precoding": lse_precoding.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "threads_found": THREADS_FOUND,
        "threads_used": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(), "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store one repeat's outputs as the reference values")
    args = ap.parse_args(argv)
    try:
        import_package()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload)
    work = WORK / workload.name
    ref_path = HERE / "reference" / f"{workload.name}.json"
    if args.write_reference:
        ref = capture_reference(workload, args.seed, work)
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"perfbench: wrote {ref_path.relative_to(ROOT)}", file=sys.stderr)
        return 0
    reference = json.loads(ref_path.read_text())

    meta = run_metadata(args.seed)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), reference, work)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}

    report = [f"perfbench {workload.name} seed={args.seed} trace={args.trace}",
              "meta " + json.dumps(meta, sort_keys=True),
              f"fail_frac = {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']})"]
    report += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in line["metrics"].items()]
    report += [f"FAILED {name}: {detail}" for name, ok, detail in result["checks"] if not ok]
    print("\n".join(report), file=sys.stderr)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**line, "meta": meta, "timings": result["timings"],
                    "checks": [{"name": n, "ok": ok, "detail": "" if ok else d}
                               for n, ok, d in result["checks"]]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
