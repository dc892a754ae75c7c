#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (n = 40, four trials, a 2-point
curve), in well under a minute.

    python3 perfbench/selftest.py

For every workload it captures a reference, then checks that an untraced
and a traced run pass the gate and print every metric `BENCHMARK.json`
names, with its unit; that the layer self times add up to the traced wall
time; and that perturbing one reference value trips the gate. Finally it
checks that the benchmark refuses to run in a directory without the
package source. Exits 0 when every check holds.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import run
import workloads

SEED = 3


def _metrics_ok(result: dict, spec: list) -> list:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    problems = [f"missing {name}" for name in want if name not in got]
    problems += [f"unexpected {name}" for name in got if name not in want]
    problems += [f"{name}: unit {got[name]['unit']!r}, BENCHMARK.json says {unit!r}"
                 for name, unit in want.items()
                 if name in got and got[name]["unit"] != unit]
    return problems


def _perturbed(reference: dict) -> dict:
    """The reference with one numeric value moved by one part in a
    thousand, far outside the gate's tolerance. The self-test runs at the
    reference seed, so every value is compared."""
    bad = copy.deepcopy(reference)
    key = next(k for k, v in sorted(bad["values"].items())
               if isinstance(v, float) and v != 0.0 and math.isfinite(v))
    bad["values"][key] *= 1.001
    return bad


def _refuses_without_source(work) -> list:
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           workloads.NAMES[0], "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    problems = []
    if proc.returncode == 0:
        problems.append("exit status 0 without the package source")
    if proc.stdout.strip():
        problems.append(f"printed a result without the package source: {proc.stdout!r}")
    return problems


def main() -> int:
    run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.WORK / "selftest"
    problems = []
    for name in workloads.NAMES:
        workload = workloads.build(name, tiny=True)
        wdir = work / name
        reference = run.capture_reference(workload, SEED, wdir)
        plain = run.measure(workload, SEED, 0.5, False, reference, wdir)
        traced = run.measure(workload, SEED, 0.5, True, reference, wdir)
        for label, result, metrics in (("untraced", plain, spec["end_to_end"]),
                                       ("traced", traced, spec["per_layer"])):
            if not result["correct"]:
                problems.append(f"{name} {label}: gate failed: "
                                f"{[(n, d) for n, ok, d in result['checks'] if not ok]}")
            problems += [f"{name} {label}: {p}" for p in _metrics_ok(result, metrics)]
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in ("experiments", "simulator",
                                                        "replica", "numerics"))
        if abs(layers - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
            problems.append(f"{name}: self times sum to {layers}, traced wall "
                            f"{m['trace.wall_s']}")
        if (m["simulator.self_s"] > 0) != name.startswith("mc_"):
            problems.append(f"{name}: simulator self time {m['simulator.self_s']}")
        broken = run.measure(workload, SEED, 0.5, False, _perturbed(reference), wdir)
        if broken["correct"] or broken["failed"] < 1:
            problems.append(f"{name}: a perturbed reference value did not trip the gate")
        print(f"selftest {name}: done", file=sys.stderr)
    problems += _refuses_without_source(work)
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
