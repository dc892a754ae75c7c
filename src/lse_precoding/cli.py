"""Command-line entry point.

    lse <mode> [--config FILE] [--set section.key=value ...]
               [--out DIR] [--seed N]

Modes: replica (with calibration targets, the calibration report), sweep
(its CSVs and their SVG figure), simulate, compare, saving. `--set` items
override file values; the mode, `--out` and `--seed` then override
`[run] mode`, `out` and `seed`. Every run writes a manifest next to its
outputs that reproduces the run byte for byte. Exit status 2 means the
configuration was rejected or could not be read (missing, a directory,
not UTF-8), or an output could not be written; 1 that a solver gave up on
it (no fixed point found, or the targets are not achievable).
"""
from __future__ import annotations

import argparse
import sys

from .experiments import (_RUNNERS, ConfigError, ExperimentConfig, _assign,
                          apply_overrides, load_config, run)
from .replica import NoConvergenceError, NotAchievableError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lse",
        description="Replica predictions and Monte Carlo validation for "
                    "penalized least-square precoders.")
    parser.add_argument("mode", choices=tuple(_RUNNERS))
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="section.key=value",
                        help="override a config value (repeatable)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", help="master seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = apply_overrides(cfg, args.overrides)
        for key, raw in (("mode", args.mode), ("out", args.out), ("seed", args.seed)):
            if raw is not None:  # as typed, after every --set
                _assign(cfg, "run", key, raw)
        written = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, NotAchievableError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
