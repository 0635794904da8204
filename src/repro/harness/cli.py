"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments                      # run everything (full study)
    repro-experiments table1 figure11     # a subset
    repro-experiments --quick figure11    # 4-day study (fast, smaller Ns)
    repro-experiments --list
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec.engine import resolve_workers
from repro.harness.registry import (
    EXPERIMENTS,
    QUICK_OVERRIDES,
    run_experiment,
    run_experiments,
)
from repro.harness.runners import StudyConfig, load_production_study

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of 'Explaining Wide "
        "Area Data Transfer Performance' (HPDC'17) over the simulated fabric.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: all). See --list.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the 4-day study (faster; per-edge sample counts shrink)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore the on-disk study cache"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan independent experiments out over this many worker "
        "processes (default: REPRO_WORKERS, else 1; needs the study cache)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for spec in EXPERIMENTS.values():
            kind = "study" if spec.needs_study else "standalone"
            print(f"{spec.experiment_id:<14} [{kind}] {spec.description}")
        return 0

    ids = args.experiments or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2

    config = StudyConfig.quick() if args.quick else StudyConfig()
    workers = resolve_workers(args.workers)
    study = None
    if workers == 1 and any(EXPERIMENTS[i].needs_study for i in ids):
        t0 = time.time()
        print(f"# loading production study ({config.cache_key}) ...")
        study = load_production_study(config, use_cache=not args.no_cache)
        print(
            f"# study ready: {len(study.log)} transfers in "
            f"{time.time() - t0:.1f}s\n"
        )

    overrides = QUICK_OVERRIDES if args.quick else {}

    failures = 0
    if workers > 1:
        if args.no_cache:
            print("warning: --workers needs the study cache; ignoring "
                  "--no-cache", file=sys.stderr)
        runs = run_experiments(
            ids, config=config, workers=workers, overrides=overrides
        )
        for run in runs:
            if not run.ok:
                failures += 1
                print(f"== {run.experiment_id}: FAILED: {run.error}\n")
                continue
            print(run.result.render())
            print(f"(elapsed {run.elapsed_s:.1f}s)\n")
        return 1 if failures else 0

    for eid in ids:
        t0 = time.time()
        try:
            result = run_experiment(eid, study=study, **overrides.get(eid, {}))
        except Exception as exc:  # keep going; report at the end
            failures += 1
            print(f"== {eid}: FAILED: {exc}\n")
            continue
        print(result.render())
        print(f"(elapsed {time.time() - t0:.1f}s)\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
