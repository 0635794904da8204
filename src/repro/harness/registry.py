"""Experiment registry: table/figure id -> runner.

Experiments marked ``needs_study`` consume the shared production study
(built/cached by :func:`repro.harness.runners.load_production_study`);
the rest are self-contained.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable

from repro.harness import (
    exp_figure3,
    exp_figure4,
    exp_figure5,
    exp_figure6,
    exp_figure8,
    exp_figure13,
    exp_lmt,
    exp_models,
    exp_online,
    exp_overview,
    exp_perfsonar,
    exp_table1,
    exp_table5,
    exp_tunables,
    exp_tables34,
)
from repro.harness.result import ExperimentResult
from repro.harness.runners import ProductionStudy, StudyConfig, load_production_study

__all__ = [
    "EXPERIMENTS",
    "QUICK_OVERRIDES",
    "ExperimentSpec",
    "ExperimentRun",
    "run_experiment",
    "run_experiments",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    experiment_id: str
    description: str
    runner: Callable
    needs_study: bool


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "overview", "Log population statistics (§1-§2)", exp_overview.run, True
        ),
        ExperimentSpec(
            "table1", "ESnet subsystem maxima and Eq. 1", exp_table1.run, False
        ),
        ExperimentSpec(
            "figure3", "Rate vs relative external load (testbed)",
            exp_figure3.run, False,
        ),
        ExperimentSpec(
            "figure4", "Aggregate rate vs concurrency + Weibull",
            exp_figure4.run, True,
        ),
        ExperimentSpec(
            "figure5", "File characteristics vs performance", exp_figure5.run, True
        ),
        ExperimentSpec(
            "figure6", "Size vs distance vs rate", exp_figure6.run, True
        ),
        ExperimentSpec(
            "perfsonar", "Eq. 1 with perfSONAR probes (§3.2)",
            exp_perfsonar.run, True,
        ),
        ExperimentSpec(
            "table3", "Edge length statistics", exp_tables34.run_table3, True
        ),
        ExperimentSpec(
            "table4", "Edge type statistics", exp_tables34.run_table4, True
        ),
        ExperimentSpec(
            "table5", "Pearson CC vs MIC per feature", exp_table5.run, True
        ),
        ExperimentSpec(
            "figure8", "Rate vs load on production edges", exp_figure8.run, True
        ),
        ExperimentSpec(
            "figure9", "Linear-model feature significance grid",
            exp_models.run_figure9, True,
        ),
        ExperimentSpec(
            "figure10", "Error distributions LR vs XGB", exp_models.run_figure10, True
        ),
        ExperimentSpec(
            "figure11", "Per-edge MdAPE LR vs XGB", exp_models.run_figure11, True
        ),
        ExperimentSpec(
            "figure12", "XGB feature importance grid", exp_models.run_figure12, True
        ),
        ExperimentSpec(
            "figure13", "MdAPE vs Rmax threshold", exp_figure13.run, True
        ),
        ExperimentSpec(
            "single_model", "One model for all edges (§5.4)",
            exp_models.run_single_model, True,
        ),
        ExperimentSpec(
            "lmt", "LMT storage-monitoring study (§5.5.2)", exp_lmt.run, False
        ),
        ExperimentSpec(
            "online",
            "Submission-time vs retrospective prediction (extension)",
            exp_online.run,
            True,
        ),
        ExperimentSpec(
            "tunables",
            "Learning C/P from a calibration sweep (extension)",
            exp_tunables.run,
            False,
        ),
    ]
}

# ``--quick`` (4-day study) runs lower the per-edge sample requirement so
# every experiment still has edges to work with.
QUICK_OVERRIDES: dict[str, dict] = {
    "figure9": {"min_samples": 100},
    "figure10": {"min_samples": 100},
    "figure11": {"min_samples": 100},
    "figure12": {"min_samples": 100},
    "single_model": {"min_samples": 100},
    "figure13": {"min_samples_at_top": 60},
    "lmt": {"n_test_transfers": 150},
}


def run_experiment(
    experiment_id: str,
    study: ProductionStudy | None = None,
    config: StudyConfig | None = None,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment by id, loading the shared study if required."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    if spec.needs_study:
        study = study or load_production_study(config)
        return spec.runner(study, **kwargs)
    return spec.runner(**kwargs)


@dataclass
class ExperimentRun:
    """Outcome of one experiment in a batch: the result, or the failure."""

    experiment_id: str
    result: ExperimentResult | None
    error: str | None
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.error is None


def _experiment_task(task: dict) -> ExperimentRun:
    """Top-level worker task: run one experiment end to end.

    Each worker loads the study from the on-disk caches (pre-warmed by
    the parent) — cheap thanks to the CSV study cache plus the content-
    addressed feature-matrix cache.  Failures come back as data so one
    broken experiment cannot sink the batch.
    """
    config = StudyConfig(**task["config"]) if task["config"] else None
    start = time.perf_counter()
    try:
        result = run_experiment(
            task["experiment_id"], config=config, **task["kwargs"]
        )
        return ExperimentRun(
            task["experiment_id"], result, None, time.perf_counter() - start
        )
    except Exception as exc:
        return ExperimentRun(
            task["experiment_id"],
            None,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start,
        )


def run_experiments(
    ids: list[str],
    config: StudyConfig | None = None,
    workers: int | None = None,
    overrides: dict[str, dict] | None = None,
    use_cache: bool = True,
    study: ProductionStudy | None = None,
) -> list[ExperimentRun]:
    """Run a batch of experiments, optionally fanned out over workers.

    With ``workers > 1`` (and ``use_cache=True``) the parent warms the
    study and feature-matrix caches once, then independent experiments
    run in parallel worker processes, each reloading the shared study
    from disk.  Results come back in ``ids`` order; per-experiment
    failures are captured in the returned :class:`ExperimentRun`, not
    raised.  ``workers=1`` runs the same batch serially on one shared
    in-memory study — bit-identical results either way, since every
    experiment is a pure function of (study, overrides).
    """
    from repro.exec.engine import parallel_map, resolve_workers

    overrides = overrides or {}
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
    workers = resolve_workers(workers)
    needs_study = [i for i in ids if EXPERIMENTS[i].needs_study]

    if workers > 1 and len(ids) > 1 and use_cache and study is None:
        if needs_study:
            # One simulation + one feature build, cached to disk, shared
            # by every worker.
            load_production_study(config)
        tasks = [
            {
                "experiment_id": eid,
                "config": dataclasses.asdict(config) if config else None,
                "kwargs": overrides.get(eid, {}),
            }
            for eid in ids
        ]
        return parallel_map(
            _experiment_task, tasks, workers=workers, label="experiment"
        )

    if study is None and needs_study:
        study = load_production_study(config, use_cache=use_cache)
    runs = []
    for eid in ids:
        start = time.perf_counter()
        try:
            result = run_experiment(
                eid, study=study, config=config, **overrides.get(eid, {})
            )
            runs.append(
                ExperimentRun(eid, result, None, time.perf_counter() - start)
            )
        except Exception as exc:
            runs.append(
                ExperimentRun(
                    eid,
                    None,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - start,
                )
            )
    return runs
