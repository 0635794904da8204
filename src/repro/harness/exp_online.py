"""Extension experiment: submission-time prediction accuracy.

The paper's models are evaluated retrospectively — features computed from
each transfer's actual lifetime, including competitors that arrived *after*
it started.  A scheduler, though, needs predictions at submission time,
when only the currently active transfers are known.

This experiment replays the production log: for every test transfer on an
edge it (a) reconstructs the active-transfer view at the submission
instant (:meth:`repro.serve.ActiveSet.from_log_window`), (b) estimates
the Table 2 features under the persistence assumption and (c) runs the
fitted model through the duration fix-point
(:class:`repro.serve.BatchOnlinePredictor`).  Comparing the resulting
MdAPE against the retrospective MdAPE quantifies the price of not knowing
the future — an honest bound for the scheduling use case the paper
motivates.
"""

from __future__ import annotations

import numpy as np

from repro.core.analytical import threshold_mask
from repro.core.pipeline import GBTSettings, fit_edge_model, select_heavy_edges
from repro.harness.result import ExperimentResult
from repro.harness.runners import ProductionStudy
from repro.ml.metrics import absolute_percentage_errors
from repro.serve import ActiveSet, BatchOnlinePredictor
from repro.sim.gridftp import TransferRequest

__all__ = ["run"]


def run(
    study: ProductionStudy,
    n_edges: int = 5,
    min_samples: int = 300,
    threshold: float = 0.5,
    max_eval: int = 150,
    seed: int = 0,
) -> ExperimentResult:
    log = study.log.sorted_by_start()
    features = study.features
    edges = select_heavy_edges(study.log, min_samples=min_samples,
                               threshold=threshold)[:n_edges]
    if not edges:
        raise ValueError("no heavy edges available")
    mask = threshold_mask(study.log, threshold)

    rows_out = []
    for src, dst in edges:
        result = fit_edge_model(
            features, src, dst, model="gbt", threshold=threshold,
            seed=seed, gbt=GBTSettings(),
        )
        edge_rows = features.edge_rows(src, dst)
        edge_rows = edge_rows[mask[edge_rows]]
        # Evaluate on the most recent transfers (a scheduler predicts the
        # future, so evaluate on the log's tail).
        order = np.argsort(features.store.column("ts")[edge_rows])
        eval_rows = edge_rows[order][-max_eval:]

        data = features.store.raw()
        actual = []
        predicted = []
        for i in eval_rows:
            ts = float(data["ts"][i])
            req = TransferRequest(
                src=src,
                dst=dst,
                total_bytes=float(data["nb"][i]),
                n_files=int(data["nf"][i]),
                n_dirs=int(data["nd"][i]),
                concurrency=int(data["c"][i]),
                parallelism=int(data["p"][i]),
            )
            active = ActiveSet.from_log_window(
                log, now=ts, exclude_transfer_id=int(data["transfer_id"][i])
            )
            predictor = BatchOnlinePredictor(result, active)
            predicted.append(predictor.predict(req, ts))
            actual.append(features.y[i])
        actual = np.array(actual)
        predicted = np.array(predicted)
        online_errors = absolute_percentage_errors(actual, predicted)
        rows_out.append(
            [
                src,
                dst,
                int(eval_rows.size),
                result.mdape,
                float(np.median(online_errors)),
                float(np.percentile(online_errors, 75)),
            ]
        )

    retro = np.array([r[3] for r in rows_out])
    online = np.array([r[4] for r in rows_out])
    return ExperimentResult(
        experiment_id="online",
        title="Submission-time (online) vs retrospective prediction accuracy",
        headers=["src", "dst", "n eval", "retrospective MdAPE %",
                 "online MdAPE %", "online p75 %"],
        rows=rows_out,
        metrics={
            "median_retrospective_mdape": float(np.median(retro)),
            "median_online_mdape": float(np.median(online)),
            "online_penalty_factor": float(np.median(online / np.maximum(retro, 1e-9))),
        },
        notes=[
            "Extension beyond the paper: retrospective features see the "
            "whole lifetime (including future arrivals); online features "
            "only see what is active at submission.  The gap is the price "
            "of scheduling-time prediction.",
        ],
    )
