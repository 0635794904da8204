"""Figure 3: transfer rate vs relative external load on the ESnet testbed.

The paper plots, for four testbed edges, each transfer's rate against its
relative external load (§3.2) and observes a clean decline: with only
Globus competing (no unknown load on the testbed), the max-rate transfer
sits at zero external load.

We generate the same situation: a stream of transfers per edge with random
bursts of competing Globus transfers at the same endpoints, then compute
relative external load from the resulting log exactly as the paper does
(Eq. 2's K features).
"""

from __future__ import annotations

import numpy as np

from repro.core.analytical import relative_external_load
from repro.core.features import build_feature_matrix
from repro.harness.ascii_plot import scatter
from repro.harness.result import ExperimentResult
from repro.sim.gridftp import TransferRequest
from repro.sim.service import TransferService
from repro.sim.testbed import build_esnet_testbed
from repro.sim.units import GB, HOUR
from repro.workload.distributions import DatasetShapeSampler

__all__ = ["run", "EDGES"]

EDGES = [
    ("ANL-DTN", "BNL-DTN"),
    ("CERN-DTN", "BNL-DTN"),
    ("BNL-DTN", "LBL-DTN"),
    ("CERN-DTN", "ANL-DTN"),
]


def _edge_workload(
    src: str, dst: str, n: int, rng: np.random.Generator
) -> list[TransferRequest]:
    """Observed transfers plus bursts of competing Globus traffic."""
    shapes = DatasetShapeSampler(
        median_file_bytes=500e6,
        file_sigma=0.8,
        single_file_prob=0.0,
        median_files=30,
        files_sigma=0.6,
        max_total_bytes=200 * GB,
    )
    requests = []
    t = 0.0
    others = ["ANL-DTN", "BNL-DTN", "CERN-DTN", "LBL-DTN"]
    for i in range(n):
        t += float(rng.uniform(200, 500))
        total, nf, nd = shapes.sample(rng)
        requests.append(
            TransferRequest(
                src=src, dst=dst, total_bytes=total, n_files=nf, n_dirs=nd,
                concurrency=4, parallelism=4, submit_time=t, tag="observed",
            )
        )
        # Competing Globus transfers: outgoing at src and incoming at dst.
        for k in range(int(rng.integers(0, 6))):
            if rng.uniform() < 0.5:
                c_src, c_dst = src, str(rng.choice([e for e in others if e != src]))
            else:
                c_src = str(rng.choice([e for e in others if e != dst]))
                c_dst = dst
            ctotal, cnf, cnd = shapes.sample(rng)
            requests.append(
                TransferRequest(
                    src=c_src, dst=c_dst, total_bytes=ctotal, n_files=cnf,
                    n_dirs=cnd, concurrency=4, parallelism=4,
                    submit_time=t + float(rng.uniform(-100, 100)) if t > 100 else t,
                    tag="competing",
                )
            )
    return requests


def run(seed: int = 0, n_per_edge: int = 120) -> ExperimentResult:
    rows = []
    series = {}
    figures = {}
    for k, (src, dst) in enumerate(EDGES):
        fabric = build_esnet_testbed()
        service = TransferService(fabric, seed=seed)
        # Seeded by the edge's position, not ``hash((src, dst))``: string
        # hashes change with PYTHONHASHSEED, so each process drew a
        # different workload.
        rng = np.random.default_rng((seed, k))
        for req in _edge_workload(src, dst, n_per_edge, rng):
            service.submit(req)
        log = service.run()
        features = build_feature_matrix(log)
        observed = np.nonzero(log.column("tag") == "observed")[0]
        rates = features.y[observed]
        rel = relative_external_load(
            rates,
            features.columns["K_sout"][observed],
            features.columns["K_din"][observed],
        )
        series[f"{src}->{dst}"] = {"relative_load": rel, "rate": rates}
        figures[f"{src}->{dst}"] = scatter(
            rel, rates / 1e6, width=56, height=12,
            x_label="relative external load", y_label="rate MB/s",
        )
        # The paper's qualitative claims: rate declines with load, and the
        # max-rate transfer has (near-)zero external load.
        cc = float(np.corrcoef(rel, rates)[0, 1]) if rel.std() > 0 else 0.0
        load_at_max = float(rel[np.argmax(rates)])
        quiet = rates[rel < 0.1]
        busy = rates[rel > 0.5]
        ratio = float(np.median(busy) / np.median(quiet)) if busy.size and quiet.size else np.nan
        rows.append(
            [src, dst, len(observed), cc, load_at_max,
             ratio if np.isfinite(ratio) else "-"]
        )
    return ExperimentResult(
        experiment_id="figure3",
        title="Rate vs relative external load, ESnet testbed (4 edges)",
        headers=["src", "dst", "n", "corr(load, rate)", "load@max-rate",
                 "median rate ratio busy/quiet"],
        rows=rows,
        series=series,
        figures=figures,
        notes=[
            "Paper: achieved rate declines with external Globus load and "
            "the max-rate transfer occurs at zero relative external load "
            "on all four testbed edges.",
        ],
    )
