"""Seeded benchmark inputs: the simulated log, the serving population, the
request pool, the churn mutation stream and the prepared GBT chain.

Everything here is a function of ``(seed, sizes)`` and of the program's
own source: the log comes from the production-fleet simulator
(``build_production_fleet`` / ``production_workload`` /
``production_background_loads`` / ``TransferService``, exactly as
``repro-tools simulate`` drives them) and every other input is drawn from
that log's mix of edges, sizes and tunables.

The two expensive inputs -- the simulated log and the fitted chain -- are
built in a child process (so their memory never counts in the client's
peak RSS) and kept under ``.perfbench/inputs/<key>/`` in the checkout.
The key hashes the seed, the sizes and every ``src/**/*.py`` file, so two
commits never share a prepared log or fitted model.

Run directly to prepare one key::

    python3 perfbench/inputs.py --seed 7 --out DIR [--chain] [--sizes JSON]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "inputs"


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the benchmark, in one place."""

    log_days: float = 1.0          # simulated fleet history (~2.5k transfers)
    min_edge_samples: int = 30     # heavy-edge cut (the per-edge fit minimum)
    train_edges: int = 8           # per-edge GBT models on the train path
    chain_edges: int = 12          # per-edge GBT models in the serving chain
    population: int = 10_000       # in-flight transfers in the ActiveSet
    request_pool: int = 8192       # distinct requests, replayed in order
    batch: int = 256               # requests per batch call
    mutations_per_answer: int = 4  # churn: writes applied before each call
    stream_boot_share: float = 0.25  # log share the stream bootstraps on
    stream_chunk: int = 48         # records appended per stream cycle
    stream_repeats: int = 3        # the log replayed this often, time-shifted

    @classmethod
    def tiny(cls) -> "Sizes":
        """Self-test sizes: every path runs, in seconds."""
        return cls(log_days=0.5, train_edges=2,
                   chain_edges=2, population=300, request_pool=64, batch=16,
                   stream_chunk=16, stream_repeats=2)


# -- the cache key ----------------------------------------------------------


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the program's Python sources (paths and bytes)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()


def input_dir(seed: int, sizes: Sizes, chain: bool) -> Path:
    """Prepare (once) and return the input directory for this key."""
    key = hashlib.sha256(json.dumps(
        [int(seed), dataclasses.asdict(sizes), source_digest()],
        sort_keys=True).encode()).hexdigest()[:20]
    out = CACHE / key
    done = out / ("chain.json" if chain else "log.csv")
    if not done.exists():
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--seed", str(seed), "--out", str(out),
               "--sizes", json.dumps(dataclasses.asdict(sizes))]
        if chain:
            cmd.append("--chain")
        subprocess.run(cmd, check=True, cwd=str(ROOT),
                       stdout=subprocess.DEVNULL)
    return out


# -- preparation (child process) ---------------------------------------------


def simulate_log(seed: int, days: float):
    """One production-fleet log for ``seed`` (the ``simulate`` recipe)."""
    from repro.sim.fleet import (
        build_production_fleet,
        production_background_loads,
    )
    from repro.sim.service import TransferService
    from repro.sim.units import DAY
    from repro.workload.datasets import production_workload

    fabric = build_production_fleet()
    duration = days * DAY
    requests = production_workload(fabric, duration_s=duration, seed=seed)
    service = TransferService(
        fabric, seed=seed + 1, stop_background_after=duration * 1.25)
    for load in production_background_loads(fabric):
        service.add_onoff_load(load)
    for req in requests:
        service.submit(req)
    return service.run()


def fit_chain_payload(store, seed: int, sizes: Sizes) -> dict:
    """Fit the serving chain's models and return them as JSON documents
    (the program's own persistence formats)."""
    from repro.core.features import build_feature_matrix
    from repro.core.pipeline import (
        GlobalFeatureAdapter,
        edge_result_to_payload,
        fit_all_edge_models,
        fit_global_model,
        select_heavy_edges,
    )
    from repro.ml.persistence import model_to_dict

    features = build_feature_matrix(store)
    edges = select_heavy_edges(store, min_samples=sizes.min_edge_samples,
                               max_edges=sizes.chain_edges)
    results = fit_all_edge_models(features, edges, model="gbt", seed=seed,
                                  workers=os.cpu_count() or 1)
    glob = fit_global_model(features, edges, model="gbt", seed=seed)
    adapter = GlobalFeatureAdapter.from_features(features)
    return {
        "edges": [edge_result_to_payload(r) for r in results],
        "global": {
            "model_kind": glob.model_kind,
            "feature_names": list(glob.feature_names),
            "n_train": glob.n_train,
            "n_test": glob.n_test,
            "mdape": glob.mdape,
            "model": model_to_dict(glob.model),
            "scaler": model_to_dict(glob.scaler),
        },
        "capabilities": {
            ep: [cap.ro_max, cap.ri_max]
            for ep, cap in sorted(adapter.capabilities.items())
        },
    }


def _prepare(seed: int, out: Path, sizes: Sizes, chain: bool) -> None:
    from repro.logs.io import read_csv, write_csv

    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if (out / "log.csv").exists():
        shutil.copy(out / "log.csv", tmp / "log.csv")
    else:
        write_csv(simulate_log(seed, sizes.log_days), tmp / "log.csv")
    if chain:
        store = read_csv(tmp / "log.csv")
        (tmp / "chain.json").write_text(
            json.dumps(fit_chain_payload(store, seed, sizes)))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


# -- loading and deriving (client process, outside every timed region) -----


def load_chain(payload: dict, store):
    """The serving :class:`FallbackChain` from a prepared payload -- the
    model load that ``setup_s`` times."""
    from repro.core.endpoint_features import EndpointCapability
    from repro.core.pipeline import (
        GlobalFeatureAdapter,
        GlobalModelResult,
        edge_result_from_payload,
    )
    from repro.ml.persistence import model_from_dict
    from repro.serve.fallback import FallbackChain

    edges = [edge_result_from_payload(p) for p in payload["edges"]]
    g = payload["global"]
    glob = GlobalModelResult(
        model_kind=g["model_kind"],
        feature_names=tuple(g["feature_names"]),
        n_train=int(g["n_train"]),
        n_test=int(g["n_test"]),
        test_errors=np.zeros(0),
        mdape=float(g["mdape"]),
        model=model_from_dict(g["model"]),
        scaler=model_from_dict(g["scaler"]),
    )
    caps = {ep: EndpointCapability(ep, ro, ri) for ep, (ro, ri) in
            payload["capabilities"].items()}
    return FallbackChain.from_log(
        store,
        edge_models={r.edge: r for r in edges},
        global_model=glob,
        global_adapter=GlobalFeatureAdapter(capabilities=caps),
    )


def _rows(store) -> dict[str, np.ndarray]:
    names = ("src", "dst", "ts", "te", "nb", "nf", "nd", "c", "p")
    return {n: store.column(n) for n in names}


def population(store, seed: int, n: int):
    """``n`` in-flight views drawn from the log's edge/size/tunable mix,
    each caught at a uniformly random point of its logged lifetime.
    Returns ``(views, now)``."""
    from repro.core.online import ActiveTransferView

    cols = _rows(store)
    rng = np.random.default_rng([seed, 1])
    now = float(cols["te"].max())
    pick = rng.integers(0, len(store), size=n)
    done = rng.uniform(0.05, 0.95, size=n)
    views = []
    for i, u in zip(pick, done):
        dur = max(float(cols["te"][i] - cols["ts"][i]), 1.0)
        views.append(ActiveTransferView(
            src=str(cols["src"][i]), dst=str(cols["dst"][i]),
            rate=float(cols["nb"][i]) / dur,
            started_at=now - u * dur, expected_end=now + (1.0 - u) * dur,
            concurrency=int(cols["c"][i]), parallelism=int(cols["p"][i]),
            n_files=int(cols["nf"][i]),
        ))
    return views, now


def request_pool(store, seed: int, n: int):
    """``n`` submission requests replaying logged transfers' edges, sizes
    and tunables (so most land on a modeled edge and the rest fall to the
    global / analytical / median tiers)."""
    from repro.sim.gridftp import TransferRequest

    cols = _rows(store)
    rng = np.random.default_rng([seed, 2])
    return [
        TransferRequest(
            src=str(cols["src"][i]), dst=str(cols["dst"][i]),
            total_bytes=float(cols["nb"][i]), n_files=int(cols["nf"][i]),
            n_dirs=int(cols["nd"][i]), concurrency=int(cols["c"][i]),
            parallelism=int(cols["p"][i]),
        )
        for i in rng.integers(0, len(store), size=n)
    ]


class MutationStream:
    """The churn workload's writes: a seeded, endless mix of arrivals,
    completions and progress reports that keeps the population size
    steady.  :meth:`take` returns each batch twice -- in the shard wire
    format (``["add", tid, view_dict]`` / ``["complete", tid]`` /
    ``["progress", tid, rate, expected_end]``) and as the ActiveSet calls
    :func:`apply_local` makes -- so neither path pays for the other's
    encoding inside the timed region."""

    def __init__(self, store, seed: int, views, now: float) -> None:
        from repro.serve.active_set import view_to_dict

        self._to_dict = view_to_dict
        self._arrivals, _ = population(store, seed + 7919, 4096)
        self._rng = np.random.default_rng([seed, 3])
        self._live = list(range(len(views)))
        self._ends = {i: v.expected_end for i, v in enumerate(views)}
        self._rates = {i: v.rate for i, v in enumerate(views)}
        self._next_id = len(views)
        self._k = 0

    def take(self, n: int) -> tuple[list[list], list[tuple]]:
        wire, local = [], []
        rng = self._rng
        for kind in rng.integers(0, 4, size=n):
            if kind == 0 or len(self._live) < 2:
                view = self._arrivals[self._k % len(self._arrivals)]
                self._k += 1
                tid = self._next_id
                self._next_id += 1
                self._live.append(tid)
                self._ends[tid] = view.expected_end
                self._rates[tid] = view.rate
                wire.append(["add", tid, self._to_dict(view)])
                local.append(("add", tid, view))
            elif kind == 1:
                j = int(rng.integers(len(self._live)))
                tid = self._live[j]
                self._live[j] = self._live[-1]
                self._live.pop()
                del self._ends[tid], self._rates[tid]
                wire.append(["complete", tid])
                local.append(("complete", tid))
            else:
                tid = self._live[int(rng.integers(len(self._live)))]
                rate = self._rates[tid] * float(rng.uniform(0.5, 1.5))
                end = self._ends[tid] + float(rng.uniform(1.0, 120.0))
                self._rates[tid], self._ends[tid] = rate, end
                wire.append(["progress", tid, rate, end])
                local.append(("progress", tid, rate, end))
        return wire, local


def apply_local(active, mutation: tuple) -> None:
    """One :meth:`MutationStream.take` local mutation on an ActiveSet."""
    kind = mutation[0]
    if kind == "add":
        active.add(mutation[1], mutation[2])
    elif kind == "complete":
        active.complete(mutation[1])
    else:
        active.progress(mutation[1], rate=mutation[2],
                        expected_end=mutation[3])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", default="{}")
    parser.add_argument("--chain", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sizes = Sizes(**json.loads(args.sizes))
    _prepare(args.seed, Path(args.out), sizes, args.chain)
    return 0


if __name__ == "__main__":
    sys.exit(main())
