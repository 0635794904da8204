"""The four benchmark workloads, run in one measured client process.

Each workload is driven from this single client through the program's
public API only, with components built the way the CLI builds them
(``stream run``, ``serve-bench --shards``), so every number includes the
observability the program turns on by default.  ``run.py`` starts this
file as its own process after the inputs are prepared, so the client's
peak RSS is the program's, not the input generator's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures an
untraced pass and then a traced pass of equal length, reports the
per-layer metrics from the traced pass, and the overhead of tracing as
the change in the median operation time between the two passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from trace import CountingSocket, Recorder  # noqa: E402

# Seeds reserved for confirming a claimed gain; never tune against them.
HELD_OUT_SEEDS = (90210,)
SHARDS = 2
SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
BLOCK_S = 0.25          # serve/churn: seconds per block of one call mode
PASS_S = 1.0            # --trace 1: seconds per untraced or traced pass
WARMUP_S = 2.0          # serve/churn: untimed steps after set-up

E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_TIERS = ("edge", "global", "analytical", "median", "default", "degraded")

LAYER_UNITS = {
    # train path, seconds per train run unless stated
    "ingest.read_csv_s": "s",
    "ingest.rows_per_s": "1/s",
    "features.build_s": "s",
    "pipeline.select_edges_s": "s",
    "pipeline.fit_all_edges_s": "s",
    "pipeline.edges_fitted": "count",
    "pipeline.fit_global_s": "s",
    "exec.parallel_map_s": "s",
    "fallback.from_log_s": "s",
    "serve.first_answer_s": "s",
    "ml.forest_builds": "count",
    # request path, seconds per answered request
    "serve.predict_batch_s": "s",
    "serve.calls": "count",
    "serve.fixpoint_features_s": "s",
    "serve.model_s": "s",
    "ml.forest_predict_s": "s",
    "serve.route_s": "s",
    "serve.iterations_per_request": "count",
    "serve.feature_rows_per_request": "count",
    "serve.nonconverged_ratio": "ratio",
    **{f"serve.tier_share.{t}": "ratio" for t in _TIERS},
    "inproc.p50_ms": "ms",
    "inproc.p99_ms": "ms",
    "shard.batch_rps": "1/s",
    "active_set.mutate_s": "s",
    "active_set.rebuild_s": "s",
    "active_set.rebuilds_per_request": "count",
    "shard.hop_s": "s",
    "shard.send_frame_s": "s",
    "shard.recv_frame_s": "s",
    "shard.request_bytes": "B",
    "shard.reply_bytes": "B",
    "shard.retries": "count",
    "shard.restarts": "count",
    "shard.degraded": "count",
    "shard.apply_mutations_s": "s",
    "shard.mutation_bytes": "B",
    "shard.journal_bytes_per_mutation": "B",
    # stream loop, seconds per cycle
    "stream.poll_s": "s",
    "stream.bytes_per_record": "B",
    "stream.quarantined_rows": "count",
    "stream.predict_s": "s",
    "stream.drift_s": "s",
    "stream.digest_s": "s",
    "stream.retrain_s": "s",
    "stream.refits": "count",
    "stream.refit_publish_ratio": "ratio",
    "stream.checkpoint_s": "s",
    "stream.checkpoint_bytes": "B",
    # the workload's operation latency tail (untraced passes)
    "tail.p90_ms": "ms",
    "tail.p99_ms": "ms",
    # budget closure
    "train.unattributed_s": "s",
    "serve.unattributed_s": "s",
    "stream.unattributed_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


# -- small helpers -----------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter's series in a registry snapshot, optionally
    filtered by label values."""
    total = 0.0
    for entry in snapshot.get("counters", ()):
        if entry["name"] != name:
            continue
        got = entry.get("labels", {})
        if all(got.get(k) == v for k, v in labels.items()):
            total += float(entry.get("value", 0.0))
    return total


def vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(live_pids=()) -> float:
    """Client peak + each live child's peak + the largest exited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    exited = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + exited + sum(vm_hwm_mb(p) for p in live_pids)


def blas_info() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - informational only
        return "unknown"


def host_record(seed: int) -> dict:
    """What the numbers were measured on.  The benchmark sets none of the
    thread or worker variables itself; they are recorded as found."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "REPRO_WORKERS")},
        "commit": commit,
        "source_digest": inputs.source_digest()[:16],
        "seed": seed,
        "held_out_seed": seed in HELD_OUT_SEEDS,
    }


def timed_setups(build, teardown, prepare=lambda i: None,
                 repeats: int = SETUP_REPEATS):
    """Run ``build(i, prepare(i))`` ``repeats`` times, timing only
    ``build``; keep the last state and tear the others down (untimed).
    Returns ``(state, median build seconds)``."""
    times = []
    state = None
    for i in range(repeats):
        if state is not None:
            teardown(state)
        given = prepare(i)
        t0 = time.perf_counter()
        state = build(i, given)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


class Outcome:
    """Operation accounting shared by every workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.aborted = False

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)

    def crash(self, exc: Exception) -> None:
        """An operation raised: count it as failed and end the run's
        measurement (a run with no completed operation then exits
        non-zero, printing no result)."""
        self.op([f"exception: {type(exc).__name__}: {exc}"])
        self.aborted = True


def answer_problems(detail, what: str) -> list[str]:
    """Every rate finite and > 0, tagged with a tier, none DEGRADED."""
    from repro.serve.fallback import ModelTier

    rates = np.asarray(detail.rates, dtype=np.float64)
    out = []
    if rates.size != len(detail.tiers):
        out.append(f"{what}: {rates.size} rates for {len(detail.tiers)} tiers")
    if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
        out.append(f"{what}: non-finite or non-positive rate")
    for tier in detail.tiers:
        if not isinstance(tier, ModelTier):
            out.append(f"{what}: untagged answer")
            break
        if tier is ModelTier.DEGRADED:
            out.append(f"{what}: DEGRADED answer")
            break
    return out


def parity_problems(local, remote) -> list[str]:
    """Sharded answers must be bit-identical to in-process answers."""
    a = np.ascontiguousarray(local.rates, dtype=np.float64)
    b = np.ascontiguousarray(remote.rates, dtype=np.float64)
    out = answer_problems(local, "in-process") + answer_problems(
        remote, "sharded")
    if a.shape != b.shape or not np.array_equal(a.view(np.int64),
                                                b.view(np.int64)):
        out.append("sharded rates differ from in-process rates")
    if tuple(local.tiers) != tuple(remote.tiers):
        out.append("sharded tiers differ from in-process tiers")
    return out


class Workload:
    """Hooks a workload may leave at their defaults."""

    def latencies(self, samples) -> list[float]:
        """The end-to-end operation latencies in ``samples``."""
        return samples["times"]

    def begin_layers(self) -> None:
        pass

    def end_layers(self) -> None:
        pass

    def budget_rows(self, rows: dict) -> dict:
        return rows

    def live_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        pass


# -- train -------------------------------------------------------------------


class Train(Workload):
    """Log file on disk to the first served answer: ingest, features,
    heavy-edge selection, per-edge GBT fan-out, global model, fallback
    chain, first ``predict_batch``."""

    root_span = "train.path"
    unattributed = "train.unattributed_s"

    def __init__(self, args, sizes: inputs.Sizes, fault: str | None) -> None:
        from repro.logs.io import read_csv

        self.seed = args.seed
        self.sizes = sizes
        self.dir = inputs.input_dir(args.seed, sizes, chain=False)
        self.log_path = self.dir / "log.csv"
        store = read_csv(self.log_path)
        self.rows = len(store)
        self.views, self.now = inputs.population(store, args.seed,
                                                 sizes.population)
        self.batch = inputs.request_pool(store, args.seed, sizes.batch)
        self.workers = len(os.sched_getaffinity(0))
        self.fingerprints: list[str] = []

    def _active(self, _i=0, _given=None):
        from repro.obs import Observability
        from repro.serve.active_set import ActiveSet

        obs = Observability.create()
        active = ActiveSet.from_views(self.views, obs=obs)
        for endpoint in sorted(active.endpoints()):
            active.endpoint_state(endpoint)
        return obs, active

    def setup(self) -> float:
        _, seconds = timed_setups(self._active, lambda s: None,
                                  repeats=2 * SETUP_REPEATS - 1)
        return seconds

    def wrap(self, rec: Recorder) -> None:
        import repro.exec.engine as engine
        import repro.exec.scratch as scratch

        rec.wrap(engine, "parallel_map", "exec.parallel_map")
        rec.wrap(scratch, "write_feature_matrix", "exec.scratch_write")

    def one(self, rec: Recorder | None, state) -> tuple[float, list, dict]:
        from repro.core.features import build_feature_matrix
        from repro.core.pipeline import (
            GlobalFeatureAdapter,
            edge_results_fingerprint,
            fit_all_edge_models,
            fit_global_model,
            select_heavy_edges,
        )
        from repro.logs.io import read_csv
        from repro.serve.batch import BatchOnlinePredictor
        from repro.serve.fallback import FallbackChain

        obs, active = state
        call = rec.call if rec is not None else (
            lambda _name, fn, *a, **k: fn(*a, **k))
        sizes = self.sizes
        root = rec.open(self.root_span) if rec is not None else None
        t0 = time.perf_counter()
        store = call("ingest.read_csv", read_csv, self.log_path)
        features = call("features.build", build_feature_matrix, store)
        edges = call("pipeline.select_edges", select_heavy_edges, store,
                     min_samples=sizes.min_edge_samples,
                     max_edges=sizes.train_edges)
        results = call("pipeline.fit_all_edges", fit_all_edge_models,
                       features, edges, model="gbt", seed=self.seed,
                       workers=self.workers)
        glob = call("pipeline.fit_global", fit_global_model, features, edges,
                    model="gbt", seed=self.seed)
        adapter = call("pipeline.global_adapter",
                       GlobalFeatureAdapter.from_features, features)
        chain = call("fallback.from_log", FallbackChain.from_log, store,
                     edge_models={r.edge: r for r in results},
                     global_model=glob, global_adapter=adapter)
        predictor = call("serve.predictor_init", BatchOnlinePredictor,
                         chain, active, obs=obs)
        if rec is not None:
            rec.wrap(active, "endpoint_state", "active_set.rebuild")
        detail = call("serve.predict_batch", predictor.predict_batch_detailed,
                      self.batch, self.now)
        elapsed = time.perf_counter() - t0
        if rec is not None:
            rec.close(root)
        problems = answer_problems(detail, "first answer")
        fp = edge_results_fingerprint(results)
        self.fingerprints.append(fp)
        if fp != self.fingerprints[0]:
            problems.append("edge_results_fingerprint changed within the run")
        info = {"edges": len(results),
                "forest_builds": predictor.stats.forest_builds}
        return elapsed, problems, info

    def measure(self, seconds: float, rec: Recorder | None, out: Outcome):
        """Train runs back to back until ``seconds`` have passed; each gets
        a fresh ActiveSet (built outside the timer, like ``setup``)."""
        times, infos = [], []
        deadline = time.perf_counter() + seconds
        while not out.aborted and (
                not times or time.perf_counter() < deadline):
            state = self._active()
            try:
                elapsed, problems, info = self.one(rec, state)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.crash(exc)
                break
            times.append(elapsed)
            infos.append(info)
            out.op(problems)
        return {"times": times, "infos": infos}

    def check_across_runs(self, out: Outcome) -> None:
        """The fitted edges' fingerprint must repeat across runs of the
        same seed and code (kept next to the prepared inputs)."""
        path = self.dir / "edge_fingerprint.txt"
        fp = self.fingerprints[0]
        if path.exists():
            if path.read_text().strip() != fp:
                out.op(["edge_results_fingerprint differs from an earlier "
                        "run with the same seed"])
        else:
            path.write_text(fp)

    def op_times(self, samples) -> list[float]:
        return samples["times"]

    def ops(self, samples) -> int:
        return len(samples["times"])

    def e2e(self, samples) -> dict:
        times = samples["times"]
        p50 = statistics.median(times)
        return {"p50_ms": p50 * 1e3, "ops_per_s": self.rows / p50}

    def layers(self, rec: Recorder, samples) -> dict:
        infos = samples["infos"]
        n = len(samples["times"])
        per = {name: rec.total(name) / n for name in (
            "ingest.read_csv", "features.build", "pipeline.select_edges",
            "pipeline.fit_all_edges", "pipeline.fit_global",
            "exec.parallel_map", "fallback.from_log", "serve.predict_batch")}
        return {
            "ingest.read_csv_s": per["ingest.read_csv"],
            "ingest.rows_per_s": self.rows / per["ingest.read_csv"],
            "features.build_s": per["features.build"],
            "pipeline.select_edges_s": per["pipeline.select_edges"],
            "pipeline.fit_all_edges_s": per["pipeline.fit_all_edges"],
            "pipeline.edges_fitted": float(infos[-1]["edges"]),
            "pipeline.fit_global_s": per["pipeline.fit_global"],
            "exec.parallel_map_s": per["exec.parallel_map"],
            "fallback.from_log_s": per["fallback.from_log"],
            "serve.first_answer_s": per["serve.predict_batch"],
            "ml.forest_builds": float(infos[-1]["forest_builds"]),
        }


# -- serve and churn ---------------------------------------------------------


class Serve(Workload):
    """Closed-loop request -> reply through a 2-shard ``ShardCluster``
    (the end-to-end path), with the in-process ``BatchOnlinePredictor``
    answering the same requests on the same state as the bit-parity
    reference.  With ``churn`` every answer is preceded by the next
    arrivals, completions and progress reports, applied to both."""

    root_span = "serve.step"
    unattributed = "serve.unattributed_s"

    def __init__(self, args, sizes: inputs.Sizes, fault: str | None,
                 churn: bool = False) -> None:
        from repro.logs.io import read_csv

        self.seed = args.seed
        self.sizes = sizes
        self.churn = churn
        self.fault = fault
        self.dir = inputs.input_dir(args.seed, sizes, chain=True)
        self.store = read_csv(self.dir / "log.csv")
        self.views, self.now = inputs.population(self.store, args.seed,
                                                 sizes.population)
        self.pool = inputs.request_pool(self.store, args.seed,
                                        sizes.request_pool)
        self.mutations = inputs.MutationStream(
            self.store, args.seed, self.views, self.now) if churn else None
        self.cursor = 0
        self.state = None
        self.wire: dict[str, int] = {}
        self._delta: dict[str, float] = {}

    # -- set-up ---------------------------------------------------------------

    def _build(self, i: int, _given=None):
        from repro.obs import Observability
        from repro.serve.active_set import ActiveSet, view_to_dict
        from repro.serve.batch import BatchOnlinePredictor
        from repro.serve.shard import ClusterConfig, ShardCluster

        chain = inputs.load_chain(
            json.loads((self.dir / "chain.json").read_text()), self.store)
        obs = Observability.create()
        active = ActiveSet.from_views(self.views, obs=obs)
        predictor = BatchOnlinePredictor(chain, active, obs=obs)
        state_root = WORK / "state" / f"shards-{os.getpid()}-{i}"
        shutil.rmtree(state_root, ignore_errors=True)
        cluster = ShardCluster(
            chain, state_root, shards=SHARDS,
            obs=Observability.create(trace=False), config=ClusterConfig(),
        ).start()
        cluster.apply_mutations([
            ["add", tid, view_to_dict(v)] for tid, v in enumerate(self.views)
        ])
        warm = self.pool[: self.sizes.batch]
        predictor.predict_batch_detailed(warm, self.now)
        cluster.predict_batch_detailed(warm, self.now)
        return predictor, cluster, state_root

    @staticmethod
    def _teardown(state) -> None:
        _, cluster, state_root = state
        cluster.stop()
        shutil.rmtree(state_root, ignore_errors=True)

    def setup(self) -> float:
        self.state, seconds = timed_setups(self._build, self._teardown)
        # Run the loop untimed until the steady state: the first seconds
        # after set-up are slower (every worker index is still cold).
        fault, self.fault = self.fault, None
        warm = Outcome()
        self.measure(WARMUP_S, None, warm)
        self.fault = fault
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.problems[:3]}")
        return seconds

    # -- the loop -------------------------------------------------------------

    def _requests(self, n: int) -> list:
        pool = self.pool
        out = [pool[(self.cursor + j) % len(pool)] for j in range(n)]
        self.cursor += n
        return out

    def _step(self, n: int, rec: Recorder | None):
        from repro.serve.batch import BatchPrediction

        predictor, cluster, _ = self.state
        requests = self._requests(n)
        wire, muts = self.mutations.take(
            self.sizes.mutations_per_answer) if self.churn else ((), ())
        active = predictor.active
        root = rec.open(self.root_span) if rec is not None else -1
        t0 = time.perf_counter()
        for m in muts:
            inputs.apply_local(active, m)
        local = predictor.predict_batch_detailed(requests, self.now)
        t1 = time.perf_counter()
        if wire:
            cluster.apply_mutations(wire)
        remote = cluster.predict_batch_detailed(requests, self.now)
        t2 = time.perf_counter()
        if rec is not None:
            rec.close(root)
        if self.fault == "nudge-shard":
            self.fault = None
            rates = np.array(remote.rates, dtype=np.float64)
            rates[0] = np.nextafter(rates[0], np.inf)
            remote = BatchPrediction(rates, remote.tiers,
                                     remote.nonconverged)
        return t1 - t0, t2 - t1, parity_problems(local, remote)

    def measure(self, seconds: float, rec: Recorder | None, out: Outcome):
        """Alternate short blocks of one-request calls and batch calls, so
        both modes sample the whole run rather than one half of it (the
        host's speed drifts on a scale of seconds)."""
        samples = {"local1": [], "shard1": [], "localB": [], "shardB": []}
        modes = ((1, "local1", "shard1"),
                 (self.sizes.batch, "localB", "shardB"))
        deadline = time.perf_counter() + seconds
        k = 0
        while not out.aborted and (k < 2 or time.perf_counter() < deadline):
            n, a, b = modes[k % 2]
            k += 1
            block_end = time.perf_counter() + BLOCK_S
            while True:
                try:
                    t_local, t_shard, problems = self._step(n, rec)
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    out.crash(exc)
                    break
                samples[a].append(t_local)
                samples[b].append(t_shard)
                out.op(problems)
                if time.perf_counter() >= block_end:
                    break
        return samples

    def requests_answered(self, samples) -> int:
        return len(samples["local1"]) + self.sizes.batch * len(
            samples["localB"])

    def op_times(self, samples) -> list[float]:
        return [a + b for a, b in zip(samples["local1"], samples["shard1"])]

    def latencies(self, samples) -> list[float]:
        return samples["shard1"]

    def ops(self, samples) -> int:
        return self.requests_answered(samples)

    def e2e(self, samples) -> dict:
        # Batch throughput is timed in-process: a sharded batch keeps both
        # workers busy at once, so on a 2-core host its time follows
        # whatever else the scheduler runs, not the program.
        return {
            "p50_ms": statistics.median(samples["shard1"]) * 1e3,
            "ops_per_s": self.sizes.batch / statistics.median(
                samples["localB"]),
        }

    def inproc(self, samples) -> dict:
        return {
            "inproc.p50_ms": statistics.median(samples["local1"]) * 1e3,
            "inproc.p99_ms": percentile(samples["local1"], 99) * 1e3,
            "shard.batch_rps": self.sizes.batch / statistics.median(
                samples["shardB"]),
        }

    # -- tracing --------------------------------------------------------------

    def wrap(self, rec: Recorder) -> None:
        import repro.serve.shard.supervisor as router

        predictor, cluster, _ = self.state
        active = predictor.active
        rec.wrap(predictor, "predict_batch_detailed", "serve.predict_batch")
        rec.wrap(active, "endpoint_state", "active_set.rebuild")
        for name in ("add", "complete", "progress"):
            rec.wrap(active, name, "active_set.mutate")
        rec.wrap(cluster, "predict_batch_detailed", "shard.predict_batch")
        rec.wrap(cluster, "apply_mutations", "shard.apply_mutations")

        wire = self.wire
        send, recv = router.send_frame, router.recv_frame

        def send_frame(sock, payload):
            counted = CountingSocket(sock)
            idx = rec.open("shard.send_frame")
            try:
                return send(counted, payload)
            finally:
                rec.close(idx)
                key = f"sent.{payload.get('op')}"
                wire[key] = wire.get(key, 0) + counted.sent

        def recv_frame(sock, timeout=None):
            counted = CountingSocket(sock)
            reply = None
            idx = rec.open("shard.recv_frame")
            try:
                reply = recv(counted, timeout)
                return reply
            finally:
                rec.close(idx)
                key = f"recv.{reply.get('op') if reply else None}"
                wire[key] = wire.get(key, 0) + counted.received

        rec.patch(router, "send_frame", send_frame)
        rec.patch(router, "recv_frame", recv_frame)

    def _counters(self) -> dict:
        predictor, cluster, _ = self.state
        stats = predictor.stats
        merged = cluster.collect_metrics().snapshot()
        router = cluster.registry.snapshot()
        out = {name: float(getattr(stats, name)) for name in (
            "predict_calls", "requests", "fixpoint_iterations",
            "feature_rows", "nonconverged_requests", "feature_time_s",
            "model_time_s", "forest_predict_time_s")}
        for tier in _TIERS:
            out[f"tier.{tier}"] = float(stats.tier_counts.get(tier, 0))
        out["rebuilds"] = float(predictor.active.stats.state_rebuilds)
        out["journal_bytes"] = counter_total(
            merged, "durability_journal_bytes_total")
        out["journal_records"] = counter_total(
            merged, "durability_journal_records_total")
        out["mutations"] = counter_total(router, "shard_mutations_total")
        for name, metric in (("retries", "shard_retries_total"),
                             ("restarts", "shard_restarts_total"),
                             ("degraded", "shard_degraded_answers_total")):
            out[name] = counter_total(router, metric)
        return out

    def begin_layers(self) -> None:
        self._before = self._counters()

    def end_layers(self) -> None:
        after = self._counters()
        for k, v in after.items():
            self._delta[k] = self._delta.get(k, 0.0) + v - self._before[k]
        self._after = after

    def layers(self, rec: Recorder, samples) -> dict:
        after, d = self._after, self._delta
        n = self.requests_answered(samples)
        reqs = max(d["requests"], 1.0)
        predict = rec.total("serve.predict_batch")
        wire = self.wire
        mutations = max(d["mutations"], 1.0)
        self._split = (d["feature_time_s"], d["model_time_s"],
                       d["forest_predict_time_s"])
        out = {
            "serve.predict_batch_s": predict / n,
            "serve.calls": d["predict_calls"],
            "serve.fixpoint_features_s": d["feature_time_s"] / n,
            "serve.model_s": d["model_time_s"] / n,
            "ml.forest_predict_s": d["forest_predict_time_s"] / n,
            "serve.route_s": (predict - d["feature_time_s"]
                              - d["model_time_s"]) / n,
            "serve.iterations_per_request": d["fixpoint_iterations"] / reqs,
            "serve.feature_rows_per_request": d["feature_rows"] / reqs,
            "serve.nonconverged_ratio": d["nonconverged_requests"] / reqs,
            "active_set.mutate_s": rec.total("active_set.mutate") / n,
            "active_set.rebuild_s": rec.total("active_set.rebuild") / n,
            "active_set.rebuilds_per_request": d["rebuilds"] / n,
            "shard.hop_s": (sum(samples["shard1"]) + sum(samples["shardB"])
                            - sum(samples["local1"])
                            - sum(samples["localB"])) / n,
            "shard.send_frame_s": rec.total("shard.send_frame") / n,
            "shard.recv_frame_s": rec.total("shard.recv_frame") / n,
            "shard.request_bytes": wire.get("sent.predict", 0) / n,
            "shard.reply_bytes": wire.get("recv.predict", 0) / n,
            "shard.retries": after["retries"],
            "shard.restarts": after["restarts"],
            "shard.degraded": after["degraded"],
            "shard.apply_mutations_s": rec.total("shard.apply_mutations") / n,
            "shard.mutation_bytes": (wire.get("sent.mutate", 0) / mutations
                                     if self.churn else 0.0),
            "shard.journal_bytes_per_mutation": (
                d["journal_bytes"] / d["journal_records"]
                if d["journal_records"] else 0.0),
        }
        for tier in _TIERS:
            out[f"serve.tier_share.{tier}"] = d[f"tier.{tier}"] / reqs
        return out

    def budget_rows(self, rows: dict) -> dict:
        """Split the in-process predictor's self time with the counters
        ``PredictorStats`` already keeps: fix-point features, forest
        kernel, the rest of the model call, and routing (the remainder)."""
        features, model, forest = self._split
        rows = dict(rows)
        own = rows.pop("serve.predict_batch", 0.0)
        rows["serve.fixpoint_features"] = features
        rows["ml.forest_predict"] = forest
        rows["serve.model"] = model - forest
        rows["serve.route"] = own - features - model
        return rows

    def live_pids(self) -> list[int]:
        _, cluster, _ = self.state
        return [row["pid"] for row in cluster.status() if row["pid"]]

    def close(self) -> None:
        if self.state is not None:
            self._teardown(self.state)
            self.state = None


class Churn(Serve):
    def __init__(self, args, sizes, fault) -> None:
        super().__init__(args, sizes, fault, churn=True)


# -- stream ------------------------------------------------------------------


class Stream(Workload):
    """The self-healing stream loop on a completion-ordered log: the
    ``StreamSupervisor`` bootstraps on the log's first part (as ``stream
    run`` would on the file's current contents), then the client appends
    the rest in fixed chunks and runs one ``cycle()`` per chunk.  A cycle's
    latency runs from the append to the chunk being applied and
    checkpointed."""

    root_span = "stream.step"
    unattributed = "stream.unattributed_s"

    def __init__(self, args, sizes: inputs.Sizes, fault: str | None) -> None:
        from repro.logs.io import read_csv, write_csv
        from repro.logs.store import LogStore
        from repro.serve.stream.supervisor import fold_digest

        self.seed = args.seed
        self.sizes = sizes
        self.fault = fault
        self.fold_digest = fold_digest
        log_path = inputs.input_dir(args.seed, sizes, chain=False) / "log.csv"
        raw = read_csv(log_path).raw()
        raw = raw[np.argsort(raw["te"], kind="stable")]
        # Replay the log back to back, each copy shifted past the previous
        # one in time and id, so a run has enough records to append.
        span = float(raw["te"].max() - raw["ts"].min())
        copies = []
        for k in range(sizes.stream_repeats):
            copy = raw.copy()
            copy["ts"] += k * span
            copy["te"] += k * span
            copy["transfer_id"] += k * len(raw)
            copies.append(copy)
        ordered_path = WORK / "state" / f"stream-log-{os.getpid()}.csv"
        ordered_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(LogStore(np.concatenate(copies)), ordered_path)
        rows = read_csv(ordered_path).raw()
        lines = ordered_path.read_text().splitlines(keepends=True)
        ordered_path.unlink()
        header, body = lines[0], lines[1:]
        if len(body) != len(rows):
            raise RuntimeError("log lines and parsed rows disagree")
        boot = int(len(raw) * sizes.stream_boot_share)
        self.boot_text = header + "".join(body[:boot])
        self.boot_rows = boot
        k = sizes.stream_chunk
        self.chunks = [
            ("".join(body[i:i + k]), rows[i:i + k])
            for i in range(boot, len(body), k)
        ]
        self.next_chunk = 0
        self.state = None
        self._delta: dict[str, float] = {}

    def _prepare(self, i: int) -> Path:
        state_dir = WORK / "state" / f"stream-{os.getpid()}-{i}"
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        path = state_dir / "log.csv"
        path.write_text(self.boot_text)
        return path

    def _build(self, i: int, path: Path):
        from repro.logs.io import read_csv
        from repro.obs import Observability, stream_slos
        from repro.serve.fallback import FallbackChain
        from repro.serve.stream import (
            RetrainController,
            RetrainPolicy,
            StreamConfig,
            StreamSupervisor,
            TailIngester,
        )

        state_dir = path.parent
        store, _ = read_csv(path, strict=False)
        obs = Observability.create(events_path=state_dir / "events.jsonl",
                                   slos=stream_slos())
        tail = TailIngester(path, fmt="csv", registry=obs.registry,
                            seed=self.seed)
        controller = RetrainController(
            FallbackChain.from_log(store), obs.drift,
            state_dir / "artifacts",
            policy=RetrainPolicy(workers=1, fit_timeout_s=30.0),
            registry=obs.registry, tracer=obs.tracer, seed=self.seed,
        )
        sup = StreamSupervisor(tail, controller, state_dir, obs=obs,
                               config=StreamConfig(poll_interval_s=1.0))
        while sup.cycle():
            pass
        return sup, path

    @staticmethod
    def _teardown(state) -> None:
        shutil.rmtree(state[1].parent, ignore_errors=True)

    def setup(self) -> float:
        self.state, seconds = timed_setups(self._build, self._teardown,
                                           prepare=self._prepare,
                                           repeats=2 * SETUP_REPEATS - 1)
        sup = self.state[0]
        self.expected_digest = sup.applied_digest
        self.expected_records = sup.applied_records
        self.boot_ok = (sup.applied_records == self.boot_rows
                        and sup.tail.report.quarantined_rows == 0)
        return seconds

    def wrap(self, rec: Recorder) -> None:
        import repro.serve.stream.supervisor as supervisor

        sup, _ = self.state
        rec.wrap(sup, "cycle", "stream.cycle")
        rec.wrap(sup.tail, "poll", "stream.poll")
        rec.wrap(sup.predictor, "predict_batch_detailed",
                 "serve.predict_batch")
        rec.wrap(sup.drift, "record", "obs.drift")
        rec.wrap(sup.controller, "observe", "stream.observe")
        rec.wrap(sup.controller, "refit_due", "stream.retrain")
        rec.wrap(sup, "checkpoint", "stream.checkpoint")
        rec.wrap(sup.checkpoints, "write", "durability.snapshot")
        rec.wrap(supervisor, "fold_digest", "stream.digest")

    def measure(self, seconds: float, rec: Recorder | None, out: Outcome):
        sup, path = self.state
        samples = {"times": [], "records": 0, "bytes": 0, "ckpt_bytes": []}
        if not self.boot_ok:
            out.op(["bootstrap did not apply exactly the first part cleanly"])
            self.boot_ok = True
        deadline = time.perf_counter() + seconds
        while not out.aborted and self.next_chunk < len(self.chunks) and (
                not samples["times"] or time.perf_counter() < deadline):
            text, records = self.chunks[self.next_chunk]
            self.next_chunk += 1
            if self.fault == "drop-record":
                self.fault = None
                text = text[: text.rstrip("\n").rfind("\n") + 1]
            root = rec.open(self.root_span) if rec is not None else -1
            t0 = time.perf_counter()
            try:
                with path.open("a") as fh:
                    fh.write(text)
                sup.cycle()
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.crash(exc)
                break
            elapsed = time.perf_counter() - t0
            if rec is not None:
                rec.close(root)
            samples["times"].append(elapsed)
            samples["records"] += len(records)
            samples["bytes"] += len(text.encode())
            gens = sup.checkpoints.generations()
            samples["ckpt_bytes"].append(
                sup.checkpoints.path_for(gens[-1]).stat().st_size)
            self.expected_digest = self.fold_digest(self.expected_digest,
                                                    records)
            self.expected_records += len(records)
            problems = []
            if sup.applied_records != self.expected_records:
                problems.append(
                    f"applied_records {sup.applied_records} != appended "
                    f"{self.expected_records}")
            if sup.applied_digest != self.expected_digest:
                problems.append("applied_digest != fold_digest of the "
                                "appended records")
            if sup.tail.report.quarantined_rows:
                problems.append("clean log rows were quarantined")
            if sup.shed_records:
                problems.append("backlog shed records")
            out.op(problems)
        return samples

    def op_times(self, samples) -> list[float]:
        return samples["times"]

    def ops(self, samples) -> int:
        return len(samples["times"])

    def e2e(self, samples) -> dict:
        times = samples["times"]
        return {
            "p50_ms": statistics.median(times) * 1e3,
            "ops_per_s": samples["records"] / sum(times),
        }

    def _refits(self) -> dict:
        sup, _ = self.state
        snap = sup.obs.registry.snapshot()
        return {status: counter_total(snap, "stream_refits_total",
                                      status=status)
                for status in ("ok", "failed", "timeout", "skipped",
                               "blocked")}

    def begin_layers(self) -> None:
        self._before = self._refits()

    def end_layers(self) -> None:
        after = self._refits()
        for k, v in after.items():
            self._delta[k] = self._delta.get(k, 0.0) + v - self._before[k]

    def layers(self, rec: Recorder, samples) -> dict:
        sup, _ = self.state
        n = max(len(samples["times"]), 1)
        d = self._delta
        attempts = d["ok"] + d["failed"] + d["timeout"]
        return {
            "stream.poll_s": rec.total("stream.poll") / n,
            "stream.bytes_per_record": samples["bytes"] / max(
                samples["records"], 1),
            "stream.quarantined_rows": float(
                sup.tail.report.quarantined_rows),
            "stream.predict_s": rec.total("serve.predict_batch") / n,
            "stream.drift_s": rec.total("obs.drift") / n,
            "stream.digest_s": rec.total("stream.digest") / n,
            "stream.retrain_s": rec.total("stream.retrain") / n,
            "stream.refits": sum(d.values()),
            "stream.refit_publish_ratio": d["ok"] / attempts
            if attempts else 0.0,
            "stream.checkpoint_s": rec.total("stream.checkpoint") / n,
            "stream.checkpoint_bytes": float(np.mean(samples["ckpt_bytes"])),
        }

    def close(self) -> None:
        if self.state is not None:
            self._teardown(self.state)
            self.state = None


WORKLOADS = {"train": Train, "serve": Serve, "churn": Churn,
             "stream": Stream}


# -- the run -----------------------------------------------------------------


def merge(into: dict, samples: dict) -> None:
    """Fold one pass's samples into the run's (lists extend, counts add)."""
    for key, value in samples.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        else:
            into[key] = into.get(key, 0) + value


def budget_table(rows: dict, wall: float, ops: int) -> list[str]:
    lines = [f"{'layer':<28}{'self s/op':>14}{'share':>9}"]
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<28}{value / ops:>14.6g}"
                     f"{100.0 * value / wall:>8.2f}%")
    lines.append(f"{'= traced wall':<28}{wall / ops:>14.6g}"
                 f"{100.0 * sum(rows.values()) / wall:>8.2f}%")
    return lines


def run(args, sizes: inputs.Sizes, fault: str | None = None) -> dict:
    """One benchmark run; returns the result object (the last stdout
    line) plus the report fields that precede it."""
    host = host_record(args.seed)
    # Import every layer up front: module import is not what any workload
    # measures.
    import repro.core.pipeline  # noqa: F401
    import repro.exec.scratch  # noqa: F401
    import repro.serve.shard  # noqa: F401
    import repro.serve.stream  # noqa: F401

    workload = WORKLOADS[args.workload](args, sizes, fault)
    out = Outcome()
    report: dict = {"workload": args.workload, "host": host}
    try:
        setup_s = workload.setup()
        if not args.trace:
            samples = workload.measure(args.seconds, None, out)
            metrics = {"setup_s": setup_s, **workload.e2e(samples),
                       "peak_rss_mb": peak_rss_mb(workload.live_pids())}
            units = E2E_UNITS
        else:
            # Alternate short untraced and traced passes, so the overhead
            # compares like with like however the host's speed drifts.
            rec = Recorder()
            plain: dict = {}
            traced: dict = {}
            deadline = time.perf_counter() + args.seconds
            while not out.aborted and (
                    not traced or time.perf_counter() < deadline):
                merge(plain, workload.measure(PASS_S, None, out))
                workload.wrap(rec)
                workload.begin_layers()
                merge(traced, workload.measure(PASS_S, rec, out))
                workload.end_layers()
                rec.restore()
            metrics = {name: 0.0 for name in LAYER_UNITS}
            if isinstance(workload, Serve):
                metrics.update(workload.inproc(plain))
            latencies = workload.latencies(plain)
            metrics["tail.p90_ms"] = percentile(latencies, 90) * 1e3
            metrics["tail.p99_ms"] = percentile(latencies, 99) * 1e3
            metrics.update(workload.layers(rec, traced))
            rows, wall = rec.self_times(workload.root_span)
            rows = workload.budget_rows(rows)
            ops = workload.ops(traced)
            unattributed = rows.get("unattributed", 0.0)
            metrics[workload.unattributed] = unattributed / ops
            metrics["trace.coverage_pct"] = 100.0 * (1.0 - unattributed / wall)
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(workload.op_times(traced))
                / statistics.median(workload.op_times(plain)) - 1.0)
            units = LAYER_UNITS
            report["budget"] = {"wall_s": wall, "ops": ops, "rows": rows}
            report["budget_table"] = budget_table(rows, wall, ops)
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            rec.write(trace_path)
            report["trace_file"] = str(trace_path.relative_to(ROOT))
            if metrics["trace.coverage_pct"] < 90.0:
                out.problems.append(
                    f"layers cover only {metrics['trace.coverage_pct']:.1f}% "
                    "of the traced wall time (gate: 90%)")
        if isinstance(workload, Train):
            workload.check_across_runs(out)
    finally:
        workload.close()
    host["loadavg_after"] = list(os.getloadavg())
    correct = out.failed == 0 and not out.problems
    report["problems"] = out.problems
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    args = parser.parse_args(argv)
    sizes = inputs.Sizes.tiny() if args.tiny else inputs.Sizes()
    done = run(args, sizes)
    report, result = done["report"], done["result"]
    WORK.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "reports").mkdir(exist_ok=True)
    (WORK / "reports" / name).write_text(
        json.dumps({**report, **result}, indent=2))
    print("host " + json.dumps(report["host"], sort_keys=True))
    for line in report.get("budget_table", ()):
        print(line)
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<36}{entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
