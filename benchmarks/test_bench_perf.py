"""Performance benchmarks for the library's hot paths.

These are real pytest-benchmark measurements (multiple rounds), unlike the
experiment benches which regenerate a table once.
"""

import pickle

import numpy as np
import pytest

from repro.core.contention import ContentionComputer, IntervalOverlapIndex
from repro.core.features import build_feature_matrix
from repro.core.pipeline import GBTSettings
from repro.logs.io import read_jsonl, write_jsonl
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.sim.allocation import FlowSpec, Resource, allocate_maxmin
from tests.core.conftest import make_random_store


@pytest.fixture(scope="module")
def big_store():
    return make_random_store(n=5000, n_endpoints=12, seed=0, horizon=500_000.0)


def test_perf_feature_matrix_build(benchmark, big_store):
    """Full Table 2 feature engineering over a 5k-transfer log."""
    fm = benchmark(build_feature_matrix, big_store)
    assert len(fm) == 5000


def test_perf_jsonl_ingest(benchmark, big_store, tmp_path):
    """Bulk JSONL log ingestion of the same 5k-transfer log (CSV ingest
    is timed end to end by perfbench's ``ingest.read_csv_s``)."""
    path = tmp_path / "big.log.jsonl"
    write_jsonl(big_store, path)
    store = benchmark(read_jsonl, path)
    assert len(store) == 5000


def test_perf_overlap_index_queries(benchmark):
    rng = np.random.default_rng(0)
    n = 20_000
    ts = rng.uniform(0, 1e6, n)
    te = ts + rng.uniform(1, 1000, n)
    w = rng.uniform(0, 1e9, n)
    idx = IntervalOverlapIndex(ts, te, w)
    a = rng.uniform(0, 1e6, 5000)
    b = a + rng.uniform(1, 1000, 5000)
    out = benchmark(idx.overlap_sum, a, b)
    assert out.shape == (5000,)


def _hub_population():
    """A 10k-transfer population in which a ~3k-transfer endpoint, HUB,
    sends 30% of the transfers, and the view maker for more of them."""
    from repro.core.online import ActiveTransferView
    from repro.serve import ActiveSet

    rng = np.random.default_rng(8)
    others = [f"EP{i:02d}" for i in range(12)]

    def make_view():
        hub = rng.random() < 0.3
        src = "HUB" if hub else others[rng.integers(12)]
        dst = others[rng.integers(12)]
        end = float(rng.choice([np.inf, rng.uniform(10.0, 5000.0)], p=[0.1, 0.9]))
        return ActiveTransferView(
            src=src, dst=dst, rate=float(rng.uniform(1e6, 1e9)),
            started_at=0.0, expected_end=end,
            concurrency=int(rng.integers(1, 9)),
            parallelism=int(rng.integers(1, 9)), n_files=int(rng.integers(1, 50)),
        )

    views = {tid: make_view() for tid in range(10_000)}
    active = ActiveSet()
    for tid, view in views.items():
        active.add(tid, view)
    return rng, views, active, make_view


def test_perf_active_set_rebuild(benchmark):
    """Refresh of a ~3k-transfer endpoint's index in a 10k-transfer
    population after four writes (an arrival, a completion, two progress
    reports): the miss every churned serving call pays.  Only the refresh,
    ``endpoint_state("HUB")``, is timed; the four writes run untimed in
    each round's setup.  HUB's index is built before the writes, so this
    times the patch path (pending rows deleted, current rows merged in,
    prefix sums continued); the store compacts now and then, and the read
    after it is a full build.  The served index must equal the per-view
    oracle's bit for bit."""
    from tests.serve.test_active_set import assert_same_index, oracle_index

    rng, views, active, make_view = _hub_population()
    active.endpoint_state("HUB")
    hub = [tid for tid, v in views.items() if v.src == "HUB"]
    next_id = [len(views)]

    def churn():
        tid = next_id[0]
        next_id[0] += 1
        views[tid] = make_view()
        active.add(tid, views[tid])
        gone = hub.pop(int(rng.integers(len(hub))))
        del views[gone]
        active.complete(gone)
        for tid in rng.choice(hub, size=2, replace=False).tolist():
            views[tid] = active.progress(
                tid, rate=float(rng.uniform(1e6, 1e9)),
                expected_end=float(rng.uniform(10.0, 5000.0)),
            )
        if views[next_id[0] - 1].src == "HUB":
            hub.append(next_id[0] - 1)

    def refresh():
        return active.endpoint_state("HUB")

    index = benchmark.pedantic(refresh, setup=churn, rounds=200)
    assert 2_500 < index.n < 3_500
    assert active.stats.state_patches > 0
    assert_same_index(index, oracle_index(views, "HUB"), "HUB")


def test_perf_active_set_full_build(benchmark):
    """Cold build of the same ~3k-transfer endpoint's index from masks
    over the 10k-slot store: what a first read, or the first read after a
    compaction, pays.  It must equal the per-view oracle's bit for bit."""
    from tests.serve.test_active_set import assert_same_index, oracle_index

    _, views, active, _ = _hub_population()

    def cold_build():
        active._state.clear()
        return active.endpoint_state("HUB")

    index = benchmark(cold_build)
    assert 2_500 < index.n < 3_500
    assert active.stats.state_patches == 0
    assert_same_index(index, oracle_index(views, "HUB"), "HUB")


def test_perf_gbt_training(benchmark):
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(3000, 15))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.05, 3000)
    model = benchmark(
        lambda: GradientBoostingRegressor(
            n_estimators=100, max_depth=4, random_state=0
        ).fit(X, y)
    )
    assert len(model.trees_) == 100


def test_perf_gbt_handback(benchmark):
    """Pickle round trip of one fitted default-settings (300-tree) edge
    model with its forest built: what a fit fan-out worker hands back."""
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(80, 12))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.05, 80)
    model = GBTSettings().build(0).fit(X, y)
    model.predict(X)
    back = benchmark(
        lambda: pickle.loads(
            pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        )
    )
    assert len(back.trees_) == 300
    assert np.array_equal(back.predict(X), model.predict(X))


def test_perf_gbt_prediction(benchmark):
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(3000, 15))
    y = X @ rng.uniform(size=15)
    model = GradientBoostingRegressor(n_estimators=100, max_depth=4).fit(X, y)
    X_test = rng.uniform(size=(10_000, 15))
    pred = benchmark(model.predict, X_test)
    assert pred.shape == (10_000,)


@pytest.mark.parametrize("rows", [1, 256])
def test_perf_gbt_predict_one_row(benchmark, rows):
    """Predict of a default-settings (300-tree, depth-4) model on 15 raw
    features (predict never bins) at the serving traffic's shapes: one
    row is what one request pays per fix-point round, 256 rows a full
    batch."""
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(400, 15))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.05, 400)
    model = GBTSettings().build(0).fit(X, y)
    batch = rng.uniform(size=(rows, 15))
    want = model.predict(batch)
    pred = benchmark(model.predict, batch)
    assert len(model.trees_) == 300
    assert np.array_equal(pred, want)


def test_perf_linear_regression(benchmark):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10_000, 15))
    y = X @ rng.uniform(size=15) + rng.normal(size=10_000)
    model = benchmark(lambda: LinearRegression().fit(X, y))
    assert model.coef_.shape == (15,)


def test_perf_maxmin_allocation(benchmark):
    rng = np.random.default_rng(4)
    resources = [Resource(f"r{i}", float(rng.uniform(1e8, 1e10))) for i in range(60)]
    flows = []
    for j in range(40):
        picks = rng.choice(60, size=5, replace=False)
        flows.append(
            FlowSpec(
                f"f{j}",
                tuple(f"r{i}" for i in picks),
                weight=float(rng.uniform(1, 32)),
                rate_cap=float(rng.uniform(1e7, 1e9)),
            )
        )
    rates = benchmark(allocate_maxmin, resources, flows)
    assert len(rates) == 40


def test_perf_simulation_throughput(benchmark):
    """Events/second of the fluid simulator on a contended edge."""
    from repro.sim import TransferRequest, TransferService, build_esnet_testbed
    from repro.sim.units import GB

    def run_sim():
        svc = TransferService(build_esnet_testbed(), seed=0)
        for i in range(100):
            svc.submit(
                TransferRequest(
                    src="ANL-DTN", dst="BNL-DTN", total_bytes=20 * GB,
                    n_files=10, submit_time=i * 20.0,
                )
            )
        return svc.run()

    log = benchmark(run_sim)
    assert len(log) == 100
