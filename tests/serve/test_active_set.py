"""Tests for the incremental in-flight population (repro.serve.ActiveSet)."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import build_feature_matrix, fit_edge_model, select_heavy_edges
from repro.core.contention import ActiveOverlapIndex
from repro.core.online import ActiveTransferView, active_views_from_log
from repro.core.pipeline import GBTSettings
from repro.serve import ActiveSet, BatchOnlinePredictor
from repro.serve.active_set import (
    _M_COLS,
    _M_IN_RATE,
    _M_IN_STREAMS,
    _M_OUT_RATE,
    _M_OUT_STREAMS,
    _M_TOUCH,
)
from repro.sim.gridftp import TransferRequest
from tests.core.conftest import make_random_store


def _view(src="A", dst="B", rate=1e8, started=0.0, end=1000.0, c=2, p=4, nf=50):
    return ActiveTransferView(
        src=src, dst=dst, rate=rate, started_at=started,
        expected_end=end, concurrency=c, parallelism=p, n_files=nf,
    )


class TestLifecycle:
    def test_add_complete(self):
        active = ActiveSet()
        active.add(1, _view())
        active.add(2, _view(src="B", dst="C"))
        assert len(active) == 2 and 1 in active
        gone = active.complete(1)
        assert gone.src == "A"
        assert len(active) == 1 and 1 not in active
        assert active.endpoints() == {"B", "C"}

    def test_duplicate_add_raises(self):
        active = ActiveSet()
        active.add(1, _view())
        with pytest.raises(KeyError):
            active.add(1, _view())

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            ActiveSet().complete(99)

    def test_progress_updates_view(self):
        active = ActiveSet()
        active.add(7, _view(rate=1e8, end=500.0))
        updated = active.progress(7, rate=2e8, expected_end=800.0)
        assert updated.rate == 2e8 and updated.expected_end == 800.0
        assert active.get(7).rate == 2e8

    def test_progress_requires_a_change(self):
        active = ActiveSet()
        active.add(7, _view())
        with pytest.raises(ValueError):
            active.progress(7)
        with pytest.raises(KeyError):
            active.progress(8, rate=1.0)

    def test_stats_counters(self):
        active = ActiveSet.from_views([_view(), _view(src="C", dst="D")])
        assert active.stats.adds == 0  # construction doesn't count
        active.add(10, _view(src="A", dst="D"))
        active.progress(10, rate=5e7)
        active.complete(10)
        s = active.stats.as_dict()
        assert s["adds"] == 1 and s["progress_updates"] == 1
        assert s["completes"] == 1


class TestStrictRejectsBadValues:
    def test_nan_progress_raises(self):
        active = ActiveSet()
        active.add(1, _view())
        with pytest.raises(ValueError):
            active.progress(1, rate=float("nan"))
        with pytest.raises(ValueError):
            active.progress(1, rate=-1.0)
        with pytest.raises(ValueError):
            active.progress(1, rate=float("inf"))
        with pytest.raises(ValueError):
            active.progress(1, expected_end=float("nan"))
        assert active.get(1).rate == 1e8  # untouched

    def test_nan_view_rejected_at_construction(self):
        with pytest.raises(ValueError):
            _view(rate=float("nan"))


class TestLenientMode:
    """Regression: malformed mutations must neither raise nor corrupt the
    endpoint counters — they are dropped and counted."""

    def test_duplicate_complete_ignored(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view())
        assert active.complete(1) is not None
        assert active.complete(1) is None  # duplicate: idempotent
        s = active.stats
        assert s.completes == 1 and s.ignored_completes == 1
        assert len(active) == 0

    def test_unknown_complete_and_progress_ignored(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view())
        assert active.complete(99) is None
        assert active.progress(99, rate=2e8) is None
        s = active.stats
        assert s.ignored_completes == 1 and s.ignored_progress == 1
        assert s.completes == 0 and s.progress_updates == 0
        assert len(active) == 1

    def test_duplicate_add_keeps_original_view(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view(rate=1e8))
        active.add(1, _view(rate=9e9, src="X", dst="Y"))
        assert active.stats.ignored_adds == 1 and active.stats.adds == 1
        assert active.get(1).rate == 1e8
        assert active.endpoints() == {"A", "B"}

    def test_bad_progress_values_rejected_not_applied(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view(rate=1e8, end=500.0))
        for bad in (float("nan"), -5.0, float("inf")):
            returned = active.progress(1, rate=bad)
            assert returned is active.get(1)
        assert active.stats.rejected_progress == 3
        assert active.get(1).rate == 1e8 and active.get(1).expected_end == 500.0

    def test_ignored_mutations_leave_features_intact(self):
        """The actual corruption regression: after a storm of malformed
        mutations, endpoint overlap sums must be exactly what the one real
        transfer implies."""
        active = ActiveSet(lenient=True)
        active.add(1, _view(src="A", dst="B", rate=1e8, end=float("inf")))
        active.complete(42)                       # unknown
        active.complete(1); active.add(1, _view(src="A", dst="B",
                                                rate=1e8, end=float("inf")))
        active.complete(1)                        # re-add/re-complete cycle
        active.add(2, _view(src="A", dst="B", rate=3e8, end=float("inf")))
        active.add(2, _view(src="A", dst="B", rate=7e8, end=float("inf")))
        active.progress(2, rate=float("nan"))
        active.progress(77, rate=1e6)
        out = active.endpoint_state("A").window_sums(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == pytest.approx(3e8 * 10.0)
        assert len(active) == 1
        assert active.stats.ignored_total == 4

    def test_strict_default_unchanged(self):
        assert ActiveSet().lenient is False


class TestIncrementalState:
    def test_mutation_only_invalidates_touched_endpoints(self):
        active = ActiveSet()
        active.add(1, _view(src="A", dst="B"))
        active.add(2, _view(src="C", dst="D"))
        sa, sc = active.endpoint_state("A"), active.endpoint_state("C")
        rebuilds = active.stats.state_rebuilds
        # Touch only C<->D: A's and B's state must survive by identity.
        active.add(3, _view(src="C", dst="D", rate=5e7))
        assert active.endpoint_state("A") is sa
        assert active.endpoint_state("C") is not sc
        assert active.stats.state_rebuilds == rebuilds + 1

    def test_updates_are_visible_in_queries(self):
        active = ActiveSet()
        active.add(1, _view(src="A", dst="B", rate=1e8, end=float("inf")))
        out = active.endpoint_state("A").window_sums(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == pytest.approx(1e9)  # rate * 10s
        active.progress(1, rate=2e8)
        out = active.endpoint_state("A").window_sums(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == pytest.approx(2e9)
        active.complete(1)
        out = active.endpoint_state("A").window_sums(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == 0.0


class TestFromLogWindow:
    def test_matches_active_views_from_log(self):
        store = make_random_store(n=150, seed=4, horizon=2000.0)
        now = 900.0
        active = ActiveSet.from_log_window(store, now=now)
        pairs = active_views_from_log(store, now=now)
        assert len(active) == len(pairs)
        assert sorted(active.ids()) == sorted(tid for tid, _ in pairs)
        assert sorted(v.started_at for v in active.views()) == sorted(
            v.started_at for _, v in pairs
        )

    @pytest.fixture(scope="class")
    def seeded(self):
        store = make_random_store(n=400, n_endpoints=4, seed=7, horizon=4000.0)
        src, dst = select_heavy_edges(store, min_samples=20, threshold=0.0)[0]
        result = fit_edge_model(
            build_feature_matrix(store), src, dst, model="gbt",
            threshold=0.0, seed=0, gbt=GBTSettings(n_estimators=30),
        )
        return store, result

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_keying_does_not_change_predictions(self, seeded, k):
        """Keyed by logged transfer id or by position 0..n-1, the same
        window (minus the transfer under evaluation) predicts bit-identical
        rates."""
        store, result = seeded
        src, dst = result.src, result.dst
        data = store.raw()
        pos = int(np.argsort(data["ts"])[150 + 50 * k])
        transfer_id = int(data["transfer_id"][pos])
        now = float(data["ts"][pos])
        requests = [
            TransferRequest(src=src, dst=dst, total_bytes=nb, n_files=nf)
            for nb, nf in ((float(data["nb"][pos]), int(data["nf"][pos])),
                           (5e10, 100), (2e8, 1))
        ]
        by_id = ActiveSet.from_log_window(
            store, now=now, exclude_transfer_id=transfer_id
        )
        by_position = ActiveSet.from_views([
            v for _, v in active_views_from_log(
                store, now, exclude_transfer_id=transfer_id
            )
        ])
        assert transfer_id in ActiveSet.from_log_window(store, now=now).ids()
        assert transfer_id not in by_id.ids()
        assert len(by_id) == len(by_position) > 0
        a = BatchOnlinePredictor(result, by_id).predict_batch(requests, now)
        b = BatchOnlinePredictor(result, by_position).predict_batch(
            requests, now
        )
        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]

    def test_keyed_by_transfer_id(self):
        store = make_random_store(n=80, seed=1, horizon=1000.0)
        now = 500.0
        data = store.raw()
        expected = set(
            data["transfer_id"][(data["ts"] <= now) & (data["te"] > now)]
        )
        active = ActiveSet.from_log_window(store, now=now)
        assert set(active.ids()) == {int(t) for t in expected}


# -- differential test: the served index against a per-view build ------------


def build_state_oracle(
    endpoint: str,
    out_views: list[ActiveTransferView],
    in_views: list[ActiveTransferView],
) -> ActiveOverlapIndex:
    """The endpoint index built view by view: out-views first, then the
    in-views that are not self-loops, each in insertion order, with the
    five ``_M_*`` weight columns (zero where a view does not play that
    role)."""
    # A degenerate self-loop (src == dst == endpoint) appears in both view
    # lists but must count once toward the G (instance) features.
    touching = out_views + [v for v in in_views if v.src != endpoint]
    te = np.array([v.expected_end for v in touching], dtype=np.float64)
    weights = np.zeros((len(touching), _M_COLS), dtype=np.float64)
    n_out = len(out_views)
    for i, v in enumerate(out_views):
        weights[i, _M_OUT_RATE] = v.rate
        weights[i, _M_OUT_STREAMS] = v.streams
        if v.dst == endpoint:  # self-loop: one row plays both roles
            weights[i, _M_IN_RATE] = v.rate
            weights[i, _M_IN_STREAMS] = v.streams
    for i, v in enumerate(touching[n_out:], start=n_out):
        weights[i, _M_IN_RATE] = v.rate
        weights[i, _M_IN_STREAMS] = v.streams
    weights[:, _M_TOUCH] = [v.instances for v in touching]
    return ActiveOverlapIndex(te, weights)


def oracle_index(views: dict, endpoint: str) -> ActiveOverlapIndex:
    """:func:`build_state_oracle` over an insertion-ordered
    ``{transfer_id: view}`` population."""
    return build_state_oracle(
        endpoint,
        [v for v in views.values() if v.src == endpoint],
        [v for v in views.values() if v.dst == endpoint],
    )


INDEX_ARRAYS = ("_te_sorted", "_w_cum", "_wte_cum", "_w_inf")


def index_bytes(index: ActiveOverlapIndex) -> list[bytes]:
    return [np.ascontiguousarray(getattr(index, name)).tobytes()
            for name in INDEX_ARRAYS]


def assert_same_index(got: ActiveOverlapIndex, want: ActiveOverlapIndex,
                      where: str) -> None:
    for name in INDEX_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, f"{where}: {name} shape"
        assert a.tobytes() == b.tobytes(), f"{where}: {name} differs"


STREAM_ENDPOINTS = ("A", "B", "C", "D", "E")
# Queried too: "F" never holds a transfer.
QUERY_ENDPOINTS = STREAM_ENDPOINTS + ("F",)
# SHA-256 over every endpoint's index arrays at each checkpoint of
# ``seeded_mutations(5, 1800)`` (taken from the per-view build above).
INDEX_GOLDEN = (
    "fd1ce858fc9709dfc2a9c40062aad2d630d966c6119aa2155a4878bdb7d0f395"
)


def _stream_end(rng) -> float:
    """Ends drawn so that ties (small integers) and ``inf`` are common."""
    kind = rng.integers(4)
    if kind == 0:
        return float("inf")
    if kind == 1:
        return float(rng.integers(1, 30))
    return float(rng.uniform(1.0, 500.0))


def _stream_view(rng) -> ActiveTransferView:
    src = STREAM_ENDPOINTS[rng.integers(len(STREAM_ENDPOINTS))]
    dst = src if rng.random() < 0.15 else \
        STREAM_ENDPOINTS[rng.integers(len(STREAM_ENDPOINTS))]
    rate = 0.0 if rng.random() < 0.05 else float(rng.uniform(1e6, 1e9))
    return ActiveTransferView(
        src=src, dst=dst, rate=rate, started_at=0.0,
        expected_end=_stream_end(rng), concurrency=int(rng.integers(1, 9)),
        parallelism=int(rng.integers(1, 9)), n_files=int(rng.integers(1, 12)),
    )


def seeded_mutations(seed: int, steps: int):
    """A seeded lenient-mode mutation stream over five endpoints: adds
    (self-loops, rate 0, tied and ``inf`` ends), completes, re-adds of
    completed ids, progress, and writes a lenient set drops (duplicate
    adds, unknown completes and progress, NaN/negative/inf rates).  The
    middle third mostly completes, so dead slots pile up.  Yields
    ``("snapshot",)`` once, two thirds in."""
    rng = np.random.default_rng(seed)
    live: list[int] = []
    gone: list[int] = []
    next_id = 0
    for step in range(steps):
        if step == 2 * steps // 3:
            yield ("snapshot",)
        p_add = 0.12 if steps // 3 <= step < 2 * steps // 3 else 0.5
        u = rng.random()
        if u < 0.06:  # a write the lenient set drops
            kind = rng.integers(4)
            if kind == 0 and live:
                yield ("add", live[rng.integers(len(live))], _stream_view(rng))
            elif kind == 1:
                yield ("complete", 10**6 + int(rng.integers(100)))
            elif kind == 2:
                yield ("progress", 10**6, 1e7, None)
            elif live:
                bad = (float("nan"), -1.0, float("inf"))[rng.integers(3)]
                yield ("progress", live[rng.integers(len(live))], bad, None)
        elif u < 0.06 + p_add or not live:
            if gone and rng.random() < 0.2:
                tid = gone.pop(int(rng.integers(len(gone))))
            else:
                tid, next_id = next_id, next_id + 1
            live.append(tid)
            yield ("add", tid, _stream_view(rng))
        elif u < 0.06 + p_add + (1.0 - 0.06 - p_add) / 2:
            tid = live.pop(int(rng.integers(len(live))))
            gone.append(tid)
            yield ("complete", tid)
        else:
            tid = live[rng.integers(len(live))]
            which = rng.integers(3)
            rate = None if which == 1 else float(rng.uniform(0.0, 1e9))
            end = None if which == 0 else _stream_end(rng)
            yield ("progress", tid, rate, end)


def _apply_reference(views: dict, op: tuple) -> None:
    """What a lenient set must hold after ``op``: the dict semantics the
    column store has to reproduce (progress keeps a transfer's place)."""
    if op[0] == "add":
        views.setdefault(op[1], op[2])
    elif op[0] == "complete":
        views.pop(op[1], None)
    elif op[1] in views:
        changes = {k: v for k, v in (("rate", op[2]), ("expected_end", op[3]))
                   if v is not None}
        try:
            views[op[1]] = replace(views[op[1]], **changes)
        except ValueError:
            pass


def _apply_active(active: ActiveSet, op: tuple) -> None:
    if op[0] == "add":
        active.add(op[1], op[2])
    elif op[0] == "complete":
        active.complete(op[1])
    else:
        active.progress(op[1], rate=op[2], expected_end=op[3])


class TestIndexMatchesOracle:
    """Every endpoint index the set serves equals the per-view build over
    the same insertion-ordered population, bit for bit."""

    def test_seeded_stream_bit_identical(self):
        active = ActiveSet(lenient=True)
        views: dict[int, ActiveTransferView] = {}
        digest = hashlib.sha256()
        rng = np.random.default_rng(99)
        compactions, used = 0, 0
        for step, op in enumerate(seeded_mutations(5, 1800)):
            compactions += len(active._view_at) < used
            used = len(active._view_at)
            if op[0] == "snapshot":
                state = json.loads(json.dumps(active.snapshot_state()))
                restored = ActiveSet(lenient=True)
                restored.load_snapshot(state)
                active = restored
                used = len(active._view_at)
                continue
            _apply_reference(views, op)
            _apply_active(active, op)
            if step % 7 == 0:
                # Query a few endpoints, so others keep a cached index
                # across later writes.
                for e in rng.choice(QUERY_ENDPOINTS, size=2, replace=False):
                    assert_same_index(active.endpoint_state(str(e)),
                                      oracle_index(views, str(e)),
                                      f"step {step} endpoint {e}")
            if step % 60 == 0:
                assert active.ids() == list(views)
                assert active.views() == list(views.values())
                bulk = ActiveSet.from_views(views.values())
                for e in QUERY_ENDPOINTS:
                    got = active.endpoint_state(e)
                    want = oracle_index(views, e)
                    assert_same_index(got, want, f"step {step} endpoint {e}")
                    assert_same_index(bulk.endpoint_state(e), want,
                                      f"from_views, step {step} endpoint {e}")
                    for chunk in index_bytes(got):
                        digest.update(chunk)
        assert active.stats.ignored_total > 0
        assert len(views) > 0
        assert compactions >= 2  # dead slots were compacted away
        assert digest.hexdigest() == INDEX_GOLDEN

    def test_self_loop_and_inf_rows(self):
        active = ActiveSet()
        views = {
            1: _view(src="A", dst="A", rate=3e8, end=float("inf")),
            2: _view(src="B", dst="A", rate=2e8, end=40.0),
            3: _view(src="A", dst="B", rate=1e8, end=40.0),
            4: _view(src="A", dst="A", rate=5e8, end=40.0),
        }
        for tid, v in views.items():
            active.add(tid, v)
        for e in ("A", "B"):
            assert_same_index(active.endpoint_state(e), oracle_index(views, e), e)


# -- the patch path: a built index refreshed from its pending writes ---------


def assert_all_endpoints(active: ActiveSet, views: dict, where: str) -> None:
    for e in QUERY_ENDPOINTS:
        assert_same_index(active.endpoint_state(e), oracle_index(views, e),
                          f"{where} endpoint {e}")


class _Twin:
    """A strict set and its insertion-ordered reference population, fed
    the same writes; :meth:`check` reads every endpoint against the
    oracle and returns how many of those reads were patches."""

    def __init__(self, views: dict | None = None) -> None:
        self.active = ActiveSet()
        self.views: dict[int, ActiveTransferView] = {}
        for tid, view in (views or {}).items():
            self.add(tid, view)

    def add(self, tid: int, view: ActiveTransferView) -> None:
        self.active.add(tid, view)
        self.views[tid] = view

    def complete(self, tid: int) -> None:
        self.active.complete(tid)
        del self.views[tid]

    def progress(self, tid: int, rate=None, end=None) -> None:
        self.views[tid] = self.active.progress(tid, rate=rate,
                                               expected_end=end)

    def check(self, where: str) -> int:
        before = self.active.stats.state_patches
        assert_all_endpoints(self.active, self.views, where)
        return self.active.stats.state_patches - before


class TestPatchedIndex:
    """Every refresh of a built index is a patch that must equal the
    per-view build bit for bit; each case asserts that patches happened,
    so a silent fallback to full builds cannot pass."""

    def test_every_read_after_every_write(self):
        active = ActiveSet(lenient=True)
        views: dict[int, ActiveTransferView] = {}
        for step, op in enumerate(seeded_mutations(11, 900)):
            if op[0] == "snapshot":
                continue
            _apply_reference(views, op)
            _apply_active(active, op)
            assert_all_endpoints(active, views, f"step {step}")
        stats = active.stats
        assert stats.state_patches > 1000
        assert stats.state_rebuilds > stats.state_patches

    def test_progress_across_a_run_of_tied_ends(self):
        twin = _Twin({
            0: _view(src="A", dst="B", end=10.0),
            1: _view(src="B", dst="A", end=10.0, rate=2e8),
            2: _view(src="A", dst="C", end=10.0, rate=3e8),
            3: _view(src="A", dst="B", end=5.0, rate=4e8),
            4: _view(src="C", dst="A", end=10.0, rate=5e8),
            5: _view(src="A", dst="D", end=20.0, rate=6e8),
        })
        twin.check("built")
        twin.progress(3, end=10.0)        # into the run, between keys
        assert twin.check("end 5 -> 10") > 0
        twin.progress(0, end=30.0)        # out of the run, past its end
        twin.progress(4, rate=7e8)        # in place inside the run
        assert twin.check("end 10 -> 30, rate") > 0
        twin.progress(0, end=10.0)        # back to the head of the run
        twin.progress(5, end=10.0)
        assert twin.check("back into the run") > 0

    def test_finite_and_inf_ends_swap(self):
        twin = _Twin({
            0: _view(src="A", dst="B", end=float("inf")),
            1: _view(src="A", dst="B", end=40.0, rate=2e8),
            2: _view(src="B", dst="A", end=float("inf"), rate=3e8),
            3: _view(src="B", dst="A", end=15.0, rate=4e8),
        })
        twin.check("built")
        twin.progress(1, end=float("inf"))
        twin.progress(2, end=25.0)
        assert twin.check("finite <-> inf") > 0
        twin.progress(0, end=5.0)
        twin.progress(1, end=50.0)
        twin.progress(3, end=float("inf"))
        assert twin.check("every end flipped") > 0

    def test_add_and_complete_between_reads(self):
        twin = _Twin({0: _view(src="A", dst="B", end=30.0),
                      1: _view(src="B", dst="A", end=20.0, rate=2e8)})
        twin.check("built")
        twin.add(9, _view(src="A", dst="B", end=25.0, rate=9e8))
        twin.complete(9)                  # never indexed, gone again
        assert twin.check("add + complete") > 0
        twin.add(9, _view(src="B", dst="A", end=25.0, rate=8e8))
        twin.complete(0)
        twin.add(0, _view(src="A", dst="C", end=20.0, rate=7e8))
        assert twin.check("re-added ids") > 0

    def test_self_loop_progress(self):
        twin = _Twin({0: _view(src="A", dst="A", end=20.0),
                      1: _view(src="A", dst="B", end=20.0, rate=2e8),
                      2: _view(src="B", dst="A", end=10.0, rate=3e8)})
        twin.check("built")
        twin.progress(0, rate=5e8, end=5.0)
        assert twin.check("self-loop moved to the head") > 0
        twin.progress(0, end=float("inf"))
        twin.add(3, _view(src="A", dst="A", end=20.0, rate=4e8))
        assert twin.check("self-loops: inf and a new tie") > 0

    def test_negative_zero_rate_at_position_zero(self):
        twin = _Twin({0: _view(src="A", dst="B", end=5.0),
                      1: _view(src="A", dst="B", end=10.0, rate=2e8)})
        twin.check("built")
        twin.progress(0, rate=-0.0)
        assert twin.check("-0.0 rate at the first row") > 0
        w_cum = twin.active.endpoint_state("A")._w_cum
        assert np.signbit(w_cum[1, _M_OUT_RATE])  # 0.0 + -0.0 would be +0.0
        twin.progress(1, rate=-0.0, end=1.0)
        assert twin.check("a second -0.0 row moved to the head") > 0

    def test_compaction_while_writes_are_pending(self):
        rng = np.random.default_rng(3)
        twin = _Twin({tid: _stream_view(rng) for tid in range(40)})
        twin.check("built")
        for tid in range(0, 40, 2):
            twin.complete(tid)
        twin.progress(1, rate=1e7)
        assert twin.check("completions patched") > 0
        twin.progress(3, rate=2e7)        # pending when the store compacts
        used, tid = 0, 100
        while len(twin.active._view_at) > used:  # until it compacts
            used = len(twin.active._view_at)
            twin.add(tid, _stream_view(rng))
            tid += 1
        assert twin.active._state == {}   # every built index dropped
        assert twin.check("after the compaction") == 0
        twin.progress(5, rate=3e7)
        twin.complete(7)
        assert twin.check("patched again") > 0

    def test_writes_past_the_pending_bound(self):
        twin = _Twin({0: _view(src="A", dst="B", end=10.0),
                      1: _view(src="B", dst="C", end=10.0)})
        twin.check("built")
        twin.progress(0, rate=2e8)
        assert twin.check("one pending write") > 0
        for tid in range(10, 12):
            twin.add(tid, _view(src="A", dst="C", end=5.0 + tid))
        assert "A" not in twin.active._state  # 2 pending > 1 indexed row
        assert "B" in twin.active._state
        patches = twin.active.stats.state_patches
        assert_same_index(twin.active.endpoint_state("A"),
                          oracle_index(twin.views, "A"), "A rebuilt")
        assert twin.active.stats.state_patches == patches
        twin.progress(10, end=float("inf"))
        assert twin.check("patched after the rebuild") > 0
