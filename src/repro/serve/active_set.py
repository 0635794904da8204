"""Incremental in-flight transfer population for online serving.

:class:`ActiveSet` is the population submission-time prediction scores
against: it holds the transfers currently in flight
(:class:`~repro.core.online.ActiveTransferView`), keyed by transfer id, and
keeps per-endpoint prefix-sum indexes (:class:`~repro.core.contention.ActiveOverlapIndex`)
ready for bulk feature queries.

Mutations are cheap and local: ``add``/``complete``/``progress`` write a
transfer's slot in a column store and mark it pending on only the two
endpoints the transfer involves; every other endpoint's state survives
untouched.  Indexes are refreshed lazily, on the next query of a dirtied
endpoint, so a burst of updates between prediction batches costs one
refresh per touched endpoint, not one per update — and endpoints outside
the burst pay nothing.  A refresh patches the built index: it drops the
pending slots' old rows, merges their current rows in at their place in
the index order, and continues the prefix sums from the first changed
row.  An endpoint with no built index (a cold read, the first read after
a compaction, more pending writes than indexed rows) is built whole, from
numpy masks over the store.  A patched index is bit-identical to a
full build of the same population.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter

import numpy as np

from repro.core.contention import ActiveOverlapIndex
from repro.core.online import ActiveTransferView, active_views_from_log
from repro.logs.store import LogStore
from repro.obs import MetricsRegistry, Observability
from repro.obs.tracing import maybe_span

__all__ = [
    "ActiveSet",
    "ActiveSetStats",
    "view_to_dict",
    "view_from_dict",
]


def view_to_dict(view: ActiveTransferView) -> dict:
    """JSON-ready encoding of one view (strict JSON: an unknown
    ``expected_end`` — ``inf`` — is encoded as ``None``, since strict
    parsers reject the Infinity token)."""
    return {
        "src": view.src,
        "dst": view.dst,
        "rate": view.rate,
        "started_at": view.started_at,
        "expected_end": (
            None if np.isinf(view.expected_end) else view.expected_end
        ),
        "concurrency": view.concurrency,
        "parallelism": view.parallelism,
        "n_files": view.n_files,
    }


def view_from_dict(d: dict) -> ActiveTransferView:
    """Inverse of :func:`view_to_dict` (full validation re-runs in
    ``ActiveTransferView.__post_init__``)."""
    expected_end = d.get("expected_end")
    return ActiveTransferView(
        src=str(d["src"]),
        dst=str(d["dst"]),
        rate=float(d["rate"]),
        started_at=float(d["started_at"]),
        expected_end=float("inf") if expected_end is None else float(expected_end),
        concurrency=int(d.get("concurrency", 2)),
        parallelism=int(d.get("parallelism", 4)),
        n_files=int(d.get("n_files", 1_000_000)),
    )

# ActiveSetStats field -> (metric name, help).
_ACTIVE_METRICS: dict[str, tuple[str, str]] = {
    "adds": ("active_set_adds_total", "Transfers registered."),
    "completes": ("active_set_completes_total", "Transfers completed/removed."),
    "progress_updates": (
        "active_set_progress_updates_total", "Accepted progress reports."),
    "state_rebuilds": (
        "active_set_state_rebuilds_total",
        "Per-endpoint prefix-sum index refreshes (full builds and patches)."),
    "state_patches": (
        "active_set_state_patches_total",
        "Index refreshes patched from pending writes instead of rebuilt."),
    "ignored_adds": (
        "active_set_ignored_adds_total", "Duplicate adds dropped (lenient)."),
    "ignored_completes": (
        "active_set_ignored_completes_total",
        "Unknown/duplicate completes dropped (lenient)."),
    "ignored_progress": (
        "active_set_ignored_progress_total",
        "Progress for unknown ids dropped (lenient)."),
    "rejected_progress": (
        "active_set_rejected_progress_total",
        "Progress with invalid values dropped (lenient)."),
}


class ActiveSetStats:
    """Mutation/rebuild counters (cheap observability for the serving path).

    The ``ignored_*``/``rejected_*`` counters only move in lenient mode
    (:class:`ActiveSet` with ``lenient=True``): they count malformed
    mutations that were dropped instead of raising — duplicate ids,
    completions/progress for unknown ids, and progress updates carrying
    non-finite or negative values.

    Like :class:`~repro.serve.batch.PredictorStats`, each field is a view
    over an ``active_set_*_total`` counter in a
    :class:`~repro.obs.MetricsRegistry`, so the same numbers appear in the
    metrics export; the attribute API (``stats.adds += 1``, ``as_dict()``)
    is unchanged.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(metric, help_text)
            for name, (metric, help_text) in _ACTIVE_METRICS.items()
        }

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _ACTIVE_METRICS}

    @property
    def ignored_total(self) -> int:
        return (
            self.ignored_adds
            + self.ignored_completes
            + self.ignored_progress
            + self.rejected_progress
        )


def _active_stat_property(name: str, metric: str) -> property:
    def fget(self: ActiveSetStats) -> int:
        return int(self._counters[name].value)

    def fset(self: ActiveSetStats, value) -> None:
        self._counters[name].set_total(float(value))

    return property(fget, fset, doc=f"View over the {metric} counter.")


for _name, (_metric, _help) in _ACTIVE_METRICS.items():
    setattr(ActiveSetStats, _name, _active_stat_property(_name, _metric))
del _name, _metric, _help


# Weight columns of an endpoint's index, in the order the fix-point
# consumes them (out-rate, out-streams, in-rate, in-streams, instances).
_M_OUT_RATE = 0
_M_OUT_STREAMS = 1
_M_IN_RATE = 2
_M_IN_STREAMS = 3
_M_TOUCH = 4
_M_COLS = 5

# Columns of the store's float block, one row per slot.  Rate and streams
# sit side by side, as the out- and in-pairs of the ``_M_*`` weights do.
_F_END = 0
_F_RATE = 1
_F_STREAMS = 2
_F_INSTANCES = 3
_F_COLS = 4

# A full store compacts (in place) when more than this share of its slots
# is dead; otherwise it grows by a quarter.  A store under steady churn so
# settles below 1.5 slots per live transfer.
_COMPACT_SHARE = 0.125

# An index row's order key: its slot, plus this for an in-row (an
# endpoint's out-rows, self-loops included, come before its in-rows).
# Rows with equal ends sit in key order, as a stable sort over "out-rows,
# then in-rows, each in slot order" leaves them.
_IN_KEY = 1 << 32

# Rows of the block :meth:`ActiveSet._rows` returns, one index row per
# column: the end, the order key (exact as a float) and the five ``_M_*``
# weights.
_R_END = 0
_R_KEY = 1
_R_W = 2
_R_COLS = _R_W + _M_COLS


class _Built:
    """One endpoint's served index with what patching it needs: the order
    key of each of its rows in index order (by end, then key, so the
    ``inf``-end rows come last, in key order), and the rows written since,
    as order key -> the end the row is indexed under (None for a slot not
    indexed yet).  A row's weights are not kept: until its slot is
    written, the store still holds them."""

    __slots__ = ("index", "key", "pending")

    def __init__(self, index: ActiveOverlapIndex, key: np.ndarray) -> None:
        self.index = index
        self.key = key
        self.pending: dict[int, float | None] = {}


def _index(tail: np.ndarray, base: ActiveOverlapIndex | None,
           start: int) -> ActiveOverlapIndex:
    """The index whose rows from ``start`` on are the ``_R_*`` block
    ``tail`` (in index order) and whose first ``start`` rows, all with
    finite ends, are ``base``'s."""
    m = int(tail[_R_END].searchsorted(np.inf))  # finite-end rows in tail
    te = tail[_R_END, :m]
    te = np.concatenate((base._te_sorted[:start], te)) if start else te.copy()
    return ActiveOverlapIndex.from_sorted(
        te, tail[_R_W:, :m].T, tail[_R_W:, m:].T, base, start)


def _place(te: np.ndarray, key: np.ndarray, t, k) -> np.ndarray:
    """Where rows ``(t, k)`` go among the rows of an index, ordered by
    end, then key: the number of its rows that precede each.  ``te`` are
    its finite ends, ``key`` all its rows' keys."""
    t = np.asarray(t, dtype=np.float64)
    pos = te.searchsorted(t)
    ties = te.searchsorted(t, side="right")
    ties[t == np.inf] = key.size  # the inf-end rows follow the finite
    for j in np.flatnonzero(ties > pos).tolist():
        pos[j] += key[pos[j]:ties[j]].searchsorted(k[j])
    return pos


def _splice(key: np.ndarray, dropped: list[int], new: np.ndarray,
            at: list[int]) -> tuple[np.ndarray, int]:
    """``key`` without its entries ``dropped``, with ``new``'s (in
    order) inserted before its ``at`` (ascending), in a few slice copies;
    also returns the first position that changed."""
    events = sorted([(p, 0, j) for j, p in enumerate(at)]
                    + [(d, 1, 0) for d in dropped])
    pieces, done = [], 0
    for p, drop, j in events:
        if p > done:
            pieces.append(key[done:p])
            done = p
        if drop:
            done = p + 1
        else:
            pieces.append(new[j:j + 1])
    pieces.append(key[done:])
    first = events[0][0] if events else key.size
    return np.concatenate(pieces), first


class ActiveSet:
    """Mutable registry of in-flight transfers with per-endpoint indexes.

    Lifecycle::

        active = ActiveSet()
        active.add(tid, ActiveTransferView(...))      # submission
        active.progress(tid, rate=..., expected_end=...)  # progress report
        active.complete(tid)                          # completion / failure

    Feature queries go through :meth:`endpoint_state`, which returns the
    (lazily refreshed) prefix-sum index for one endpoint.

    The population lives in one column store: a slot per transfer, in
    insertion order, holding the view and its expected end, rate, streams,
    instances and endpoint codes.  ``add`` appends a slot, ``progress``
    rewrites its end and rate in place (a transfer keeps its place, as a
    dict key does), ``complete`` marks it dead (endpoint codes -1).  An
    index's rows sit by end, then out-rows before in-rows, then slot
    order: the order every index bit depends on.  A write records its slot
    as pending on the transfer's endpoints; the next query patches their
    indexes from those slots' current rows.  A compaction renumbers slots,
    so it drops every built index, and the next query of each endpoint
    builds it from two masks over the codes.

    By default malformed mutations raise (``KeyError`` for unknown or
    duplicate ids, ``ValueError`` for bad values) — correct for replay,
    where a bad call means a bug.  With ``lenient=True`` they are instead
    idempotently ignored and counted in :attr:`stats`, which is what a
    serving process fed by an at-least-once event stream wants: a
    duplicated completion event must not corrupt endpoint counters or kill
    the server.
    """

    def __init__(
        self, lenient: bool = False, obs: Observability | None = None
    ) -> None:
        self.lenient = bool(lenient)
        self._clear()
        registry = obs.registry if obs is not None else None
        self.stats = ActiveSetStats(registry)
        self.tracer = obs.tracer if obs is not None and obs.tracer is not None \
            and obs.tracer.enabled else None
        self._size_gauge = self.stats.registry.gauge(
            "active_set_size", "In-flight transfers currently tracked."
        )

    def _clear(self) -> None:
        # transfer id -> slot; its order is slot order.
        self._slot: dict[int, int] = {}
        # slot -> view (None once completed); one entry per used slot.
        self._view_at: list[ActiveTransferView | None] = []
        self._num = np.empty((0, _F_COLS), dtype=np.float64)
        self._src = np.empty(0, dtype=np.int32)
        self._dst = np.empty(0, dtype=np.int32)
        self._codes: dict[str, int] = {}  # endpoint -> code
        self._state: dict[str, _Built] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_views(cls, views, obs: Observability | None = None) -> "ActiveSet":
        """Build from bare views, assigning sequential ids ``0..n-1``.  An
        id is its view's slot, so each column is filled in one pass and the
        id -> slot map holds one int per transfer, not two."""
        active = cls(obs=obs)
        views = list(views)
        n = len(views)
        active._slot = {i: i for i in range(n)}
        active._view_at = views
        active._num = np.empty((n, _F_COLS))
        for col, field in ((_F_END, "expected_end"), (_F_RATE, "rate"),
                           (_F_STREAMS, "streams"),
                           (_F_INSTANCES, "instances")):
            active._num[:, col] = np.fromiter(
                map(attrgetter(field), views), np.float64, n)
        codes = active._codes
        active._src = np.fromiter(
            (codes.setdefault(v.src, len(codes)) for v in views), np.int32, n)
        active._dst = np.fromiter(
            (codes.setdefault(v.dst, len(codes)) for v in views), np.int32, n)
        active.stats.adds = 0
        active._size_gauge.set(n)
        return active

    @classmethod
    def from_log_window(
        cls,
        log: LogStore,
        now: float,
        lookback_s: float | None = None,
        exclude_transfer_id: int | None = None,
        obs: Observability | None = None,
    ) -> "ActiveSet":
        """Replay construction: every logged transfer with ``ts <= now < te``
        becomes active, keyed by its logged transfer id (see
        :func:`repro.core.online.active_views_from_log`)."""
        active = cls(obs=obs)
        for tid, view in active_views_from_log(
            log, now, lookback_s=lookback_s,
            exclude_transfer_id=exclude_transfer_id,
        ):
            active.add(tid, view)
        active.stats.adds = 0
        return active

    # -- mutation ----------------------------------------------------------

    def add(self, transfer_id: int, view: ActiveTransferView) -> None:
        """Register a newly started transfer.

        A duplicate id raises ``KeyError`` (strict) or is ignored, keeping
        the original view (lenient) — a replayed start event must not
        double-count the transfer's contention.
        """
        if transfer_id in self._slot:
            if self.lenient:
                self.stats.ignored_adds += 1
                return
            raise KeyError(f"transfer {transfer_id} already active")
        self._append(transfer_id, view)
        self._touch(view, self._slot[transfer_id], None)
        self.stats.adds += 1
        self._size_gauge.set(len(self._slot))

    def complete(self, transfer_id: int) -> ActiveTransferView | None:
        """Remove a finished (or failed) transfer; returns its last view.

        An unknown id (never added, or already completed) raises
        ``KeyError`` (strict) or returns ``None`` (lenient).
        """
        slot = self._slot.pop(transfer_id, None)
        if slot is None:
            if self.lenient:
                self.stats.ignored_completes += 1
                return None
            raise KeyError(f"transfer {transfer_id} not active")
        view = self._view_at[slot]
        self._view_at[slot] = None
        self._src[slot] = self._dst[slot] = -1
        self._touch(view, slot, view.expected_end)
        self._size_gauge.set(len(self._slot))
        self.stats.completes += 1
        return view

    def progress(
        self,
        transfer_id: int,
        rate: float | None = None,
        expected_end: float | None = None,
    ) -> ActiveTransferView | None:
        """Update a transfer's observed rate and/or completion estimate.

        Unknown ids and invalid values (non-finite or negative rate, NaN or
        non-increasing expected_end) raise in strict mode; in lenient mode
        the update is dropped — counted as ``ignored_progress`` /
        ``rejected_progress`` — and the stored view stays unchanged.
        """
        if rate is None and expected_end is None:
            raise ValueError("progress needs rate and/or expected_end")
        slot = self._slot.get(transfer_id)
        if slot is None:
            if self.lenient:
                self.stats.ignored_progress += 1
                return None
            raise KeyError(f"transfer {transfer_id} not active")
        old = self._view_at[slot]
        changes: dict[str, float] = {}
        if rate is not None:
            changes["rate"] = float(rate)
        if expected_end is not None:
            changes["expected_end"] = float(expected_end)
        try:
            view = replace(old, **changes)
        except ValueError:
            if self.lenient:
                self.stats.rejected_progress += 1
                return old
            raise
        self._view_at[slot] = view
        self._num[slot, :_F_STREAMS] = (view.expected_end, view.rate)
        self._touch(view, slot, old.expected_end)
        self.stats.progress_updates += 1
        return view

    def _append(self, transfer_id: int, view: ActiveTransferView) -> None:
        """Give ``view`` the next slot (compacting or growing a full store
        first) and fill its columns."""
        slot = len(self._view_at)
        if slot == self._src.size:
            self._make_room()
            slot = len(self._view_at)
        self._slot[transfer_id] = slot
        self._view_at.append(view)
        self._num[slot] = (view.expected_end, view.rate, view.streams,
                           view.instances)
        codes = self._codes
        self._src[slot] = codes.setdefault(view.src, len(codes))
        self._dst[slot] = codes.setdefault(view.dst, len(codes))

    def _make_room(self) -> None:
        """Compact a full store in place if enough of it is dead (stable:
        live slots keep their order), else grow it by a quarter."""
        used = len(self._view_at)
        if used - len(self._slot) > _COMPACT_SHARE * used:
            keep = np.flatnonzero(self._src[:used] >= 0)
            n = keep.size
            self._num[:n] = self._num[keep]
            self._src[:n] = self._src[keep]
            self._dst[:n] = self._dst[keep]
            self._view_at = [v for v in self._view_at if v is not None]
            for slot, transfer_id in enumerate(self._slot):
                self._slot[transfer_id] = slot
            self._state.clear()  # their keys and pending slots are stale
            return
        extra = used // 4 + 16
        self._num = np.concatenate((self._num, np.empty((extra, _F_COLS))))
        self._src = np.concatenate((self._src, np.empty(extra, np.int32)))
        self._dst = np.concatenate((self._dst, np.empty(extra, np.int32)))

    def _touch(self, view: ActiveTransferView, slot: int,
               end: float | None) -> None:
        """Mark ``slot``'s row pending on the view's endpoints, with the
        end it held before this write (None: a new slot).  The first write
        since a refresh records the end the row is indexed under.  An
        index with more pending rows than rows is dropped instead:
        rebuilding it costs no more than patching it, and an endpoint
        written but never read holds no unbounded pending set."""
        for endpoint, key in ((view.src, slot), (view.dst, slot + _IN_KEY)):
            built = self._state.get(endpoint)
            if built is not None:
                built.pending.setdefault(key, end)
                if len(built.pending) > built.index.n:
                    del self._state[endpoint]
            if view.src == view.dst:
                break  # a self-loop has one row, an out-row

    # -- queries -----------------------------------------------------------

    def endpoint_state(self, endpoint: str) -> ActiveOverlapIndex:
        """The endpoint's bulk-query index (refreshed only if dirtied).

        Its ``window_sums(now, b)`` returns one column per ``_M_*`` role:
        out-rate, out-streams, in-rate, in-streams, touching instances.
        """
        built = self._state.get(endpoint)
        if built is not None and not built.pending:
            return built.index
        with maybe_span(self.tracer, "active_set.rebuild",
                        endpoint=endpoint) as sp:
            sp.attrs["patched"] = built is not None
            if built is None:
                built = self._build(endpoint)
            else:
                built = self._patch(endpoint, built)
                self.stats.state_patches += 1
            sp.attrs["transfers"] = built.index.n
        self._state[endpoint] = built
        self.stats.state_rebuilds += 1
        return built.index

    def _rows(self, slots: np.ndarray, code: int) -> np.ndarray:
        """The ``_R_*`` block of ``slots`` (live, each touching endpoint
        ``code``) in its index: end, order key and the five ``_M_*``
        weights, zero where a transfer does not play that role (a
        self-loop's one row plays both and counts once toward the
        instance column)."""
        num = np.ascontiguousarray(self._num.take(slots, axis=0).T)
        is_out = self._src.take(slots) == code
        is_in = self._dst.take(slots) == code
        rows = np.empty((_R_COLS, slots.size), dtype=np.float64)
        rows[_R_END] = num[_F_END]
        rows[_R_KEY] = np.where(is_out, slots, slots + _IN_KEY)
        w = rows[_R_W:]
        w[_M_OUT_RATE:_M_OUT_STREAMS + 1] = np.where(
            is_out, num[_F_RATE:_F_STREAMS + 1], 0.0)
        w[_M_IN_RATE:_M_IN_STREAMS + 1] = np.where(
            is_in, num[_F_RATE:_F_STREAMS + 1], 0.0)
        w[_M_TOUCH] = num[_F_INSTANCES]
        return rows

    def _build(self, endpoint: str) -> _Built:
        """One index over every transfer touching ``endpoint``, with the
        five ``_M_*`` weight columns, so the batch fix-point answers the
        endpoint's whole feature row with one binary search per query.
        Rows: the endpoint's out-transfers, then its in-transfers that are
        not self-loops, each in slot order (so in key order), stably
        sorted by end."""
        used = len(self._view_at)
        code = self._codes.get(endpoint, -2)  # -2: matches no slot
        src, dst = self._src[:used], self._dst[:used]
        is_src = src == code
        slots = np.concatenate((np.flatnonzero(is_src),
                                np.flatnonzero((dst == code) & ~is_src)))
        rows = self._rows(slots, code)
        rows = rows.take(np.argsort(rows[_R_END], kind="stable"), axis=1)
        return _Built(_index(rows, None, 0), rows[_R_KEY].astype(np.int64))

    def _patch(self, endpoint: str, built: _Built) -> _Built:
        """``built`` with its pending rows deleted and their slots' current
        rows (live ones) merged in at their place in the index order; the
        prefix sums continue from the first row that changed, and only
        the rows from there on are read back from the store."""
        gone, new = [], []  # (end, key) pairs; a pending key is its row's
        for key, end in built.pending.items():
            if end is not None:
                gone.append((end, key))
            slot = key & (_IN_KEY - 1)
            if self._src[slot] >= 0:
                new.append((float(self._num[slot, _F_END]), key))
        new.sort()
        te, key = built.index._te_sorted, built.key
        pos = _place(te, key, [e for e, _ in gone + new],
                     [k for _, k in gone + new]).tolist()
        key, first = _splice(key, sorted(pos[:len(gone)]),
                             np.array([k for _, k in new], dtype=np.int64),
                             pos[len(gone):])
        # The first changed row may be an inf-end one: the finite rows
        # then all stay, but every inf row is read back for their sum.
        finite = te.size + sum((e != np.inf) for e, _ in new) \
            - sum((e != np.inf) for e, _ in gone)
        start = min(first, finite)
        tail = self._rows(key[start:] & (_IN_KEY - 1), self._codes[endpoint])
        return _Built(_index(tail, built.index, start), key)

    def get(self, transfer_id: int) -> ActiveTransferView:
        return self._view_at[self._slot[transfer_id]]

    def views(self) -> list[ActiveTransferView]:
        """All active views, insertion-ordered."""
        return [v for v in self._view_at if v is not None]

    def ids(self) -> list[int]:
        return list(self._slot)

    def endpoints(self) -> set[str]:
        """Endpoints with at least one in-flight transfer."""
        used = len(self._view_at)
        live = set(np.concatenate((self._src[:used], self._dst[:used])).tolist())
        return {name for name, code in self._codes.items() if code in live}

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, transfer_id: int) -> bool:
        return transfer_id in self._slot

    # -- durability --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-ready encoding of the in-flight population, insertion-
        ordered — the durability layer's snapshot section.  Ordering is
        part of the contract: restoring preserves it, which keeps the
        per-endpoint prefix sums (and therefore predictions) bit-identical
        to the pre-snapshot process."""
        return {
            "views": [
                [int(tid), view_to_dict(self._view_at[slot])]
                for tid, slot in self._slot.items()
            ],
        }

    def load_snapshot(self, state: dict) -> None:
        """Restore the population from a :meth:`snapshot_state` payload.

        Replaces the current contents wholesale and refills the column
        store; indexes stay lazy (rebuilt on first query).  Mutation
        counters are deliberately *not* touched — the durability layer
        restores counter totals separately via
        :meth:`~repro.obs.MetricsRegistry.load_snapshot`, so a restored
        process continues the old totals instead of re-counting them.
        """
        self._clear()
        for tid, encoded in state.get("views", ()):
            tid = int(tid)
            if tid in self._slot:
                raise ValueError(f"snapshot repeats transfer id {tid}")
            self._append(tid, view_from_dict(encoded))
        self._size_gauge.set(len(self._slot))
