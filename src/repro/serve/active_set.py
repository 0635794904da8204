"""Incremental in-flight transfer population for online serving.

:class:`ActiveSet` is the population submission-time prediction scores
against: it holds the transfers currently in flight
(:class:`~repro.core.online.ActiveTransferView`), keyed by transfer id, and
keeps per-endpoint prefix-sum indexes (:class:`~repro.core.contention.ActiveOverlapIndex`)
ready for bulk feature queries.

Mutations are cheap and local: ``add``/``complete``/``progress`` touch only
the two endpoints the transfer involves, invalidating just those endpoints'
indexes; every other endpoint's state survives untouched.  Indexes are
rebuilt lazily on the next query of a dirtied endpoint, so a burst of
updates between prediction batches costs one rebuild per touched endpoint,
not one per update — and endpoints outside the burst pay nothing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.contention import ActiveOverlapIndex
from repro.core.online import ActiveTransferView, active_views_from_log
from repro.logs.store import LogStore
from repro.obs import MetricsRegistry, Observability

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
        "Per-endpoint prefix-sum index rebuilds."),
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


def _build_state(
    endpoint: str,
    out_views: list[ActiveTransferView],
    in_views: list[ActiveTransferView],
) -> ActiveOverlapIndex:
    """One index over every transfer touching ``endpoint``, with the five
    ``_M_*`` weight columns (zero where a transfer does not play that
    role), so the batch fix-point answers the endpoint's whole feature row
    with one binary search per query."""
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


class ActiveSet:
    """Mutable registry of in-flight transfers with per-endpoint indexes.

    Lifecycle::

        active = ActiveSet()
        active.add(tid, ActiveTransferView(...))      # submission
        active.progress(tid, rate=..., expected_end=...)  # progress report
        active.complete(tid)                          # completion / failure

    Feature queries go through :meth:`endpoint_state`, which returns the
    (lazily rebuilt) prefix-sum index for one endpoint.

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
        self._views: dict[int, ActiveTransferView] = {}
        # endpoint -> insertion-ordered {transfer_id: None} sets.  Dicts keep
        # deterministic ordering, which keeps batch-of-one and batch-of-many
        # prefix sums bit-identical.
        self._by_src: dict[str, dict[int, None]] = {}
        self._by_dst: dict[str, dict[int, None]] = {}
        self._state: dict[str, ActiveOverlapIndex] = {}
        registry = obs.registry if obs is not None else None
        self.stats = ActiveSetStats(registry)
        self.tracer = obs.tracer if obs is not None and obs.tracer is not None \
            and obs.tracer.enabled else None
        self._size_gauge = self.stats.registry.gauge(
            "active_set_size", "In-flight transfers currently tracked."
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_views(cls, views, obs: Observability | None = None) -> "ActiveSet":
        """Build from bare views, assigning sequential ids ``0..n-1``."""
        active = cls(obs=obs)
        for i, v in enumerate(views):
            active.add(i, v)
        active.stats.adds = 0
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
        if transfer_id in self._views:
            if self.lenient:
                self.stats.ignored_adds += 1
                return
            raise KeyError(f"transfer {transfer_id} already active")
        self._views[transfer_id] = view
        self._by_src.setdefault(view.src, {})[transfer_id] = None
        self._by_dst.setdefault(view.dst, {})[transfer_id] = None
        self._invalidate(view)
        self.stats.adds += 1
        self._size_gauge.set(len(self._views))

    def complete(self, transfer_id: int) -> ActiveTransferView | None:
        """Remove a finished (or failed) transfer; returns its last view.

        An unknown id (never added, or already completed) raises
        ``KeyError`` (strict) or returns ``None`` (lenient).
        """
        if transfer_id not in self._views and self.lenient:
            self.stats.ignored_completes += 1
            return None
        view = self._pop(transfer_id)
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
        old = self._views.get(transfer_id)
        if old is None:
            if self.lenient:
                self.stats.ignored_progress += 1
                return None
            raise KeyError(f"transfer {transfer_id} not active")
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
        self._views[transfer_id] = view
        self._invalidate(view)
        self.stats.progress_updates += 1
        return view

    def _pop(self, transfer_id: int) -> ActiveTransferView:
        view = self._views.pop(transfer_id, None)
        if view is None:
            raise KeyError(f"transfer {transfer_id} not active")
        self._by_src[view.src].pop(transfer_id, None)
        self._by_dst[view.dst].pop(transfer_id, None)
        self._invalidate(view)
        self._size_gauge.set(len(self._views))
        return view

    def _invalidate(self, view: ActiveTransferView) -> None:
        self._state.pop(view.src, None)
        self._state.pop(view.dst, None)

    # -- queries -----------------------------------------------------------

    def endpoint_state(self, endpoint: str) -> ActiveOverlapIndex:
        """The endpoint's bulk-query index (rebuilt only if dirtied).

        Its ``window_sums(now, b)`` returns one column per ``_M_*`` role:
        out-rate, out-streams, in-rate, in-streams, touching instances.
        """
        state = self._state.get(endpoint)
        if state is None:
            span = (
                self.tracer.span("active_set.rebuild", endpoint=endpoint)
                if self.tracer else None
            )
            out_views = [
                self._views[t] for t in self._by_src.get(endpoint, ())
            ]
            in_views = [
                self._views[t] for t in self._by_dst.get(endpoint, ())
            ]
            if span is None:
                state = _build_state(endpoint, out_views, in_views)
            else:
                with span as sp:
                    sp.attrs["transfers"] = len(out_views) + len(in_views)
                    state = _build_state(endpoint, out_views, in_views)
            self._state[endpoint] = state
            self.stats.state_rebuilds += 1
        return state

    def get(self, transfer_id: int) -> ActiveTransferView:
        return self._views[transfer_id]

    def views(self) -> list[ActiveTransferView]:
        """All active views, insertion-ordered."""
        return list(self._views.values())

    def ids(self) -> list[int]:
        return list(self._views)

    def endpoints(self) -> set[str]:
        """Endpoints with at least one in-flight transfer."""
        return {v.src for v in self._views.values()} | {
            v.dst for v in self._views.values()
        }

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, transfer_id: int) -> bool:
        return transfer_id in self._views

    # -- durability --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-ready encoding of the in-flight population, insertion-
        ordered — the durability layer's snapshot section.  Ordering is
        part of the contract: restoring preserves it, which keeps the
        per-endpoint prefix sums (and therefore predictions) bit-identical
        to the pre-snapshot process."""
        return {
            "views": [
                [int(tid), view_to_dict(view)]
                for tid, view in self._views.items()
            ],
        }

    def load_snapshot(self, state: dict) -> None:
        """Restore the population from a :meth:`snapshot_state` payload.

        Replaces the current contents wholesale and rebuilds the endpoint
        key maps; indexes stay lazy (rebuilt on first query).  Mutation
        counters are deliberately *not* touched — the durability layer
        restores counter totals separately via
        :meth:`~repro.obs.MetricsRegistry.load_snapshot`, so a restored
        process continues the old totals instead of re-counting them.
        """
        self._views.clear()
        self._by_src.clear()
        self._by_dst.clear()
        self._state.clear()
        for tid, encoded in state.get("views", ()):
            tid = int(tid)
            if tid in self._views:
                raise ValueError(f"snapshot repeats transfer id {tid}")
            view = view_from_dict(encoded)
            self._views[tid] = view
            self._by_src.setdefault(view.src, {})[tid] = None
            self._by_dst.setdefault(view.dst, {})[tid] = None
        self._size_gauge.set(len(self._views))
