"""Shard router + supervisor: the fault-tolerant front of the serving tier.

:class:`ShardCluster` owns a fleet of :mod:`worker <repro.serve.shard.worker>`
processes, one per ring slot, each with its own durable state directory.
It plays three roles at once:

**Router.**  Mutation records (:mod:`repro.serve.mutation`: transfer
add/progress/complete, drift observations) are validated, appended to an
in-memory replication log and broadcast to every worker pipelined (each
worker is sent the batch before any ack is read) — contention state is
fully replicated, predictions are partitioned.  A predict batch
is grouped by the consistent-hash ring, dispatched to all owning shards
pipelined (send everything, then collect), and reassembled in submission
order.

**Supervisor.**  Every request carries a deadline.  A timed-out request
is retried through the shared :func:`~repro.exec.retry.retry_call`
backoff helper; a closed pipe or exhausted retries escalates to a
restart: SIGKILL whatever is left of the worker, respawn it on the *same*
state directory, let :func:`~repro.serve.durability.recover_serving_state`
rebuild its state, then replay the replication-log suffix after the
worker's journaled ``last_seq``.  Because exactly one journal record
exists per broadcast mutation, that seq *is* the position in this log —
replay never double-applies, so the restarted shard's state fingerprint
is bit-identical to an uninterrupted replica's.  If even the restart
fails, the shard is marked DOWN and its requests are answered degraded:
the chain's model-free :meth:`~repro.serve.fallback.FallbackChain.constant_rate`
with explicit :attr:`~repro.serve.fallback.ModelTier.DEGRADED` provenance.
No request ever errors.

**Rebalancer.**  :meth:`rebalance` replaces a slot's worker by snapshot
handoff: the old worker checkpoints, its state directory is copied, a new
worker recovers from the copy, the router verifies seq and fingerprint
equality, then flips the slot's handle atomically and retires the old
worker.  :meth:`drain` checkpoints a worker and parks the slot DRAINING
(degraded answers) until :meth:`restart` revives it.

Lifecycle events: ``shard/worker_crash``, ``shard/restarted``,
``shard/restart_failed``, ``shard/degraded_answer``, ``shard/drained``,
``shard/rebalance``.  Router metrics are ``shard_*``-prefixed and merge
with the workers' registries through the commutative
:meth:`~repro.obs.MetricsRegistry.load_snapshot` (see
:meth:`collect_metrics`).
"""

from __future__ import annotations

import enum
import multiprocessing
import os
import shutil
import signal
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.exec.retry import BackoffPolicy, retry_call
from repro.obs import MetricsRegistry, Observability
from repro.serve.batch import BatchPrediction
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.mutation import decode
from repro.serve.shard.protocol import (
    ConnectionClosed,
    FrameTimeout,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.serve.shard.ring import HashRing, edge_key
from repro.serve.shard.worker import worker_entry

__all__ = ["ClusterConfig", "ShardCluster", "ShardState", "shard_names"]

_TIER_HELP = "Predictions served per fallback tier."


def shard_names(n: int) -> list[str]:
    """Canonical slot names for an ``n``-shard cluster."""
    if n < 1:
        raise ValueError("need at least one shard")
    return [f"shard-{i}" for i in range(int(n))]


class ShardState(enum.Enum):
    UP = "up"
    DOWN = "down"
    DRAINING = "draining"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Supervision policy no caller varies: per-request attempts before a
# restart, the retry backoff (seconds; each cluster draws its own jitter
# stream) and the mutations per replay frame.
RETRY_ATTEMPTS = 3
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 1.0
REPLAY_CHUNK = 1024


@dataclass(frozen=True)
class ClusterConfig:
    """The timeouts of one :class:`ShardCluster`, which depend on the host."""

    request_timeout_s: float = 10.0   # per predict/fingerprint request
    mutate_timeout_s: float = 10.0    # per mutation chunk
    start_timeout_s: float = 30.0     # spawn -> first ping (covers recovery)

    def __post_init__(self) -> None:
        for name in ("request_timeout_s", "mutate_timeout_s",
                     "start_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


class _Handle:
    """Router-side bookkeeping for one slot's current worker process."""

    def __init__(self, name: str, state_dir: Path) -> None:
        self.name = name
        self.state_dir = state_dir
        self.proc = None
        self.sock: socket.socket | None = None
        self.req_id = 0
        self.acked_seq = 0          # global mutation seq this worker journaled
        self.state = ShardState.DOWN
        self.restarts = 0
        self.incarnation = 0
        self.cached_metrics: dict | None = None

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None


class ShardCluster:
    """Process-per-shard serving tier with supervised failover.

    Parameters
    ----------
    chain:
        The :class:`~repro.serve.fallback.FallbackChain` every worker
        serves (inherited via fork — nothing is pickled).
    state_root:
        Directory under which each shard keeps its WAL/snapshot dir.
    shards:
        Shard count or explicit slot names.
    obs:
        Router-side observability bundle (events + ``shard_*`` metrics).
    """

    def __init__(
        self,
        chain: FallbackChain,
        state_root: str | Path,
        shards: int | Sequence[str] = 2,
        obs: Observability | None = None,
        config: ClusterConfig | None = None,
    ) -> None:
        names = shard_names(shards) if isinstance(shards, int) \
            else list(shards)
        self.chain = chain
        self.state_root = Path(state_root)
        self.config = config or ClusterConfig()
        self.obs = obs if obs is not None else Observability.create(trace=False)
        self.registry: MetricsRegistry = self.obs.registry
        self.ring = HashRing(names)
        self._backoff = BackoffPolicy(base_s=BACKOFF_BASE_S,
                                      max_s=BACKOFF_MAX_S)
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "ShardCluster needs the fork start method") from exc
        self._handles: dict[str, _Handle] = {
            name: _Handle(name, self.state_root / name) for name in names
        }
        # The replication log: mutation i (0-based) has global seq
        # _base + i + 1.  Compaction after a cluster-wide checkpoint drops
        # the prefix every worker has journaled.
        self._mutations: list[list] = []
        self._base = 0
        self._started = False

        counter, gauge = self.registry.counter, self.registry.gauge
        self._m_mutations = counter(
            "shard_mutations_total",
            "Mutations appended to the replication log.")
        self._m_rebalances = counter(
            "shard_rebalances_total", "Snapshot-handoff rebalances.")
        self._m_requests = {
            n: counter("shard_requests_total",
                       "Predict requests routed to the shard.",
                       labels={"shard": n}) for n in names}
        self._m_retries = {
            n: counter("shard_retries_total",
                       "Per-request retries against the shard.",
                       labels={"shard": n}) for n in names}
        self._m_restarts = {
            n: counter("shard_restarts_total",
                       "Supervised restarts of the shard.",
                       labels={"shard": n}) for n in names}
        self._m_degraded = {
            n: counter("shard_degraded_answers_total",
                       "Requests answered degraded for the shard.",
                       labels={"shard": n}) for n in names}
        self._g_up = {
            n: gauge("shard_up", "1 while the shard worker is serving.",
                     labels={"shard": n}) for n in names}
        self._g_seq = {
            n: gauge("shard_acked_seq",
                     "Newest replication-log seq the shard journaled.",
                     labels={"shard": n}) for n in names}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardCluster":
        """Spawn every worker and handshake.  Pre-existing state dirs are
        recovered; all shards must then agree on ``last_seq`` (a cluster
        killed mid-broadcast left replicas diverged beyond what an empty
        replication log can reconcile)."""
        if self._started:
            return self
        for handle in self._handles.values():
            self._spawn(handle)
        seqs = {h.name: h.acked_seq for h in self._handles.values()}
        if len(set(seqs.values())) > 1:
            self.stop()
            raise ValueError(
                f"shards disagree on journaled seq {seqs}; replicas "
                "diverged before this cluster existed — rebuild the "
                "lagging state dirs from a checkpoint of the newest")
        self._base = next(iter(seqs.values()), 0)
        self._started = True
        return self

    def _spawn(self, handle: _Handle) -> None:
        """Fork one worker for ``handle`` and wait for its readiness ping."""
        parent_sock, child_sock = socket.socketpair()
        # fd hygiene (fork inherits everything): the child closes the
        # parent end of its own pipe and of every sibling's, so a killed
        # worker's pipe actually reads as closed at the router.
        close_fds = [parent_sock.fileno()] + [
            h.sock.fileno() for h in self._handles.values()
            if h.sock is not None
        ]
        proc = self._mp.Process(
            target=worker_entry,
            args=(handle.name, child_sock, str(handle.state_dir),
                  self.chain, tuple(close_fds)),
            daemon=True,
            name=f"repro-shard-{handle.name}",
        )
        proc.start()
        child_sock.close()
        handle.proc = proc
        handle.sock = parent_sock
        try:
            reply = self._request(
                handle, {"op": "ping"}, self.config.start_timeout_s)
        except ProtocolError:
            self._take_down(handle)
            raise
        handle.acked_seq = int(reply["last_seq"])
        handle.state = ShardState.UP
        self._g_up[handle.name].set(1)
        self._g_seq[handle.name].set(handle.acked_seq)

    def stop(self) -> None:
        """Graceful shutdown: ask each live worker to exit, then make sure."""
        for handle in self._handles.values():
            if handle.sock is not None and handle.state is ShardState.UP:
                try:
                    self._request(handle, {"op": "shutdown"}, 2.0)
                except ProtocolError:
                    pass
            self._take_down(handle)
        self._started = False

    def _reap(self, handle: _Handle) -> None:
        """Ensure the slot's current process is dead and its pipe closed
        (a hung worker must not share a state dir with its successor)."""
        if handle.proc is not None:
            if handle.proc.is_alive():
                try:
                    os.kill(handle.proc.pid, signal.SIGKILL)
                except OSError:
                    pass
            handle.proc.join(timeout=5.0)
            handle.proc = None
        if handle.sock is not None:
            try:
                handle.sock.close()
            except OSError:
                pass
            handle.sock = None

    def _take_down(self, handle: _Handle) -> None:
        """Reap the slot's process and mark it DOWN."""
        self._reap(handle)
        handle.state = ShardState.DOWN
        self._g_up[handle.name].set(0)

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- framed request/response ------------------------------------------

    def _request(self, handle: _Handle, payload: dict,
                 timeout: float) -> dict:
        """One request/response exchange."""
        return self._await(handle, self._send(handle, payload),
                           payload.get("op"), timeout)

    def _send(self, handle: _Handle, payload: dict) -> int:
        """Send one request; returns the ``id`` its reply will carry."""
        handle.req_id += 1
        send_frame(handle.sock, {**payload, "id": handle.req_id})
        return handle.req_id

    def _await(self, handle: _Handle, req_id: int, op: str | None,
               timeout: float) -> dict:
        """The reply to request ``req_id``.  Replies are matched by
        ``id``; stale replies (from a request that timed out earlier) are
        discarded, so a retry never pairs with the wrong answer."""
        while True:
            reply = recv_frame(handle.sock, timeout)
            if reply.get("id") == req_id:
                break
        if "error" in reply:
            raise ProtocolError(
                f"{handle.name} failed {op!r}: {reply['error']}")
        return reply

    def _request_retry(self, handle: _Handle, payload: dict,
                       timeout: float) -> dict:
        """``_request`` behind the shared backoff helper: timeouts are
        retried (the worker may just be slow under load); a closed pipe
        is not (the worker is gone — escalate immediately)."""
        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            self._m_retries[handle.name].inc()

        return retry_call(
            lambda: self._request(handle, payload, timeout),
            max_attempts=RETRY_ATTEMPTS,
            policy=self._backoff,
            retry_on=(FrameTimeout,),
            on_retry=on_retry,
        )

    # -- mutations (broadcast + replay) ------------------------------------

    def apply_mutations(self, mutations: Sequence) -> None:
        """Validate a batch of mutation records, then broadcast it.

        Every record is decoded before any enters the replication log: a
        malformed one raises ``ValueError`` naming its index, and nothing
        from the rejected batch is logged or sent — a record every worker
        refuses would otherwise be replayed into every restart and take
        the shards DOWN.  The log keeps the canonical form of each record.

        Every UP shard is sent its first pending chunk before any ack is
        read, so the workers journal and apply the batch at once; the acks
        are then read in slot order.  A shard with more than one chunk to
        catch up continues on its own there, and a failed send, like a
        failed ack, is recovered in slot order, so events come in the
        order a one-shard-at-a-time broadcast emits them.
        """
        records = []
        for i, record in enumerate(mutations):
            try:
                records.append(decode(record).record)
            except ValueError as exc:
                raise ValueError(f"mutation {i}: {exc}") from None
        self._mutations.extend(records)
        self._m_mutations.inc(len(records))
        up = [h for h in self._handles.values() if h.state is ShardState.UP]
        sent: dict[str, int | ProtocolError] = {}
        for handle in up:
            if handle.acked_seq < self.seq:
                try:
                    sent[handle.name] = self._send_chunk(handle)
                except ProtocolError as exc:
                    sent[handle.name] = exc
        for handle in up:
            first = sent.get(handle.name)
            try:
                if isinstance(first, ProtocolError):
                    raise first
                self._send_pending(handle, first)
            except ProtocolError as exc:
                self._recover_shard(handle, context="mutate", error=exc)

    @property
    def seq(self) -> int:
        """The global mutation sequence (log head)."""
        return self._base + len(self._mutations)

    def _send_pending(self, handle: _Handle,
                      sent: int | None = None) -> None:
        """Drive ``handle`` from its journaled seq to the log head in
        chunks (``sent``: the id of a first chunk already sent).  The
        worker's reply carries its durable ``last_seq``, so progress is
        measured by what actually hit the journal — a lost ack never
        causes a double-send."""
        target = self.seq
        while handle.acked_seq < target:
            if sent is None:
                sent = self._send_chunk(handle)
            reply = self._await(handle, sent, "mutate",
                                self.config.mutate_timeout_s)
            sent = None
            new_seq = int(reply["last_seq"])
            if new_seq <= handle.acked_seq:
                raise ProtocolError(
                    f"{handle.name} did not advance past seq "
                    f"{handle.acked_seq}")
            handle.acked_seq = new_seq
            self._g_seq[handle.name].set(new_seq)

    def _send_chunk(self, handle: _Handle) -> int:
        """Send ``handle`` the log chunk after its journaled seq; returns
        the request id.  A worker whose journal ends before the compacted
        log's base (its state dir was lost, or its recovery stopped short
        of a corrupt record) cannot be caught up from the log: that is a
        ``ProtocolError`` too, so the slot goes DOWN and degrades instead
        of serving a state it never held."""
        start = handle.acked_seq - self._base
        if start < 0:
            raise ProtocolError(
                f"{handle.name} is behind the compacted log "
                f"(acked {handle.acked_seq}, base {self._base})")
        chunk = self._mutations[start:start + REPLAY_CHUNK]
        return self._send(handle, {"op": "mutate", "mutations": chunk})

    # -- failure handling --------------------------------------------------

    def _emit(self, name: str, severity: str = "info", **attrs) -> None:
        if self.obs.events is not None:
            self.obs.events.emit("shard", name, severity=severity, **attrs)

    def _recover_shard(self, handle: _Handle, context: str,
                       error: BaseException) -> bool:
        """Crash/hang escalation: declare, restart, replay.  Returns True
        when the shard is serving again; on False it is DOWN and its
        requests degrade until :meth:`restart`."""
        self._emit(
            "worker_crash", severity="error",
            shard=handle.name, context=context, pid=handle.pid,
            error=f"{type(error).__name__}: {error}")
        try:
            self._restart_handle(handle)
            return True
        except ProtocolError as exc:
            self._emit(
                "restart_failed", severity="critical",
                shard=handle.name, error=f"{type(exc).__name__}: {exc}")
            return False

    def _restart_handle(self, handle: _Handle) -> None:
        """Respawn the slot's worker and replay the log past what it
        journaled.  On a ``ProtocolError`` the slot is left DOWN with no
        live process, whichever step failed."""
        before = handle.acked_seq
        self._reap(handle)
        handle.incarnation += 1
        handle.restarts += 1
        self._m_restarts[handle.name].inc()
        self._spawn(handle)            # recovery sets acked_seq = journaled
        try:
            self._send_pending(handle)     # replay strictly after it
        except ProtocolError:
            self._take_down(handle)
            raise
        self._emit(
            "restarted",
            shard=handle.name, pid=handle.pid,
            recovered_seq=before, replayed=handle.acked_seq - before,
            restarts=handle.restarts, incarnation=handle.incarnation)

    def kill(self, name: str) -> None:
        """SIGKILL a worker *without* telling the router (chaos input:
        the failure is discovered through the protocol, exactly like a
        real crash)."""
        handle = self._handles[name]
        if handle.proc is None or not handle.proc.is_alive():
            return
        os.kill(handle.proc.pid, signal.SIGKILL)
        handle.proc.join(timeout=5.0)

    def restart(self, name: str) -> None:
        """Operator-initiated revive of a DOWN or DRAINING shard."""
        handle = self._handles[name]
        self._restart_handle(handle)

    def drain(self, name: str) -> None:
        """Checkpoint a shard and park its slot DRAINING: the worker
        exits cleanly and the slot's requests degrade until
        :meth:`restart`."""
        handle = self._handles[name]
        if handle.state is not ShardState.UP:
            raise ValueError(f"{name} is {handle.state}, cannot drain")
        reply = self._request_retry(
            handle, {"op": "drain"}, self.config.start_timeout_s)
        self._reap(handle)
        handle.state = ShardState.DRAINING
        self._g_up[handle.name].set(0)
        self._emit("drained", shard=name,
                   generation=reply.get("generation"),
                   last_seq=reply.get("last_seq"))

    # -- rebalance (snapshot handoff) --------------------------------------

    def rebalance(self, name: str) -> dict:
        """Replace a slot's worker by snapshot handoff.

        The old worker checkpoints; its state directory is copied; a new
        worker recovers from the copy; the router verifies the recruit
        reports the same journaled seq and state fingerprint; only then
        does the slot flip to the new handle (atomic — a single dict
        entry) and the old worker retire.  Returns a summary dict.
        """
        handle = self._handles[name]
        if handle.state is not ShardState.UP:
            raise ValueError(f"{name} is {handle.state}, cannot rebalance")
        self._send_pending(handle)     # hand off the log head, not a prefix
        self._request_retry(
            handle, {"op": "checkpoint"}, self.config.start_timeout_s)
        digest = self._request_retry(
            handle, {"op": "fingerprint"},
            self.config.request_timeout_s)["fingerprint"]

        new_dir = self.state_root / f"{name}.gen{handle.incarnation + 1}"
        if new_dir.exists():
            shutil.rmtree(new_dir)
        shutil.copytree(handle.state_dir, new_dir)

        recruit = _Handle(name, new_dir)
        recruit.restarts = handle.restarts
        recruit.incarnation = handle.incarnation + 1
        try:
            # The old handle stays registered during the spawn (fd hygiene
            # walks self._handles); the recruit flips in only after it
            # proves itself.
            self._spawn(recruit)
            if recruit.acked_seq != handle.acked_seq:
                raise ProtocolError(
                    f"handoff seq mismatch: old {handle.acked_seq}, "
                    f"new {recruit.acked_seq}")
            new_digest = self._request_retry(
                recruit, {"op": "fingerprint"},
                self.config.request_timeout_s)["fingerprint"]
            if new_digest != digest:
                raise ProtocolError(
                    f"handoff fingerprint mismatch on {name}")
        except ProtocolError:
            self._reap(recruit)
            shutil.rmtree(new_dir, ignore_errors=True)
            raise
        # Flip: one assignment, no window where the slot has no owner.
        self._handles[name] = recruit
        try:
            self._request(handle, {"op": "shutdown"}, 2.0)
        except ProtocolError:
            pass
        self._reap(handle)
        self._m_rebalances.inc()
        self._emit("rebalance", shard=name, fingerprint=digest,
                   seq=recruit.acked_seq, state_dir=str(new_dir),
                   incarnation=recruit.incarnation)
        return {"shard": name, "fingerprint": digest,
                "seq": recruit.acked_seq, "state_dir": str(new_dir)}

    # -- prediction --------------------------------------------------------

    def predict_batch_detailed(self, requests: Sequence,
                               now: float) -> BatchPrediction:
        """Route a batch across the ring and reassemble in submission
        order.  Unreachable shards degrade (after retry + restart) rather
        than error; degraded entries carry ``ModelTier.DEGRADED``."""
        m = len(requests)
        rates = np.zeros(m)
        nonconv = np.zeros(m, dtype=bool)
        tiers: list[ModelTier] = [ModelTier.DEFAULT] * m

        groups: dict[str, list[int]] = {}
        for i, r in enumerate(requests):
            groups.setdefault(
                self.ring.lookup(edge_key(r.src, r.dst)), []).append(i)

        # Phase 1: pipeline — send every UP shard its sub-batch before
        # collecting any reply, so workers compute in parallel.
        pending: list[tuple[_Handle, dict, int, list[int]]] = []
        degraded: list[tuple[str, list[int]]] = []
        for name, idxs in sorted(groups.items()):
            handle = self._handles[name]
            frame = {
                "op": "predict",
                "now": float(now),
                "requests": [_request_to_dict(requests[i]) for i in idxs],
            }
            if handle.state is not ShardState.UP:
                degraded.append((name, idxs))
                continue
            try:
                pending.append((handle, frame, self._send(handle, frame),
                                idxs))
            except ConnectionClosed as exc:
                if self._recover_shard(handle, context="predict", error=exc):
                    pending.append((handle, frame, None, idxs))
                else:
                    degraded.append((name, idxs))

        # Phase 2: collect, retry, escalate, degrade — per shard.
        for handle, frame, req_id, idxs in pending:
            reply = self._collect(handle, frame, req_id)
            if reply is None:
                degraded.append((handle.name, idxs))
                continue
            self._m_requests[handle.name].inc(len(idxs))
            for j, i in enumerate(idxs):
                rates[i] = float(reply["rates"][j])
                tiers[i] = ModelTier(reply["tiers"][j])
                nonconv[i] = bool(reply["nonconverged"][j])

        for name, idxs in degraded:
            self._m_degraded[name].inc(len(idxs))
            self.registry.counter(
                "serve_tier_predictions_total", _TIER_HELP,
                labels={"tier": ModelTier.DEGRADED.value},
            ).inc(len(idxs))
            self._emit("degraded_answer", severity="warning",
                       shard=name, requests=len(idxs))
            for i in idxs:
                _, rate = self.chain.constant_rate(
                    requests[i].src, requests[i].dst)
                rates[i] = rate
                tiers[i] = ModelTier.DEGRADED

        return BatchPrediction(
            rates=rates, tiers=tuple(tiers), nonconverged=nonconv)

    def predict_batch(self, requests: Sequence, now: float) -> np.ndarray:
        return self.predict_batch_detailed(requests, now).rates

    def _collect(self, handle: _Handle, frame: dict,
                 req_id: int | None) -> dict | None:
        """Get one predict reply, whatever it takes: await the pipelined
        send (if any), retry timeouts with backoff, restart a dead or
        unresponsive worker and re-ask once.  ``None`` means degrade."""
        try:
            if req_id is not None:
                try:
                    return self._await(handle, req_id, "predict",
                                       self.config.request_timeout_s)
                except FrameTimeout:
                    self._m_retries[handle.name].inc()
                    return self._request_retry(
                        handle, frame, self.config.request_timeout_s)
            return self._request_retry(
                handle, frame, self.config.request_timeout_s)
        except ProtocolError as exc:
            if not self._recover_shard(handle, context="predict", error=exc):
                return None
            try:
                return self._request_retry(
                    handle, frame, self.config.request_timeout_s)
            except ProtocolError as exc2:
                self._recover_shard(handle, context="predict", error=exc2)
                return None

    # -- checkpoints, fingerprints, metrics --------------------------------

    def checkpoint(self) -> dict[str, int]:
        """Snapshot every UP shard, then compact the replication log up
        to the oldest journaled seq across *all* slots (a DOWN slot's
        frozen seq pins the tail it still needs for replay)."""
        generations: dict[str, int] = {}
        for handle in list(self._handles.values()):
            if handle.state is not ShardState.UP:
                continue
            try:
                self._send_pending(handle)
                reply = self._request_retry(
                    handle, {"op": "checkpoint"},
                    self.config.start_timeout_s)
                generations[handle.name] = int(reply["generation"])
            except ProtocolError as exc:
                self._recover_shard(handle, context="checkpoint", error=exc)
        floor = min(h.acked_seq for h in self._handles.values())
        drop = floor - self._base
        if drop > 0:
            del self._mutations[:drop]
            self._base = floor
        return generations

    def fingerprints(self) -> dict[str, str]:
        """State digests of every UP shard (after driving each to the log
        head, so equal digests mean equal replicas *now*)."""
        out: dict[str, str] = {}
        for handle in self._handles.values():
            if handle.state is not ShardState.UP:
                continue
            self._send_pending(handle)
            out[handle.name] = self._request_retry(
                handle, {"op": "fingerprint"},
                self.config.request_timeout_s)["fingerprint"]
        return out

    def collect_metrics(self) -> MetricsRegistry:
        """Merge the router's registry with every worker's into a fresh
        one (``load_snapshot`` is commutative and associative, so shard
        order cannot change the export).  A DOWN shard contributes its
        last collected snapshot, if any."""
        merged = MetricsRegistry()
        merged.load_snapshot(self.registry.snapshot())
        for handle in self._handles.values():
            if handle.state is ShardState.UP:
                try:
                    handle.cached_metrics = self._request_retry(
                        handle, {"op": "metrics"},
                        self.config.request_timeout_s)["registry"]
                except ProtocolError as exc:
                    self._recover_shard(
                        handle, context="metrics", error=exc)
            if handle.cached_metrics is not None:
                merged.load_snapshot(handle.cached_metrics)
        return merged

    def status(self) -> list[dict]:
        """One row per slot for the CLI/top shard panel."""
        return [
            {
                "shard": h.name,
                "state": h.state.value,
                "pid": h.pid,
                "restarts": h.restarts,
                "incarnation": h.incarnation,
                "acked_seq": h.acked_seq,
                "state_dir": str(h.state_dir),
            }
            for h in self._handles.values()
        ]


def _request_to_dict(r) -> dict:
    return {
        "src": r.src,
        "dst": r.dst,
        "total_bytes": float(r.total_bytes),
        "n_files": int(r.n_files),
        "n_dirs": int(r.n_dirs),
        "concurrency": int(r.concurrency),
        "parallelism": int(r.parallelism),
    }
