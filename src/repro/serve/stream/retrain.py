"""Drift-triggered per-edge retraining behind a circuit breaker.

The paper's per-edge models (§5.1/§5.2) decay as endpoint conditions
shift; the serving loop must refit them *live* without ever letting a
bad refit take serving down.  Three defence layers:

1. **trigger discipline** — an edge becomes refit-eligible only when its
   :class:`~repro.obs.DriftMonitor` window breaches the policy's MdAPE /
   p95 thresholds with enough samples.  The breach is a *latch* with
   hysteresis (armed above the threshold, released only below
   ``threshold * hysteresis``) so an edge oscillating around the line
   cannot flap, and a per-edge cooldown spaces attempts out.  After an
   edge's first attempt the latch is judged only on the drift samples
   scored since its last published or skipped attempt — the generation
   now serving — and the edge is due again only once it has
   ``required`` of them.  A failed attempt leaves the serving
   generation unchanged, so it keeps that generation's evidence: the
   breaker, not the evidence gate, bounds how often a failing edge is
   retried.  A published refit whose own samples are still breached
   and no better than the MdAPE that triggered it is a *loss*:
   ``required`` doubles (``min_samples * 2**losses``, capped at the
   drift window), and a win or a released latch resets it.
2. **contained execution** — refits fan out through
   :func:`repro.exec.parallel_map` with a per-fit ``timeout`` and
   ``return_exceptions=True``: a hung or crashing fit surfaces as a
   per-edge failure, never as a stalled or aborted fan-out.
3. **gated publication + circuit breaker** — a successful fit is
   encoded into the edge's bundle (the edge codec,
   :func:`repro.core.pipeline.edge_result_to_payload`, whose model and
   scaler are format-v2 documents with their own checksums) together
   with a probe: a seed for the probe rows and the predictions the fitted model made on
   them.  :func:`probe_gate` decodes that bundle and requires the decoded
   model to reproduce those predictions before the chain splice, so the
   live :class:`~repro.serve.FallbackChain` entry is never unseated by a
   model that cannot reproduce its own publish-time answers.  Consecutive
   failures (fit errors, timeouts, refused publishes) open a per-edge
   :class:`CircuitBreaker`: while open, the edge is not refit at all —
   it keeps serving through whatever the chain already has (the existing
   model, or the fallback tiers below it) until the cooldown admits a
   half-open probe attempt.

Everything the controller knows (buffers, breakers, latches, the
fresh-evidence counts and backoff, per-edge generation counters, and
each published bundle, encoded model included) round-trips through
:meth:`RetrainController.state_dict` so the supervisor can checkpoint it
atomically with the tail position.  The checkpoint's journal record is
the only commit point for a refit: :meth:`RetrainController.load_state`
rebuilds the published models from the record through the same gate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from collections import deque
from functools import partial

import numpy as np

from repro.core.features import build_feature_matrix
from repro.core.pipeline import (EdgeModelResult, _finite_or_null,
                                 edge_result_from_payload,
                                 edge_result_to_payload, fit_edge_model)
from repro.exec import TaskTimeout, derive_seed, parallel_map
from repro.logs.schema import LOG_DTYPE
from repro.logs.store import LogStore
from repro.ml.persistence import ModelIntegrityError
from repro.obs import DriftStats, MetricsRegistry, Tracer
from repro.obs.events import EventLog
from repro.obs.tracing import NULL_SPAN
from repro.serve.fallback import FallbackChain

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetrainPolicy",
    "RetrainController",
    "fit_edge_from_rows",
    "probe_gate",
]

Edge = tuple[str, str]

_SRC = LOG_DTYPE.names.index("src")
_DST = LOG_DTYPE.names.index("dst")

# How closely a decoded model must reproduce its publish-time probe.
_PROBE_RTOL = 1e-9
_PROBE_ATOL = 1e-6


class BreakerState(enum.Enum):
    CLOSED = 0       # healthy: refits flow
    OPEN = 1         # tripped: refits blocked until cooldown elapses
    HALF_OPEN = 2    # cooldown elapsed: exactly one probe refit admitted


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    Time is always passed in by the caller (``now``), never read from a
    wall clock — the supervisor drives it from data timestamps, which
    keeps replays and chaos proofs deterministic.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown_s: float = 300.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = BreakerState.CLOSED
        self.failures = 0           # consecutive
        self.opened_at = 0.0
        self.opens = 0
        self._probing = False

    def would_allow(self, now: float) -> bool:
        """Non-mutating admission check (for scheduling decisions)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return now - self.opened_at >= self.cooldown_s
        return not self._probing

    def allow(self, now: float) -> bool:
        """Mutating admission: an OPEN breaker past its cooldown moves to
        HALF_OPEN and admits exactly one probe attempt."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at < self.cooldown_s:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probing = True
            return True
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self, now: float) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self._probing = False

    def record_failure(self, now: float) -> None:
        self.failures += 1
        was_open = self.state is not BreakerState.CLOSED
        if was_open or self.failures >= self.failure_threshold:
            if self.state is not BreakerState.OPEN:
                self.opens += 1
            self.state = BreakerState.OPEN
            self.opened_at = float(now)
        self._probing = False

    def state_dict(self) -> dict:
        return {
            "state": self.state.name,
            "failures": int(self.failures),
            "opened_at": float(self.opened_at),
            "opens": int(self.opens),
        }

    def load_state(self, state: dict) -> None:
        self.state = BreakerState[state.get("state", "CLOSED")]
        self.failures = int(state.get("failures", 0))
        self.opened_at = float(state.get("opened_at", 0.0))
        self.opens = int(state.get("opens", 0))
        self._probing = False


@dataclass(frozen=True)
class RetrainPolicy:
    """All the knobs of the retrain loop, in one immutable bag."""

    mdape_threshold: float = 25.0    # percent; breach => refit-eligible
    p95_threshold: float = 75.0      # percent
    min_samples: int = 12            # drift samples before a breach counts
    hysteresis: float = 0.7          # release latch below threshold * this
    cooldown_s: float = 120.0        # spacing between attempts per edge
    fit_timeout_s: float | None = 30.0
    breaker_failures: int = 3
    breaker_cooldown_s: float = 600.0
    workers: int = 1
    buffer_rows: int = 512           # per-edge training buffer (bounded)
    min_fit_rows: int = 32           # don't fit on fewer rows
    probe_rows: int = 8              # publish-time probe batch size

    def __post_init__(self) -> None:
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")
        if self.min_fit_rows < 2 or self.buffer_rows < self.min_fit_rows:
            raise ValueError("need buffer_rows >= min_fit_rows >= 2")


def fit_edge_from_rows(task: tuple, min_samples: int = 30) -> EdgeModelResult:
    """Default fit function: the paper's per-edge pipeline over exactly
    the buffered rows.  Top-level (and used via ``functools.partial``) so
    it survives pickling into pool workers."""
    src, dst, arr = task
    store = LogStore(np.asarray(arr, dtype=LOG_DTYPE))
    features = build_feature_matrix(store)
    return fit_edge_model(features, src, dst, threshold=0.0,
                          min_samples=min_samples)


def _probe(model, seed: int, rows: int, width: int) -> np.ndarray:
    """``model``'s predictions on the probe rows ``seed`` draws.  A
    divergent model overflows here, and the gate refuses it, so the
    overflow is not also warned about."""
    x = np.random.default_rng(seed).standard_normal((rows, width))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(model.predict(x), dtype=np.float64)


def _result_to_bundle(result: EdgeModelResult, probe_seed: int,
                      probe_rows: int) -> dict:
    """A published bundle: the edge's
    :func:`~repro.core.pipeline.edge_result_to_payload` document plus the
    probe — its seed and the predictions ``result.model`` makes on the
    rows it draws (non-finite ones as null, by the codec's rule)."""
    reference = _probe(result.model, probe_seed, probe_rows,
                       _model_input_width(result))
    return {**edge_result_to_payload(result),
            "probe": {"seed": int(probe_seed),
                      "reference": _finite_or_null(reference)}}


def probe_gate(bundle: dict) -> EdgeModelResult:
    """Decode a published bundle with
    :func:`~repro.core.pipeline.edge_result_from_payload` and admit it
    only if its model reproduces the probe predictions made at publish
    time: the same shape, finite, and within rtol 1e-9 / atol 1e-6.

    A live publish runs it on the bundle it is about to journal, and
    :meth:`RetrainController.load_state` on every bundle it restores.
    Returns the decoded result; raises ``ValueError`` on any refusal
    (:class:`~repro.ml.persistence.ModelIntegrityError` when a document
    fails its checksum or does not decode)."""
    if not isinstance(bundle, dict) or bundle.get("model") is None \
            or bundle.get("probe") is None:
        raise ValueError("bundle carries no encoded model")
    try:
        result = edge_result_from_payload(bundle)
        probe = bundle["probe"]
        reference = np.asarray(probe["reference"], dtype=np.float64)
        seed, width = int(probe["seed"]), _model_input_width(result)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ModelIntegrityError(f"bundle undecodable: {exc!r}") from exc
    try:
        predictions = _probe(result.model, seed, reference.shape[0], width)
    except Exception as exc:  # noqa: BLE001 - any crash fails the gate
        raise ValueError(f"probe predict raised {exc!r}") from exc
    if predictions.shape != reference.shape:
        raise ValueError("probe prediction shape mismatch")
    if not np.all(np.isfinite(predictions)):
        raise ValueError("probe predictions are non-finite")
    if not np.allclose(predictions, reference,
                       rtol=_PROBE_RTOL, atol=_PROBE_ATOL):
        worst = float(np.max(np.abs(predictions - reference)))
        raise ValueError(
            f"probe predictions deviate (max |delta| {worst:.3g})")
    return result


def _model_input_width(result: EdgeModelResult) -> int:
    if result.scaler is not None and getattr(result.scaler, "mean_", None) \
            is not None:
        return int(np.asarray(result.scaler.mean_).shape[0])
    coef = getattr(result.model, "coef_", None)
    if coef is not None:
        return int(np.asarray(coef).shape[-1])
    n = getattr(result.model, "n_features_", None)
    if n:
        return int(n)
    return int(np.count_nonzero(np.asarray(result.kept)))


class RetrainController:
    """Watches drift, refits breached edges, publishes through the gate."""

    def __init__(
        self,
        chain: FallbackChain,
        drift,
        artifact_root=None,
        policy: RetrainPolicy | None = None,
        fit_fn=None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        seed: int = 0,
        events: EventLog | None = None,
    ) -> None:
        """``artifact_root`` is accepted and ignored: a published model
        is committed inside the supervisor's checkpoint record, not in a
        directory of its own.  The slot stays third and positional
        because the benchmark's stream workload still passes a path
        there."""
        self.chain = chain
        self.drift = drift
        self.policy = policy or RetrainPolicy()
        self.fit_fn = fit_fn if fit_fn is not None else partial(
            fit_edge_from_rows, min_samples=self.policy.min_fit_rows)
        self.registry = registry
        self.tracer = tracer
        self.events = events
        self.seed = int(seed)

        self._buffers: dict[Edge, deque[tuple]] = {}
        self._breakers: dict[Edge, CircuitBreaker] = {}
        self._breached: dict[Edge, bool] = {}
        self._last_attempt: dict[Edge, float] = {}
        # Drift samples scored since the edge's last published or
        # skipped attempt (a failed attempt changes no generation).
        self._fresh: dict[Edge, int] = {}
        self._trigger: dict[Edge, float] = {}  # MdAPE behind an unjudged publish
        self._losses: dict[Edge, int] = {}     # consecutive losing publishes
        self._generations: dict[Edge, int] = {}     # publishes attempted
        self._published: dict[Edge, int] = {}       # edge -> live generation
        self._bundles: dict[Edge, dict] = {}        # edge -> published bundle
        self._journaled: dict[Edge, int] = {}  # generations state_delta sent

    # -- wiring -------------------------------------------------------------

    def breaker(self, edge: Edge) -> CircuitBreaker:
        breaker = self._breakers.get(edge)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.policy.breaker_failures,
                cooldown_s=self.policy.breaker_cooldown_s,
            )
            self._breakers[edge] = breaker
        return breaker

    def _count(self, status: str, n: int = 1) -> None:
        if self.registry is not None and n:
            self.registry.counter(
                "stream_refits_total",
                "Refit attempts by outcome.",
                labels={"status": status},
            ).inc(n)

    def _export_breaker(self, edge: Edge) -> None:
        if self.registry is not None:
            self.registry.gauge(
                "stream_breaker_state",
                "Per-edge circuit state (0 closed, 1 open, 2 half-open).",
                labels={"edge": f"{edge[0]}->{edge[1]}"},
            ).set(float(self.breaker(edge).state.value))

    def _span(self, name: str, **attrs):
        if self.tracer is None or not self.tracer.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    # -- observation --------------------------------------------------------

    def observe(self, records: np.ndarray,
                scored: np.ndarray | None = None) -> None:
        """Feed freshly ingested rows into the per-edge training buffers
        (bounded deques — memory is O(edges * buffer_rows)).

        ``scored`` marks the rows the caller also recorded as drift
        samples; each one counts as fresh evidence for its edge until
        the edge's next refit attempt."""
        buffers = self._buffers
        rows = records.tolist()
        hits = ([False] * len(rows) if scored is None
                else np.asarray(scored, dtype=bool).tolist())
        for row, hit in zip(rows, hits):
            edge = (row[_SRC], row[_DST])
            buffer = buffers.get(edge)
            if buffer is None:
                buffer = buffers[edge] = deque(maxlen=self.policy.buffer_rows)
            buffer.append(row)
            if hit:
                self._fresh[edge] = self._fresh.get(edge, 0) + 1

    # -- scheduling ---------------------------------------------------------

    def required(self, edge: Edge) -> int:
        """Fresh drift samples the edge needs before its next attempt."""
        return min(self.policy.min_samples * 2 ** self._losses.get(edge, 0),
                   self.drift.window)

    def evidence(self, edge: Edge) -> DriftStats:
        """The edge's drift aggregates over the samples that judge it:
        the whole window before its first attempt, afterwards only the
        samples scored since the last one."""
        if edge not in self._last_attempt:
            return self.drift.edge_stats(*edge)
        return self.drift.edge_stats(*edge, last=self._fresh.get(edge, 0))

    def due(self, now: float) -> list[Edge]:
        """Edges whose drift latch is set on enough fresh evidence,
        cooldown elapsed, and breaker admissible — sorted for
        determinism.  Also judges an unjudged publish once its
        generation has ``required`` samples of its own."""
        policy = self.policy
        out = []
        for edge in sorted(self._buffers):
            stats = self.evidence(edge)
            if stats.n >= policy.min_samples:
                breached = (stats.mdape > policy.mdape_threshold
                            or stats.p95_ape > policy.p95_threshold)
                released = (stats.mdape
                            < policy.mdape_threshold * policy.hysteresis
                            and stats.p95_ape
                            < policy.p95_threshold * policy.hysteresis)
                if edge in self._trigger \
                        and stats.n >= self.required(edge):
                    self._judge(edge, stats, breached, now)
                if breached:
                    self._breached[edge] = True
                elif released:
                    self._breached[edge] = False
                    self._losses.pop(edge, None)
            if not self._breached.get(edge, False):
                continue
            if stats.n < self.required(edge):
                continue
            last = self._last_attempt.get(edge)
            if last is not None and now - last < policy.cooldown_s:
                continue
            if not self.breaker(edge).would_allow(now):
                continue
            out.append(edge)
        return out

    def _judge(self, edge: Edge, stats: DriftStats, breached: bool,
               now: float) -> None:
        """Score the live publish against the MdAPE that triggered it:
        still breached and no better is a loss (``required`` doubles);
        anything else is a win (``required`` resets)."""
        trigger = self._trigger.pop(edge)
        lost = breached and not stats.mdape < trigger
        if not lost:
            self._losses.pop(edge, None)
            return
        losses = self._losses[edge] = self._losses.get(edge, 0) + 1
        if self.registry is not None:
            self.registry.counter(
                "stream_refit_losses_total",
                "Published refits whose own drift samples stayed breached "
                "and no better than the MdAPE that triggered them.",
            ).inc()
        if self.events is not None:
            self.events.emit(
                "stream", "refit_lost", severity="warning",
                edge=f"{edge[0]}->{edge[1]}", mdape=float(stats.mdape),
                trigger_mdape=float(trigger), losses=losses,
                required=self.required(edge), at=float(now),
            )

    def refit_due(self, now: float) -> dict[Edge, str]:
        """One scheduling step: find breached edges and refit them."""
        edges = self.due(now)
        if not edges:
            return {}
        return self.retrain(edges, now)

    # -- execution ----------------------------------------------------------

    def retrain(self, edges: list[Edge], now: float) -> dict[Edge, str]:
        """Refit the given edges; returns per-edge outcome strings
        (``ok`` / ``failed`` / ``timeout`` / ``skipped`` / ``blocked``).

        Failures and timeouts feed the per-edge breaker; ``skipped``
        (too few buffered rows) does not — an idle edge is not a sick
        edge.
        """
        policy = self.policy
        outcomes: dict[Edge, str] = {}
        tasks: list[tuple[Edge, tuple]] = []
        with self._span("stream.retrain", edges=len(edges)):
            for edge in edges:
                if not self.breaker(edge).allow(now):
                    outcomes[edge] = "blocked"
                    self._count("blocked")
                    if self.registry is not None:
                        self.registry.counter(
                            "stream_breaker_blocked_total",
                            "Refit attempts refused by an open breaker.",
                        ).inc()
                    continue
                buffer = self._buffers.get(edge)
                trigger = self.evidence(edge).mdape
                self._last_attempt[edge] = float(now)
                if buffer is None or len(buffer) < policy.min_fit_rows:
                    self._fresh[edge] = 0
                    outcomes[edge] = "skipped"
                    self._count("skipped")
                    # An admitted HALF_OPEN probe that cannot run must
                    # not wedge the breaker in "probe in flight".
                    breaker = self.breaker(edge)
                    if breaker.state is BreakerState.HALF_OPEN:
                        breaker._probing = False
                    continue
                arr = np.array(list(buffer), dtype=LOG_DTYPE)
                tasks.append((edge, (edge[0], edge[1], arr), trigger))

            if tasks:
                results = parallel_map(
                    self.fit_fn,
                    [task for _, task, _ in tasks],
                    workers=policy.workers,
                    label="stream.refit",
                    registry=self.registry,
                    tracer=self.tracer,
                    timeout=policy.fit_timeout_s,
                    return_exceptions=True,
                    events=self.events,
                )
                for (edge, _, trigger), result in zip(tasks, results):
                    if isinstance(result, TaskTimeout):
                        outcomes[edge] = "timeout"
                        self._fail(edge, now, "timeout")
                    elif isinstance(result, Exception) or result is None:
                        outcomes[edge] = "failed"
                        self._fail(edge, now, "failed",
                                   reason=f"{type(result).__name__}: {result}")
                    else:
                        ok, reason = self._publish(edge, result)
                        if ok:
                            outcomes[edge] = "ok"
                            self._fresh[edge] = 0
                            if math.isfinite(trigger):
                                self._trigger[edge] = float(trigger)
                            else:
                                self._trigger.pop(edge, None)
                            breaker = self.breaker(edge)
                            was = breaker.state
                            breaker.record_success(now)
                            self._count("ok")
                            if self.events is not None:
                                self.events.emit(
                                    "stream", "retrain_published",
                                    edge=f"{edge[0]}->{edge[1]}",
                                    generation=self._published.get(edge),
                                    at=float(now),
                                )
                                if was is not BreakerState.CLOSED:
                                    self.events.emit(
                                        "stream", "breaker_close",
                                        edge=f"{edge[0]}->{edge[1]}",
                                        at=float(now),
                                    )
                        else:
                            outcomes[edge] = "failed"
                            self._fail(edge, now, "failed", reason=reason)
            for edge in edges:
                self._export_breaker(edge)
        return outcomes

    def _fail(self, edge: Edge, now: float, status: str,
              reason: str = "") -> None:
        breaker = self.breaker(edge)
        before = breaker.state
        breaker.record_failure(now)
        self._count(status)
        opened = (breaker.state is BreakerState.OPEN
                  and before is not BreakerState.OPEN)
        if self.events is not None:
            self.events.emit(
                "stream", "refit_failed", severity="warning",
                edge=f"{edge[0]}->{edge[1]}", status=status,
                reason=reason, failures=breaker.failures, at=float(now),
            )
            if opened:
                self.events.emit(
                    "stream", "breaker_open", severity="error",
                    edge=f"{edge[0]}->{edge[1]}",
                    failures=breaker.failures,
                    cooldown_s=breaker.cooldown_s, at=float(now),
                )
        if self.registry is not None and opened:
            self.registry.counter(
                "stream_breaker_opens_total",
                "Circuit-breaker open transitions.",
            ).inc()

    def _refuse(self) -> None:
        if self.registry is not None:
            self.registry.counter(
                "durability_rollback_total",
                "Published or restored models the probe gate refused; "
                "serving stayed on the previous generation.",
            ).inc()

    def _publish(self, edge: Edge, result: EdgeModelResult) -> tuple[bool, str]:
        """Encode the fit into its bundle, run :func:`probe_gate` on it,
        splice the decoded model.  The next checkpoint record journals
        the bundle: that record, not this call, commits the publish.

        The live chain entry is touched only on the full success path;
        every failure leaves it byte-for-byte what it was.
        """
        generation = self._generations.get(edge, 0) + 1
        self._generations[edge] = generation
        with self._span("stream.publish", edge=f"{edge[0]}->{edge[1]}",
                        generation=generation) as span:
            try:
                bundle = _result_to_bundle(
                    result,
                    derive_seed(self.seed, edge[0], edge[1], generation),
                    self.policy.probe_rows)
                live = probe_gate(bundle)
            except Exception as exc:  # noqa: BLE001 - any failure refuses
                span.attrs["outcome"] = "refused"
                self._refuse()
                return False, f"publish refused: {exc}"
            span.attrs["outcome"] = "published"
        self.chain.edge_models[edge] = live
        self._published[edge] = generation
        self._bundles[edge] = bundle
        return True, ""

    # -- durability ---------------------------------------------------------

    def _latch_state(self) -> dict:
        return {
            "breakers": [
                [s, d, breaker.state_dict()]
                for (s, d), breaker in sorted(self._breakers.items())
            ],
            "breached": [
                [s, d, bool(v)] for (s, d), v in sorted(self._breached.items())
            ],
            "last_attempt": [
                [s, d, float(t)]
                for (s, d), t in sorted(self._last_attempt.items())
            ],
            "fresh": [
                [s, d, int(n)] for (s, d), n in sorted(self._fresh.items())
            ],
            "trigger": [
                [s, d, float(m)] for (s, d), m in sorted(self._trigger.items())
            ],
            "losses": [
                [s, d, int(n)] for (s, d), n in sorted(self._losses.items())
            ],
            "generations": [
                [s, d, int(n)]
                for (s, d), n in sorted(self._generations.items())
            ],
        }

    def state_dict(self) -> dict:
        return {
            "buffers": [
                [s, d, [list(row) for row in buffer]]
                for (s, d), buffer in sorted(self._buffers.items())
            ],
            "published": [
                [s, d, int(g), self._bundles.get((s, d))]
                for (s, d), g in sorted(self._published.items())
            ],
            **self._latch_state(),
        }

    def state_delta(self) -> dict:
        """One journal record's share of :meth:`state_dict`: no buffers
        (the supervisor journals the rows that fill them), and only the
        published entries whose generation changed since the previous
        delta or :meth:`load_state` — a ``None`` generation withdraws an
        edge whose re-splice failed.  :meth:`fold_state` applies it."""
        published = []
        for edge in sorted(set(self._published) | set(self._journaled)):
            generation = self._published.get(edge)
            if generation != self._journaled.get(edge):
                published.append([*edge, generation, self._bundles.get(edge)])
        self._journaled = dict(self._published)
        return {"published": published, **self._latch_state()}

    @staticmethod
    def fold_state(state: dict, rows: list, deltas: list[dict]) -> dict:
        """A :meth:`state_dict` payload advanced by the rows observed
        since (oldest first) and the :meth:`state_delta` records written
        since: the payload :meth:`load_state` restores.  Buffers are not
        trimmed here; ``load_state`` keeps the newest ``buffer_rows``."""
        buffers = {(s, d): list(rows_) for s, d, rows_ in
                   state.get("buffers", ())}
        for row in rows:
            buffers.setdefault((row[_SRC], row[_DST]), []).append(row)
        published = {(s, d): (g, b) for s, d, g, b in
                     state.get("published", ())}
        for delta in deltas:
            for s, d, g, b in delta["published"]:
                if g is None:
                    published.pop((s, d), None)
                else:
                    published[(s, d)] = (g, b)
        return {
            **state,
            **(deltas[-1] if deltas else {}),
            "buffers": [[s, d, b] for (s, d), b in sorted(buffers.items())],
            "published": [[s, d, g, b]
                          for (s, d), (g, b) in sorted(published.items())],
        }

    def load_state(self, state: dict) -> None:
        """Restore buffers/breakers/latches, then rebuild the published
        models from their bundles.

        Each rebuild passes :func:`probe_gate`, exactly like a live
        publish.  A bundle the gate refuses (one written before bundles
        carried their model, say) withdraws its edge: the chain keeps
        its construction-time entry, ``durability_rollback_total``
        counts it, and drift re-triggers the refit.
        """
        self._buffers.clear()
        for s, d, rows in state.get("buffers", ()):
            buffer = deque(maxlen=self.policy.buffer_rows)
            for row in rows:
                buffer.append(tuple(row))
            self._buffers[(str(s), str(d))] = buffer
        self._breakers.clear()
        for s, d, payload in state.get("breakers", ()):
            breaker = self.breaker((str(s), str(d)))
            breaker.load_state(payload)
        self._breached = {
            (str(s), str(d)): bool(v)
            for s, d, v in state.get("breached", ())
        }
        self._last_attempt = {
            (str(s), str(d)): float(t)
            for s, d, t in state.get("last_attempt", ())
        }
        # Checkpoints written before the evidence gate carry none of the
        # next three: no fresh samples, nothing to judge, no backoff.
        self._fresh = {
            (str(s), str(d)): int(n) for s, d, n in state.get("fresh", ())
        }
        self._trigger = {
            (str(s), str(d)): float(m)
            for s, d, m in state.get("trigger", ())
        }
        self._losses = {
            (str(s), str(d)): int(n) for s, d, n in state.get("losses", ())
        }
        self._generations = {
            (str(s), str(d)): int(n)
            for s, d, n in state.get("generations", ())
        }
        self._published.clear()
        self._bundles.clear()
        self._journaled = {}
        for s, d, generation, bundle in state.get("published", ()):
            edge = (str(s), str(d))
            self._journaled[edge] = int(generation)
            # Checkpoints without counters: never reuse a live number.
            self._generations[edge] = max(self._generations.get(edge, 0),
                                          int(generation))
            try:
                live = probe_gate(bundle)
            except ValueError as exc:
                self._refuse()
                if self.events is not None:
                    self.events.emit(
                        "stream", "retrain_rollback", severity="warning",
                        edge=f"{edge[0]}->{edge[1]}",
                        generation=int(generation), reason=str(exc),
                    )
                continue
            self.chain.edge_models[edge] = live
            self._published[edge] = int(generation)
            self._bundles[edge] = bundle
        for edge in self._breakers:
            self._export_breaker(edge)
