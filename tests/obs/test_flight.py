"""Flight recorder: breach triggers, self-time attribution, the ring,
and the health snapshot / top renderer over the whole obs stack."""

import json

import pytest

from repro.obs.events import EventLog
from repro.obs.flight import (
    TIER_ORDER,
    FlightRecorder,
    span_self_times,
)
from repro.obs.health import health_snapshot, render_top
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class TestBreachDecision:
    def test_latency_threshold(self):
        rec = FlightRecorder(latency_threshold_s=0.1)
        assert rec.breach_reason(0.25, ["edge"]) == "latency"
        assert rec.breach_reason(0.1, ["edge"]) == "latency"  # inclusive
        assert rec.breach_reason(0.05, ["edge"]) is None

    def test_tier_threshold_catches_rung_or_worse(self):
        rec = FlightRecorder(latency_threshold_s=9e9,
                             tier_threshold="analytical")
        assert rec.breach_reason(0.0, ["edge", "global"]) is None
        assert rec.breach_reason(0.0, ["edge", "analytical"]) == "tier"
        assert rec.breach_reason(0.0, ["default"]) == "tier"

    def test_zero_threshold_captures_everything(self):
        rec = FlightRecorder(latency_threshold_s=0.0)
        assert rec.breach_reason(0.0, []) == "latency"

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(latency_threshold_s=-1.0)
        with pytest.raises(ValueError):
            FlightRecorder(tier_threshold="turbo")
        with pytest.raises(ValueError):
            FlightRecorder(max_exemplars=0)


class TestSelfTime:
    def test_child_time_subtracted_from_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        times = span_self_times(tracer.spans())
        assert set(times) == {"parent", "child"}
        parent = times["parent"]
        child = times["child"]
        assert parent["self_s"] == pytest.approx(
            parent["total_s"] - child["total_s"])
        assert child["self_s"] == pytest.approx(child["total_s"])
        assert parent["count"] == 1.0

    def test_negative_residue_clamped(self):
        # Two same-name parents sharing one child name cannot go negative.
        class R:
            def __init__(self, name, duration_s, parent):
                self.name, self.duration_s, self.parent = \
                    name, duration_s, parent

        spans = [R("p", 1.0, None), R("c", 0.7, "p"), R("c", 0.6, "p")]
        assert span_self_times(spans)["p"]["self_s"] == 0.0


class TestCapture:
    def test_exemplar_carries_request_tiers_and_spans(self):
        tracer = Tracer()
        with tracer.span("serve.predict_batch"):
            with tracer.span("serve.fixpoint"):
                pass
        reg = MetricsRegistry()
        events = EventLog(clock=lambda: 0.0, mono=lambda: 0.0)
        rec = FlightRecorder(latency_threshold_s=0.0,
                             registry=reg, events=events)
        exemplar = rec.record(
            0.3, ["edge", "edge", "global"],
            request={"src": "A", "dst": "B", "total_bytes": 1e9},
            active_size=42, spans=tracer.spans(), n_nonconverged=1)
        assert exemplar is not None
        assert exemplar.reason == "latency"
        assert exemplar.n_requests == 3
        assert exemplar.tiers == {"edge": 2, "global": 1}
        assert exemplar.worst_tier == "global"
        assert exemplar.request["src"] == "A"
        assert exemplar.attrs == {"n_nonconverged": 1}
        # Per-span self-time made it into the exemplar.
        assert "serve.fixpoint" in exemplar.spans
        assert exemplar.spans["serve.fixpoint"]["self_s"] >= 0.0
        # And into the brief / the event / the counter.
        brief = exemplar.brief()
        assert brief["hottest_span"] in exemplar.spans
        (event,) = events.events(category="flight")
        assert event.attrs["reason"] == "latency"
        assert reg.flat()['flight_exemplars_total{reason="latency"}'] == 1
        # The whole exemplar serializes strictly.
        json.dumps(exemplar.as_dict(), allow_nan=False)

    def test_non_breaching_batch_not_recorded(self):
        rec = FlightRecorder(latency_threshold_s=1.0)
        assert rec.record(0.1, ["edge"]) is None
        assert len(rec) == 0

    def test_ring_bounded_newest_kept(self):
        rec = FlightRecorder(latency_threshold_s=0.0, max_exemplars=2)
        for i in range(4):
            rec.record(float(i), ["edge"])
        kept = rec.exemplars()
        assert [e.latency_s for e in kept] == [2.0, 3.0]
        assert [b["latency_s"] for b in rec.recent_briefs(1)] == [3.0]

    def test_tier_order_matches_serve_layer(self):
        from repro.serve.fallback import ModelTier

        assert TIER_ORDER == tuple(t.value for t in ModelTier)


class TestHealthSnapshot:
    def _stack(self):
        reg = MetricsRegistry()
        h = reg.histogram("serve_predict_batch_latency_seconds",
                          bounds=(0.01, 0.1, 1.0))
        for _ in range(10):
            h.observe(0.05)
        reg.counter("serve_tier_predictions_total",
                    labels={"tier": "edge"}).inc(8)
        reg.counter("serve_tier_predictions_total",
                    labels={"tier": "global"}).inc(2)
        reg.counter("ingest_rows_total", labels={"format": "jsonl"}).inc(50)
        reg.counter("ingest_quarantined_total",
                    labels={"format": "jsonl", "reason": "x"}).inc(5)
        reg.gauge("drift_mdape", labels={"scope": "tier", "key": "edge"}) \
            .set(12.0)
        reg.gauge("slo_burn_rate", labels={"slo": "s", "window": "fast"}) \
            .set(0.5)
        events = EventLog(clock=lambda: 0.0, mono=lambda: 0.0,
                          registry=reg)
        events.emit("stream", "breaker_open", severity="error", edge="A->B")
        flight = FlightRecorder(latency_threshold_s=0.0)
        flight.record(0.2, ["edge"])
        return reg, events, flight

    def test_snapshot_folds_every_layer(self):
        reg, events, flight = self._stack()
        snap = health_snapshot(
            registry=reg, events=events, flight=flight,
            slo_status={"firing": ["s"]},
            stream_status={"applied_records": 7, "generation": 2,
                           "backlog": 0, "fallbacks": 1, "journal": 3,
                           "breakers": {}},
        )
        assert snap["requests_total"] == 10.0
        assert snap["latency"]["count"] == 10
        assert snap["tiers"] == {"edge": 8.0, "global": 2.0}
        assert snap["ingest"]["rate"] == pytest.approx(0.1)
        assert snap["drift"] == {"tier/edge": 12.0}
        assert snap["slo"]["burn"]["s"]["fast"] == 0.5
        assert snap["events"][-1]["name"] == "breaker_open"
        assert snap["flight"]["captured"] == 1
        assert snap["stream"]["applied_records"] == 7
        json.dumps(snap, allow_nan=False)

    def test_accepts_plain_event_iterable(self):
        _, events, _ = self._stack()
        snap = health_snapshot(events=events.events())
        assert len(snap["events"]) == 1

    def test_empty_sources_render_empty_sections(self):
        snap = health_snapshot()
        assert snap["latency"] == {} and snap["events"] == []
        # And the renderer copes with the empty snapshot.
        text = render_top(snap)
        assert text.startswith("repro-tools top")

    def test_render_top_shows_every_section(self):
        reg, events, flight = self._stack()
        snap = health_snapshot(
            registry=reg, events=events, flight=flight,
            slo_status={"firing": ["s"]},
            stream_status={"applied_records": 7, "generation": 2,
                           "backlog": 0, "fallbacks": 1, "journal": 3,
                           "breakers": {"A->B": "OPEN"}},
        )
        text = render_top(snap, history=[1.0, 5.0, 3.0])
        for needle in ("tier mix", "ingest", "drift", "stream",
                       "journal        3", "fallbacks   1",
                       "breaker A->B", "slo burn", "FIRING",
                       "flight recorder", "recent events",
                       "breaker_open", "throughput"):
            assert needle in text, text
