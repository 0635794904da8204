"""Unified health snapshot + the ``repro-tools top`` renderer.

:func:`health_snapshot` folds the four obs sub-layers — registry
metrics, SLO engine state, recent events, flight exemplars — plus an
optional stream-supervisor status into one JSON-ready dict; the CLI's
``top --once --json`` emits it verbatim for scripting.

:func:`render_top` turns that dict into a refreshing ASCII dashboard.
The throughput panel reuses :func:`repro.harness.ascii_plot.scatter`
over the request-count history the CLI accumulates between refreshes.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.harness.ascii_plot import scatter
from repro.obs.events import Event
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["health_snapshot", "render_top"]


def _merged_histogram(registry: MetricsRegistry, name: str) -> Histogram | None:
    merged: Histogram | None = None
    for s in registry.series():
        if s.name == name and isinstance(s, Histogram):
            if merged is None:
                merged = Histogram(name, bounds=s.bounds)
            merged.merge(s)
    return merged


def _counter_by_label(
    registry: MetricsRegistry, name: str, label: str
) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in registry.series():
        if s.name == name and s.kind == "counter":
            key = s.labels_dict.get(label, "")
            out[key] = out.get(key, 0.0) + float(s.value)
    return dict(sorted(out.items()))


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    return sum(
        float(s.value) for s in registry.series()
        if s.name == name and s.kind == "counter"
    )


def _nan_to_none(value: float) -> float | None:
    return None if value is None or not math.isfinite(value) else float(value)


def health_snapshot(
    registry: MetricsRegistry | None = None,
    events: Iterable[Event] | None = None,
    slo_status: Mapping | None = None,
    stream_status: Mapping | None = None,
    shard_status: Sequence[Mapping] | None = None,
    flight: FlightRecorder | None = None,
    recent_events: int = 8,
) -> dict:
    """One JSON-ready view across every obs sub-layer.

    Any section whose source is absent comes back empty rather than
    raising — ``top`` must render whatever subset of the stack exists.
    ``shard_status`` takes :meth:`ShardCluster.status` rows (or the same
    shape reconstructed from a metrics export); per-shard routed/degraded
    request counts and restarts are filled in from the registry's
    ``shard_*`` counters when present.
    """
    snap: dict = {
        "latency": {}, "tiers": {}, "ingest": {}, "drift": {},
        "slo": dict(slo_status or {}),
        "stream": dict(stream_status or {}),
        "shards": [],
        "events": [],
        "flight": {},
        "requests_total": 0.0,
    }
    if shard_status is not None:
        snap["shards"] = [dict(row) for row in shard_status]
    if registry is not None:
        latency = _merged_histogram(
            registry, "serve_predict_batch_latency_seconds")
        if latency is not None and latency.count:
            snap["latency"] = {
                "count": latency.count,
                "p50_s": _nan_to_none(latency.quantile(0.5)),
                "p95_s": _nan_to_none(latency.quantile(0.95)),
                "p99_s": _nan_to_none(latency.quantile(0.99)),
                "mean_s": _nan_to_none(latency.mean),
            }
        snap["tiers"] = _counter_by_label(
            registry, "serve_tier_predictions_total", "tier")
        snap["requests_total"] = sum(snap["tiers"].values())
        rows = _counter_total(registry, "ingest_rows_total")
        quarantined = _counter_total(registry, "ingest_quarantined_total")
        if rows:
            snap["ingest"] = {
                "rows": rows,
                "quarantined": quarantined,
                "rate": quarantined / rows,
            }
        for s in registry.series():
            if s.name == "drift_mdape" and s.kind == "gauge":
                labels = s.labels_dict
                key = f"{labels.get('scope', '')}/{labels.get('key', '')}"
                snap["drift"][key] = float(s.value)
        burn: dict[str, dict[str, float]] = {}
        for s in registry.series():
            if s.name == "slo_burn_rate" and s.kind == "gauge":
                labels = s.labels_dict
                burn.setdefault(labels.get("slo", ""), {})[
                    labels.get("window", "")] = float(s.value)
        if burn and "burn" not in snap["slo"]:
            snap["slo"]["burn"] = dict(sorted(burn.items()))

        routed = _counter_by_label(registry, "shard_requests_total", "shard")
        degraded = _counter_by_label(
            registry, "shard_degraded_answers_total", "shard")
        restarts = _counter_by_label(
            registry, "shard_restarts_total", "shard")
        up = {
            s.labels_dict.get("shard", ""): float(s.value)
            for s in registry.series()
            if s.name == "shard_up" and s.kind == "gauge"
        }
        if routed or up:
            rows = {row.get("shard"): row for row in snap["shards"]}
            for shard in sorted(set(routed) | set(up) | set(degraded)):
                row = rows.get(shard)
                if row is None:
                    row = {"shard": shard,
                           "state": "up" if up.get(shard) else "down"}
                    snap["shards"].append(row)
                row.setdefault("requests", routed.get(shard, 0.0))
                row.setdefault("degraded", degraded.get(shard, 0.0))
                row.setdefault("restarts", restarts.get(shard, 0.0))
    if events is not None:
        # Accept an EventLog or any iterable of Event.
        pool = events.events() if hasattr(events, "events") else list(events)
        snap["events"] = [e.as_dict() for e in pool[-recent_events:]]
    if flight is not None:
        snap["flight"] = {
            "captured": len(flight),
            "recent": flight.recent_briefs(3),
        }
    return snap


def _fmt_ms(value: float | None) -> str:
    return "--" if value is None else f"{value * 1e3:.2f}ms"


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(
    snap: Mapping,
    history: Sequence[float] | None = None,
    width: int = 64,
) -> str:
    """The dashboard: one section per obs sub-layer, fixed-width ASCII."""
    lines: list[str] = ["repro-tools top", "=" * width]

    latency = snap.get("latency") or {}
    lines.append(
        f"requests {snap.get('requests_total', 0.0):>10.0f}   "
        f"p50 {_fmt_ms(latency.get('p50_s')):>9}  "
        f"p95 {_fmt_ms(latency.get('p95_s')):>9}  "
        f"p99 {_fmt_ms(latency.get('p99_s')):>9}"
    )

    tiers = snap.get("tiers") or {}
    total = sum(tiers.values()) or 1.0
    if tiers:
        lines.append("-- tier mix " + "-" * (width - 12))
        for tier, count in tiers.items():
            frac = count / total
            lines.append(
                f"  {tier:<12}{count:>10.0f}  {_bar(frac)} {frac * 100:5.1f}%"
            )

    ingest = snap.get("ingest") or {}
    if ingest:
        lines.append(
            f"ingest   rows {ingest['rows']:>10.0f}   quarantined "
            f"{ingest['quarantined']:>8.0f}  ({ingest['rate'] * 100:.2f}%)"
        )

    drift = snap.get("drift") or {}
    if drift:
        lines.append("-- drift (MdAPE %) " + "-" * (width - 19))
        for key, value in sorted(drift.items()):
            lines.append(f"  {key:<28}{value:>8.2f}")

    stream = snap.get("stream") or {}
    breakers = stream.get("breakers") or {}
    if stream:
        lines.append("-- stream " + "-" * (width - 10))
        lines.append(
            f"  applied {stream.get('applied_records', 0):>8}  "
            f"generation {stream.get('generation', 0):>4}  "
            f"backlog {stream.get('backlog', 0):>6}"
        )
        lines.append(
            f"  journal {stream.get('journal', 0):>8}  "
            f"fallbacks {stream.get('fallbacks', 0):>3}"
        )
        for edge, state in sorted(breakers.items()):
            lines.append(f"  breaker {edge:<24}{state}")

    shards = snap.get("shards") or []
    if shards:
        lines.append("-- shards " + "-" * (width - 10))
        for row in shards:
            state = str(row.get("state", "?"))
            mark = {"up": "+", "down": "!", "draining": "~"}.get(state, "?")
            lines.append(
                f"  [{mark}] {str(row.get('shard', '')):<10}{state:<9}"
                f"req {row.get('requests', 0.0):>9.0f}  "
                f"degraded {row.get('degraded', 0.0):>6.0f}  "
                f"restarts {row.get('restarts', 0.0):>3.0f}"
            )

    slo = snap.get("slo") or {}
    burn = slo.get("burn") or {}
    firing = set(slo.get("firing") or [])
    if burn or firing:
        lines.append("-- slo burn " + "-" * (width - 12))
        for name, windows in sorted(burn.items()):
            flag = " FIRING" if name in firing else ""
            lines.append(
                f"  {name:<28}fast {_bar(windows.get('fast', 0.0), 10)} "
                f"slow {_bar(windows.get('slow', 0.0), 10)}{flag}"
            )
        for name in sorted(firing - set(burn)):
            lines.append(f"  {name:<28}FIRING")

    flight = snap.get("flight") or {}
    if flight.get("captured"):
        lines.append("-- flight recorder " + "-" * (width - 19))
        lines.append(f"  exemplars captured {flight['captured']:>6}")
        for brief in flight.get("recent", []):
            lines.append(
                f"  {brief.get('reason', ''):<8}"
                f"{brief.get('latency_s', 0.0) * 1e3:>9.2f}ms  "
                f"tier={brief.get('worst_tier', '')}  "
                f"hot={brief.get('hottest_span', '')}"
            )

    events = snap.get("events") or []
    if events:
        lines.append("-- recent events " + "-" * (width - 17))
        for data in events:
            try:
                lines.append("  " + Event.from_dict(data).render())
            except (KeyError, ValueError, TypeError):
                continue

    if history is not None and len(history) >= 2 \
            and max(history) > min(history):
        lines.append("-- throughput (requests per refresh) " + "-" * (width - 37))
        lines.append(scatter(
            list(range(len(history))), list(history),
            width=min(width - 2, 60), height=6,
            x_label="refresh", y_label="req",
        ))
    return "\n".join(lines)
