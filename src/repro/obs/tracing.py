"""Lightweight in-process tracing for the serving and training pipelines.

Not a distributed tracer — one process, one :class:`Tracer`, spans timed
with the monotonic clock (``time.perf_counter``) and nested through an
explicit stack::

    tracer = Tracer()
    with tracer.span("serve.predict_batch", requests=32):
        with tracer.span("serve.fixpoint") as sp:
            ...
            sp.attrs["iterations"] = 3

Finished spans land in a bounded ring buffer (:meth:`Tracer.spans`) and,
when the tracer is wired to a :class:`~repro.obs.metrics.MetricsRegistry`,
each span also feeds a ``trace_span_seconds`` histogram and a
``trace_spans_total`` counter labelled by span name — so trace timing
shows up in the same Prometheus/JSON export as everything else.

A disabled tracer (``Tracer(enabled=False)``) hands out a shared no-op
span, so instrumented code pays one attribute check and nothing else; the
serving layer goes further and skips the call entirely when no tracer was
provided.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, exponential_buckets

__all__ = ["Span", "SpanRecord", "Tracer", "NULL_SPAN", "maybe_span"]

# 10 µs .. ~5 s: spans include per-endpoint index rebuilds, far quicker
# than whole prediction batches.
_SPAN_BUCKETS = exponential_buckets(1e-5, 2.0, 20)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what ran, for how long, under whom."""

    name: str
    start_s: float       # perf_counter timestamp (relative, monotonic)
    duration_s: float
    parent: str | None
    depth: int
    attrs: dict = field(default_factory=dict)


class Span:
    """A live span; use only via ``with Tracer.span(...)``.

    ``attrs`` is mutable while the span is open — drop results in as they
    become known (iteration counts, row counts) and they are frozen into
    the :class:`SpanRecord` on exit.
    """

    __slots__ = ("name", "attrs", "_tracer", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        self._tracer._stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        tracer._record(
            SpanRecord(
                name=self.name,
                start_s=self._start,
                duration_s=end - self._start,
                parent=tracer._stack[-1] if tracer._stack else None,
                depth=len(tracer._stack),
                attrs=self.attrs,
            )
        )


class _NullSpan:
    """Shared no-op span for disabled tracers."""

    def __init__(self) -> None:
        self.attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        self.attrs = {}  # writes to a dead span must not accumulate
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


def maybe_span(tracer: "Tracer | None", name: str, **attrs):
    """``tracer.span(name, **attrs)``, or :data:`NULL_SPAN` when there is
    no tracer (a disabled one hands out the no-op itself)."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


class Tracer:
    """Span factory + bounded buffer of finished spans.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns a shared no-op and nothing is
        recorded.
    max_spans:
        Ring-buffer size: the oldest finished spans fall off first, so a
        long replay cannot grow memory without bound.
    registry:
        Optional metrics registry; each finished span observes its
        duration into ``trace_span_seconds{span=<name>}`` and increments
        ``trace_spans_total{span=<name>}``.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.enabled = bool(enabled)
        self.registry = registry
        self._stack: list[str] = []
        self._finished: deque[SpanRecord] = deque(maxlen=max_spans)

    def span(self, name: str, **attrs):
        """Context manager timing one named unit of work."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def _record(self, record: SpanRecord) -> None:
        self._finished.append(record)
        if self.registry is not None:
            self.registry.histogram(
                "trace_span_seconds",
                "Span durations by name.",
                labels={"span": record.name},
                bounds=_SPAN_BUCKETS,
            ).observe(record.duration_s)
            self.registry.counter(
                "trace_spans_total",
                "Finished spans by name.",
                labels={"span": record.name},
            ).inc()

    # -- inspection --------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Finished spans, oldest first (bounded by ``max_spans``)."""
        return list(self._finished)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name aggregates over the buffered spans:
        ``{name: {count, total_s, mean_s, p50_s, p95_s, max_s}}``, sorted
        by name.  The percentiles are exact over the buffered window
        (nearest-rank with linear interpolation), so span latency tails
        are visible without the flight recorder."""
        durations: dict[str, list[float]] = {}
        for rec in self._finished:
            durations.setdefault(rec.name, []).append(rec.duration_s)
        agg: dict[str, dict[str, float]] = {}
        for name, durs in sorted(durations.items()):
            durs.sort()
            total = sum(durs)
            agg[name] = {
                "count": len(durs),
                "total_s": total,
                "mean_s": total / len(durs),
                "p50_s": _quantile(durs, 0.5),
                "p95_s": _quantile(durs, 0.95),
                "max_s": durs[-1],
            }
        return agg

    def reset(self) -> None:
        self._finished.clear()
        self._stack.clear()
