"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLO` names one service-level indicator and the value it must
stay under (``mode="max"``) or over (``mode="min"``).  The
:class:`SLOEngine` evaluates objectives in two complementary ways:

- **Windowed burn-rate alerting** (:meth:`SLOEngine.record` +
  :meth:`SLOEngine.evaluate`): SLI samples stream in stamped with
  *data time* — the stream supervisor feeds the log's own timeline, so
  chaos replays evaluate identically however fast wall-clock runs.  An
  alert fires only when the breach fraction exceeds its threshold in
  **both** a fast and a slow window (classic multi-window burn rate:
  the fast window gives responsiveness, the slow window suppresses
  blips), and resolves when both fall back below.  Each transition
  emits exactly one structured ``slo/alert`` event carrying an
  engine-local ``alert_seq``; both the sample windows and the alert
  ledger travel in :meth:`state_dict`, so a crash-resumed stream fires
  the *same* alerts with the *same* sequence numbers — the acceptance
  proof in ``repro-tools stream chaos``.

- **Instantaneous registry checks** (:func:`evaluate_registry`): SLOs
  carrying a ``source`` spec read their current SLI straight out of a
  :class:`~repro.obs.metrics.MetricsRegistry` (or an exported
  snapshot) — the ``repro-tools slo check`` CI gate.

Source specs are plain tuples so :class:`SLO` stays frozen/hashable::

    ("histogram_quantile", "serve_predict_batch_latency_seconds", 0.99)
    ("gauge", "drift_mdape", (("scope", "overall"),))
    ("gauge_max", "drift_mdape", (("scope", "tier"),))
    ("counter_ratio", "serve_tier_predictions_total", (("tier", "edge"),),
     "serve_requests_total", ())
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "SLO",
    "SLOEngine",
    "default_slos",
    "stream_slos",
    "read_source",
    "evaluate_registry",
]


@dataclass(frozen=True)
class SLO:
    """One objective: an SLI, a target, and burn-rate alert policy."""

    name: str
    description: str = ""
    target: float = 0.0
    mode: str = "max"              # "max": SLI <= target; "min": SLI >= target
    fast_window_s: float = 300.0   # 5 m of data time
    slow_window_s: float = 3600.0  # 1 h of data time
    fast_burn: float = 0.5         # breach fraction needed in the fast window
    slow_burn: float = 0.1         # ... and in the slow window
    min_samples: int = 3           # slow-window samples needed to alert at all
    severity: str = "warning"
    source: tuple | None = None    # registry source spec (see module doc)

    def __post_init__(self) -> None:
        if self.mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {self.mode!r}")
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast_window_s <= slow_window_s"
            )
        if not (0.0 < self.fast_burn <= 1.0 and 0.0 < self.slow_burn <= 1.0):
            raise ValueError("burn thresholds must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    def breached(self, value: float) -> bool:
        """Does one SLI sample violate the objective?"""
        if not math.isfinite(value):
            return False
        return value > self.target if self.mode == "max" else value < self.target


def default_slos(
    p99_latency_s: float = 0.25,
    tier0_ratio: float = 0.5,
    mdape_ceiling: float = 60.0,
    quarantine_rate: float = 0.10,
) -> list[SLO]:
    """The registry-sourced serving objectives behind ``slo check``."""
    return [
        SLO(
            "predict_p99_latency",
            "p99 batch predict latency stays under the budget (seconds).",
            target=p99_latency_s, mode="max", severity="critical",
            source=("histogram_quantile",
                    "serve_predict_batch_latency_seconds", 0.99),
        ),
        SLO(
            "tier0_serve_ratio",
            "Fraction of predictions served by the edge (tier-0) model.",
            target=tier0_ratio, mode="min",
            source=("counter_ratio",
                    "serve_tier_predictions_total", (("tier", "edge"),),
                    "serve_tier_predictions_total", ()),
        ),
        SLO(
            "mdape_ceiling",
            "Worst per-tier rolling MdAPE stays under the ceiling (%).",
            target=mdape_ceiling, mode="max",
            source=("gauge_max", "drift_mdape", (("scope", "tier"),)),
        ),
        SLO(
            "quarantine_rate",
            "Fraction of ingested rows quarantined.",
            target=quarantine_rate, mode="max",
            source=("counter_ratio",
                    "ingest_quarantined_total", (),
                    "ingest_rows_total", ()),
        ),
    ]


def stream_slos(
    quarantine_rate: float = 0.10,
    staleness_s: float = 3600.0,
    tier0_ratio: float = 0.25,
    mdape_ceiling: float = 60.0,
    fast_window_s: float = 300.0,
    slow_window_s: float = 3600.0,
    min_samples: int = 3,
) -> list[SLO]:
    """Data-time objectives the stream supervisor feeds every cycle."""
    shared = dict(
        fast_window_s=fast_window_s, slow_window_s=slow_window_s,
        min_samples=min_samples,
    )
    return [
        SLO("stream_quarantine_rate",
            "Cumulative quarantine rate of the tailed log.",
            target=quarantine_rate, mode="max", **shared),
        SLO("stream_checkpoint_staleness",
            "Data time elapsed since the last checkpoint (seconds).",
            target=staleness_s, mode="max", severity="critical", **shared),
        SLO("stream_tier0_ratio",
            "Edge-tier share of each applied batch's predictions.",
            target=tier0_ratio, mode="min", **shared),
        SLO("stream_mdape",
            "Rolling overall MdAPE of streamed predictions (%).",
            target=mdape_ceiling, mode="max", **shared),
    ]


# -- registry sources ------------------------------------------------------


def _labels_match(labels: Mapping[str, str], want: tuple) -> bool:
    """Subset match: every (k, v) in ``want`` appears in ``labels``."""
    return all(labels.get(k) == v for k, v in want)


def read_source(registry: MetricsRegistry, source: tuple) -> float:
    """Evaluate one source spec against a live registry; NaN = no data."""
    kind = source[0]
    if kind == "histogram_quantile":
        _, name, q = source
        merged: Histogram | None = None
        for s in registry.series():
            if s.name == name and isinstance(s, Histogram):
                if merged is None:
                    merged = Histogram(name, bounds=s.bounds)
                merged.merge(s)
        return merged.quantile(float(q)) if merged is not None else math.nan
    if kind == "gauge":
        _, name, want = source
        for s in registry.series():
            if s.name == name and s.kind == "gauge" \
                    and _labels_match(s.labels_dict, tuple(want)):
                return float(s.value)
        return math.nan
    if kind == "gauge_max":
        _, name, want = source
        values = [
            float(s.value) for s in registry.series()
            if s.name == name and s.kind == "gauge"
            and _labels_match(s.labels_dict, tuple(want))
        ]
        return max(values) if values else math.nan
    if kind == "counter_ratio":
        _, num_name, num_want, den_name, den_want = source
        num = sum(
            float(s.value) for s in registry.series()
            if s.name == num_name and s.kind == "counter"
            and _labels_match(s.labels_dict, tuple(num_want))
        )
        den = sum(
            float(s.value) for s in registry.series()
            if s.name == den_name and s.kind == "counter"
            and _labels_match(s.labels_dict, tuple(den_want))
        )
        return num / den if den > 0 else math.nan
    raise ValueError(f"unknown SLO source kind {kind!r}")


def evaluate_registry(
    registry: MetricsRegistry, slos: Iterable[SLO]
) -> list[dict]:
    """Instantaneous pass/fail of registry-sourced SLOs (the CI gate).

    Objectives whose SLI has no data yet come back with ``value=NaN``
    and ``ok=True`` — absence of traffic is not a breach.
    """
    results = []
    for slo in slos:
        if slo.source is None:
            continue
        value = read_source(registry, slo.source)
        results.append({
            "slo": slo.name,
            "description": slo.description,
            "value": value,
            "target": slo.target,
            "mode": slo.mode,
            "severity": slo.severity,
            "ok": not slo.breached(value),
        })
    return results


# -- the windowed engine ---------------------------------------------------


class SLOEngine:
    """Burn-rate evaluation over data-time SLI samples.

    One engine per stream; feed samples with :meth:`record` (unknown SLI
    names are ignored, so producers can emit their full catalog) and
    call :meth:`evaluate` once per cycle with the current data time.
    """

    def __init__(
        self,
        slos: Iterable[SLO],
        registry: MetricsRegistry | None = None,
        events: EventLog | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self.slos: dict[str, SLO] = {}
        for slo in slos:
            if slo.name in self.slos:
                raise ValueError(f"duplicate SLO {slo.name!r}")
            self.slos[slo.name] = slo
        self.registry = registry
        self.events = events
        self.flight = flight
        self._samples: dict[str, deque[tuple[float, float]]] = {
            name: deque() for name in self.slos
        }
        self._firing: dict[str, bool] = {name: False for name in self.slos}
        self._alert_seq = 0
        self._alert_log: list[dict] = []

    # -- sample intake -----------------------------------------------------

    def record(self, name: str, value: float, now: float) -> None:
        """One SLI sample at data time ``now``; non-finite values and
        unknown SLI names are dropped."""
        slo = self.slos.get(name)
        if slo is None or not math.isfinite(value):
            return
        window = self._samples[name]
        window.append((float(now), float(value)))
        horizon = float(now) - slo.slow_window_s
        while window and window[0][0] < horizon:
            window.popleft()
        if self.registry is not None:
            self.registry.gauge(
                "slo_sli", "Latest SLI sample per objective.",
                labels={"slo": name},
            ).set(float(value))

    # -- evaluation --------------------------------------------------------

    def _burn(self, slo: SLO, window_s: float, now: float) -> tuple[float, int]:
        """(breach fraction, sample count) over the trailing window."""
        samples = [
            v for t, v in self._samples[slo.name] if t > now - window_s
        ]
        if not samples:
            return 0.0, 0
        breached = sum(1 for v in samples if slo.breached(v))
        return breached / len(samples), len(samples)

    def evaluate(self, now: float) -> list[dict]:
        """Re-derive burn rates and fire/resolve alerts; returns the
        transitions that happened at this evaluation."""
        transitions = []
        for name, slo in self.slos.items():
            fast_frac, _ = self._burn(slo, slo.fast_window_s, now)
            slow_frac, n_slow = self._burn(slo, slo.slow_window_s, now)
            if self.registry is not None:
                for window, frac in (("fast", fast_frac), ("slow", slow_frac)):
                    self.registry.gauge(
                        "slo_burn_rate",
                        "Breach fraction of SLI samples per burn window.",
                        labels={"slo": name, "window": window},
                    ).set(frac)
            should_fire = (
                n_slow >= slo.min_samples
                and fast_frac >= slo.fast_burn
                and slow_frac >= slo.slow_burn
            )
            firing = self._firing[name]
            if should_fire and not firing:
                transitions.append(self._transition(
                    slo, "firing", now, fast_frac, slow_frac))
            elif firing and not should_fire \
                    and fast_frac < slo.fast_burn and slow_frac < slo.slow_burn:
                transitions.append(self._transition(
                    slo, "resolved", now, fast_frac, slow_frac))
            if self.registry is not None:
                self.registry.gauge(
                    "slo_firing", "1 while the objective's alert is firing.",
                    labels={"slo": name},
                ).set(1.0 if self._firing[name] else 0.0)
        return transitions

    def _transition(
        self, slo: SLO, state: str, now: float,
        fast_frac: float, slow_frac: float,
    ) -> dict:
        self._firing[slo.name] = state == "firing"
        self._alert_seq += 1
        window = self._samples[slo.name]
        entry = {
            "alert_seq": self._alert_seq,
            "slo": slo.name,
            "state": state,
            "t": float(now),
        }
        self._alert_log.append(entry)
        if self.registry is not None and state == "firing":
            self.registry.counter(
                "slo_alerts_total", "Burn-rate alerts fired per objective.",
                labels={"slo": slo.name},
            ).inc()
        if self.events is not None:
            attrs = {
                **entry,
                "severity_hint": slo.severity,
                "target": slo.target,
                "mode": slo.mode,
                "sli": window[-1][1] if window else None,
                "fast_burn": fast_frac,
                "slow_burn": slow_frac,
            }
            if self.flight is not None and state == "firing":
                attrs["exemplars"] = self.flight.recent_briefs(3)
            self.events.emit(
                "slo", "alert",
                severity=slo.severity if state == "firing" else "info",
                **attrs,
            )
        return entry

    # -- status ------------------------------------------------------------

    def firing(self) -> list[str]:
        """Names of objectives whose alert is currently firing."""
        return [name for name, on in self._firing.items() if on]

    @property
    def alert_log(self) -> list[dict]:
        """Every alert transition so far (firing and resolved), in order."""
        return list(self._alert_log)

    def status(self) -> dict:
        return {
            "firing": self.firing(),
            "alerts": len([e for e in self._alert_log
                           if e["state"] == "firing"]),
            "alert_seq": self._alert_seq,
            "alert_log": self.alert_log,
            "samples": {name: len(w) for name, w in self._samples.items()},
        }

    # -- checkpoint plumbing -----------------------------------------------

    def state_dict(self) -> dict:
        """Everything alert determinism needs: the sample windows, the
        latch states, and the alert ledger."""
        return {
            "samples": {
                name: [[t, v] for t, v in window]
                for name, window in self._samples.items()
            },
            "firing": dict(self._firing),
            "alert_seq": self._alert_seq,
            "alert_log": [dict(e) for e in self._alert_log],
        }

    def load_state(self, state: Mapping) -> None:
        samples = state.get("samples", {})
        for name in self.slos:
            self._samples[name] = deque(
                (float(t), float(v)) for t, v in samples.get(name, [])
            )
            self._firing[name] = bool(state.get("firing", {}).get(name, False))
            if self.registry is not None:
                self.registry.gauge(
                    "slo_firing", "1 while the objective's alert is firing.",
                    labels={"slo": name},
                ).set(1.0 if self._firing[name] else 0.0)
        self._alert_seq = int(state.get("alert_seq", 0))
        self._alert_log = [dict(e) for e in state.get("alert_log", [])]
