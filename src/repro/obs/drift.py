"""Live prediction-quality drift monitoring.

The paper's headline numbers are error statistics — 7.0% / 4.6% MdAPE for
the per-edge models (§5.2, §5.5), with the 95th-percentile APE reported
alongside (§5.5.2).  :class:`DriftMonitor` computes exactly those
statistics *at serve time*: every transfer that completes with a realized
average rate contributes one signed absolute-percentage-error sample, and
the monitor maintains rolling-window aggregates per edge, per
:class:`~repro.serve.fallback.ModelTier`, and overall.

Signed APE is ``(predicted - realized) / realized * 100``: the magnitude
feeds MdAPE / p95 APE (the paper's metrics), the sign exposes systematic
bias (a model that always over-promises drifts positive long before its
MdAPE degrades).

Windows are bounded deques — the monitor's memory is
``O(windows * window)`` regardless of replay length — and eviction is
strictly FIFO, so the aggregates always describe the last ``window``
completions, not the whole history.  Every aggregate is mirrored into
gauges (``drift_mdape`` / ``drift_p95_ape`` / ``drift_bias_pct`` /
``drift_samples``, labelled by scope) so drift shows up in the standard
metrics export next to latency and tier counters.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

__all__ = ["DriftMonitor", "DriftStats", "check_rates"]

from repro.obs.metrics import MetricsRegistry


def check_rates(predicted_rate: float,
                realized_rate: float) -> tuple[float, float]:
    """The rates :meth:`DriftMonitor.record` can score, as floats;
    ``ValueError`` unless realized is finite and > 0 and predicted is
    finite and >= 0."""
    predicted = float(predicted_rate)
    realized = float(realized_rate)
    if not math.isfinite(realized) or realized <= 0:
        raise ValueError(f"realized rate must be finite and > 0, got {realized}")
    if not math.isfinite(predicted) or predicted < 0:
        raise ValueError(f"predicted rate must be finite and >= 0, got {predicted}")
    return predicted, realized


@dataclass(frozen=True)
class DriftStats:
    """Rolling-window error aggregates for one scope (edge/tier/overall)."""

    n: int
    mdape: float          # median |signed APE|, percent (the paper's MdAPE)
    p95_ape: float        # 95th percentile of |signed APE|, percent
    bias_pct: float       # median *signed* APE, percent (over/under bias)

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mdape": self.mdape,
            "p95_ape": self.p95_ape,
            "bias_pct": self.bias_pct,
        }


_EMPTY = DriftStats(n=0, mdape=math.nan, p95_ape=math.nan, bias_pct=math.nan)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile over pre-sorted values (the same
    convention as ``numpy.percentile``), stdlib-only."""
    n = len(sorted_values)
    if n == 0:
        return math.nan
    if n == 1:
        return sorted_values[0]
    pos = (q / 100.0) * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _append_sample(edges: dict, tiers: dict, overall: deque,
                   window: int | None, sample) -> tuple[deque, deque]:
    """The one window rule, shared by recording and journal replay: a
    ``(src, dst, tier_name, signed_ape)`` sample joins its edge's, its
    tier's and the overall window, each FIFO-bounded to ``window``.
    Returns the edge and tier windows."""
    src, dst, tier_name, signed_ape = sample
    edge_window = edges.get((src, dst))
    if edge_window is None:
        edge_window = edges[(src, dst)] = deque(maxlen=window)
    tier_window = tiers.get(tier_name)
    if tier_window is None:
        tier_window = tiers[tier_name] = deque(maxlen=window)
    for values in (edge_window, tier_window, overall):
        values.append(signed_ape)
    return edge_window, tier_window


def _stats(window) -> DriftStats:
    if not window:
        return _EMPTY
    signed = sorted(window)
    abs_sorted = sorted(abs(v) for v in window)
    return DriftStats(
        n=len(window),
        mdape=_percentile(abs_sorted, 50.0),
        p95_ape=_percentile(abs_sorted, 95.0),
        bias_pct=_percentile(signed, 50.0),
    )


class DriftMonitor:
    """Rolling prediction-error tracker keyed by edge and model tier.

    Parameters
    ----------
    registry:
        Metrics registry to mirror aggregates into (a private one is
        created when omitted, so the monitor works standalone).
    window:
        Rolling-window length *per scope*, in completed transfers.
    """

    def __init__(self, registry: MetricsRegistry | None = None, window: int = 256) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.window = int(window)
        self._edges: dict[tuple[str, str], deque[float]] = {}
        self._tiers: dict[str, deque[float]] = {}
        self._overall: deque[float] = deque(maxlen=self.window)
        self._observations = self.registry.counter(
            "drift_observations_total",
            "Completed transfers scored against their predictions.",
        )

    # -- recording ---------------------------------------------------------

    def record(
        self,
        src: str,
        dst: str,
        tier,
        predicted_rate: float,
        realized_rate: float,
    ) -> float:
        """Score one completed transfer; returns the signed APE (percent).

        ``tier`` is the :class:`~repro.serve.fallback.ModelTier` (or its
        string value) that produced the prediction.  Raises ``ValueError``
        for non-positive or non-finite rates — a realized rate of zero
        means the caller fed a transfer that never ran, which is an
        upstream bug, not drift.
        """
        return self.record_batch(
            (src,), (dst,), (tier,), (predicted_rate,), (realized_rate,))[0][3]

    def record_batch(self, srcs, dsts, tiers, predicted_rates,
                     realized_rates) -> list[tuple[str, str, str, float]]:
        """Score a batch of completed transfers, in order; returns one
        ``(src, dst, tier_name, signed_ape)`` sample per row, exactly what
        :meth:`fold_state` replays.

        Windows, counter and gauges end exactly where looping
        :meth:`record` over the same rows leaves them, but each touched
        scope's aggregates are computed and exported once per batch, not
        once per row.  Every rate is validated before anything is
        appended, so a bad row leaves the monitor untouched.
        """
        checked = [check_rates(p, r)
                   for p, r in zip(predicted_rates, realized_rates)]
        touched: dict[tuple[str, str], deque[float]] = {}
        out = []
        for src, dst, tier, (predicted, realized) in zip(
                srcs, dsts, tiers, checked):
            sample = (str(src), str(dst),
                      getattr(tier, "value", None) or str(tier),
                      (predicted - realized) / realized * 100.0)
            edge_window, tier_window = _append_sample(
                self._edges, self._tiers, self._overall, self.window, sample)
            touched[("edge", f"{sample[0]}->{sample[1]}")] = edge_window
            touched[("tier", sample[2])] = tier_window
            out.append(sample)
        if out:
            self._observations.inc(len(out))
            touched[("overall", "all")] = self._overall
        for (scope, key), window in touched.items():
            self._export(scope, key, _stats(window))
        return out

    def _export(self, scope: str, key: str, stats: DriftStats) -> None:
        labels = {"scope": scope, "key": key}
        for name, help_text, value in (
            ("drift_mdape", "Rolling-window MdAPE, percent.", stats.mdape),
            ("drift_p95_ape", "Rolling-window p95 APE, percent.", stats.p95_ape),
            ("drift_bias_pct", "Rolling-window median signed APE, percent.",
             stats.bias_pct),
            ("drift_samples", "Samples currently in the rolling window.",
             float(stats.n)),
        ):
            if math.isnan(value):
                continue
            self.registry.gauge(name, help_text, labels=labels).set(value)

    # -- queries -----------------------------------------------------------

    @property
    def observations(self) -> int:
        """Total completions scored (monotonic; windows are bounded)."""
        return int(self._observations.value)

    def edge_stats(self, src: str, dst: str,
                   last: int | None = None) -> DriftStats:
        """The edge's window aggregates; with ``last``, over only its
        newest ``last`` samples (the whole window when it holds fewer).
        Read-only: nothing is exported."""
        window = self._edges.get((str(src), str(dst)), ())
        if last is not None and last < len(window):
            window = list(islice(window, len(window) - max(last, 0), None))
        return _stats(window)

    def tier_stats(self, tier) -> DriftStats:
        tier_name = getattr(tier, "value", None) or str(tier)
        return _stats(self._tiers.get(tier_name, deque()))

    def overall(self) -> DriftStats:
        return _stats(self._overall)

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._edges)

    def tiers(self) -> list[str]:
        return sorted(self._tiers)

    def snapshot(self) -> dict:
        """JSON-ready summary: overall + per-tier + per-edge aggregates."""
        return {
            "observations": self.observations,
            "window": self.window,
            "overall": self.overall().as_dict(),
            "tiers": {t: self.tier_stats(t).as_dict() for t in self.tiers()},
            "edges": {
                f"{s}->{d}": self.edge_stats(s, d).as_dict()
                for s, d in self.edges()
            },
        }

    def reset(self) -> None:
        self._edges.clear()
        self._tiers.clear()
        self._overall.clear()
        self._observations.reset()

    # -- durability --------------------------------------------------------

    def dump_state(self) -> dict:
        """Lossless counterpart of :meth:`snapshot`: the raw rolling
        windows (not just their aggregates), JSON-ready, for the
        durability layer's snapshots.  :meth:`load_snapshot` restores."""
        return {
            "window": self.window,
            "observations": self.observations,
            "overall": list(self._overall),
            "tiers": {t: list(w) for t, w in sorted(self._tiers.items())},
            "edges": [
                [s, d, list(w)] for (s, d), w in sorted(self._edges.items())
            ],
        }

    @staticmethod
    def fold_state(state: dict, samples) -> dict:
        """A :meth:`dump_state` payload advanced by the samples
        :meth:`record_batch` returned, in recording order — for a journal
        of them to replay (predictions cannot be recomputed)."""
        window = state.get("window") or None
        edges = {(s, d): deque(w, maxlen=window)
                 for s, d, w in state.get("edges", ())}
        tiers = {t: deque(w, maxlen=window)
                 for t, w in state.get("tiers", {}).items()}
        overall = deque(state.get("overall", ()), maxlen=window)
        for sample in samples:
            _append_sample(edges, tiers, overall, window, sample)
        return {
            **state,
            "observations": int(state.get("observations", 0)) + len(samples),
            "overall": list(overall),
            "tiers": {t: list(w) for t, w in sorted(tiers.items())},
            "edges": [[s, d, list(w)] for (s, d), w in sorted(edges.items())],
        }

    def load_snapshot(self, state: dict) -> None:
        """Restore the monitor from a :meth:`dump_state` payload.

        Existing windows are replaced wholesale.  If this monitor's
        ``window`` is smaller than the dumped one, each restored window
        keeps only its newest ``window`` samples (deque semantics — the
        aggregates stay a true rolling view).  All gauges are re-exported
        so the registry immediately reflects the restored windows, which
        is what makes a recovered process's drift gauges identical to an
        uninterrupted run's.
        """
        self._edges.clear()
        self._tiers.clear()
        self._overall = deque(
            (float(v) for v in state.get("overall", ())), maxlen=self.window
        )
        for tier_name, values in state.get("tiers", {}).items():
            self._tiers[str(tier_name)] = deque(
                (float(v) for v in values), maxlen=self.window
            )
        for src, dst, values in state.get("edges", ()):
            self._edges[(str(src), str(dst))] = deque(
                (float(v) for v in values), maxlen=self.window
            )
        self._observations.set_total(float(state.get("observations", 0)))
        for (src, dst), window in self._edges.items():
            self._export("edge", f"{src}->{dst}", _stats(window))
        for tier_name, window in self._tiers.items():
            self._export("tier", tier_name, _stats(window))
        if self._overall:
            self._export("overall", "all", _stats(self._overall))
