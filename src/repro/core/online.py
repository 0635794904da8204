"""The in-flight transfer view behind submission-time prediction.

The paper's motivating use case — "Our predictions can be used for
distributed workflow scheduling and optimization" — requires features
*before* a transfer runs.  The training pipeline computes Eq. 2 features
retrospectively (overlap-scaled over each transfer's actual lifetime); at
submission time neither the transfer's duration nor the future arrival
process is known.

What a scheduler does know is the *currently active* transfer population:
:class:`ActiveTransferView` is one in-flight transfer, and
:func:`active_views_from_log` reconstructs the population at any instant
of a replayed log.  The serving layer
(:class:`~repro.serve.ActiveSet` + :class:`~repro.serve.BatchOnlinePredictor`)
estimates the Table 2 features from that population under a persistence
assumption — whatever is running now keeps running at its current average
rate for the duration of the new transfer — and runs the duration
fix-point: predicted rate determines assumed duration, which determines
overlap scaling, which changes the features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.logs.store import LogStore

__all__ = [
    "ActiveTransferView",
    "active_views_from_log",
]


@dataclass(frozen=True)
class ActiveTransferView:
    """What a scheduler knows about one in-flight transfer.

    Attributes
    ----------
    src, dst:
        Endpoint names.
    rate:
        Current average rate, bytes/s (from progress reports).
    started_at:
        Submission time, seconds.
    expected_end:
        Best-effort completion estimate; ``inf`` if unknown (treated as
        running forever, the conservative choice for contention).
    concurrency, parallelism, n_files:
        Tunables and file count (for G and S features).
    """

    src: str
    dst: str
    rate: float
    started_at: float
    expected_end: float = float("inf")
    concurrency: int = 2
    parallelism: int = 4
    n_files: int = 1_000_000

    def __post_init__(self) -> None:
        # NaN slips through plain comparisons (every NaN comparison is
        # False), then poisons every contention feature it touches — reject
        # it here so the serving layer can never ingest a poisoned view.
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not np.isfinite(self.started_at):
            raise ValueError(f"started_at must be finite, got {self.started_at}")
        if np.isnan(self.expected_end):
            raise ValueError("expected_end must not be NaN (use inf for unknown)")
        if self.expected_end <= self.started_at:
            raise ValueError("expected_end must be after started_at")
        if self.concurrency < 1 or self.parallelism < 1 or self.n_files < 1:
            raise ValueError("C, P, Nf must be >= 1")

    @property
    def instances(self) -> float:
        return float(min(self.concurrency, self.n_files))

    @property
    def streams(self) -> float:
        return self.instances * self.parallelism


def active_views_from_log(
    log: LogStore,
    now: float,
    lookback_s: float | None = None,
    exclude_transfer_id: int | None = None,
) -> list[tuple[int, ActiveTransferView]]:
    """(transfer_id, view) pairs for every transfer in flight at ``now``,
    in log row order (useful for replay evaluation).

    A transfer is active iff ``ts <= now < te`` — regardless of how long
    ago it started; a multi-hour transfer still in flight is exactly the
    competition a scheduler must account for.  ``lookback_s`` is an
    *optional* cap that additionally drops transfers older than
    ``now - lookback_s`` (useful to bound the view when replaying huge
    logs); by default no cap is applied.

    Pass ``exclude_transfer_id`` when evaluating a logged transfer at its
    own start time, so it does not count as its own competition.
    """
    data = log.raw()
    mask = (data["ts"] <= now) & (data["te"] > now)
    if lookback_s is not None:
        if lookback_s <= 0:
            raise ValueError("lookback_s must be > 0")
        mask &= data["ts"] >= now - lookback_s
    if exclude_transfer_id is not None:
        mask &= data["transfer_id"] != exclude_transfer_id
    out = []
    for i in np.nonzero(mask)[0]:
        rate = data["nb"][i] / (data["te"][i] - data["ts"][i])
        out.append(
            (
                int(data["transfer_id"][i]),
                ActiveTransferView(
                    src=str(data["src"][i]),
                    dst=str(data["dst"][i]),
                    rate=float(rate),
                    started_at=float(data["ts"][i]),
                    expected_end=float(data["te"][i]),
                    concurrency=int(data["c"][i]),
                    parallelism=int(data["p"][i]),
                    n_files=int(data["nf"][i]),
                ),
            )
        )
    return out
