"""GridFTP transfer semantics (§2, §4.1).

A Globus transfer request names a source, a destination, the dataset shape
(bytes, files, directories) and two tunables:

- **Concurrency C** — independent GridFTP process pairs, each moving one
  file at a time.  Effective concurrency is ``min(C, Nf)`` (a transfer with
  fewer files than C can't use all process pairs — the paper's Eq. for G).
- **Parallelism P** — TCP streams per process pair, so a transfer opens
  ``min(C, Nf) * P`` streams in total (the paper's S features).

Overheads reproduced here (all feed Figure 5's startup/coordination story):

- fixed startup cost (control-channel setup, endpoint activation);
- per-file coordination cost, amortised over the C process pairs;
- per-directory cost (lock contention on parallel file systems);
- an integrity-check rate discount (checksums are enabled by default in
  Globus and consume endpoint CPU per byte).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["GridFTPConfig", "TransferRequest"]


@dataclass(frozen=True)
class GridFTPConfig:
    """Protocol cost model shared by all transfers on a fabric.

    Attributes
    ----------
    startup_s:
        Fixed control-channel establishment time per transfer.
    per_file_s:
        Coordination cost per file (divided by effective concurrency).
    per_dir_s:
        Metadata/lock cost per directory.
    integrity_discount:
        Goodput multiplier (0, 1] when integrity checking is enabled: the
        checksum verification pass re-reads data, so a transfer must move
        ``total_bytes / integrity_discount`` of work.
    default_concurrency / default_parallelism:
        Globus service defaults (the paper notes C and P "do not vary
        greatly in the log data").
    """

    startup_s: float = 2.5
    per_file_s: float = 0.05
    per_dir_s: float = 0.2
    integrity_discount: float = 0.85
    default_concurrency: int = 2
    default_parallelism: int = 4

    def __post_init__(self) -> None:
        if self.startup_s < 0 or self.per_file_s < 0 or self.per_dir_s < 0:
            raise ValueError("overhead times must be >= 0")
        if not 0.0 < self.integrity_discount <= 1.0:
            raise ValueError("integrity_discount must be in (0, 1]")
        if self.default_concurrency < 1 or self.default_parallelism < 1:
            raise ValueError("defaults must be >= 1")


@dataclass
class TransferRequest:
    """One Globus transfer request.

    Attributes
    ----------
    src, dst:
        Endpoint names.
    total_bytes:
        Dataset size (Nb).
    n_files:
        File count (Nf).
    n_dirs:
        Directory count (Nd).
    concurrency, parallelism:
        GridFTP tunables (C, P).
    integrity:
        Whether integrity checking is enabled (Globus default: True).
    submit_time:
        Simulation time at which the request arrives.
    tag:
        Free-form label (used by experiments to mark probe transfers).
    read_disk / write_disk:
        Probe switches: the ESnet methodology (§3.1) transfers from
        /dev/zero (no disk read) and to /dev/null (no disk write) to isolate
        MM, DR and DW.  Disabling a side removes the corresponding storage
        resource and rate cap from the fluid model.
    """

    src: str
    dst: str
    total_bytes: float
    n_files: int = 1
    n_dirs: int = 1
    concurrency: int = 2
    parallelism: int = 4
    integrity: bool = True
    submit_time: float = 0.0
    tag: str = ""
    read_disk: bool = True
    write_disk: bool = True

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("source and destination endpoints must differ")
        # ``<= 0`` alone lets NaN through (every NaN comparison is False),
        # and a NaN or inf size would be served as a NaN rate downstream.
        if not math.isfinite(self.total_bytes) or self.total_bytes <= 0:
            raise ValueError(
                f"total_bytes must be finite and > 0, got {self.total_bytes}"
            )
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        if self.n_dirs < 0:
            raise ValueError("n_dirs must be >= 0")
        if self.concurrency < 1 or self.parallelism < 1:
            raise ValueError("C and P must be >= 1")

    @property
    def effective_concurrency(self) -> int:
        """min(C, Nf): usable GridFTP process pairs."""
        return min(self.concurrency, self.n_files)

    @property
    def n_streams(self) -> int:
        """Total TCP streams: min(C, Nf) * P."""
        return self.effective_concurrency * self.parallelism

    @property
    def avg_file_bytes(self) -> float:
        return self.total_bytes / self.n_files

    def overhead_seconds(self, cfg: GridFTPConfig) -> float:
        """Non-data time: startup + per-file coordination + directory cost."""
        coord = cfg.per_file_s * self.n_files / self.effective_concurrency
        return cfg.startup_s + coord + cfg.per_dir_s * self.n_dirs
