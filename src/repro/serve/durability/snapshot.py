"""Generation-numbered, checksummed, atomically written state snapshots.

A snapshot is one strict-JSON document holding the serving state at a
point in time — the :class:`~repro.serve.ActiveSet` population, the
:class:`~repro.obs.DriftMonitor` windows, the
:class:`~repro.obs.MetricsRegistry` totals, and ``last_seq``, the newest
journal record the snapshot incorporates.  Files are named
``snapshot-<generation>.json`` and written via
:func:`repro.atomicio.atomic_write_text`, so a crash mid-snapshot leaves
the previous generation intact and the half-written temp file is ignored
by recovery.

Integrity is a SHA-256 ``checksum`` over the canonical JSON of the rest
of the document.  :meth:`SnapshotStore.load_latest` walks generations
newest-first and *falls back* past any snapshot that fails its checksum
(or fails to parse at all) — a corrupted newest generation costs a longer
journal replay, never a failed recovery.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.atomicio import (atomic_write_text, checksum_payload,
                             checksummed_json)

__all__ = ["SnapshotStore", "LoadedSnapshot"]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")
_SNAPSHOT_FORMAT = 1


@dataclass(frozen=True)
class LoadedSnapshot:
    """One successfully verified snapshot plus how it was found."""

    generation: int
    payload: dict
    rejected: tuple[int, ...] = ()   # newer generations skipped as invalid

    @property
    def last_seq(self) -> int:
        return int(self.payload.get("last_seq", 0))


class SnapshotStore:
    """Directory of ``snapshot-<gen>.json`` files, newest generation wins."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path_for(self, generation: int) -> Path:
        if generation < 1:
            raise ValueError("snapshot generations start at 1")
        return self.directory / f"snapshot-{generation:08d}.json"

    def generations(self) -> list[int]:
        """All on-disk generations, ascending (no validity check)."""
        if not self.directory.exists():
            return []
        out = []
        for entry in self.directory.iterdir():
            m = _SNAPSHOT_RE.match(entry.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    # -- write -------------------------------------------------------------

    def write(self, generation: int, sections: dict, last_seq: int) -> Path:
        """Checksum and atomically persist one generation.

        ``sections`` is the caller's state payload (``active`` / ``drift``
        / ``registry`` for the serving state); reserved top-level keys
        are rejected so a section cannot silently shadow the envelope.
        """
        reserved = {"snapshot_format", "generation", "last_seq", "checksum"}
        clash = reserved & set(sections)
        if clash:
            raise ValueError(f"sections may not use reserved keys {sorted(clash)}")
        path = self.path_for(generation)
        if path.exists():
            raise ValueError(f"snapshot generation {generation} already exists")
        payload = {
            "snapshot_format": _SNAPSHOT_FORMAT,
            "generation": int(generation),
            "last_seq": int(last_seq),
            **sections,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, checksummed_json(payload))
        return path

    # -- read --------------------------------------------------------------

    def load(self, generation: int) -> dict:
        """Load and verify one generation; raises ``ValueError`` on a
        missing file, unparseable JSON, wrong format, or bad checksum."""
        path = self.path_for(generation)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"snapshot generation {generation} not found")
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"snapshot {path.name} unreadable: {exc}")
        if not isinstance(payload, dict):
            raise ValueError(f"snapshot {path.name} is not a JSON object")
        if payload.get("snapshot_format") != _SNAPSHOT_FORMAT:
            raise ValueError(
                f"snapshot {path.name} has unsupported format "
                f"{payload.get('snapshot_format')!r}"
            )
        stored = payload.get("checksum")
        if stored is None or stored != checksum_payload(payload):
            raise ValueError(f"snapshot {path.name} failed its checksum")
        if int(payload.get("generation", -1)) != generation:
            raise ValueError(
                f"snapshot {path.name} claims generation "
                f"{payload.get('generation')!r}"
            )
        return payload

    def load_latest(self) -> LoadedSnapshot | None:
        """Newest generation that verifies, or ``None`` when no valid
        snapshot exists (cold start).  Invalid newer generations are
        recorded in ``rejected`` so the caller can count fallbacks."""
        rejected: list[int] = []
        for generation in reversed(self.generations()):
            try:
                payload = self.load(generation)
            except ValueError:
                rejected.append(generation)
                continue
            return LoadedSnapshot(
                generation=generation,
                payload=payload,
                rejected=tuple(rejected),
            )
        return None

    def prune(self, keep: int = 3) -> list[int]:
        """Delete all but the newest ``keep`` generations (``keep >= 2``
        so checksum fallback always has a predecessor).  Returns what was
        deleted."""
        if keep < 2:
            raise ValueError("keep must be >= 2 (fallback needs a predecessor)")
        generations = self.generations()
        doomed = generations[:-keep] if len(generations) > keep else []
        for generation in doomed:
            self.path_for(generation).unlink(missing_ok=True)
        return doomed
