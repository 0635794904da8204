"""Crash-safe file writes shared across the persistence layers.

Every durable artifact the repo writes — model JSON, state snapshots,
metrics exports — must never be observable half-written at its final
path: a scheduler that loads a truncated model JSON mid-crash is worse
than one that loads yesterday's.  The standard POSIX recipe is used
throughout:

1. write the full payload to a temporary file *in the same directory*
   (same filesystem, so the final rename cannot degrade to a copy);
2. flush and ``os.fsync`` the temp file so the bytes are on disk before
   the rename makes them visible;
3. ``os.replace`` onto the final path — atomic on POSIX and Windows;
4. best-effort fsync of the containing directory so the rename itself
   survives a power cut.

A crash at any step leaves either the old file or the new file at the
final path, never a mixture, never a truncation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "checksum_payload",
    "checksummed_json",
]


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so a completed rename survives power
    loss.  Best-effort: some filesystems (and Windows) refuse O_RDONLY
    directory handles, and losing only the *rename* is recoverable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | Path,
    data: bytes,
    fsync: bool = True,
    _fault=None,
) -> None:
    """Write ``data`` to ``path`` atomically (write-temp -> fsync ->
    ``os.replace``).

    ``_fault`` is a test hook: a callable invoked with the stage name
    (``"written"``, ``"synced"``, ``"replaced"``) at each step; raising
    from it simulates a crash at that point.  The guarantee under test:
    the final path never holds a partial payload, whichever stage dies.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
            if _fault is not None:
                _fault("written")
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        if _fault is not None:
            _fault("synced")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise
    if _fault is not None:
        _fault("replaced")
    if fsync:
        _fsync_dir(path.parent)


def atomic_write_text(
    path: str | Path,
    text: str,
    encoding: str = "utf-8",
    fsync: bool = True,
    _fault=None,
) -> None:
    """Text-mode counterpart of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync, _fault=_fault)


def atomic_write_json(
    path: str | Path,
    payload,
    indent: int | None = None,
    fsync: bool = True,
) -> None:
    """Serialise ``payload`` as strict JSON (no NaN/Infinity tokens) and
    write it atomically."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent, allow_nan=False), fsync=fsync
    )


def checksum_payload(payload: dict, exclude: str = "checksum") -> str:
    """Hex SHA-256 over the canonical (sorted-keys) JSON encoding of
    ``payload`` with the ``exclude`` key removed — the shared integrity
    checksum for model artifacts and state snapshots.  Canonical encoding
    makes the checksum independent of dict insertion order."""
    reduced = {k: v for k, v in payload.items() if k != exclude}
    encoded = json.dumps(reduced, sort_keys=True, allow_nan=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def checksummed_json(payload: dict) -> str:
    """``payload`` as strict JSON carrying its :func:`checksum_payload`
    under ``"checksum"``, from one encode: the canonical body is hashed
    and then written as is, with the checksum appended as its last
    member.  A reader that parses the document and re-runs
    :func:`checksum_payload` gets the same digest, because canonical JSON
    survives a parse and re-encode unchanged."""
    body = json.dumps({k: v for k, v in payload.items() if k != "checksum"},
                      sort_keys=True, allow_nan=False)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    member = f'"checksum": "{digest}"}}'
    return body[:-1] + (", " if len(body) > 2 else "") + member
