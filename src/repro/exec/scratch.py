"""Memory-mapped scratch files: ship a FeatureMatrix to worker processes.

Pickling a 15-column float matrix plus the structured log array into every
task would serialize the same megabytes once per edge.  Instead the parent
writes the matrix once (``store.npy`` / ``y.npy`` / ``columns.npy`` +
``manifest.json``, all through :mod:`repro.atomicio` so a crashed parent
never leaves a torn scratch file), and each worker ``np.load``s the arrays
with ``mmap_mode="r"`` — the OS page cache shares the physical memory
across every worker on the machine.

Workers keep a per-process cache keyed by manifest path, so a pool worker
that executes many tasks against the same matrix opens it once.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write_bytes, atomic_write_json
from repro.core.features import FeatureMatrix
from repro.logs.store import LogStore

__all__ = [
    "write_feature_matrix",
    "load_feature_matrix",
    "forget_feature_matrix",
    "clear_process_cache",
]

_MANIFEST_VERSION = 1

# One FeatureMatrix per manifest path per process (worker processes are
# long-lived across tasks; reopening the mmap per task would be waste).
_PROCESS_CACHE: dict[str, FeatureMatrix] = {}


def _save_array(path: Path, arr: np.ndarray) -> None:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    # Scratch files are transient: skip the fsync, keep the atomic rename
    # (a torn .npy would fail parsing in every worker at once).
    atomic_write_bytes(path, buf.getvalue(), fsync=False)


def write_feature_matrix(features: FeatureMatrix, directory: str | Path) -> Path:
    """Write ``features`` as mmap-friendly scratch files; returns the
    manifest path to hand to workers."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(features.columns)
    _save_array(directory / "store.npy", features.store.raw())
    _save_array(directory / "y.npy", features.y)
    _save_array(
        directory / "columns.npy",
        np.stack([features.columns[n] for n in names]),
    )
    manifest = directory / "manifest.json"
    atomic_write_json(
        manifest,
        {
            "version": _MANIFEST_VERSION,
            "columns": names,
            "n_rows": len(features),
        },
        fsync=False,
    )
    return manifest


def load_feature_matrix(
    manifest_path: str | Path, mmap: bool = True
) -> FeatureMatrix:
    """Open a scratch matrix written by :func:`write_feature_matrix`.

    With ``mmap=True`` (default) the arrays are read-only memory maps —
    cheap to open in every worker, shared through the page cache.  Results
    are cached per process by resolved manifest path.
    """
    manifest_path = Path(manifest_path).resolve()
    key = str(manifest_path)
    cached = _PROCESS_CACHE.get(key)
    if cached is not None:
        return cached
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(
            f"unsupported scratch manifest version in {manifest_path}"
        )
    directory = manifest_path.parent
    mode = "r" if mmap else None
    raw = np.load(directory / "store.npy", mmap_mode=mode, allow_pickle=False)
    y = np.load(directory / "y.npy", mmap_mode=mode, allow_pickle=False)
    cols = np.load(directory / "columns.npy", mmap_mode=mode, allow_pickle=False)
    columns = {name: cols[i] for i, name in enumerate(manifest["columns"])}
    features = FeatureMatrix(store=LogStore(raw), columns=columns, y=y)
    _PROCESS_CACHE[key] = features
    return features


def forget_feature_matrix(manifest_path: str | Path) -> None:
    """Drop one manifest's cached matrix (and with it the process's maps
    of its files); call before deleting its scratch directory."""
    _PROCESS_CACHE.pop(str(Path(manifest_path).resolve()), None)


def clear_process_cache() -> None:
    """Drop the per-process manifest cache (tests, or before deleting
    scratch directories that might be re-created at the same path)."""
    _PROCESS_CACHE.clear()
