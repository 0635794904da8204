"""Deterministic parallel execution + content-addressed artifact cache.

The training and harness workloads are embarrassingly parallel — per-edge
model fits, independent experiments, repeated benchmark cells — and they
recompute the same expensive artifacts (the Table 2 feature matrix, per-
edge model bundles) across runs.  This package supplies the two missing
pieces:

- :mod:`repro.exec.engine` — :func:`parallel_map`: ordered fan-out over a
  ``ProcessPoolExecutor`` with worker-crash capture and serial-fallback
  retry.  ``workers=1`` (the default, or ``REPRO_WORKERS=1``) is a plain
  in-order loop, so serial runs are bit-identical to the pre-engine code;
  ``workers=N`` must produce bit-identical artifacts, which the parity
  tests in ``tests/exec/test_parallel_parity.py`` enforce.
- :mod:`repro.exec.retry` — :class:`BackoffPolicy` / :func:`retry_call`:
  the deterministically jittered exponential backoff shared by the
  streaming tail and the shard router (one formula, one seed discipline,
  no thundering herds).
- :mod:`repro.exec.scratch` — memory-mapped scratch files for shipping a
  :class:`~repro.core.features.FeatureMatrix` to worker processes without
  pickling the arrays into every task.
- :mod:`repro.exec.cache` — :class:`ArtifactCache`: a content-addressed
  on-disk cache (SHA-256 fingerprints over the log arrays + config) for
  feature matrices and model bundles, written through
  :mod:`repro.atomicio` and checksum-verified on read.
See ``docs/performance.md`` for the worker model and determinism contract.
"""

from __future__ import annotations

from repro.exec.cache import (
    ArtifactCache,
    cached_build_feature_matrix,
    combine_fingerprints,
    default_cache_root,
    fingerprint_config,
    fingerprint_store,
)
from repro.exec.engine import (
    TaskError,
    TaskTimeout,
    derive_seed,
    parallel_map,
    resolve_workers,
    timeout_enforceable,
)
from repro.exec.retry import BackoffPolicy, retry_call
from repro.exec.scratch import (
    clear_process_cache,
    load_feature_matrix,
    write_feature_matrix,
)

__all__ = [
    "parallel_map",
    "resolve_workers",
    "derive_seed",
    "TaskError",
    "TaskTimeout",
    "timeout_enforceable",
    "BackoffPolicy",
    "retry_call",
    "ArtifactCache",
    "cached_build_feature_matrix",
    "fingerprint_store",
    "fingerprint_config",
    "combine_fingerprints",
    "default_cache_root",
    "write_feature_matrix",
    "load_feature_matrix",
    "clear_process_cache",
]
