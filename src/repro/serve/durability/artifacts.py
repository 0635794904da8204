"""Versioned model artifact store with gated hot reload and rollback.

A serving process must be able to pick up a freshly trained model without
restarting — but a truncated, corrupted, or simply *bad* artifact must
never take a healthy predictor down.  The store layers three defences on
:mod:`repro.ml.persistence`:

1. **integrity** — artifacts are checksummed twice: the inner model
   document carries the format-v2 model checksum, and the artifact
   envelope carries its own SHA-256, both verified at load
   (:class:`~repro.ml.persistence.ModelIntegrityError` on mismatch);
2. **version pinning** — artifacts are generation-numbered
   (``model-<gen>.json``), written atomically, and never mutated in
   place, so "current" is always a well-defined generation;
3. **validation gate** — every artifact embeds a *probe batch*: feature
   rows plus the publisher's own predictions on them.  A reload
   candidate must reproduce those reference predictions (finite, within
   tolerance) before it is allowed to serve.

:class:`ModelReloader` drives hot reload: it only ever swaps the live
model *after* the candidate passes both gates, so a failed reload is a
rollback to a model that never stopped serving — the predictor keeps
answering through the old generation and ``durability_rollback_total``
counts the incident.  The strict-refuse path is structurally unreachable
during rollback because the old model is never detached first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.atomicio import (atomic_write_text, checksum_payload,
                             checksummed_json)
from repro.ml import persistence
from repro.ml.persistence import (
    ModelIntegrityError,
    model_from_dict,
    model_to_dict,
)
from repro.obs import MetricsRegistry

__all__ = ["ModelArtifactStore", "ModelReloader", "LoadedArtifact", "ReloadResult"]

_ARTIFACT_RE = re.compile(r"^model-(\d{8})\.json$")
_ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class LoadedArtifact:
    """One verified artifact: the live estimator plus its provenance."""

    generation: int
    model: object
    probe_x: np.ndarray | None
    probe_reference: np.ndarray | None


@dataclass(frozen=True)
class ReloadResult:
    """Outcome of one :meth:`ModelReloader.reload` attempt."""

    status: str              # "unchanged" | "reloaded" | "rolled_back"
    generation: int          # the generation now serving
    candidate: int = 0       # the generation that was attempted (0 = none)
    reason: str = ""


class ModelArtifactStore:
    """Directory of generation-numbered, checksummed model artifacts."""

    def __init__(self, directory: str | Path,
                 registry: MetricsRegistry | None = None) -> None:
        self.directory = Path(directory)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_published = self.registry.counter(
            "durability_artifacts_published_total",
            "Model artifacts published to the store.")
        self._m_legacy = self.registry.counter(
            "durability_legacy_artifacts_total",
            "Version-1 (checksum-less) model documents loaded.")
        self._legacy_seen = persistence.legacy_load_count()

    def path_for(self, generation: int) -> Path:
        if generation < 1:
            raise ValueError("artifact generations start at 1")
        return self.directory / f"model-{generation:08d}.json"

    def generations(self) -> list[int]:
        if not self.directory.exists():
            return []
        out = []
        for entry in self.directory.iterdir():
            m = _ARTIFACT_RE.match(entry.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def latest_generation(self) -> int:
        generations = self.generations()
        return generations[-1] if generations else 0

    # -- publish -----------------------------------------------------------

    def publish(self, model, probe_x=None) -> int:
        """Write ``model`` as the next generation and return its number.

        ``probe_x`` (feature rows, typically held-out training rows) is
        evaluated *by the published model at publish time*; the resulting
        reference predictions ride inside the artifact and become the
        validation gate every later load must pass.
        """
        generation = self.latest_generation() + 1
        payload = {
            "artifact_version": _ARTIFACT_VERSION,
            "generation": generation,
            "model": model_to_dict(model),
        }
        if probe_x is not None:
            probe_x = np.asarray(probe_x, dtype=np.float64)
            reference = np.asarray(model.predict(probe_x), dtype=np.float64)
            if not np.all(np.isfinite(reference)):
                raise ValueError(
                    "refusing to publish: model predicts non-finite values "
                    "on its own probe batch")
            payload["probe"] = {
                "x": probe_x.tolist(),
                "reference": reference.tolist(),
            }
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path_for(generation), checksummed_json(payload))
        self._m_published.inc()
        return generation

    # -- load --------------------------------------------------------------

    def load(self, generation: int) -> LoadedArtifact:
        """Load and doubly verify one generation; raises
        :class:`ModelIntegrityError` when either checksum fails and
        ``ValueError`` for structural problems."""
        path = self.path_for(generation)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"artifact generation {generation} not found")
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelIntegrityError(f"artifact {path.name} unreadable: {exc}")
        if not isinstance(payload, dict) \
                or payload.get("artifact_version") != _ARTIFACT_VERSION:
            raise ValueError(f"artifact {path.name} has an unsupported envelope")
        stored = payload.get("checksum")
        if stored is None or stored != checksum_payload(payload):
            raise ModelIntegrityError(
                f"artifact {path.name} failed its envelope checksum")
        model = model_from_dict(payload["model"])
        newly_legacy = persistence.legacy_load_count() - self._legacy_seen
        if newly_legacy > 0:
            self._m_legacy.inc(newly_legacy)
            self._legacy_seen += newly_legacy
        probe = payload.get("probe")
        probe_x = probe_reference = None
        if probe is not None:
            probe_x = np.asarray(probe["x"], dtype=np.float64)
            probe_reference = np.asarray(probe["reference"], dtype=np.float64)
        return LoadedArtifact(
            generation=generation, model=model,
            probe_x=probe_x, probe_reference=probe_reference,
        )

    def prune(self, keep: int = 3) -> list[int]:
        """Delete all but the newest ``keep`` generations (``keep >= 2``
        so rollback always has a predecessor on disk)."""
        if keep < 2:
            raise ValueError("keep must be >= 2 (rollback needs a predecessor)")
        generations = self.generations()
        doomed = generations[:-keep] if len(generations) > keep else []
        for generation in doomed:
            self.path_for(generation).unlink(missing_ok=True)
        return doomed


class ModelReloader:
    """Holds the live model; swaps it only past the validation gate.

    ``on_swap`` (optional) is called with the newly validated model after
    every successful reload — the hook a :class:`~repro.serve.FallbackChain`
    owner uses to splice the new generation into ``edge_models`` without
    ever leaving the edge uncovered.
    """

    def __init__(
        self,
        store: ModelArtifactStore,
        rtol: float = 1e-9,
        atol: float = 1e-6,
        on_swap=None,
    ) -> None:
        self.store = store
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.on_swap = on_swap
        self.model = None
        self.generation = 0
        registry = store.registry
        self._m_reloads = registry.counter(
            "durability_reloads_total", "Successful hot model reloads.")
        self._m_rollbacks = registry.counter(
            "durability_rollback_total",
            "Hot reloads rejected (corrupt or validation-failing artifact); "
            "serving stayed on the previous generation.")
        self._g_generation = registry.gauge(
            "durability_model_generation", "Model generation currently serving.")

    def validate(self, artifact: LoadedArtifact) -> str | None:
        """The gate: the candidate must reproduce its publish-time probe
        predictions.  Returns a failure reason, or ``None`` when valid."""
        if artifact.probe_x is None:
            return None  # no probe published — integrity checks must carry it
        try:
            predictions = np.asarray(
                artifact.model.predict(artifact.probe_x), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001 - any crash fails the gate
            return f"probe predict raised {exc!r}"
        if predictions.shape != artifact.probe_reference.shape:
            return "probe prediction shape mismatch"
        if not np.all(np.isfinite(predictions)):
            return "probe predictions are non-finite"
        if not np.allclose(predictions, artifact.probe_reference,
                           rtol=self.rtol, atol=self.atol):
            worst = float(np.max(np.abs(
                predictions - artifact.probe_reference)))
            return f"probe predictions deviate (max |delta| {worst:.3g})"
        return None

    def reload(self) -> ReloadResult:
        """Attempt to advance to the newest generation.

        The live model is replaced only after the candidate loads, both
        checksums verify, and the probe gate passes.  Any failure is an
        automatic rollback: the previous model keeps serving untouched
        and ``durability_rollback_total`` increments.
        """
        candidate = self.store.latest_generation()
        if candidate <= self.generation:
            return ReloadResult("unchanged", self.generation)
        try:
            artifact = self.store.load(candidate)
        except (ModelIntegrityError, ValueError) as exc:
            self._m_rollbacks.inc()
            return ReloadResult(
                "rolled_back", self.generation, candidate=candidate,
                reason=str(exc))
        failure = self.validate(artifact)
        if failure is not None:
            self._m_rollbacks.inc()
            return ReloadResult(
                "rolled_back", self.generation, candidate=candidate,
                reason=failure)
        self.model = artifact.model
        self.generation = candidate
        self._g_generation.set(candidate)
        self._m_reloads.inc()
        if self.on_swap is not None:
            self.on_swap(artifact.model)
        return ReloadResult("reloaded", candidate, candidate=candidate)
