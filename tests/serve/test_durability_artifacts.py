"""Tests for the model artifact store and the gated hot reloader."""

import json

import numpy as np
import pytest

from repro.atomicio import checksum_payload
from repro.ml import LinearRegression
from repro.ml.persistence import ModelIntegrityError
from repro.obs import MetricsRegistry
from repro.serve.durability import ModelArtifactStore, ModelReloader


def _model(seed=0, slope=2.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(200, 3))
    y = slope * X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.01, 200)
    return LinearRegression().fit(X, y)


def _probe(seed=99):
    return np.random.default_rng(seed).uniform(size=(8, 3))


class TestArtifactStore:
    def test_publish_load_roundtrip(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        probe = _probe()
        model = _model()
        generation = store.publish(model, probe_x=probe)
        assert generation == 1
        artifact = store.load(1)
        assert np.array_equal(artifact.model.predict(probe), model.predict(probe))
        assert np.array_equal(artifact.probe_x, probe)
        assert np.array_equal(artifact.probe_reference, model.predict(probe))

    def test_generations_increment(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        assert store.publish(_model(0)) == 1
        assert store.publish(_model(1)) == 2
        assert store.generations() == [1, 2]
        assert store.latest_generation() == 2

    def test_tampered_envelope_rejected(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        store.publish(_model(), probe_x=_probe())
        path = store.path_for(1)
        doc = json.loads(path.read_text())
        doc["probe"]["reference"][0] += 1.0  # tamper, stale checksum
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIntegrityError):
            store.load(1)

    def test_artifact_from_the_two_encode_writer_still_loads(self, tmp_path):
        # The earlier writer's layout: insertion-ordered keys with the
        # checksum last, encoded separately from the checksum's encode.
        store = ModelArtifactStore(tmp_path)
        probe = _probe()
        store.publish(_model(), probe_x=probe)
        doc = json.loads(store.path_for(1).read_text())
        old = {"artifact_version": doc["artifact_version"], "generation": 2,
               "model": doc["model"], "probe": doc["probe"]}
        old["checksum"] = checksum_payload(old)
        store.path_for(2).write_text(json.dumps(old))
        artifact = store.load(2)
        assert np.array_equal(artifact.model.predict(probe),
                              _model().predict(probe))

    def test_truncated_file_rejected(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        store.publish(_model())
        path = store.path_for(1)
        path.write_text(path.read_text()[:50])
        with pytest.raises(ModelIntegrityError):
            store.load(1)

    def test_missing_generation(self, tmp_path):
        with pytest.raises(ValueError):
            ModelArtifactStore(tmp_path).load(7)

    def test_prune(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        for seed in range(5):
            store.publish(_model(seed))
        assert store.prune(keep=2) == [1, 2, 3]
        assert store.generations() == [4, 5]
        with pytest.raises(ValueError):
            store.prune(keep=1)


class TestReloader:
    def test_first_reload_adopts_newest(self, tmp_path):
        registry = MetricsRegistry()
        store = ModelArtifactStore(tmp_path, registry=registry)
        store.publish(_model(), probe_x=_probe())
        reloader = ModelReloader(store)
        result = reloader.reload()
        assert result.status == "reloaded" and result.generation == 1
        assert reloader.model is not None
        assert registry.flat()["durability_reloads_total"] == 1
        assert registry.flat()["durability_model_generation"] == 1

    def test_unchanged_when_no_new_generation(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        store.publish(_model(), probe_x=_probe())
        reloader = ModelReloader(store)
        reloader.reload()
        assert reloader.reload().status == "unchanged"

    def test_corrupt_artifact_rolls_back(self, tmp_path):
        """A corrupted new generation must never dethrone the serving
        model: automatic rollback, counter bumped, old model untouched."""
        registry = MetricsRegistry()
        store = ModelArtifactStore(tmp_path, registry=registry)
        probe = _probe()
        store.publish(_model(0), probe_x=probe)
        reloader = ModelReloader(store)
        reloader.reload()
        serving = reloader.model
        before = serving.predict(probe)

        store.publish(_model(1), probe_x=probe)
        path = store.path_for(2)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        result = reloader.reload()
        assert result.status == "rolled_back"
        assert result.candidate == 2 and result.generation == 1
        assert result.reason
        # The old model never stopped serving: same object, same answers.
        assert reloader.model is serving
        assert np.array_equal(reloader.model.predict(probe), before)
        assert registry.flat()["durability_rollback_total"] == 1

    def test_validation_failure_rolls_back(self, tmp_path):
        """A structurally intact artifact whose model cannot reproduce its
        own probe predictions fails the gate."""
        registry = MetricsRegistry()
        store = ModelArtifactStore(tmp_path, registry=registry)
        probe = _probe()
        store.publish(_model(0), probe_x=probe)
        reloader = ModelReloader(store)
        reloader.reload()

        store.publish(_model(1, slope=5.0), probe_x=probe)
        path = store.path_for(2)
        doc = json.loads(path.read_text())
        # Sabotage the reference, then re-checksum so integrity passes and
        # only the validation gate can catch it.
        doc["probe"]["reference"] = [v + 123.0 for v in doc["probe"]["reference"]]
        doc["checksum"] = checksum_payload(doc)
        path.write_text(json.dumps(doc))

        result = reloader.reload()
        assert result.status == "rolled_back"
        assert "deviate" in result.reason
        assert reloader.generation == 1
        assert registry.flat()["durability_rollback_total"] == 1

    def test_good_upgrade_swaps_and_notifies(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        probe = _probe()
        store.publish(_model(0), probe_x=probe)
        swapped = []
        reloader = ModelReloader(store, on_swap=swapped.append)
        reloader.reload()
        new_model = _model(1, slope=3.0)
        store.publish(new_model, probe_x=probe)
        result = reloader.reload()
        assert result.status == "reloaded" and result.generation == 2
        assert len(swapped) == 2
        assert np.array_equal(
            reloader.model.predict(probe), new_model.predict(probe))

    def test_rollback_then_next_good_generation_recovers(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        probe = _probe()
        store.publish(_model(0), probe_x=probe)
        reloader = ModelReloader(store)
        reloader.reload()
        store.publish(_model(1), probe_x=probe)
        store.path_for(2).write_text("garbage")
        assert reloader.reload().status == "rolled_back"
        store.publish(_model(2), probe_x=probe)
        result = reloader.reload()
        assert result.status == "reloaded" and result.generation == 3

    def test_publish_refuses_nonfinite_probe_predictions(self, tmp_path):
        store = ModelArtifactStore(tmp_path)
        model = _model()
        with pytest.raises(ValueError, match="non-finite"):
            store.publish(model, probe_x=np.full((4, 3), np.inf))
