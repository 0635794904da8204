"""The published-model bundle and its probe gate.

A refit's model is committed inside the stream's checkpoint record, as
the encoded bundle :func:`~repro.serve.stream.retrain.probe_gate`
admits.  ``TestArtifactStore`` pins the bundle as the store of a
published model (round trip, integrity, generation numbers, bundles
without a model); ``TestReloader`` pins the gate on both of its paths,
a live publish and a restore, which every refusal leaves serving the
previous generation.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.ml.persistence import ModelIntegrityError, model_to_dict
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream import RetrainController, RetrainPolicy
from repro.serve.stream.chaos import _chaos_fit
from repro.serve.stream.retrain import (_probe, _result_to_bundle,
                                        probe_gate)
from tests.core.conftest import make_random_store
from tests.serve.test_stream_retrain import EDGE, _rows

PROBE_SEED = 99


def _result(seed=0):
    return dataclasses.replace(make_synthetic_model(seed),
                               src=EDGE[0], dst=EDGE[1])


def _divergent():
    """The stream chaos corrupt edge's fit: finite coefficients whose
    probe predictions overflow to ±inf."""
    return _chaos_fit((*EDGE, None), corrupt=(EDGE,))


def _bundle(result=None):
    """A bundle as the journal record holds it (strict JSON)."""
    bundle = _result_to_bundle(result or _result(), PROBE_SEED, 8)
    return json.loads(json.dumps(bundle, allow_nan=False))


def _fits(*results):
    """A fit function returning ``results`` in turn."""
    queue = list(results)

    def fit(task):
        return queue.pop(0)

    return fit


def _controller(obs, fit_fn, **extra):
    return RetrainController(
        FallbackChain.from_log(make_random_store(n=60, seed=7)), obs.drift,
        policy=RetrainPolicy(min_fit_rows=4, buffer_rows=64, probe_rows=4),
        fit_fn=fit_fn, registry=obs.registry, **extra)


def _rollbacks(obs) -> float:
    return obs.registry.flat().get("durability_rollback_total", 0.0)


@pytest.fixture
def obs():
    return Observability.create(trace=False)


class TestArtifactStore:
    def test_publish_load_roundtrip(self):
        result = _result()
        bundle = _bundle(result)
        assert bundle["model"] == model_to_dict(result.model)
        assert bundle["probe"]["seed"] == PROBE_SEED
        width = result.scaler.mean_.shape[0]
        reference = _probe(result.model, PROBE_SEED, 8, width)
        assert bundle["probe"]["reference"] == reference.tolist()
        back = probe_gate(bundle)
        assert np.array_equal(
            _probe(back.model, PROBE_SEED, 8, width), reference)
        assert model_to_dict(back.model) == bundle["model"]
        assert model_to_dict(back.scaler) == bundle["scaler"]

    def test_generations_increment(self, obs):
        ctl = _controller(obs, _fits(_result(1), _divergent(), _result(2)))
        ctl.observe(_rows(*EDGE, 10))
        generations = []
        for now in (0.0, 1.0, 2.0):
            ctl.retrain([EDGE], now)
            generations.append(ctl._published.get(EDGE))
        # A refused publish consumes its number too.
        assert generations == [1, 1, 3]
        assert ctl.state_dict()["generations"] == [[*EDGE, 3]]

    def test_tampered_envelope_rejected(self):
        bundle = _bundle()
        bundle["probe"]["reference"][0] += 1.0
        with pytest.raises(ValueError, match="deviate"):
            probe_gate(bundle)

    def test_truncated_file_rejected(self):
        bundle = _bundle()
        del bundle["model"]["coef"]
        with pytest.raises(ModelIntegrityError):
            probe_gate(bundle)

    def test_missing_generation(self, obs):
        """A checkpoint bundle written before bundles carried their
        model restores with the edge withdrawn, not a crash."""
        events = EventLog(registry=obs.registry)
        ctl = _controller(obs, _fits(_result()))
        ctl.observe(_rows(*EDGE, 10))
        ctl.retrain([EDGE], 0.0)
        state = json.loads(json.dumps(ctl.state_dict()))
        for entry in state["published"]:
            del entry[3]["model"], entry[3]["probe"]

        fresh = _controller(obs, _fits(), events=events)
        fresh.load_state(state)
        assert EDGE not in fresh.chain.edge_models
        assert fresh._published == {}
        [event] = events.events(category="stream", name="retrain_rollback")
        assert event.attrs["edge"] == f"{EDGE[0]}->{EDGE[1]}"
        assert event.attrs["generation"] == 1
        assert _rollbacks(obs) == 1
        # The next record withdraws the edge, and its number is not reused.
        assert fresh.state_delta()["published"] == [[*EDGE, None, None]]
        assert fresh.state_dict()["generations"] == [[*EDGE, 1]]


class TestReloader:
    def test_first_reload_adopts_newest(self):
        obs = Observability.create(trace=True)
        ctl = _controller(obs, _fits(_result(3)), tracer=obs.tracer)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        assert ctl._published == {EDGE: 1}
        assert model_to_dict(ctl.chain.edge_models[EDGE].model) \
            == model_to_dict(_result(3).model)
        assert _rollbacks(obs) == 0
        [span] = [s for s in obs.tracer.spans() if s.name == "stream.publish"]
        assert span.parent == "stream.retrain"
        assert span.attrs == {"edge": f"{EDGE[0]}->{EDGE[1]}",
                              "generation": 1, "outcome": "published"}

    def test_unchanged_when_no_new_generation(self, obs):
        ctl = _controller(obs, _fits(_result()))
        ctl.observe(_rows(*EDGE, 10))
        ctl.retrain([EDGE], 0.0)
        [[*_, generation, bundle]] = ctl.state_delta()["published"]
        assert generation == 1 and bundle is ctl._bundles[EDGE]
        # No new generation: the next record carries no publish.
        assert ctl.state_delta()["published"] == []
        fresh = _controller(obs, _fits())
        fresh.load_state(ctl.state_dict())
        assert fresh.state_delta()["published"] == []

    def test_corrupt_artifact_rolls_back(self, obs):
        """One bit flipped in the encoded model: the checksum refuses
        it, at restore as at publish, and the old model keeps serving."""
        ctl = _controller(obs, _fits(_result()))
        ctl.observe(_rows(*EDGE, 10))
        ctl.retrain([EDGE], 0.0)
        state = ctl.state_dict()
        text = json.dumps(state["published"][0][3]["model"])
        at = next(i for i in range(len(text) // 2, len(text))
                  if text[i].isdigit())
        flipped = text[:at] + chr(ord(text[at]) ^ 0x01) + text[at + 1:]
        state["published"][0][3] = {**state["published"][0][3],
                                    "model": json.loads(flipped)}
        with pytest.raises(ModelIntegrityError):
            probe_gate(state["published"][0][3])

        fresh = _controller(obs, _fits())
        serving = _result(5)
        fresh.chain.edge_models[EDGE] = serving
        fresh.load_state(state)
        assert fresh.chain.edge_models[EDGE] is serving
        assert EDGE not in fresh._published
        assert _rollbacks(obs) == 1

    def test_validation_failure_rolls_back(self, obs):
        """An intact model document that cannot reproduce the probe is
        refused by the gate, and so withdrawn at restore."""
        bundle = _bundle(_result(0))
        bundle["model"] = model_to_dict(_result(1).model)
        with pytest.raises(ValueError, match="deviate"):
            probe_gate(bundle)

        ctl = _controller(obs, _fits(_result(0)))
        ctl.observe(_rows(*EDGE, 10))
        ctl.retrain([EDGE], 0.0)
        state = json.loads(json.dumps(ctl.state_dict()))
        state["published"][0][3]["model"] = bundle["model"]
        fresh = _controller(obs, _fits())
        fresh.load_state(state)
        assert EDGE not in fresh.chain.edge_models
        assert _rollbacks(obs) == 1

    def test_good_upgrade_swaps_and_notifies(self, obs):
        ctl = _controller(obs, _fits(_result(0), _result(1)))
        ctl.observe(_rows(*EDGE, 10))
        ctl.retrain([EDGE], 0.0)
        first = ctl.chain.edge_models[EDGE]
        assert ctl.retrain([EDGE], 1.0) == {EDGE: "ok"}
        assert ctl._published == {EDGE: 2}
        assert ctl.chain.edge_models[EDGE] is not first
        assert model_to_dict(ctl.chain.edge_models[EDGE].model) \
            == model_to_dict(_result(1).model)
        [[*_, generation, _]] = ctl.state_delta()["published"]
        assert generation == 2

    def test_rollback_then_next_good_generation_recovers(self, obs):
        ctl = _controller(obs, _fits(_divergent(), _result(1)))
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "failed"}
        assert EDGE not in ctl._published
        assert ctl.retrain([EDGE], 1.0) == {EDGE: "ok"}
        assert ctl._published == {EDGE: 2}
        assert _rollbacks(obs) == 1

    def test_publish_refuses_nonfinite_probe_predictions(self, obs):
        with pytest.raises(ValueError, match="non-finite"):
            probe_gate(_bundle(_divergent()))
        ctl = _controller(obs, _fits(_divergent()))
        serving = _result(5)
        ctl.chain.edge_models[EDGE] = serving
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "failed"}
        assert ctl.chain.edge_models[EDGE] is serving
        assert _rollbacks(obs) == 1
