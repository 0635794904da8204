"""Parity golden for the chain-mode batch predictor.

Every answer the fallback chain serves — rates, tiers, the
non-convergence mask and the (non-timing) stats — is pinned by a SHA-256,
so any change to routing, the fix-point or the counters shows up as a
hash mismatch.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.serve import ActiveSet, BatchOnlinePredictor, ModelTier
from repro.serve.chaos import (
    ChaosConfig,
    make_chaos_chain,
    make_chaos_log,
    make_chaos_requests,
)
from repro.serve.fixtures import make_synthetic_model

# Wall-clock fields differ run to run; everything else is deterministic.
_TIMING_FIELDS = (
    "feature_time_s", "model_time_s", "total_time_s", "forest_predict_time_s",
)
_NOWS = (300.0, 600.0, 900.0)

GOLDEN = {
    ("nonconverged", 0): "1e540d3b6f1c4ff218f76c80c08bf79f018d1a3106010e656f7ded89291b224c",
    ("nonconverged", 3): "1561e27826d5e407087cefa703a72bb0563063423cec5cf0140e7c75803e5479",
    ("plain", 0): "422cfc21d0057a772a068cfb3fb93eced721a195607bba5de73cabf57c50f8ed",
    ("plain", 3): "0c75f1af3d2e0863709af533161bacf48671c8c7d79e59bd7aee31b07bc0b304",
    ("replaced", 0): "f9f8f166b053a1266024fdacac671fc1171b3753857f544818fa0473f030bb51",
    ("replaced", 3): "db36d76e388dfa65818605b10224b0c81636eb151c176642cc3804b49e55a9bf",
    ("unusable", 0): "3a887c9716d81e391937c8c3998a5fd3b8cca3bd0bd9a59e19cca37951f75a93",
    ("unusable", 3): "24e3df08ef352c3dd9ed294681b6ebbe76e61dd904e4ee06e9683aa3d3381622",
}


def _world(seed):
    cfg = ChaosConfig.quick(seed)
    log = make_chaos_log(cfg)
    chain = make_chaos_chain(log, cfg)
    active = ActiveSet.from_log_window(log, now=cfg.horizon_s * 0.4)
    return log, chain, active


def _unusable(model):
    """An edge model needing a column nobody supplies."""
    return dataclasses.replace(
        model,
        feature_names=model.feature_names + ("ROmax_src",),
        kept=np.ones(len(model.feature_names) + 1, dtype=bool),
    )


def _run(case, seed):
    """Predict the chaos request mix at three instants; return the hash
    of every answer plus the engine and the per-instant predictions."""
    log, chain, active = _world(seed)
    routed = sorted(chain.edge_models)
    if case == "unusable":
        edge = routed[0]
        chain.edge_models[edge] = _unusable(chain.edge_models[edge])
    kwargs = {}
    if case == "nonconverged":
        kwargs = dict(max_iterations=2, tolerance=1e-12)
    engine = BatchOnlinePredictor(chain, active, **kwargs)
    rng = np.random.default_rng(seed + 100)
    h = hashlib.sha256()
    preds = []
    for i, now in enumerate(_NOWS):
        if case == "replaced" and i == 1:
            edge = routed[-1]
            chain.edge_models[edge] = dataclasses.replace(
                make_synthetic_model(seed + 7), src=edge[0], dst=edge[1]
            )
        requests = make_chaos_requests(rng, 40, chain, log)
        pred = engine.predict_batch_detailed(requests, now)
        preds.append((now, requests, pred))
        h.update(pred.rates.tobytes())
        h.update(",".join(t.value for t in pred.tiers).encode())
        h.update(pred.nonconverged.tobytes())
    stats = {
        k: v for k, v in engine.stats.as_dict().items()
        if k not in _TIMING_FIELDS
    }
    h.update(json.dumps(stats, sort_keys=True).encode())
    return h.hexdigest(), engine, chain, active, preds


@pytest.mark.parametrize("case,seed", sorted(GOLDEN))
def test_chain_answers_match_golden(case, seed):
    digest, *_ = _run(case, seed)
    assert digest == GOLDEN[(case, seed)]


@pytest.mark.parametrize("seed", [0, 3])
def test_unusable_edge_falls_through(seed):
    _, engine, chain, _, preds = _run("unusable", seed)
    edge = sorted(chain.edge_models)[0]
    assert set(engine.unusable_edges) == {edge}
    assert "ROmax_src" in engine.unusable_edges[edge]
    for _, requests, pred in preds:
        for r, tier in zip(requests, pred.tiers):
            if (r.src, r.dst) == edge:
                assert tier is not ModelTier.EDGE


@pytest.mark.parametrize("seed", [0, 3])
def test_replaced_edge_model_is_served(seed):
    """A routed edge reads its model from the chain at every call, so a
    model published into it after construction answers from then on."""
    _, _, chain, active, preds = _run("replaced", seed)
    edge = sorted(chain.edge_models)[-1]
    single = BatchOnlinePredictor(chain.edge_models[edge], active)
    hits = 0
    for now, requests, pred in preds[1:]:
        for r, rate, tier in zip(requests, pred.rates, pred.tiers):
            if (r.src, r.dst) == edge:
                assert tier is ModelTier.EDGE
                assert rate == single.predict(r, now)
                hits += 1
    assert hits


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_edge_model_added_after_construction_is_served():
    log, chain, active = _world(0)
    engine = BatchOnlinePredictor(chain, active)
    new_edge = next(
        e for e in sorted(chain.edge_medians) if e not in chain.edge_models
    )
    chain.edge_models[new_edge] = dataclasses.replace(
        make_synthetic_model(0), src=new_edge[0], dst=new_edge[1]
    )
    request = make_chaos_requests(np.random.default_rng(0), 1, chain, log)[0]
    request = dataclasses.replace(request, src=new_edge[0], dst=new_edge[1])
    pred = engine.predict_batch_detailed([request], 600.0)
    assert pred.tiers == (ModelTier.EDGE,)
