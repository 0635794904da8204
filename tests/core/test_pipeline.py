"""Tests for the model-training pipelines (§5.1-§5.4)."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_feature_matrix,
    estimate_endpoint_capabilities,
    fit_all_edge_models,
    fit_edge_model,
    fit_global_model,
    select_heavy_edges,
    significance_grid,
)
from repro.core.endpoint_features import capability_columns
from repro.core.pipeline import (
    GBTSettings,
    edge_result_from_payload,
    edge_result_to_payload,
    edge_results_fingerprint,
)
from repro.ml.persistence import model_to_dict
from repro.serve.stream.retrain import _result_to_bundle, probe_gate
from tests.core.conftest import make_random_store


@pytest.fixture(scope="module")
def busy_fm():
    """A log with two busy edges and correlated rate structure."""
    store = make_random_store(n=600, n_endpoints=3, seed=2, horizon=20_000.0)
    return build_feature_matrix(store)


class TestSelectHeavyEdges:
    def test_ordering_and_threshold(self, busy_fm):
        # Random rates are heavy-tailed, so use a loose filter here; the
        # production-calibrated filter behaviour is covered in tests/repro.
        edges = select_heavy_edges(busy_fm.store, min_samples=5, threshold=0.2)
        assert edges
        # Busiest first.
        mask_counts = []
        from repro.core import threshold_mask

        filt = busy_fm.store[threshold_mask(busy_fm.store, 0.2)]
        for e in edges:
            mask_counts.append(len(filt.for_edge(*e)))
        assert mask_counts == sorted(mask_counts, reverse=True)
        assert all(c >= 5 for c in mask_counts)

    def test_max_edges_cap(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=1, max_edges=2)
        assert len(edges) == 2


class TestFitEdgeModel:
    def test_linear_and_gbt_run(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        src, dst = edges[0]
        for kind in ("linear", "gbt"):
            res = fit_edge_model(
                busy_fm, src, dst, model=kind, threshold=0.0, seed=0,
                gbt=GBTSettings(n_estimators=40),
            )
            assert res.model_kind == kind
            assert res.n_train > res.n_test > 0
            assert res.mdape >= 0.0
            assert res.test_errors.shape == (res.n_test,)

    def test_significance_aligned_with_features(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        res = fit_edge_model(busy_fm, *edges[0], model="linear", threshold=0.0)
        assert res.significance.shape == (len(res.feature_names),)
        assert np.isnan(res.significance[~res.kept]).all()
        assert np.isfinite(res.significance[res.kept]).all()

    def test_explanation_mode_includes_nflt(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        res = fit_edge_model(
            busy_fm, *edges[0], model="linear", threshold=0.0, explanation=True
        )
        assert "Nflt" in res.feature_names

    def test_too_few_samples_raises(self, busy_fm):
        with pytest.raises(ValueError):
            fit_edge_model(
                busy_fm, "EP0", "EP1", threshold=0.0, min_samples=10**6
            )

    def test_unknown_model_rejected(self, busy_fm):
        with pytest.raises(ValueError):
            fit_edge_model(busy_fm, "EP0", "EP1", model="forest")

    def test_deterministic(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        a = fit_edge_model(busy_fm, *edges[0], model="gbt", threshold=0.0,
                           seed=3, gbt=GBTSettings(n_estimators=30))
        b = fit_edge_model(busy_fm, *edges[0], model="gbt", threshold=0.0,
                           seed=3, gbt=GBTSettings(n_estimators=30))
        assert a.mdape == b.mdape
        assert np.array_equal(a.test_errors, b.test_errors)


# edge_results_fingerprint of the linear and GBT fits in ``edge_fits``.
# The codec's null rule only widened from NaN to every non-finite value,
# so a fit with finite arrays must keep these bytes.
EDGE_CODEC_FINGERPRINT = (
    "102e3d8cfa630cca88f8c4f32ed225268c820e8a265cc154f6166f33a6caf07c")

# A value written over one array slot: a hole, or any finite float
# (negative zero and subnormals included).
_SLOT = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                  st.floats(allow_nan=False, allow_infinity=False))
_EDITS = st.lists(st.tuples(st.integers(0, 10_000), _SLOT), max_size=8)


@pytest.fixture(scope="module")
def edge_fits(busy_fm):
    src, dst = select_heavy_edges(busy_fm.store, min_samples=50,
                                  threshold=0.0)[0]
    return {
        kind: fit_edge_model(busy_fm, src, dst, model=kind, threshold=0.0,
                             seed=0, gbt=GBTSettings(n_estimators=40))
        for kind in ("linear", "gbt")
    }


def _edited(values, edits):
    out = np.array(values, dtype=np.float64)
    for i, v in edits:
        out[i % out.size] = v
    return out


def _assert_decodes_to(back, result):
    """``back`` is ``result`` after a strict-JSON round trip: every
    non-finite float reads back as NaN, every finite one bit for bit."""
    for name in ("significance", "test_errors"):
        want = np.where(np.isfinite(getattr(result, name)),
                        getattr(result, name), np.nan)
        got = getattr(back, name)
        assert got.dtype == np.float64 and got.shape == want.shape
        holes = np.isnan(want)
        assert np.array_equal(np.isnan(got), holes), name
        assert got[~holes].tobytes() == want[~holes].tobytes(), name
    assert np.array_equal(back.kept, result.kept)
    for name in ("src", "dst", "model_kind", "feature_names", "n_train",
                 "n_test", "mdape"):
        assert getattr(back, name) == getattr(result, name), name
    assert model_to_dict(back.model) == model_to_dict(result.model)
    if result.scaler is None:
        assert back.scaler is None
    else:
        assert model_to_dict(back.scaler) == model_to_dict(result.scaler)


def _strict_json(doc):
    return json.loads(json.dumps(doc, allow_nan=False))


class TestEdgeCodec:
    @pytest.mark.parametrize("kind", ["linear", "gbt"])
    @settings(max_examples=25, deadline=None)
    @given(significance=_EDITS, test_errors=_EDITS, scaler=st.booleans(),
           probe_seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, edge_fits, kind, significance, test_errors,
                        scaler, probe_seed):
        fit = edge_fits[kind]
        result = dataclasses.replace(
            fit,
            significance=_edited(fit.significance, significance),
            test_errors=_edited(fit.test_errors, test_errors),
            scaler=fit.scaler if scaler else None,
        )
        payload = _strict_json(edge_result_to_payload(result))
        _assert_decodes_to(edge_result_from_payload(payload), result)
        # The journal bundle is the same payload plus the probe.
        bundle = _strict_json(_result_to_bundle(result, probe_seed, 4))
        assert {k: v for k, v in bundle.items() if k != "probe"} == payload
        _assert_decodes_to(probe_gate(bundle), result)

    def test_fingerprint_pinned(self, edge_fits):
        fits = [edge_fits["linear"], edge_fits["gbt"]]
        assert edge_results_fingerprint(fits) == EDGE_CODEC_FINGERPRINT


class TestFitAllAndGrid:
    def test_grid_shape_and_scaling(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        results = fit_all_edge_models(
            busy_fm, edges, model="linear", threshold=0.0, explanation=True
        )
        grid = significance_grid(results)
        assert grid.values.shape == (len(edges), 16)
        for row in grid.values:
            finite = row[np.isfinite(row)]
            assert finite.max() == pytest.approx(1.0)

    def test_grid_rejects_mixed_kinds(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        r1 = fit_edge_model(busy_fm, *edges[0], model="linear", threshold=0.0)
        r2 = fit_edge_model(busy_fm, *edges[0], model="gbt", threshold=0.0,
                            gbt=GBTSettings(n_estimators=10))
        with pytest.raises(ValueError):
            significance_grid([r1, r2])

    def test_grid_render_smoke(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        results = fit_all_edge_models(
            busy_fm, edges, model="linear", threshold=0.0, explanation=True
        )
        text = significance_grid(results).render()
        assert "K_sout" in text


class TestGlobalModel:
    def test_runs_and_reports(self, busy_fm):
        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        res = fit_global_model(
            busy_fm, edges, model="gbt", threshold=0.0, seed=0,
            gbt=GBTSettings(n_estimators=40),
        )
        assert res.n_train > res.n_test > 0
        assert "ROmax_src" in res.feature_names
        assert "RImax_dst" in res.feature_names

    def test_capability_estimates_positive(self, busy_fm):
        caps = estimate_endpoint_capabilities(busy_fm)
        assert caps
        for c in caps.values():
            assert c.ro_max >= 0 and c.ri_max >= 0
        ro, ri = capability_columns(busy_fm, caps)
        assert ro.shape == (len(busy_fm),)
        assert np.all(ro >= 0)

    def test_capability_lower_bounds_rate(self, busy_fm):
        """ROmax of an endpoint >= max rate of transfers it sourced."""
        caps = estimate_endpoint_capabilities(busy_fm)
        src = busy_fm.store.column("src")
        for ep, c in caps.items():
            mask = src == ep
            if mask.any():
                assert c.ro_max >= busy_fm.y[mask].max() - 1e-9


class TestPipelineTracing:
    def test_fit_edge_emits_nested_spans(self, busy_fm):
        from repro.obs import Tracer

        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        tracer = Tracer()
        traced = fit_edge_model(
            busy_fm, *edges[0], model="linear", threshold=0.0, seed=1,
            tracer=tracer,
        )
        plain = fit_edge_model(
            busy_fm, *edges[0], model="linear", threshold=0.0, seed=1
        )
        # Instrumentation must not perturb the fit.
        assert traced.mdape == plain.mdape
        assert np.array_equal(traced.test_errors, plain.test_errors)
        spans = {s.name: s for s in tracer.spans()}
        assert set(spans) == {
            "pipeline.fit_edge", "pipeline.prepare", "pipeline.train",
            "pipeline.eval",
        }
        root = spans["pipeline.fit_edge"]
        assert root.parent is None and root.depth == 0
        assert root.attrs["model"] == "linear"
        for child in ("pipeline.prepare", "pipeline.train", "pipeline.eval"):
            assert spans[child].parent == "pipeline.fit_edge"
            assert spans[child].depth == 1
            assert spans[child].duration_s <= root.duration_s

    def test_fit_all_and_global_share_tracer(self, busy_fm):
        from repro.obs import Tracer

        edges = select_heavy_edges(busy_fm.store, min_samples=50, threshold=0.0)
        tracer = Tracer()
        fit_all_edge_models(
            busy_fm, edges, model="linear", threshold=0.0, tracer=tracer
        )
        fit_global_model(
            busy_fm, edges, model="linear", threshold=0.0, tracer=tracer
        )
        summary = tracer.summary()
        assert summary["pipeline.fit_all_edges"]["count"] == 1
        assert summary["pipeline.fit_edge"]["count"] == len(edges)
        assert summary["pipeline.fit_global"]["count"] == 1
        # Edge fits nest under fit_all_edges.
        edge_spans = [s for s in tracer.spans() if s.name == "pipeline.fit_edge"]
        assert all(s.parent == "pipeline.fit_all_edges" for s in edge_spans)


class TestTrainOnlyElimination:
    """Regression: low-variance elimination must be decided from training
    rows only — deciding from all rows leaks test-set variance into model
    selection (the global path already did this correctly)."""

    def test_feature_constant_in_train_is_eliminated(self):
        from repro.core.features import FEATURE_NAMES
        from repro.logs import LogStore, TransferLogRecord
        from repro.ml.selection import train_test_split

        n, seed = 80, 0
        # The split depends only on (n, train_fraction, seed), so the test
        # can reconstruct which rows land in the test set.
        tr, te = train_test_split(n, 0.7, rng=seed)
        te_set = set(te.tolist())
        rng = np.random.default_rng(5)
        recs = []
        for i in range(n):
            ts = float(rng.uniform(0, 5000.0))
            # P: constant 4 on every training row, alternating 4/8 on the
            # test rows -> high variance overall, zero variance in train.
            p = (4 if i % 2 else 8) if i in te_set else 4
            recs.append(
                TransferLogRecord(
                    transfer_id=i, src="A", dst="B", src_site="A",
                    dst_site="B", src_type="GCS", dst_type="GCS",
                    ts=ts, te=ts + float(rng.uniform(10, 400)),
                    nb=float(rng.uniform(1e8, 1e11)),
                    nf=int(rng.integers(1, 100)), nd=1, c=2, p=p,
                    nflt=0, distance_km=100.0,
                )
            )
        fm = build_feature_matrix(LogStore.from_records(recs))
        res = fit_edge_model(fm, "A", "B", model="linear", threshold=0.0,
                             seed=seed, min_samples=10)
        p_idx = FEATURE_NAMES.index("P")
        assert not res.kept[p_idx], (
            "P varies only in the test split; elimination computed from "
            "training rows must drop it"
        )
        # C really is constant everywhere -> still eliminated.
        assert not res.kept[FEATURE_NAMES.index("C")]
