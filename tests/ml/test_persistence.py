"""Round-trip tests for model persistence."""

import numpy as np
import pytest

from repro.atomicio import checksum_payload
from repro.ml import GradientBoostingRegressor, LinearRegression, StandardScaler
from repro.ml.persistence import (
    ModelIntegrityError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


def _data(seed=0, n=500):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.05, n)
    return X, y


class TestScalerRoundtrip:
    def test_identical_transform(self, tmp_path):
        X, _ = _data()
        s = StandardScaler().fit(X)
        path = tmp_path / "scaler.json"
        save_model(s, path)
        s2 = load_model(path)
        assert np.array_equal(s2.transform(X), s.transform(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            model_to_dict(StandardScaler())


class TestLinearRoundtrip:
    def test_identical_predictions(self, tmp_path):
        X, y = _data(1)
        m = LinearRegression().fit(X, y)
        path = tmp_path / "lr.json"
        save_model(m, path)
        m2 = load_model(path)
        assert np.array_equal(m2.predict(X), m.predict(X))
        assert m2.intercept_ == m.intercept_

    def test_no_intercept_flag_preserved(self, tmp_path):
        X, y = _data(2)
        m = LinearRegression(fit_intercept=False).fit(X, y)
        m2 = model_from_dict(model_to_dict(m))
        assert m2.fit_intercept is False
        assert np.array_equal(m2.predict(X), m.predict(X))


class TestGBTRoundtrip:
    def test_identical_predictions(self, tmp_path):
        X, y = _data(3)
        m = GradientBoostingRegressor(
            n_estimators=40, max_depth=3, random_state=0
        ).fit(X, y)
        path = tmp_path / "gbt.json"
        save_model(m, path)
        m2 = load_model(path)
        X_test = np.random.default_rng(9).uniform(size=(200, 4))
        assert np.array_equal(m2.predict(X_test), m.predict(X_test))

    def test_importances_preserved(self):
        X, y = _data(4)
        m = GradientBoostingRegressor(n_estimators=20, max_depth=3).fit(X, y)
        m2 = model_from_dict(model_to_dict(m))
        assert np.allclose(
            m2.feature_importances("gain"), m.feature_importances("gain")
        )

    def test_hyperparameters_preserved(self):
        X, y = _data(5)
        m = GradientBoostingRegressor(
            n_estimators=10, learning_rate=0.3, max_depth=2,
            min_child_weight=3.0, reg_lambda=2.0, subsample=0.8,
            colsample_bytree=0.9, random_state=7,
        ).fit(X, y)
        m2 = model_from_dict(model_to_dict(m))
        assert m2.learning_rate == 0.3
        assert m2.tree_params.min_child_weight == 3.0
        assert m2.subsample == 0.8

    def test_tied_top_edge_round_trips(self):
        """With the top value tied, a fit's last edge repeats the last
        quantile: sorted, not strictly increasing edges decode."""
        rng = np.random.default_rng(14)
        X = rng.uniform(size=(300, 2))
        X[:150, 0] = 1.0
        m = GradientBoostingRegressor(
            n_estimators=5, max_depth=2, max_bins=4, random_state=0
        ).fit(X, X[:, 0] + X[:, 1])
        edges = m.binner_.upper_edges_[0]
        assert edges[-1] == edges[-2]
        X_test = np.vstack([X, [[1.0, 0.5], [2.0, np.nan]]])
        m2 = model_from_dict(model_to_dict(m))
        assert np.array_equal(m2.predict(X_test), m.predict(X_test))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            model_to_dict(GradientBoostingRegressor())


def _split_at_last_bin(doc):
    tree = doc["trees"][0]
    edges = doc["binner"]["upper_edges"][tree["feature"][0]]
    tree["bin"][0] = len(edges) - 1


def _reverse_edges(doc):
    edges = doc["binner"]["upper_edges"]
    edges[0] = edges[0][::-1]


def _set(field, value, tree=0, node=0):
    def edit(doc):
        doc["trees"][tree][field][node] = value
    return edit


def _set_hyper(name, value):
    def edit(doc):
        doc["hyper"][name] = value
    return edit


def _drop_feature_edges(doc):
    doc["binner"]["upper_edges"].pop()


def _drop_leaf_value(doc):
    doc["trees"][3]["value"].pop()


def _drop_trees(doc):
    doc["trees"] = []


@pytest.mark.parametrize(
    "edit, message",
    [
        (_split_at_last_bin, r"tree 0 node 0: bin \d+ is not below"),
        (_set("bin", 10**6), r"tree 0 node 0: bin 1000000 is not below"),
        (_set("bin", 10**10), r"tree 0: bin holds a value outside int32"),
        (_set("bin", -1), r"tree 0 node 0: bin -1 is not below"),
        (_set("left", 10**6), r"tree 0 node 0: left 1000000 is not a later node"),
        (_set("left", 0), r"tree 0 node 0: left 0 is not a later node"),
        (_set("right", 7, tree=2), r"tree 2 node 0: right 7 is not left \+ 1"),
        (_set("feature", 4, tree=1), r"tree 1 node 0: feature 4 is out of range"),
        (_set("feature", -2, tree=1), r"tree 1 node 0: feature -2 is out of range"),
        (_set_hyper("max_depth", 1), r"tree 0 node \d+: left \d+ leads past max_depth"),
        (_reverse_edges, r"binner: upper_edges\[0\] is not finite and sorted"),
        (_drop_feature_edges, r"binner: upper_edges has 3 features"),
        (_drop_leaf_value, r"tree 3: node fields are empty or differ in length"),
        (_drop_trees, r"trees: a model needs at least one tree"),
    ],
    ids=[
        "split-at-last-bin", "bin-1e6", "bin-1e10", "bin-negative", "left-1e6",
        "left-not-after-parent", "right-not-left-plus-1",
        "feature-too-large", "feature-below-leaf", "leaf-past-max-depth",
        "reversed-edges", "missing-feature-edges", "short-value-field",
        "no-trees",
    ],
)
def test_malformed_gbt_document_refused_at_decode(edit, message):
    """A re-sealed document that breaks a tree invariant would load and
    serve wrong answers (the kernel's clipped gathers hide bad indices),
    so decode refuses it, naming the tree and the field."""
    X, y = _data(13)
    doc = model_to_dict(
        GradientBoostingRegressor(n_estimators=4, max_depth=3, random_state=0).fit(X, y)
    )
    assert all(t["feature"][0] >= 0 for t in doc["trees"])  # roots split
    edit(doc)
    doc["checksum"] = checksum_payload(doc)
    with pytest.raises(ValueError, match=message) as info:
        model_from_dict(doc)
    assert not isinstance(info.value, ModelIntegrityError)


class TestDispatch:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict(object())

    def test_unknown_kind_rejected(self):
        doc = {"format_version": 2, "kind": "mystery"}
        doc["checksum"] = checksum_payload(doc)
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_dict(doc)

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"format_version": 99, "kind": "linear_regression"})

    def test_json_file_is_plain_text(self, tmp_path):
        X, y = _data(6)
        m = LinearRegression().fit(X, y)
        path = tmp_path / "m.json"
        save_model(m, path)
        assert '"kind": "linear_regression"' in path.read_text()


class TestIntegrity:
    """Format-v2 checksum verification and v1 compatibility."""

    def test_v2_documents_carry_a_checksum(self):
        X, y = _data(7)
        doc = model_to_dict(LinearRegression().fit(X, y))
        assert doc["format_version"] == 2
        assert isinstance(doc["checksum"], str) and len(doc["checksum"]) == 64
        # The checksum round-trips through load without complaint.
        model_from_dict(doc)

    def test_tampered_document_rejected(self):
        X, y = _data(8)
        doc = model_to_dict(LinearRegression().fit(X, y))
        doc["intercept"] = float(doc["intercept"]) + 1.0
        with pytest.raises(ModelIntegrityError):
            model_from_dict(doc)

    def test_missing_checksum_rejected(self):
        X, y = _data(8)
        doc = model_to_dict(LinearRegression().fit(X, y))
        del doc["checksum"]
        with pytest.raises(ModelIntegrityError):
            model_from_dict(doc)

    def test_tampered_file_rejected(self, tmp_path):
        X, y = _data(9)
        path = tmp_path / "m.json"
        save_model(LinearRegression().fit(X, y), path)
        text = path.read_text()
        path.write_text(text.replace('"fit_intercept": true',
                                     '"fit_intercept": false'))
        with pytest.raises(ModelIntegrityError):
            load_model(path)

    def test_v1_document_refused(self):
        """Pre-checksum (version 1) artifacts cannot be verified, so they
        are refused like any other unsupported version."""
        X, y = _data(10)
        doc = model_to_dict(LinearRegression().fit(X, y))
        del doc["checksum"]
        doc["format_version"] = 1
        with pytest.raises(ValueError, match="unsupported format_version 1"):
            model_from_dict(doc)

    def test_save_is_atomic_under_fault(self, tmp_path, monkeypatch):
        """A crash mid-save must leave the previous artifact intact at the
        final path (save_model goes through the atomic writer)."""
        import repro.ml.persistence as persistence

        X, y = _data(11)
        path = tmp_path / "m.json"
        save_model(LinearRegression().fit(X, y), path)
        original = path.read_text()

        real_writer = persistence.atomic_write_text

        def dying_writer(target, text, **kwargs):
            def fault(stage):
                raise OSError("disk died")
            return real_writer(target, text, _fault=fault, **kwargs)

        monkeypatch.setattr(persistence, "atomic_write_text", dying_writer)
        with pytest.raises(OSError):
            save_model(LinearRegression().fit(*_data(12)), path)
        assert path.read_text() == original
        assert list(tmp_path.iterdir()) == [path]
