"""Tests for the Eq. 2 contention computation, including a full check of
the prefix-sum sweep against a naive O(n^2) reference implementation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contention import ContentionComputer, IntervalOverlapIndex
from tests.core.conftest import make_random_store


def naive_overlap_sum(ts, te, w, a, b):
    """Reference: sum_i w_i * max(0, min(te_i, b) - max(ts_i, a))."""
    return float(
        np.sum(w * np.maximum(0.0, np.minimum(te, b) - np.maximum(ts, a)))
    )


class TestIntervalOverlapIndex:
    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(0)
        n = 300
        ts = rng.uniform(0, 1000, n)
        te = ts + rng.uniform(0.1, 200, n)
        w = rng.uniform(0, 10, n)
        idx = IntervalOverlapIndex(ts, te, w)
        a = rng.uniform(0, 1000, 50)
        b = a + rng.uniform(0.1, 300, 50)
        got = idx.overlap_sum(a, b)
        want = np.array([naive_overlap_sum(ts, te, w, ai, bi) for ai, bi in zip(a, b)])
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6)

    def test_disjoint_intervals_zero(self):
        idx = IntervalOverlapIndex([0.0], [1.0], [5.0])
        assert idx.overlap_sum(np.array([2.0]), np.array([3.0]))[0] == 0.0
        assert idx.overlap_sum(np.array([-3.0]), np.array([-1.0]))[0] == 0.0

    def test_containment(self):
        # Query fully inside the interval: overlap = query length.
        idx = IntervalOverlapIndex([0.0], [100.0], [2.0])
        assert idx.overlap_sum(np.array([10.0]), np.array([30.0]))[0] == pytest.approx(40.0)

    def test_touching_boundaries_zero(self):
        idx = IntervalOverlapIndex([0.0], [1.0], [1.0])
        assert idx.overlap_sum(np.array([1.0]), np.array([2.0]))[0] == 0.0

    def test_empty_index(self):
        idx = IntervalOverlapIndex(np.array([]), np.array([]), np.array([]))
        out = idx.overlap_sum(np.array([0.0]), np.array([1.0]))
        assert out[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalOverlapIndex([0.0], [0.0], [1.0])  # te == ts
        idx = IntervalOverlapIndex([0.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            idx.overlap_sum(np.array([1.0]), np.array([1.0]))  # b == a


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 100_000))
def test_property_index_matches_naive(n, seed):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-50, 50, n)
    te = ts + rng.uniform(1e-3, 80, n)
    w = rng.uniform(0, 5, n)
    idx = IntervalOverlapIndex(ts, te, w)
    a = rng.uniform(-60, 60, 10)
    b = a + rng.uniform(1e-3, 100, 10)
    got = idx.overlap_sum(a, b)
    want = np.array([naive_overlap_sum(ts, te, w, ai, bi) for ai, bi in zip(a, b)])
    assert np.allclose(got, want, rtol=1e-8, atol=1e-6)


def naive_contention(store):
    """O(n^2) reference implementation of §4.3.1 (Eq. 2 and friends)."""
    data = store.raw()
    n = len(store)
    rates = store.rates
    inst = np.minimum(data["c"], data["nf"]).astype(float)
    streams = inst * data["p"]
    out = {
        k: np.zeros(n)
        for k in (
            "K_sout", "K_sin", "K_dout", "K_din",
            "S_sout", "S_sin", "S_dout", "S_din",
            "G_src", "G_dst",
        )
    }
    for k in range(n):
        dur = data["te"][k] - data["ts"][k]
        for i in range(n):
            if i == k:
                continue
            o = max(
                0.0,
                min(data["te"][i], data["te"][k]) - max(data["ts"][i], data["ts"][k]),
            )
            if o == 0.0:
                continue
            f = o / dur
            if data["src"][i] == data["src"][k]:
                out["K_sout"][k] += f * rates[i]
                out["S_sout"][k] += f * streams[i]
            if data["dst"][i] == data["src"][k]:
                out["K_sin"][k] += f * rates[i]
                out["S_sin"][k] += f * streams[i]
            if data["src"][i] == data["dst"][k]:
                out["K_dout"][k] += f * rates[i]
                out["S_dout"][k] += f * streams[i]
            if data["dst"][i] == data["dst"][k]:
                out["K_din"][k] += f * rates[i]
                out["S_din"][k] += f * streams[i]
            if data["src"][i] == data["src"][k] or data["dst"][i] == data["src"][k]:
                out["G_src"][k] += f * inst[i]
            if data["src"][i] == data["dst"][k] or data["dst"][i] == data["dst"][k]:
                out["G_dst"][k] += f * inst[i]
    return out


class TestContentionComputer:
    def test_matches_naive_reference(self):
        store = make_random_store(n=150, n_endpoints=4, seed=3)
        fast = ContentionComputer(store).compute()
        slow = naive_contention(store)
        for key in slow:
            assert np.allclose(fast[key], slow[key], rtol=1e-7, atol=1e-5), key

    def test_subset_matches_full(self):
        store = make_random_store(n=100, seed=4)
        comp = ContentionComputer(store)
        full = comp.compute()
        subset = np.array([3, 17, 50, 99])
        part = comp.compute(subset)
        for key in full:
            assert np.allclose(part[key], full[key][subset])

    def test_isolated_transfer_has_zero_contention(self):
        store = make_random_store(n=50, seed=5, horizon=1e9)  # sparse: no overlap
        out = ContentionComputer(store).compute()
        # With a huge horizon, transfers essentially never overlap.
        for key, v in out.items():
            assert np.all(v >= 0.0)
            assert np.median(v) == 0.0

    def test_all_nonnegative(self):
        store = make_random_store(n=300, seed=6, horizon=2000.0)  # dense overlap
        out = ContentionComputer(store).compute()
        for v in out.values():
            assert np.all(v >= 0.0)

    def test_empty_store_rejected(self):
        from repro.logs import LogStore

        with pytest.raises(ValueError):
            ContentionComputer(LogStore.empty())

    def test_two_identical_overlapping_transfers(self):
        """Two fully overlapping transfers on the same edge see each other."""
        from repro.logs import LogStore, TransferLogRecord

        recs = [
            TransferLogRecord(
                transfer_id=i, src="A", dst="B", src_site="A", dst_site="B",
                src_type="GCS", dst_type="GCS", ts=0.0, te=100.0, nb=1000.0,
                nf=10, nd=1, c=2, p=4, nflt=0, distance_km=1.0,
            )
            for i in range(2)
        ]
        store = LogStore.from_records(recs)
        out = ContentionComputer(store).compute()
        rate = 10.0  # 1000 bytes / 100 s
        for k in range(2):
            assert out["K_sout"][k] == pytest.approx(rate)
            assert out["K_din"][k] == pytest.approx(rate)
            assert out["S_sout"][k] == pytest.approx(8.0)  # min(2,10)*4
            assert out["G_src"][k] == pytest.approx(2.0)
            assert out["K_sin"][k] == 0.0
            assert out["K_dout"][k] == 0.0


# SHA-256 of the ten feature arrays (FEATURE_KEYS order) on the golden
# store below.  Computed with the per-endpoint legacy engine and with the
# merged group-by engine before the legacy one was retired; both gave
# exactly these digests.
GOLDEN_FULL = "b269bbad9b3921d6f55f9f3bcdcff112a4623504954c9c1901e25b97363c82af"
GOLDEN_SUBSET = "944cfc5580ce7d195bac480827368d4125826e625979b36f75f0d808f5acde84"

FEATURE_KEYS = (
    "K_sout", "K_sin", "K_dout", "K_din",
    "S_sout", "S_sin", "S_dout", "S_din",
    "G_src", "G_dst",
)


def features_fingerprint(out):
    """SHA-256 over exact array bytes (dtype + shape + raw data): any
    least-significant-bit change in any feature changes the digest."""
    h = hashlib.sha256()
    for key in FEATURE_KEYS:
        arr = np.ascontiguousarray(out[key])
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_store():
    return make_random_store(n=5000, n_endpoints=8, seed=21, horizon=100_000.0)


def golden_subset():
    return np.sort(np.random.default_rng(22).choice(5000, size=1700, replace=False))


class TestEngineParity:
    """Bit parity with the retired legacy engine, pinned as golden
    fingerprints of its output on a seeded 5k-row store."""

    def test_full_compute_bit_identical(self, golden_store):
        out = ContentionComputer(golden_store).compute()
        assert set(out) == set(FEATURE_KEYS)
        assert features_fingerprint(out) == GOLDEN_FULL

    def test_subset_compute_bit_identical(self, golden_store):
        out = ContentionComputer(golden_store).compute(golden_subset())
        assert features_fingerprint(out) == GOLDEN_SUBSET

    def test_repeated_computes_stay_identical(self):
        # The computer caches sort orders and memoised endpoint codes;
        # repeat computes must return the same arrays.
        store = make_random_store(n=200, n_endpoints=4, seed=15, horizon=2000.0)
        comp = ContentionComputer(store)
        first = comp.compute()
        second = comp.compute()
        for key in first:
            assert np.array_equal(first[key], second[key]), key


class TestOverlapSumFast:
    """overlap_sum's sorted-query searches and in-place evaluation: the
    answer for a query must not depend on where it sits in the batch, and
    must match the naive sum."""

    def _random_index(self, seed, k=1, nonneg=True, n=300):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0, 1000, n)
        te = ts + rng.uniform(1e-3, 200, n)
        if nonneg:
            w = rng.uniform(0, 1e6, (n, k))
        else:
            w = rng.normal(0, 1e6, (n, k))
        return IntervalOverlapIndex(ts, te, w[:, 0] if k == 1 else w), ts, te, w

    def _check(self, idx, ts, te, w, a, b):
        got = idx.overlap_sum(a, b)
        # Permuting the batch permutes the answers, bit for bit.
        perm = np.random.default_rng(7).permutation(a.size)
        assert np.array_equal(idx.overlap_sum(a[perm], b[perm]), got[perm])
        # The index clamps sums that cancel below zero (signed weights).
        want = np.array([
            [max(0.0, naive_overlap_sum(ts, te, w[:, j], ai, bi))
             for j in range(w.shape[1])]
            for ai, bi in zip(a, b)
        ])
        got2d = got.reshape(a.size, -1)
        scale = np.abs(w).sum() * np.abs(b).max() * 1e-12
        assert np.allclose(got2d, want, rtol=1e-9, atol=max(scale, 1e-6))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("nonneg", [True, False])
    def test_bit_identical_unsorted_queries(self, k, nonneg):
        idx, ts, te, w = self._random_index(seed=20 + k, k=k, nonneg=nonneg)
        rng = np.random.default_rng(99)
        a = rng.uniform(0, 1000, 120)  # deliberately unsorted
        b = a + rng.uniform(1e-3, 300, 120)
        self._check(idx, ts, te, w, a, b)

    def test_empty_query_batch(self):
        idx, _, _, _ = self._random_index(seed=30)
        empty = np.array([])
        assert idx.overlap_sum(empty, empty).shape == (0,)

    def test_empty_index(self):
        idx = IntervalOverlapIndex(np.array([]), np.array([]), np.array([]))
        a = np.array([1.0, 5.0])
        got = idx.overlap_sum(a, a + 1.0)
        assert np.array_equal(got, np.zeros(2))

    def test_negative_query_times(self):
        # Negative a disables the abs-elision; results must still match.
        idx, ts, te, w = self._random_index(seed=31, k=2)
        a = np.array([-50.0, -1.0, 10.0, 500.0])
        b = a + np.array([100.0, 2.0, 5.0, 1.0])
        self._check(idx, ts, te, w, a, b)
