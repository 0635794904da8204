"""Overlap-weighted contention aggregation (Eq. 2 and §4.3.1).

For a transfer ``k`` and a set of competing transfers ``A``, the paper
computes features of the form

    F(k) = sum over i in A of  O(i, k) / (Te_k - Ts_k) * w_i,

where ``O(i, k) = max(0, min(Te_i, Te_k) - max(Ts_i, Ts_k))`` is the time
two transfers overlap, and ``w_i`` is the competing transfer's rate (for
K features), its GridFTP instance count ``min(C_i, F_i)`` (for G), or its
stream count ``min(C_i, F_i) * P_i`` (for S).

Computing this naively is O(n²) per endpoint.  :class:`IntervalOverlapIndex`
answers weighted-overlap queries in O(log n) each using four prefix-sum
identities over intervals sorted by start and by end:

    sum_i w_i * min(Te_i, b)  over {Ts_i < b, Te_i > a}
        = sum_{Te<=b} w*Te + b * (W_{Ts<b} - W_{Te<=b}) - sum_{Te<=a} w*Te
    sum_i w_i * max(Ts_i, a)  over the same set
        = a * (W_{Ts<=a} - W_{Te<=a}) + sum_{a<Ts<b} w*Ts

(using that Te_i <= t implies Ts_i < t, and Ts_i >= t implies Te_i > t).
The weighted overlap sum is the difference of the two terms.

Each contract has one implementation here and its oracle in
``tests/core/test_contention.py``: :meth:`IntervalOverlapIndex.overlap_sum`
and :meth:`ContentionComputer.compute` are checked against the O(n²)
pairwise sums within tolerance, and the ten feature arrays of a seeded
5k-row store are pinned bit-for-bit by SHA-256 golden fingerprints.
"""

from __future__ import annotations

import numpy as np

from repro.logs.store import LogStore

__all__ = ["IntervalOverlapIndex", "ActiveOverlapIndex", "ContentionComputer"]


class IntervalOverlapIndex:
    """Prefix-sum index over weighted time intervals.

    ``weights`` may be 1-D (one weighting) or an ``(n, k)`` column stack:
    ``k`` different weightings of the *same* intervals answered with a
    single set of four binary searches per query batch.  Zero-padding a
    column (a weighting that only applies to some member intervals) is
    exact: adding ``0.0`` terms leaves every partial sum bit-identical, so
    a padded column reproduces a separate index over the non-zero subset
    bit-for-bit.

    Parameters
    ----------
    ts, te:
        Interval starts and ends (te > ts elementwise).
    weights:
        Per-interval weights (the w_i above), shape ``(n,)`` or ``(n, k)``.
    """

    def __init__(
        self,
        ts: np.ndarray,
        te: np.ndarray,
        weights: np.ndarray,
        nonneg: bool | None = None,
    ) -> None:
        ts = np.asarray(ts, dtype=np.float64).ravel()
        te = np.asarray(te, dtype=np.float64).ravel()
        w = np.asarray(weights, dtype=np.float64)
        self._multi = w.ndim == 2
        if not self._multi:
            w = w.reshape(-1, 1)
        if w.ndim != 2 or w.shape[0] != ts.size or ts.shape != te.shape:
            raise ValueError("ts, te, weights must have matching first dims")
        if np.any(te <= ts):
            raise ValueError("intervals must have te > ts")
        self.n = ts.size
        k = w.shape[1]
        # Prefix tables live transposed, (k, n+1): each weighting's running
        # sum is then a contiguous row, so the four cumsums stream instead of
        # striding across columns and query gathers copy whole rows.
        wt = np.ascontiguousarray(w.T)

        def tables(t_sorted: np.ndarray, order: np.ndarray) -> tuple:
            ws = wt[:, order]
            w_cum = np.empty((k, self.n + 1))
            w_cum[:, 0] = 0.0
            np.cumsum(ws, axis=1, out=w_cum[:, 1:])
            ws *= t_sorted[None, :]
            wt_cum = np.empty((k, self.n + 1))
            wt_cum[:, 0] = 0.0
            np.cumsum(ws, axis=1, out=wt_cum[:, 1:])
            return w_cum, wt_cum

        order_s = np.argsort(ts, kind="stable")
        self._ts_sorted = ts[order_s]
        self._w_by_ts, self._wts_by_ts = tables(self._ts_sorted, order_s)

        order_e = np.argsort(te, kind="stable")
        self._te_sorted = te[order_e]
        self._w_by_te, self._wte_by_te = tables(self._te_sorted, order_e)

        # All-nonnegative data (true for every contention weighting: rates,
        # stream counts, instance counts, wall-clock times) lets the
        # evaluation drop its |x| calls: every prefix sum is then >= 0, so
        # abs() is exactly the identity.  ``nonneg=True`` asserts the weight
        # property and skips the scan (ContentionComputer knows it by
        # construction); None means "detect".
        self._nonneg = bool(
            (self.n == 0 or self._ts_sorted[0] >= 0.0)
            and ((wt >= 0.0).all() if nonneg is None else nonneg)
        )

    def _check_queries(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        if a.shape != b.shape:
            raise ValueError("a and b must have equal shapes")
        if np.any(b <= a):
            raise ValueError("queries must have b > a")
        return a, b

    def overlap_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sum_i w_i * O(i, [a, b])`` per query interval.

        Self-exclusion is the caller's job: if the query interval is itself
        a member with weight ``w_k``, subtract ``w_k * (b - a)``.  Returns
        shape ``(q,)`` for 1-D weights, ``(q, k)`` for ``(n, k)`` weights.

        The queries are sorted before the binary searches:
        ``np.searchsorted`` pays a branch misprediction per bisection step
        when consecutive queries land in unrelated parts of the array, so
        sorted queries search several times faster, and the argsort +
        scatter overhead is small for batch queries.  The search results
        are the same integers in either order.
        """
        a, b = self._check_queries(a, b)
        if self.n == 0:
            out = np.zeros((a.size, self._w_by_ts.shape[0]))
            return out if self._multi else out[:, 0]

        # Counts/sums via searchsorted against the sorted arrays.
        # {Te <= t}: side='right' on te_sorted.
        # {Ts < t}: side='left' on ts_sorted; {Ts <= t}: side='right'.
        order_a = np.argsort(a)
        order_b = np.argsort(b)
        a_sorted = a[order_a]
        b_sorted = b[order_b]
        idx_te_a = np.empty(a.size, dtype=np.intp)
        idx_te_a[order_a] = np.searchsorted(self._te_sorted, a_sorted, side="right")
        idx_ts_a_le = np.empty(a.size, dtype=np.intp)
        idx_ts_a_le[order_a] = np.searchsorted(self._ts_sorted, a_sorted, side="right")
        idx_te_b = np.empty(b.size, dtype=np.intp)
        idx_te_b[order_b] = np.searchsorted(self._te_sorted, b_sorted, side="right")
        idx_ts_b = np.empty(b.size, dtype=np.intp)
        idx_ts_b[order_b] = np.searchsorted(self._ts_sorted, b_sorted, side="left")
        nonneg = self._nonneg and bool(a_sorted.size == 0 or a_sorted[0] >= 0.0)
        out = self._eval_identity(
            idx_te_a, idx_te_b, idx_ts_b, idx_ts_a_le, a, b, nonneg
        )
        return out.T if self._multi else out[0]

    def _eval_identity(
        self,
        idx_te_a: np.ndarray,
        idx_te_b: np.ndarray,
        idx_ts_b: np.ndarray,
        idx_ts_a_le: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        nonneg: bool,
    ) -> np.ndarray:
        """The prefix-sum identity and its noise clamp, shape (k, q).

        Updates run in place on the gathered buffers (the gathers are the
        only allocations that survive).  When ``nonneg`` is True the |x|
        calls are elided: on all-nonnegative data abs() is the identity,
        so the elision cannot change a single bit.
        """
        w_te_le_a = self._w_by_te[:, idx_te_a]
        w_te_le_b = self._w_by_te[:, idx_te_b]
        wte_le_a = self._wte_by_te[:, idx_te_a]
        wte_le_b = self._wte_by_te[:, idx_te_b]
        w_ts_lt_b = self._w_by_ts[:, idx_ts_b]
        w_ts_le_a = self._w_by_ts[:, idx_ts_a_le]
        wts_lt_b = self._wts_by_ts[:, idx_ts_b]
        wts_le_a = self._wts_by_ts[:, idx_ts_a_le]

        a_row = a[None, :]
        b_row = b[None, :]
        # The prefix sums feeding the identity can be ~1e14 while the true
        # answer is exactly zero; double-precision cancellation then leaves
        # residue of either sign.  Anything within 1e-12 of the
        # intermediate magnitude is clamped to zero (overlaps that small
        # are physically meaningless).  The noise bound comes first (it
        # reads every gather), then the gathers double as scratch for the
        # terms.  Both branches sum in the same order.
        if nonneg:
            noise = np.add(wte_le_b, wte_le_a)
            scratch = np.add(w_ts_lt_b, w_te_le_b)
            scratch *= b_row
            noise += scratch
            np.add(w_ts_le_a, w_te_le_a, out=scratch)
            scratch *= a_row
            noise += scratch
            noise += wts_lt_b
            noise += wts_le_a
            noise *= 1e-12
        else:
            noise = 1e-12 * (
                np.abs(wte_le_b)
                + np.abs(wte_le_a)
                + np.abs(b_row) * (w_ts_lt_b + w_te_le_b)
                + np.abs(a_row) * (w_ts_le_a + w_te_le_a)
                + np.abs(wts_lt_b)
                + np.abs(wts_le_a)
            )

        # term_min, built in w_ts_lt_b's buffer.
        np.subtract(w_ts_lt_b, w_te_le_b, out=w_ts_lt_b)
        w_ts_lt_b *= b_row
        w_ts_lt_b += wte_le_b
        w_ts_lt_b -= wte_le_a
        # term_max, built in w_ts_le_a's buffer.
        np.subtract(w_ts_le_a, w_te_le_a, out=w_ts_le_a)
        w_ts_le_a *= a_row
        np.subtract(wts_lt_b, wts_le_a, out=wts_lt_b)
        w_ts_le_a += wts_lt_b
        out = np.subtract(w_ts_lt_b, w_ts_le_a, out=w_ts_lt_b)
        out[np.abs(out) <= noise] = 0.0
        np.maximum(out, 0.0, out=out)
        return out


class ActiveOverlapIndex:
    """Prefix-sum index over weighted intervals that have *already started*.

    The online-serving case of :class:`IntervalOverlapIndex`: every indexed
    interval is known to start at or before any query's left edge ``a`` (the
    in-flight transfer population at time ``a``), so only the end times
    matter and the overlap of interval ``i`` with a query ``[a, b]`` is
    ``max(0, min(te_i, b) - a)``.  Supports ``te = inf`` ("runs forever",
    the conservative choice when a completion estimate is unknown): such
    intervals always overlap the full query window.

    Queries are vectorized two ways: one call answers the weighted-overlap
    sum for a whole batch of query windows ``[a, b_j]`` in O(q log n), and
    ``weights`` may be a 2-D ``(n, k)`` column stack so ``k`` different
    weightings of the *same* intervals (e.g. a transfer population
    weighted by rate and by stream count) share one binary search per
    query.

    Parameters
    ----------
    te:
        Interval end times; may contain ``inf``.
    weights:
        Per-interval weights (rates, stream counts, instance counts, ...),
        shape ``(n,)`` for one weighting or ``(n, k)`` for ``k`` of them.
    """

    def __init__(self, te: np.ndarray, weights: np.ndarray) -> None:
        te = np.asarray(te, dtype=np.float64).ravel()
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            w = w.reshape(-1, 1)
        if w.shape[0] != te.size:
            raise ValueError("weights must have shape (n,) or (n, k)")
        finite = np.isfinite(te)
        te_f, w_f = te[finite], w[finite]
        order = np.argsort(te_f, kind="stable")
        self._assemble(te_f[order], w_f[order], w[~finite], None, 0)

    @classmethod
    def from_sorted(
        cls,
        te_sorted: np.ndarray,
        w_tail: np.ndarray,
        w_inf: np.ndarray,
        base: "ActiveOverlapIndex | None" = None,
        start: int = 0,
    ) -> "ActiveOverlapIndex":
        """The index over rows already in query order: finite ends
        ``te_sorted`` ascending, the ``(m - start, k)`` weights
        ``w_tail`` of its rows from ``start`` on, and the ``(j, k)``
        weights ``w_inf`` of the ``te = inf`` rows.  It equals, bit for
        bit, the index the constructor builds from the same rows in that
        order.

        With ``start > 0``, ``base`` is an index whose first ``start``
        sorted rows are these rows' first ``start``: the prefix sums reuse
        ``base``'s up to ``start`` and continue from there, so a few
        changed rows cost the cumsum of the suffix past the first of them,
        not of every row.
        """
        index = cls.__new__(cls)
        index._assemble(te_sorted, w_tail, w_inf, base, start)
        return index

    def _assemble(self, te_s: np.ndarray, w_tail: np.ndarray,
                  w_inf: np.ndarray, base: "ActiveOverlapIndex | None",
                  start: int) -> None:
        self.n = te_s.size + w_inf.shape[0]
        # Summed over a C-ordered block, whatever layout the caller holds
        # (summing along a contiguous axis would add pairwise instead).
        self._w_inf = np.ascontiguousarray(w_inf).sum(axis=0)
        self._te_sorted = te_s
        # Both prefix-sum tables in one block, one table column per row:
        # each column's cumsum is its own recurrence over contiguous
        # memory, and one call runs them all.
        k = w_tail.shape[1]
        cum = np.empty((2 * k, te_s.size + 1))
        if start == 0:
            # Not continued at row 0: the cumsum's first entry is the row
            # itself, while 0.0 + row turns a -0.0 weight into +0.0.
            cum[:, 0] = 0.0
            run = cum[:, 1:]
        else:
            # np.cumsum is a strict left-to-right recurrence, so seeding
            # it with base's running sums at ``start`` repeats base's
            # additions.
            cum[:, :start + 1] = base._cum[:, :start + 1]
            run = cum[:, start:]
        w_t = w_tail.T
        cum[:k, start + 1:] = w_t
        np.multiply(w_t, te_s[start:], out=cum[k:, start + 1:])
        np.cumsum(run, axis=1, out=run)
        self._cum = cum
        self._w_cum = cum[:k].T
        self._wte_cum = cum[k:].T

    def window_sums(self, a: float, b: np.ndarray) -> np.ndarray:
        """``sum_i w_i * max(0, min(te_i, b) - a)`` per query end ``b``.

        Returns shape ``(q, k)`` (``k = 1`` for 1-D weights); requires
        ``b > a``.  The caller guarantees every indexed interval starts at
        or before ``a`` (true by construction for an active-transfer
        population queried at the current time).

        The serving fix-point issues many small queries anchored at one
        ``now``; resolving ``a`` as a python float once (one scalar binary
        search, no broadcast resolution, method-dispatch ``searchsorted``)
        strips the per-call numpy wrapper overhead that dominates at
        ``q ~ 1``.
        """
        a = float(a)
        b = np.asarray(b, dtype=np.float64)
        if (b <= a).any():
            raise ValueError("queries must have b > a")
        k = self._w_cum.shape[1]
        if self.n == 0:
            return np.zeros((b.size, k))
        # Ends in (a, b] contribute w*(te - a); ends > b contribute w*(b - a).
        idx_a = int(self._te_sorted.searchsorted(a, side="right"))
        idx_b = self._te_sorted.searchsorted(b, side="right")
        span = (b - a)[:, None]
        mid = (self._wte_cum[idx_b] - self._wte_cum[idx_a]) - a * (
            self._w_cum[idx_b] - self._w_cum[idx_a]
        )
        tail = span * (self._w_cum[-1] - self._w_cum[idx_b])
        out = mid + tail + self._w_inf * span
        np.maximum(out, 0.0, out=out)
        return out


# Weight columns of the merged per-endpoint index.
_COL_OUT_RATE = 0
_COL_IN_RATE = 1
_COL_OUT_STREAMS = 2
_COL_IN_STREAMS = 3
_COL_TOUCH_INST = 4
_N_COLS = 5

_FEATURE_KEYS = (
    "K_sout", "K_sin", "K_dout", "K_din",
    "S_sout", "S_sin", "S_dout", "S_din",
    "G_src", "G_dst",
)


class ContentionComputer:
    """Computes the ten §4.3.1 contention features for every transfer.

    Build once from a full log (all transfers the service knows about),
    then call :meth:`compute` for the transfers of interest — the paper
    computes competing load from the *entire* log even when modeling a
    single edge.

    Endpoint labels are factorised to integer codes once; per-endpoint row
    groups come from one stable argsort instead of per-endpoint string
    scans.  Each endpoint gets ONE merged :class:`IntervalOverlapIndex`
    over the transfers touching it, with five zero-padded weight columns
    (out/in rate, out/in streams, touching instances) — zero-padding is
    exact, see the index docstring — and source-side + destination-side
    queries are answered in a single batched call: 4 binary searches per
    endpoint.  ``tests/core/test_contention.py`` holds the oracle: an
    O(n²) pairwise sum, plus golden fingerprints of the feature arrays.
    """

    def __init__(self, store: LogStore) -> None:
        if len(store) == 0:
            raise ValueError("cannot build contention indexes from empty log")
        self._store = store
        # Zero-copy read-only views: the full-store copy raw() makes is
        # measurable at bench scale, and the computer never writes.
        self._ts = store.column_view("ts")
        self._te = store.column_view("te")
        inst = np.minimum(
            store.column_view("c"), store.column_view("nf")
        ).astype(np.float64)
        self._streams = inst * store.column_view("p")
        self._rate = store.rates
        self._instances = inst
        self._build()

    def _build(self) -> None:
        # Endpoint labels come pre-factorised (and memoised) by the store;
        # see LogStore.endpoint_codes for why this beats np.unique.
        self.endpoints_, self._src_code, self._dst_code = self._store.endpoint_codes()
        # One stable argsort per side replaces every per-endpoint string
        # scan; within a code block rows stay in ascending original order,
        # matching np.nonzero(mask) exactly.
        self._src_order = np.argsort(self._src_code, kind="stable")
        self._dst_order = np.argsort(self._dst_code, kind="stable")
        eng = np.arange(self.endpoints_.size + 1)
        src_bounds = np.searchsorted(self._src_code[self._src_order], eng)
        dst_bounds = np.searchsorted(self._dst_code[self._dst_order], eng)
        # compute(subset=None) groups the same full row set by the same
        # codes; cache the sort so the common case skips its own argsort.
        self._src_bounds = src_bounds
        self._dst_bounds = dst_bounds

        self._merged: list[IntervalOverlapIndex] = []
        for e in range(self.endpoints_.size):
            out_rows = self._src_order[src_bounds[e] : src_bounds[e + 1]]
            in_rows = self._dst_order[dst_bounds[e] : dst_bounds[e + 1]]
            # Sorted-set union via radix sort + run dedup: both inputs are
            # already ascending, and int sort + a diff mask is several times
            # faster than np.union1d's hash-based unique at this size.
            cat = np.concatenate([out_rows, in_rows])
            cat.sort(kind="stable")
            if cat.size:
                keep = np.empty(cat.size, dtype=bool)
                keep[0] = True
                np.not_equal(cat[1:], cat[:-1], out=keep[1:])
                touch = cat[keep]
            else:
                touch = cat
            pos_out = np.searchsorted(touch, out_rows)
            pos_in = np.searchsorted(touch, in_rows)
            # Weights are built (k, m) so the index's transposed table
            # layout takes them without a copy (it sees the F-ordered .T).
            weights = np.zeros((_N_COLS, touch.size))
            weights[_COL_OUT_RATE, pos_out] = self._rate[out_rows]
            weights[_COL_IN_RATE, pos_in] = self._rate[in_rows]
            weights[_COL_OUT_STREAMS, pos_out] = self._streams[out_rows]
            weights[_COL_IN_STREAMS, pos_in] = self._streams[in_rows]
            weights[_COL_TOUCH_INST] = self._instances[touch]
            self._merged.append(
                IntervalOverlapIndex(
                    self._ts[touch], self._te[touch], weights.T, nonneg=True
                )
            )

    def compute(self, subset: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Contention features for transfers at positions ``subset`` of the
        full store (all transfers when None).

        Returns a dict with keys ``K_sout, K_sin, K_dout, K_din, S_sout,
        S_sin, S_dout, S_din, G_src, G_dst`` mapping to per-transfer arrays.
        Each value already includes the 1/(Te_k - Ts_k) scaling of Eq. 2 and
        excludes the transfer's own contribution.
        """
        full = subset is None
        if full:
            subset = np.arange(len(self._store))
            # Full-store compute reads the columns as-is; the fancy-index
            # gathers below would just copy them.
            ts, te = self._ts, self._te
            rate, streams, instances = self._rate, self._streams, self._instances
        else:
            subset = np.asarray(subset)
            ts = self._ts[subset]
            te = self._te[subset]
            rate = self._rate[subset]
            streams = self._streams[subset]
            instances = self._instances[subset]
        n = subset.size
        out = {name: np.zeros(n) for name in _FEATURE_KEYS}
        dur = te - ts

        self._fill(subset, out, ts, te, dur, rate, streams, instances, full)

        # Numerical floor: the self-subtraction above cancels two numbers of
        # magnitude ~w_k * duration, which can leave residue of either sign
        # around zero.  Clamp anything negligible relative to the transfer's
        # own weight to exactly zero.
        self_weight = {
            "K_sout": rate, "K_din": rate,
            "S_sout": streams, "S_din": streams,
            "G_src": instances, "G_dst": instances,
        }
        for key, v in out.items():
            np.maximum(v, 0.0, out=v)
            if key in self_weight:
                v[v < 1e-9 * np.maximum(self_weight[key], 1.0)] = 0.0
        return out

    def _fill(self, subset, out, ts, te, dur, rate, streams, instances, full):
        if full:
            # subset is arange(n): the grouping is exactly the one cached at
            # build time, so skip the two argsorts.
            order_s, order_d = self._src_order, self._dst_order
            bounds_s, bounds_d = self._src_bounds, self._dst_bounds
        else:
            src_c = self._src_code[subset]
            dst_c = self._dst_code[subset]
            order_s = np.argsort(src_c, kind="stable")
            order_d = np.argsort(dst_c, kind="stable")
            eng = np.arange(self.endpoints_.size + 1)
            bounds_s = np.searchsorted(src_c[order_s], eng)
            bounds_d = np.searchsorted(dst_c[order_d], eng)

        for e in range(self.endpoints_.size):
            at_src = order_s[bounds_s[e] : bounds_s[e + 1]]
            at_dst = order_d[bounds_d[e] : bounds_d[e + 1]]
            ns = at_src.size
            if ns == 0 and at_dst.size == 0:
                continue
            # Source-side and destination-side queries share the merged
            # index; one concatenated call does 4 binary searches total.
            a = np.concatenate([ts[at_src], ts[at_dst]])
            b = np.concatenate([te[at_src], te[at_dst]])
            res = self._merged[e].overlap_sum(a, b)
            rs = res[:ns]
            rd = res[ns:]
            if ns:
                d = dur[at_src]
                # Outgoing sets at the source include k itself: subtract
                # the self term w_k * duration before scaling.
                out["K_sout"][at_src] = (
                    rs[:, _COL_OUT_RATE] - rate[at_src] * d
                ) / d
                out["S_sout"][at_src] = (
                    rs[:, _COL_OUT_STREAMS] - streams[at_src] * d
                ) / d
                out["K_sin"][at_src] = rs[:, _COL_IN_RATE] / d
                out["S_sin"][at_src] = rs[:, _COL_IN_STREAMS] / d
                out["G_src"][at_src] = (
                    rs[:, _COL_TOUCH_INST] - instances[at_src] * d
                ) / d
            if at_dst.size:
                d = dur[at_dst]
                out["K_din"][at_dst] = (
                    rd[:, _COL_IN_RATE] - rate[at_dst] * d
                ) / d
                out["S_din"][at_dst] = (
                    rd[:, _COL_IN_STREAMS] - streams[at_dst] * d
                ) / d
                out["K_dout"][at_dst] = rd[:, _COL_OUT_RATE] / d
                out["S_dout"][at_dst] = rd[:, _COL_OUT_STREAMS] / d
                out["G_dst"][at_dst] = (
                    rd[:, _COL_TOUCH_INST] - instances[at_dst] * d
                ) / d
