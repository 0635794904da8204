"""The crash-injection acceptance property (repro.serve.chaos crash mode).

For any kill point and any journal-tail tear offset, recovery plus
re-delivery of the unacknowledged suffix must reproduce — bit for bit —
the active population, the drift windows and gauges, and the predictions
of an uninterrupted run over the same event stream.
"""

import hashlib
import json

import pytest

from repro.serve.chaos import (
    ChaosConfig,
    make_durable_events,
    run_crash_replay,
)


@pytest.fixture(scope="module")
def quick():
    return ChaosConfig.quick(seed=11)


class TestEventStream:
    def test_deterministic(self, quick):
        # repr-compare: the stream deliberately contains NaN rates, and
        # NaN != NaN under plain equality.
        assert repr(make_durable_events(quick)) == repr(make_durable_events(quick))

    def test_covers_all_ops(self, quick):
        ops = {e[0] for e in make_durable_events(quick)}
        assert ops == {"add", "progress", "complete", "drift"}

    def test_golden_stream(self, quick):
        """The stream's exact content, pinned: the same RNG draws in the
        same order produce the same records (non-finite rates as their
        ``repr`` strings, a missing ``expected_end`` as ``None``)."""
        blob = json.dumps(make_durable_events(quick), separators=(",", ":"),
                          sort_keys=True, allow_nan=False).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == (
            "82581b620d67b7fae85d014d5be2ef3b75e5f90047301c0ba6a20b9f67664c5d")


class TestCrashProperty:
    def test_default_kill_is_equivalent(self, quick):
        report = run_crash_replay(quick)
        assert report.ok, report.render()
        assert report.recovery["snapshot_generation"] >= 1
        assert report.resumed_events > 0
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert checks["predictions equal"] == (
            True, "max |delta| 0 B/s over 32 probes")
        assert checks["active population equal"][0]
        assert checks["drift gauges equal"][0]
        # The whole verdict, pinned: a refactor of the harness must leave
        # every line of it byte-identical.
        assert hashlib.sha256(report.render().encode()).hexdigest() == (
            "c7426ff78dbe55ce356529754c62a2de94aab40761d09b306ea3a79e4ee2a940")

    @pytest.mark.parametrize("fraction", [0.0, 0.15, 0.5, 0.85, 1.0])
    def test_kill_anywhere(self, quick, fraction):
        n = len(make_durable_events(quick))
        report = run_crash_replay(
            quick, kill_after_events=int(n * fraction))
        assert report.ok, report.render()

    @pytest.mark.parametrize("cut", [0, 1, 3, 4, 9, 64])
    def test_tear_at_any_byte_offset(self, quick, cut):
        """Cut sizes straddle header (8B), payload and record boundaries."""
        report = run_crash_replay(quick, cut_bytes=cut)
        assert report.ok, report.render()
        if cut:
            # The tear is found and cut away, and the torn record is lost:
            # recovery resumes before the kill point.
            assert report.recovery["truncated_bytes"] > 0
            assert report.recovery["last_seq"] < report.kill_after

    def test_no_segment_reports_no_tear(self, quick):
        """Killed before the first record: there is no journal tail to
        tear, so the report names a 0-byte tear, not the one asked for."""
        report = run_crash_replay(quick, kill_after_events=0)
        assert report.ok, report.render()
        assert report.cut_bytes == 0
        assert "journal tail torn by 0 bytes" in report.render()

    def test_oversized_tear_reports_the_segment_size(self, quick):
        """A cut larger than the segment empties it: the report names the
        bytes actually cut, the same for any oversized request."""
        big = run_crash_replay(quick, cut_bytes=100_000)
        bigger = run_crash_replay(quick, cut_bytes=1_000_000)
        assert big.ok and bigger.ok, big.render()
        assert 0 < big.cut_bytes < 100_000
        assert bigger.cut_bytes == big.cut_bytes
        assert f"journal tail torn by {big.cut_bytes} bytes" in big.render()

    def test_negative_tear_rejected(self, quick):
        """Truncating to more than the segment's size would append zero
        bytes, not tear any: a negative cut is refused up front."""
        with pytest.raises(ValueError, match="cut_bytes must be >= 0"):
            run_crash_replay(quick, cut_bytes=-5)

    def test_corrupt_snapshot_falls_back(self, quick):
        report = run_crash_replay(quick, corrupt_snapshot=True)
        assert report.ok, report.render()
        assert report.recovery["snapshot_fallbacks"] == 1

    def test_sparse_snapshots_long_replay(self, quick):
        report = run_crash_replay(quick, snapshot_every=10_000)
        assert report.ok, report.render()
        # No snapshot ever happened: pure journal replay.
        assert report.recovery["snapshot_generation"] == 0
        assert report.recovery["replayed_records"] > 0

    def test_report_renders(self, quick):
        report = run_crash_replay(quick)
        text = report.render()
        assert "verdict" in text and "OK" in text
        assert "[PASS] predictions equal" in text

    def test_acknowledgement_bound_is_a_check(self, quick):
        report = run_crash_replay(quick, kill_after_events=40)
        name, ok, detail = report.checks[0]
        assert name == "journal acknowledged no more records than were delivered"
        assert ok and detail.endswith("delivered 40")
