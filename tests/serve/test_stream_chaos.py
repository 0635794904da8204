"""The streaming chaos harness is itself the acceptance proof — these
tests run it and hold it to its own verdicts."""

import hashlib

import pytest

from repro.obs import Observability
from repro.serve.fallback import ModelTier
from repro.serve.stream import StreamChaosConfig, run_stream_chaos

# SHA-256 of the quick seed-0 run's full render(): a refactor of the
# harness must leave every line of the verdict byte-identical.
RENDER_SHA256 = (
    "382d0c4cb57d04b2481df5de2bee088dbe274acbb3759e58223bc51ae2f141fc")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    work = tmp_path_factory.mktemp("stream-chaos")
    obs = Observability.create(trace=False)
    out = run_stream_chaos(StreamChaosConfig.quick(), work_dir=work, obs=obs)
    out._registry_flat = obs.registry.flat()
    return out


def passed(report, name: str) -> bool:
    """The named check's outcome (``KeyError`` if it never ran)."""
    return {n: ok for n, ok, _ in report.checks}[name]


class TestExactlyOnce:
    def test_every_kept_record_applied_exactly_once(self, report):
        assert report.reference_records > 50
        assert report.applied_records == report.reference_records
        assert passed(report, "exactly-once ingestion")

    def test_crashes_actually_happened(self, report):
        assert report.crashes_injected >= 2
        assert report.incarnations > report.crashes_injected
        assert passed(report, "every scripted crash fired")

    def test_corruption_actually_happened(self, report):
        assert report.quarantined_rows > 0
        assert passed(report,
                      "tail quarantined what the batch reader quarantines")


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, report):
        assert report.breaker_state == "OPEN"
        assert report.breaker_opens >= 1
        assert report.poisoned_refit_failures >= 2

    def test_open_edge_is_descheduled(self, report):
        assert passed(report, "circuit breaker opened")
        assert [d for n, _, d in report.checks
                if n == "circuit breaker opened"][0].endswith("not scheduled")

    def test_serving_falls_back_with_provenance(self, report):
        assert passed(report, "fallback serving")
        assert report.poisoned_tier in {
            ModelTier.GLOBAL.value, ModelTier.ANALYTICAL.value,
            ModelTier.MEDIAN.value, ModelTier.DEFAULT.value}


class TestNeverUnseated:
    def test_live_model_survives_corrupt_publishes(self, report):
        assert report.refused_publishes >= 1
        assert report.rollbacks >= report.refused_publishes
        assert passed(report, "live model never unseated")


class TestResets:
    def test_truncation_and_rotation_reingest_exactly(self, report):
        assert passed(report, "truncation shrinks the file below the "
                              "committed offset")
        assert passed(report, "truncation/rotation resets exact")


class TestAlertDeterminism:
    """Satellite of the exactly-once guarantee: burn-rate alerts must
    fire identically on a crash-riddled run and its uninterrupted
    reference — same transitions, same engine-local sequence numbers."""

    def test_at_least_one_alert_fired(self, report):
        # A proof over zero alerts proves nothing.
        assert passed(report, "alert determinism: at least one alert fired")

    def test_crash_run_matches_reference_ledger(self, report):
        assert passed(report, "alert determinism: ledger equals the "
                              "uninterrupted reference")

    def test_slo_sample_windows_converge(self, report):
        assert passed(report, "alert determinism: SLO sample windows equal "
                              "the reference")

    def test_event_sink_has_no_duplicate_or_phantom_seqs(self, report):
        assert passed(report, "alert determinism: event sink seqs strictly "
                              "increasing")

    def test_every_alert_transition_is_durable_in_the_sink(self, report):
        assert passed(report, "alert determinism: sink alert events mirror "
                              "the engine ledger")

    def test_folded_into_overall_verdict(self, report):
        alerts = [ok for n, ok, _ in report.checks
                  if n.startswith("alert determinism: ")]
        assert len(alerts) == 5 and all(alerts)


class TestEverySeed:
    """The whole verdict holds on every quick seed, not just the one the
    other tests read: on seeds 2, 3 and 5 the poisoned edge sees its last
    rows before its first failed refit, so only the evidence that failure
    keeps can bring the second failure that opens the breaker."""

    @pytest.mark.parametrize("seed", range(6))
    def test_quick_verdict_holds(self, seed, report, tmp_path):
        if seed != StreamChaosConfig.quick().seed:  # else reuse the module's
            report = run_stream_chaos(
                StreamChaosConfig.quick(seed), work_dir=tmp_path,
                obs=Observability.create(trace=False))
        assert report.ok, report.failed
        assert report.breaker_state == "OPEN"
        assert report.poisoned_refit_failures >= 2


class TestVerdict:
    def test_overall_ok_and_renders(self, report):
        assert report.ok, report.failed
        text = report.render()
        assert "verdict" in text and "OK" in text
        assert report.poisoned_edge in text
        assert text.count("[PASS]") == len(report.checks)
        assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256

    def test_stream_metrics_exported(self, report):
        flat = report._registry_flat
        assert flat["stream_checkpoints_total"] > 0
        assert flat["stream_recoveries_total"] > 0
        assert flat["stream_applied_records_total"] > 0
        # (Tail-reset counters live in scenario B's own registry.)
        assert any(k.startswith("stream_refits_total") for k in flat)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="phases"):
            StreamChaosConfig(phases=1)
        with pytest.raises(ValueError, match="transfers"):
            StreamChaosConfig(n_transfers=10)
