"""Tests for the chaos-replay fault-injection harness (repro.serve.chaos)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.online import ActiveTransferView
from repro.serve import ModelTier, mutation
from repro.serve.chaos import (
    N_EDGE_MODELS,
    ChaosConfig,
    ChaosReport,
    _check_fault_accounting,
    fault_menu,
    make_chaos_chain,
    make_chaos_log,
    make_durable_events,
    run_chaos_replay,
)

ACCOUNTING = "engine refused exactly the injected faults"

# SHA-256 of the quick seed-0 replay's full render(), lenient and strict:
# a refactor of the harness must leave every line byte-identical.
RENDER_SHA256 = {
    True: "a796a74449b1dfd866d78b4168b6c6bc1a339764068b2979a41fa27bd28e920f",
    False: "f52090d27fb43ca2d8b0c86aeddab99354fcf6e48df32170123743e9b145da45",
}


def _checks(report):
    return {name: ok for name, ok, _ in report.checks}


def _render_sha256(report) -> str:
    return hashlib.sha256(report.render().encode()).hexdigest()


class TestConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ChaosConfig(n_endpoints=2)
        with pytest.raises(ValueError):
            ChaosConfig(predict_every=0)

    def test_quick_is_small(self):
        quick = ChaosConfig.quick()
        assert quick.n_transfers < ChaosConfig().n_transfers


class TestLogAndChain:
    def test_log_reproducible(self):
        cfg = ChaosConfig.quick(seed=5)
        a, b = make_chaos_log(cfg), make_chaos_log(cfg)
        assert np.array_equal(a.raw(), b.raw())
        assert len(a) == cfg.n_transfers

    def test_chain_has_all_tiers(self):
        cfg = ChaosConfig.quick()
        chain = make_chaos_chain(make_chaos_log(cfg), cfg)
        assert len(chain.edge_models) == N_EDGE_MODELS
        assert chain.global_model is not None
        assert chain.endpoint_maxima and chain.edge_medians
        assert chain.global_median > 0


class TestReplay:
    def test_lenient_run_is_clean(self):
        """Acceptance: all injectors enabled, zero crashes, zero NaN
        predictions, consistent active population."""
        report = run_chaos_replay(ChaosConfig.quick())
        assert report.ok, report.render()
        checks = _checks(report)
        assert checks["every prediction batch answered, finite and positive"]
        assert checks["active population matches the replay's ground truth"]
        assert report.predictions > 0
        # Faults were actually injected and absorbed.
        assert sum(report.injected.values()) > 0
        assert sum(
            report.active_stats[k]
            for k in ("ignored_adds", "ignored_completes", "rejected_progress")
        ) > 0
        # Fallback routing happened: at least edge + one degraded tier.
        assert ModelTier.EDGE.value in report.tier_counts
        assert len(report.tier_counts) >= 2
        assert _render_sha256(report) == RENDER_SHA256[True]

    def test_strict_active_survives_via_rejections(self):
        cfg = dataclasses.replace(ChaosConfig.quick(), lenient=False)
        report = run_chaos_replay(cfg)
        assert report.ok, report.render()
        assert report.rejected_strict > 0
        assert report.active_stats["ignored_completes"] == 0
        assert _render_sha256(report) == RENDER_SHA256[False]

    def test_no_global_model_exercises_analytical_tier(self):
        cfg = dataclasses.replace(
            ChaosConfig.quick(), use_global_model=False, seed=3
        )
        report = run_chaos_replay(cfg)
        assert report.ok, report.render()
        assert ModelTier.GLOBAL.value not in report.tier_counts
        assert ModelTier.ANALYTICAL.value in report.tier_counts

    def test_deterministic_given_seed(self):
        cfg = ChaosConfig.quick(seed=11)
        a, b = run_chaos_replay(cfg), run_chaos_replay(cfg)
        assert a.injected == b.injected
        assert a.tier_counts == b.tier_counts
        assert a.predictions == b.predictions
        assert a.final_active == b.final_active

    def test_render_summarises(self):
        report = run_chaos_replay(ChaosConfig.quick())
        lines = report.render().splitlines()
        assert lines[0].startswith("chaos replay:")
        assert lines[1].split() == ["verdict", "OK"]
        assert len(lines) == 2 + len(report.checks)
        assert all(line.startswith("  [PASS] ") for line in lines[2:])
        assert "tiers edge" in report.render()
        assert "duplicate_add" in report.render()

    def test_replays_the_crash_replay_stream(self):
        """The serve replay draws no faults of its own: its records are
        the shared stream minus the stand-in drift records."""
        cfg = ChaosConfig.quick(seed=3)
        stream = make_durable_events(cfg)
        report = run_chaos_replay(cfg)
        assert report.events == sum(r[0] != "drift" for r in stream)
        assert report.injected == fault_menu(stream)


class TestFaultAccounting:
    @pytest.mark.parametrize("lenient", [True, False])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_engine_refuses_exactly_the_faults_sent(self, seed, lenient):
        cfg = dataclasses.replace(ChaosConfig.quick(seed=seed),
                                  lenient=lenient)
        report = run_chaos_replay(cfg)
        assert _checks(report)[ACCOUNTING], report.render()
        menu, stats = report.injected, report.active_stats
        refused = (menu["duplicate_add"] + menu["duplicate_complete"]
                   + menu["unknown_complete"] + menu["bad_progress"])
        assert refused > 0
        if lenient:
            assert stats["ignored_adds"] == menu["duplicate_add"]
            assert stats["ignored_completes"] == (
                menu["duplicate_complete"] + menu["unknown_complete"])
            assert stats["rejected_progress"] == menu["bad_progress"]
            assert report.rejected_strict == 0
        else:
            assert report.rejected_strict == refused

    def test_seed0_counts(self):
        """The quick seed-0 stream, counted by hand once: 7 duplicate
        adds, 17 duplicate + 7 unknown completes, 22 bad and 36 good
        progress reports."""
        report = run_chaos_replay(ChaosConfig.quick(seed=0))
        assert report.active_stats["ignored_adds"] == 7
        assert report.active_stats["ignored_completes"] == 17 + 7
        assert report.active_stats["rejected_progress"] == 22
        assert report.active_stats["progress_updates"] == 36
        strict = run_chaos_replay(
            dataclasses.replace(ChaosConfig.quick(seed=0), lenient=False))
        assert strict.rejected_strict == 53

    def test_miscounting_fails_the_check(self):
        report = ChaosReport(injected={"duplicate_add": 1,
                                       "duplicate_complete": 0,
                                       "unknown_complete": 0,
                                       "never_complete": 0,
                                       "bad_progress": 0})
        _check_fault_accounting(report, [], lenient=False)
        assert not report.ok
        assert report.failed[0][0] == ACCOUNTING


def _view(t: float) -> ActiveTransferView:
    return ActiveTransferView(src="A", dst="B", rate=1e7, started_at=t,
                              expected_end=t + 100.0)


class TestFaultMenu:
    def test_hand_written_stream(self):
        events = [
            mutation.add(1, _view(0.0)),
            mutation.add(1, _view(0.0)),                 # duplicate_add
            mutation.add(2, _view(1.0)),
            mutation.progress(1, rate=5e6),              # good
            mutation.progress(1, rate=float("nan")),     # bad
            mutation.progress(2, rate=-1.0),             # bad
            mutation.progress(2, rate=float("inf")),     # bad
            mutation.progress(2, expected_end=500.0),    # good (no rate)
            mutation.complete(1),
            mutation.drift("A", "B", "edge", 1e7, 2e7),
            mutation.complete(1),                        # duplicate_complete
            mutation.complete(99),                       # unknown_complete
            mutation.complete(99),                       # unknown, not dup
            mutation.add(3, _view(2.0)),                 # never completes
        ]
        assert fault_menu(events) == {
            "duplicate_add": 1,
            "duplicate_complete": 1,
            "unknown_complete": 2,
            "never_complete": 2,
            "bad_progress": 3,
        }

    def test_clean_stream_has_no_faults(self):
        events = [mutation.add(1, _view(0.0)), mutation.complete(1)]
        assert not any(fault_menu(events).values())
