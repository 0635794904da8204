"""Tests for the bench suite's advise section, and for the sweep
fingerprint that pins the advisor's ranking in the tier-1 tests."""

from repro.exec.bench import BenchReport, _run_advise_bench
from tests.oracles import sweep_fingerprint


class TestSweepFingerprint:
    def test_deterministic(self):
        ranked = [(2, 4, 1.5e8), (1, 1, 9.9e7)]
        assert sweep_fingerprint(ranked) == sweep_fingerprint(list(ranked))

    def test_order_sensitive(self):
        a = [(2, 4, 1.5e8), (1, 1, 9.9e7)]
        b = [(1, 1, 9.9e7), (2, 4, 1.5e8)]
        assert sweep_fingerprint(a) != sweep_fingerprint(b)

    def test_lsb_rate_change_sensitive(self):
        import numpy as np

        rate = 1.5e8
        bumped = float(np.nextafter(rate, np.inf))
        assert sweep_fingerprint([(2, 4, rate)]) != sweep_fingerprint(
            [(2, 4, bumped)]
        )


class TestAdviseBenchSection:
    def test_quick_section_gates_planner(self):
        report = BenchReport(quick=True, workers=1)
        _run_advise_bench(report, rounds=1, quick=True, seed=0)
        adv = report.advise
        assert adv["planner_ok"] is True
        assert adv["planner_makespan_s"] <= adv["fifo_makespan_s"] * (1 + 1e-9)
        assert adv["candidates"] > 0 and adv["backlog"] > 0
        assert adv["vector_s"] > 0
        assert "advise" in report.render()
        # The overall gate requires the advise planner verdict too.
        assert not report.parity_ok  # fit/cache sections missing
        report.fit_all = {"parity_ok": True}
        report.feature_cache = {"parity_ok": True}
        assert report.parity_ok
        report.advise["planner_ok"] = False
        assert not report.parity_ok
