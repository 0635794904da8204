"""Tests for the sweep fingerprint that pins the advisor's ranking in
the tier-1 tests."""

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
