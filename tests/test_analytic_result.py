"""analytic_result: SimResult construction from SSD fractions."""

import numpy as np
import pytest

from repro.storage import PlacementPolicy, analytic_result, simulate


class _FullSSD(PlacementPolicy):
    name = "full"

    def decide_one(self, job_index, time, free_ssd, capacity):
        return True, None


class TestAnalyticResult:
    def test_matches_simulation_when_everything_fits(self, handmade_trace):
        sim = simulate(handmade_trace, _FullSSD(), capacity=1e18)
        analytic = analytic_result(
            handmade_trace, np.ones(len(handmade_trace)), capacity=1e18
        )
        assert analytic.realized_tco == pytest.approx(sim.realized_tco)
        assert analytic.realized_hdd_tcio == pytest.approx(sim.realized_hdd_tcio)
        assert analytic.tco_savings_pct == pytest.approx(sim.tco_savings_pct)

    def test_zero_fraction_is_all_hdd(self, handmade_trace):
        res = analytic_result(handmade_trace, np.zeros(len(handmade_trace)), 0.0)
        assert res.tco_savings_pct == 0.0
        assert res.tcio_savings_pct == 0.0

    def test_fraction_interpolates(self, handmade_trace):
        costs = handmade_trace.costs()
        frac = np.full(len(handmade_trace), 0.5)
        res = analytic_result(handmade_trace, frac, 0.0)
        expected = 0.5 * costs.c_ssd.sum() + 0.5 * costs.c_hdd.sum()
        assert res.realized_tco == pytest.approx(expected)

    def test_shape_validation(self, handmade_trace):
        with pytest.raises(ValueError):
            analytic_result(handmade_trace, np.ones(2), 0.0)

    def test_range_validation(self, handmade_trace):
        with pytest.raises(ValueError):
            analytic_result(handmade_trace, np.full(len(handmade_trace), 1.5), 0.0)
        with pytest.raises(ValueError):
            analytic_result(handmade_trace, np.full(len(handmade_trace), -0.1), 0.0)
