"""Rolling retraining: model refresh at workload velocity."""

import numpy as np
import pytest

from repro.config import ModelParams
from repro.core import RetrainingPolicy, RollingTrainer, prepare_cluster
from repro.serve import PlacementService
from repro.storage import simulate
from repro.units import DAY
from repro.workloads import extract_features

FAST = ModelParams(n_categories=6, n_rounds=3, max_depth=3)


@pytest.fixture(scope="module")
def setting(two_week_trace):
    features = extract_features(two_week_trace)
    return two_week_trace, features


class TestRollingTrainer:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RollingTrainer(window=0.0)
        with pytest.raises(ValueError):
            RollingTrainer(interval=-1.0)

    def test_no_refit_before_min_jobs(self, setting):
        trace, features = setting
        trainer = RollingTrainer(FAST, min_jobs=10**9)
        assert not trainer.maybe_refit(7 * DAY, trace, features)
        assert trainer.model is None

    def test_refit_installs_model(self, setting):
        trace, features = setting
        trainer = RollingTrainer(FAST, window=7 * DAY, interval=DAY, min_jobs=50)
        assert trainer.maybe_refit(7 * DAY, trace, features)
        assert trainer.model is not None
        assert len(trainer.events) == 1
        assert trainer.events[0].n_training_jobs >= 50

    def test_interval_throttles_refits(self, setting):
        trace, features = setting
        trainer = RollingTrainer(FAST, window=7 * DAY, interval=2 * DAY, min_jobs=50)
        assert trainer.maybe_refit(7 * DAY, trace, features)
        assert not trainer.maybe_refit(7 * DAY + 3600, trace, features)
        assert trainer.maybe_refit(9 * DAY + 1, trace, features)
        assert len(trainer.events) == 2

    def test_window_excludes_stale_jobs(self, setting):
        trace, features = setting
        trainer = RollingTrainer(FAST, window=1 * DAY, interval=DAY, min_jobs=1)
        trainer.maybe_refit(10 * DAY, trace, features)
        # All training jobs must have completed inside (9d, 10d].
        assert trainer.events, "expected a refit"
        n = trainer.events[0].n_training_jobs
        in_window = ((trace.ends <= 10 * DAY) & (trace.ends > 9 * DAY)).sum()
        assert n == in_window


class TestRetrainingPolicy:
    def test_end_to_end_simulation(self, setting):
        trace, features = setting
        trainer = RollingTrainer(FAST, window=7 * DAY, interval=2 * DAY, min_jobs=50)
        policy = RetrainingPolicy(trainer, features)
        res = simulate(trace, policy, capacity=0.05 * trace.peak_ssd_usage())
        assert res.n_jobs == len(trace)
        # The trainer must have refit at least once over two weeks.
        assert len(trainer.events) >= 1
        # And the adaptive trajectory exists.
        assert len(policy.trajectory) > 0

    def test_service_scalar_replay_matches_offline(self, setting):
        """Forwarded ``decide_one``/``observe_one`` drive the inner
        adaptive policy alike offline and in the scalar service."""
        trace, features = setting
        cap = 0.05 * trace.peak_ssd_usage()
        policies, results = [], []
        for serve in (False, True):
            trainer = RollingTrainer(FAST, window=7 * DAY, interval=2 * DAY, min_jobs=50)
            policy = RetrainingPolicy(trainer, features)
            if serve:
                res = PlacementService(policy, cap, mode="scalar").replay(trace)
            else:
                res = simulate(trace, policy, capacity=cap, engine="legacy")
            policies.append(policy)
            results.append(res)
        off, on = results
        assert np.array_equal(on.ssd_fraction, off.ssd_fraction)
        assert on.n_spilled == off.n_spilled
        assert on.realized_tco == off.realized_tco
        a, b = (p.trajectory for p in policies)
        assert len(a) == len(b) > 0
        assert [(s.time, s.act) for s in a] == [(s.time, s.act) for s in b]
        assert len(policies[0].trainer.events) == len(policies[1].trainer.events) >= 1

    def test_misaligned_features_raise(self, setting, handmade_trace):
        _, features = setting
        trainer = RollingTrainer(FAST)
        policy = RetrainingPolicy(trainer, features)
        with pytest.raises(ValueError):
            simulate(handmade_trace, policy, capacity=1e18)
