"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CategoryLabeler, ObservedJob, spillover_percentage
from repro.cost import effective_disk_ops, tcio_rate, tco_savings
from repro.ml import QuantileBinner, roc_auc
from repro.oracle import greedy_placement
from repro.storage import PlacementPolicy, simulate
from repro.workloads import Trace

from helpers import make_job

finite_floats = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestCostProperties:
    @given(
        read_ops=finite_floats,
        write_bytes=finite_floats,
    )
    def test_effective_ops_nonnegative_and_monotone(self, read_ops, write_bytes):
        base = effective_disk_ops(read_ops, write_bytes)
        more = effective_disk_ops(read_ops + 1000, write_bytes)
        assert base >= 0
        assert more >= base

    @given(
        read_ops=finite_floats,
        write_bytes=finite_floats,
        duration=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    )
    def test_tcio_rate_finite_nonnegative(self, read_ops, write_bytes, duration):
        rate = tcio_rate(read_ops, write_bytes, duration)
        assert np.isfinite(rate)
        assert rate >= 0

    @given(
        size=st.floats(min_value=1.0, max_value=1e13, allow_nan=False),
        duration=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        tcio=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_savings_monotone_in_tcio(self, size, duration, tcio):
        """More I/O pressure can only increase the benefit of SSD."""
        lo = tco_savings(size, duration, size, size / 2, tcio)
        hi = tco_savings(size, duration, size, size / 2, tcio + 1.0)
        assert hi > lo


class TestLabelerProperties:
    @given(
        savings=arrays(
            float,
            st.integers(min_value=10, max_value=200),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        n_categories=st.integers(min_value=2, max_value=20),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_labels_always_in_range(self, savings, n_categories, data):
        density = data.draw(
            arrays(
                float,
                len(savings),
                elements=st.floats(min_value=0, max_value=1e6, allow_nan=False),
            )
        )
        labels = CategoryLabeler(n_categories).fit_transform(savings, density)
        assert labels.min() >= 0
        assert labels.max() < n_categories
        assert (labels[savings < 0] == 0).all()


class TestBinnerProperties:
    @given(
        data=arrays(
            float,
            st.tuples(
                st.integers(min_value=2, max_value=300),
                st.integers(min_value=1, max_value=5),
            ),
            elements=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        ),
        n_bins=st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_codes_bounded_and_order_preserving(self, data, n_bins):
        binner = QuantileBinner(n_bins).fit(data)
        codes = binner.transform(data)
        assert codes.min() >= 0
        assert codes.max() < n_bins
        for c in range(data.shape[1]):
            order = np.argsort(data[:, c], kind="stable")
            col = codes[order, c].astype(int)
            assert (np.diff(col) >= 0).all()


class TestAucProperties:
    @given(
        scores=arrays(
            float,
            st.integers(min_value=4, max_value=200),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_auc_symmetry(self, scores, data):
        """AUC(y, s) + AUC(1-y, s) == 1 when both classes exist."""
        y = data.draw(
            arrays(np.int64, len(scores), elements=st.integers(0, 1))
        )
        if y.sum() == 0 or y.sum() == len(y):
            return
        a = roc_auc(y.astype(bool), scores)
        b = roc_auc(~y.astype(bool), scores)
        assert a + b == 1.0 or abs(a + b - 1.0) < 1e-9


class _RandomPolicy(PlacementPolicy):
    name = "random"

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def decide_one(self, job_index, time, free_ssd, capacity):
        return bool(self._rng.random() < 0.5), None


class TestSimulatorProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_jobs=st.integers(min_value=1, max_value=40),
        capacity_gib=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_fractions_bounded_and_costs_sane(self, seed, n_jobs, capacity_gib):
        rng = np.random.default_rng(seed)
        from repro.units import GIB

        jobs = [
            make_job(
                i,
                arrival=float(rng.uniform(0, 5000)),
                duration=float(rng.uniform(1, 2000)),
                size=float(rng.uniform(0.01, 10) * GIB),
                read_ops=float(rng.uniform(1, 1e6)),
            )
            for i in range(n_jobs)
        ]
        trace = Trace(jobs)
        res = simulate(trace, _RandomPolicy(seed), capacity=capacity_gib * GIB)
        assert (res.ssd_fraction >= 0).all()
        assert (res.ssd_fraction <= 1.0 + 1e-12).all()
        assert res.peak_ssd_used <= capacity_gib * GIB + 1e-6
        costs = trace.costs()
        lo = np.minimum(costs.c_hdd, costs.c_ssd).sum()
        hi = np.maximum(costs.c_hdd, costs.c_ssd).sum()
        assert lo - 1e-9 <= res.realized_tco <= hi + 1e-9


class TestGreedyProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_greedy_respects_capacity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        arrivals = rng.uniform(0, 1000, n)
        ends = arrivals + rng.uniform(1, 300, n)
        sizes = rng.uniform(0.1, 5.0, n)
        values = rng.uniform(0.01, 10.0, n)
        cap = float(rng.uniform(0.5, 10.0))
        picked, total = greedy_placement(arrivals, ends, sizes, values, cap)
        chosen = set(picked.tolist())
        assert abs(total - sum(values[i] for i in chosen)) <= 1e-6 * max(total, 1.0)
        for t in arrivals:
            usage = sum(sizes[i] for i in chosen if arrivals[i] <= t < ends[i])
            assert usage <= cap + 1e-9


class TestSpilloverProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_percentage_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        history = []
        for _ in range(n):
            a = float(rng.uniform(0, 100))
            e = a + float(rng.uniform(1, 100))
            ssd = bool(rng.random() < 0.7)
            spilled = bool(rng.random() < 0.5) and ssd
            history.append(
                ObservedJob(
                    arrival=a,
                    end=e,
                    tcio_rate=float(rng.uniform(0, 5)),
                    scheduled_ssd=ssd,
                    spill_time=a if spilled else None,
                    spilled_fraction=float(rng.uniform(0, 1)) if spilled else 0.0,
                )
            )
        t = float(rng.uniform(50, 300))
        p = spillover_percentage(history, t)
        assert 0.0 <= p <= 1.0
