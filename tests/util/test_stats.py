"""Summary-statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.util.stats import percent_change, percentile


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)

    def test_single_value_for_any_q(self):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_endpoints(self):
        sample = [3.0, 1.0, 2.0]
        assert percentile(sample, 0.0) == 1.0
        assert percentile(sample, 100.0) == 3.0

    def test_nearest_rank_with_bankers_rounding(self):
        # round(0.5) == 0 under banker's rounding: the service's p50 of
        # two samples has always been the lower one.
        assert percentile([1.0, 2.0], 50.0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 3.0  # round(1.5)=2

    def test_interpolation_rank_on_larger_samples(self):
        sample = list(range(101))  # ranks line up exactly with q
        assert percentile(sample, 25.0) == 25
        assert percentile(sample, 99.0) == 99

    def test_input_order_irrelevant(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6),
                 min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_result_is_always_a_sample_member(self, sample, q):
        assert percentile(sample, q) in sample


class TestChangeMetrics:
    def test_percent_change_paper_convention(self):
        # 81.64s -> 74.90s is an ~8.26% improvement.
        assert percent_change(74.90, 81.64) == pytest.approx(-8.256, abs=0.01)

    def test_percent_change_zero_old(self):
        with pytest.raises(ConfigurationError):
            percent_change(1.0, 0.0)
