"""Work-vector helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.workloads.base import validate_works, works_for_targets


class TestValidateWorks:
    def test_passthrough(self):
        assert validate_works([1.0, 2]) == [1.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            validate_works([])

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            validate_works([1.0, -1.0])

    def test_nan_rejected(self):
        with pytest.raises(WorkloadError):
            validate_works([float("nan")])

    def test_all_zero_rejected(self):
        with pytest.raises(WorkloadError):
            validate_works([0.0, 0.0])


class TestWorksForTargets:
    def test_scalar_rate(self):
        works = works_for_targets([0.25, 1.0], 10.0, 2e9)
        assert works == [0.25 * 10 * 2e9, 1.0 * 10 * 2e9]

    def test_per_rank_rates(self):
        works = works_for_targets([0.5, 0.5], 10.0, [1e9, 2e9])
        assert works[1] == pytest.approx(2 * works[0])

    def test_rate_count_mismatch(self):
        with pytest.raises(WorkloadError):
            works_for_targets([0.5, 0.5], 10.0, [1e9])

    def test_fraction_out_of_range(self):
        with pytest.raises(WorkloadError):
            works_for_targets([1.5], 10.0, 1e9)

    def test_nonpositive_inputs(self):
        with pytest.raises(WorkloadError):
            works_for_targets([0.5], 0.0, 1e9)
        with pytest.raises(WorkloadError):
            works_for_targets([0.5], 1.0, 0.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        st.floats(min_value=1.0, max_value=1000.0),
    )
    def test_shape_preserved(self, fractions, total):
        """Work ratios equal compute-fraction ratios at a common rate."""
        works = works_for_targets(fractions, total, 1e9)
        for w, f in zip(works, fractions):
            assert w / works[0] == pytest.approx(f / fractions[0], rel=1e-9)
