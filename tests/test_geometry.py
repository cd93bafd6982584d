import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charwave.errors import NegativeTime
from charwave.geometry import Region, classify_point


class TestClassify:
    def test_left_of_wedge(self):
        assert classify_point(1.0, 0.0, 1.0, -2.0) is Region.Q1_STAR

    def test_right_of_wedge(self):
        assert classify_point(1.0, 0.0, 1.0, 2.0) is Region.Q2_STAR

    def test_inside_wedge(self):
        assert classify_point(1.0, 0.0, 1.0, 0.3) is Region.Q3_STAR

    def test_characteristics_belong_to_wedge(self):
        assert classify_point(1.0, 0.0, 1.0, -1.0) is Region.Q3_STAR
        assert classify_point(1.0, 0.0, 1.0, 1.0) is Region.Q3_STAR
        assert classify_point(0.5, -1.0, 2.0, 0.0) is Region.Q3_STAR

    def test_apex_belongs_to_wedge(self):
        assert classify_point(1.0, 0.25, 0.0, 0.25) is Region.Q3_STAR

    def test_initial_line_splits_at_x0(self):
        assert classify_point(1.0, 0.0, 0.0, -0.1) is Region.Q1_STAR
        assert classify_point(1.0, 0.0, 0.0, 0.1) is Region.Q2_STAR

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            classify_point(1.0, 0.0, -0.5, 0.0)

    def test_region_values_are_csv_codes(self):
        assert Region.Q1_STAR.value == 1
        assert Region.Q2_STAR.value == 2
        assert Region.Q3_STAR.value == 3


@settings(max_examples=120, deadline=None)
@given(
    a=st.floats(0.1, 5.0),
    x0=st.floats(-3.0, 3.0),
    t=st.floats(0.0, 4.0),
    x=st.floats(-10.0, 10.0),
)
def test_classification_partitions_half_plane(a, x0, t, x):
    region = classify_point(a, x0, t, x)
    d = x - x0
    if region is Region.Q1_STAR:
        assert d + a * t < 0
    elif region is Region.Q2_STAR:
        assert d - a * t > 0
    else:
        assert d + a * t >= 0 and d - a * t <= 0


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.1, 5.0),
    x0=st.floats(-3.0, 3.0),
    t=st.floats(0.0, 4.0),
    x=st.floats(-10.0, 10.0),
)
def test_classification_mirror_symmetry(a, x0, t, x):
    left = classify_point(a, x0, t, x0 - x)
    right = classify_point(a, x0, t, x0 + x)
    swap = {Region.Q1_STAR: Region.Q2_STAR, Region.Q2_STAR: Region.Q1_STAR}
    assert right == swap.get(left, left) or (
        # reflection is exact in floating point only when x0 - x and x0 + x
        # are both representable; allow the wedge boundary to absorb ties
        Region.Q3_STAR in (left, right)
    )
