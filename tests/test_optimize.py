import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstsim.optimize import grid_then_root_max_rows


def root_max(f, points, first_lo=None):
    """The one-row case of the lockstep search, bracketed from the first
    grid point when that point is the best, unless first_lo is given."""
    points = np.asarray(points, dtype=float)
    x, fx = grid_then_root_max_rows(f, points, points[0] if first_lo is None else first_lo)
    return float(x[0]), float(fx[0])


def with_slope(value, slope):
    """The objective of the search: the values, and on request the slopes,
    at the same abscissae."""
    return lambda x, slopes: (value(x), slope(x)) if slopes else value(x)


def counted(f):
    """f, counting its calls in ``calls``."""

    def wrapper(x, slopes):
        wrapper.calls += 1
        return f(x, slopes)

    wrapper.calls = 0
    return wrapper


def test_root_search_quadratic():
    # the slope -2 (x - 1.3) is exact, so the root is the float nearest 1.3
    x, fx = root_max(with_slope(lambda x: -((x - 1.3) ** 2), lambda x: -2.0 * (x - 1.3)), np.linspace(0.0, 3.0, 13))
    assert abs(x - 1.3) <= 2 * math.ulp(1.3)
    assert abs(fx) < 1e-30


def test_root_search_cosine():
    # value differences vanish quadratically at the top, so a search on the
    # values alone cannot beat sqrt(machine eps); the slope pins the peak
    x, fx = root_max(with_slope(np.cos, lambda x: -np.sin(x)), np.linspace(4.0, 9.0, 11))
    assert abs(x - 2 * math.pi) <= 4 * math.ulp(2 * math.pi)
    assert fx == 1.0


def test_search_never_below_grid_best():
    points = np.linspace(0, 3, 50)
    f = lambda x: np.sin(3 * x) * np.exp(-0.2 * x)
    slope = lambda x: (3 * np.cos(3 * x) - 0.2 * np.sin(3 * x)) * np.exp(-0.2 * x)
    x, fx = root_max(with_slope(f, slope), points)
    assert fx >= f(points).max()
    assert abs(slope(x)) <= 1e-14


def test_tie_break_prefers_smaller_abscissa():
    # constant function: every point ties, the first grid point must win
    flat = with_slope(np.ones_like, np.zeros_like)
    x, fx = root_max(flat, np.linspace(0.5, 2.0, 10))
    assert x == 0.5 and fx == 1.0


def test_root_wins_a_tie_with_the_grid():
    # the peak lies 1e-7 past a grid point, whose value is within 1e-12 of
    # the peak's: the root, not the grid point, is the answer
    peak = 0.5 + 1e-7
    f = with_slope(lambda x: -(x - peak) * (x - peak), lambda x: -2.0 * (x - peak))
    x, fx = root_max(f, np.linspace(0.0, 1.0, 11))
    assert abs(x - peak) <= 2 * math.ulp(peak) and fx > -1e-30


def test_determinism():
    f = with_slope(lambda x: -((x - 0.77) ** 4) + 0.3 * x, lambda x: -4 * (x - 0.77) ** 3 + 0.3)
    first = root_max(f, np.linspace(0, 2, 33))
    second = root_max(f, np.linspace(0, 2, 33))
    assert first == second


_finite = st.floats(-10.0, 10.0, allow_nan=False)
_row = st.tuples(_finite, st.floats(0.0, 5.0), _finite)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_row, min_size=1, max_size=8))
def test_lockstep_rows_match_one_row_runs(rows):
    # a weight of 0 makes the row a line, whose slope never changes sign
    centre, weight, tilt = (np.array(col) for col in zip(*rows))
    points = np.linspace(-12.0, 12.0, 25)

    def batch(x):
        return -(x - centre[:, None]) ** 2 * weight[:, None] + tilt[:, None] * 1e-3 * x

    def batch_slope(x):
        return -2.0 * (x - centre[:, None]) * weight[:, None] + tilt[:, None] * 1e-3

    x, fx = grid_then_root_max_rows(with_slope(batch, batch_slope), points, -13.0)
    for i in range(len(rows)):
        one = with_slope(
            lambda t, i=i: -(t - centre[i]) ** 2 * weight[i] + tilt[i] * 1e-3 * t,
            lambda t, i=i: -2.0 * (t - centre[i]) * weight[i] + tilt[i] * 1e-3,
        )
        assert (x[i], fx[i]) == root_max(one, points, -13.0)


def test_grid_rows_match_one_row_searches():
    # double wells: the grid picks a well, the search its top
    points = np.linspace(0.0, 3.0, 40)
    shifts = np.array([0.3, 1.1, 2.9, 0.0, -0.75])

    def well(x, shift):
        y = x - shift
        return -y * y * (y - 1.5) * (y - 1.5) + 0.05 * x

    def well_slope(x, shift):
        y = x - shift
        return -2.0 * y * (y - 1.5) * (2.0 * y - 1.5) + 0.05

    f = with_slope(lambda t: well(t, shifts[:, None]), lambda t: well_slope(t, shifts[:, None]))
    x, fx = grid_then_root_max_rows(f, points, points[0])
    for i, shift in enumerate(shifts):
        one = with_slope(lambda t: well(t, float(shift)), lambda t: well_slope(t, float(shift)))
        assert (x[i], fx[i]) == root_max(one, points)


def test_non_finite_grid_value_raises():
    nan_above_one = with_slope(lambda x: np.where(x > 1.0, math.nan, x), np.ones_like)
    with pytest.raises(FloatingPointError):
        root_max(nan_above_one, np.linspace(0, 2, 5))


def test_non_finite_slope_next_to_the_best_point_raises():
    nan_slope = with_slope(lambda x: -((x - 1.0) ** 2), lambda x: np.where(x > 1.4, math.nan, -2.0 * (x - 1.0)))
    with pytest.raises(FloatingPointError):
        root_max(nan_slope, np.linspace(0, 2, 5))
    # a slope nobody reads may be anything
    x, _ = root_max(nan_slope, np.linspace(0, 2, 9))
    assert abs(x - 1.0) <= 2 * math.ulp(1.0)


def test_scan_reads_values_only():
    calls = []

    def recording(x, slopes):
        calls.append((np.shape(x), slopes))
        return with_slope(np.cos, lambda x: -np.sin(x))(x, slopes)

    root_max(recording, np.linspace(4.0, 9.0, 11))
    assert calls[0] == ((1, 11), False)
    assert calls[1] == ((1, 3), True)  # the best point and its neighbours
    assert all(slopes and shape[1] <= 3 for shape, slopes in calls[1:])


def test_first_lo_opens_the_bracket_below_the_grid():
    # the peak at 0.05 lies before the first grid point; only a bracket
    # opened down to first_lo can reach it
    points = np.linspace(0.1, 1.0, 10)
    peak = with_slope(lambda x: -(x - 0.05) * (x - 0.05), lambda x: -2.0 * (x - 0.05))
    x, _ = root_max(peak, points, first_lo=0.0)
    assert abs(x - 0.05) <= 2 * math.ulp(0.05)
    x, _ = root_max(peak, points, first_lo=0.1)
    assert x == 0.1


def test_maximum_at_the_window_end():
    # the slope still rises at the last grid point: the search ends there
    rising = counted(with_slope(lambda x: np.log1p(x), lambda x: 1.0 / (1.0 + x)))
    x, fx = root_max(rising, np.linspace(0.5, 4.0, 8))
    assert (x, fx) == (4.0, np.log1p(4.0))
    assert rising.calls == 2  # the scan and the slopes about its best point, no step


def test_bracket_without_a_sign_change_ends_at_once():
    # the best grid point rises towards a neighbour that rises as well: the
    # peak and the dip between them are not bracketed, and the grid point
    # is the answer
    def value(x):
        return np.cos(2.0 * math.pi * (x - 1.2)) - 0.3 * x

    def slope(x):
        return -2.0 * math.pi * np.sin(2.0 * math.pi * (x - 1.2)) - 0.3

    points = np.array([0.5, 1.0, 2.0])
    assert value(points).argmax() == 1 and slope(points[1]) > 0 and slope(points[2]) > 0
    f = counted(with_slope(value, slope))
    x, fx = root_max(f, points)
    assert (x, fx) == (1.0, value(1.0))
    assert f.calls == 2


def test_bracket_finer_than_the_floats_ends():
    # near 1e10 the floats are 2^-19 ~ 1.9e-6 apart: the search stops when
    # no float lies between the ends of its bracket
    centre = 1e10 + 0.3
    peak = with_slope(lambda x: -(x - centre) * (x - centre), lambda x: -2.0 * (x - centre))
    x, _ = root_max(peak, np.linspace(1e10 - 5.0, 1e10 + 5.0, 3))
    assert abs(x - centre) <= math.ulp(centre)
