import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstsim import golden_section_max, grid_then_golden_max
from qstsim.optimize import golden_section_max_rows, grid_then_golden_max_rows


def test_golden_section_quadratic():
    x, fx = golden_section_max(lambda x: -((x - 1.3) ** 2), 0.0, 3.0, 1e-9)
    assert abs(x - 1.3) < 1e-8
    assert abs(fx) < 1e-15


def test_golden_section_cosine():
    # cos rises to 2*pi and falls after it, so [4, 9] is unimodal; value
    # differences vanish quadratically at the top, so localization cannot
    # beat sqrt(machine eps) ~ 1.5e-8
    x, _ = golden_section_max(math.cos, 4.0, 9.0, 1e-9)
    assert abs(x - 2 * math.pi) < 1e-7


def test_grid_then_golden_never_below_grid_best():
    points = np.linspace(0, 3, 50)
    f = lambda x: math.sin(3 * x) * math.exp(-0.2 * x)
    x, fx = grid_then_golden_max(f, points, 1e-8)
    assert fx >= max(f(p) for p in points)


def test_tie_break_prefers_smaller_abscissa():
    # constant function: every point ties, the first grid point must win
    x, fx = grid_then_golden_max(lambda x: 1.0, np.linspace(0.5, 2.0, 10), 1e-8)
    assert x == 0.5 and fx == 1.0


def test_determinism():
    f = lambda x: -((x - 0.77) ** 4) + 0.3 * x
    first = grid_then_golden_max(f, np.linspace(0, 2, 33), 1e-9)
    second = grid_then_golden_max(f, np.linspace(0, 2, 33), 1e-9)
    assert first == second


def reference_golden(f, lo, hi, tol):
    """The scalar golden-section loop the lockstep search must reproduce."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


_finite = st.floats(-10.0, 10.0, allow_nan=False)
_row = st.tuples(_finite, st.floats(0.0, 5.0), _finite, st.floats(0.0, 8.0), _finite)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_row, min_size=1, max_size=8), tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]))
def test_lockstep_rows_match_the_scalar_loop_bit_for_bit(rows, tol):
    # a weight of 0 makes the row flat, so the fc >= fd tie rule decides
    centre, weight, slope, width, lo = (np.array(col) for col in zip(*rows))
    hi = lo + width

    def batch(x):
        return -(x - centre) * (x - centre) * weight + slope * 1e-3 * x

    x, fx = golden_section_max_rows(batch, lo, hi, tol)
    for i in range(len(rows)):
        def scalar(t, i=i):
            return -(t - centre[i]) * (t - centre[i]) * weight[i] + slope[i] * 1e-3 * t

        expected = reference_golden(scalar, float(lo[i]), float(hi[i]), tol)
        assert (x[i], fx[i]) == expected
        assert golden_section_max(scalar, float(lo[i]), float(hi[i]), tol) == expected


def test_grid_rows_match_one_row_searches():
    # double wells: the grid picks a well, the refinement its top
    points = np.linspace(0.0, 3.0, 40)
    shifts = np.array([0.3, 1.1, 2.9, 0.0, -0.75])

    def well(x, shift):
        return -(x - shift) * (x - shift) * (x - shift - 1.5) * (x - shift - 1.5) + 0.05 * x

    x, fx = grid_then_golden_max_rows(lambda t: well(t, shifts[:, None]), points, 1e-9)
    for i, shift in enumerate(shifts):
        one = grid_then_golden_max(lambda t: well(t, float(shift)), points, 1e-9)
        assert (x[i], fx[i]) == one


def test_non_finite_grid_value_raises():
    with pytest.raises(FloatingPointError):
        grid_then_golden_max(lambda x: math.nan if x > 1.0 else x, np.linspace(0, 2, 5), 1e-6)


def test_first_lo_opens_the_bracket_below_the_grid():
    # the peak at 0.05 lies before the first grid point; only a bracket
    # opened down to first_lo can reach it
    points = np.linspace(0.1, 1.0, 10)
    peak = lambda x: -(x - 0.05) * (x - 0.05)
    x, _ = grid_then_golden_max_rows(peak, points, 1e-9, first_lo=0.0)
    assert abs(x[0] - 0.05) < 1e-8
    x, _ = grid_then_golden_max_rows(peak, points, 1e-9)
    assert x[0] == 0.1
