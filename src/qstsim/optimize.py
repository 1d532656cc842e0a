"""Deterministic scalar maximization: a coarse grid scan, then the root of
the slope next to the best grid point.  No randomness, no external state;
identical inputs give identical results.

The search runs on rows: many independent problems of the same shape,
advanced in lockstep with one vectorized objective call per step.  Every
operation acts on each row alone and a row that is done keeps its bracket,
so a row's result does not depend on which other rows share the batch.
"""

import numpy as np

_TIE = 1e-12  # values this close count as equal; the smaller abscissa wins
# the two secant probes sit this share of the bracket, or one float, either
# side of the secant point
_SPREAD = 2.0**-16


def grid_then_root_max_rows(f, points: np.ndarray, first_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of each row over one grid: a scan, then the root of the slope
    between the row's best grid point and the neighbour its slope points to.

    f(x, slope) maps an array of abscissae whose leading axis indexes the
    rows to the values of that shape, or, when slope is true, to the pair
    (values, slopes).  The scan asks for values only, once on
    ``points[None, :]``; one call with slopes at the best grid point and its
    two neighbours then picks the bracket, the left one first_lo when the
    best point is the first.  A bracket has a positive slope at its lower end
    and none at its upper end.  Each step probes the midpoint and, a float
    or more either side, the secant point of the last two probes (or of the
    bracket's ends), and keeps the first sign change from the left, so a
    bracket at least halves.  The search ends, at the higher end, when no
    float lies between the ends; a bracket whose slope does not change sign
    ends at once at the end the slope points to.  The result never falls
    below the best grid sample: ties within 1e-12 go to a root, else to the
    smaller abscissa.  A non-finite value on the grid, or slope at those
    three points, raises FloatingPointError.
    """
    points = np.asarray(points, dtype=float)
    values = f(points[None, :], False)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("objective is not finite on the scan grid")
    best = values.max(axis=1)
    idx = np.argmax(values >= (best - _TIE)[:, None], axis=1)
    x_grid, rows = points[idx], np.arange(len(idx))
    x_around = np.column_stack(
        [np.where(idx == 0, first_lo, points[idx - 1]), x_grid, points[np.minimum(idx + 1, len(points) - 1)]]
    )
    f_around, g_around = f(x_around, True)
    if not np.all(np.isfinite(g_around)):
        raise FloatingPointError("objective slope is not finite next to the best grid point")
    # the ends of each bracket as (abscissa, value, slope) columns: the best
    # point and its right neighbour where its slope is positive, else its left
    low = (g_around[:, 1] > 0).astype(int)
    around = np.stack([x_around, f_around, g_around])
    lower, upper = around[:, rows, low], around[:, rows, low + 1]
    (lo, fa, ga), (hi, fb, gb) = lower, upper
    root = (ga > 0) & (gb <= 0)
    x_end, f_end = np.where(ga > 0, hi, lo), np.where(ga > 0, fb, fa)
    u, gu, v, gv = lo, ga, hi, gb  # the last pair of secant probes
    while True:
        (a, _, ga), (b, _, gb) = lower, upper
        width = b - a
        mid = a + 0.5 * width
        active = root & (a < mid) & (mid < b)
        if not active.any():
            break
        with np.errstate(invalid="ignore", divide="ignore"):  # a failed secant is replaced
            secant = u - gu * (v - u) / (gv - gu)
            secant = np.where((a < secant) & (secant < b), secant, a - ga * width / (gb - ga))
        spread = np.maximum(width * _SPREAD, np.spacing(np.maximum(-a, b)))
        probes = np.stack([secant - spread, secant + spread, mid], axis=1)
        probes = np.minimum(np.maximum(probes, a[:, None]), b[:, None])
        # a row that is done probes its own lower end, which keeps its bracket
        probes = np.where(active[:, None], probes, a[:, None])
        f_probes, g_probes = f(probes, True)
        u, v, gu, gv = probes[:, 0], probes[:, 1], g_probes[:, 0], g_probes[:, 1]
        order = np.argsort(probes, axis=1)
        probed = np.stack([probes, f_probes, g_probes])[:, rows[:, None], order]
        ends = np.concatenate([lower[:, :, None], probed, upper[:, :, None]], axis=2)
        right = np.argmax(ends[2] <= 0, axis=1)  # the first slope that is not positive
        lower, upper = ends[:, rows, right - 1], ends[:, rows, right]
    (a, fa, _), (b, fb, _) = lower, upper
    x = np.where(root, np.where(fa >= fb, a, b), x_end)
    fx = np.where(root, np.maximum(fa, fb), f_end)
    use = (fx >= best - _TIE) & (root | (x < x_grid))
    return np.where(use, x, x_grid), np.where(use, fx, best)


def pick_best(abscissae: np.ndarray, values: np.ndarray) -> int:
    """Index of the highest value; ties within 1e-12 go to the smallest
    abscissa, and then to the first."""
    tied = np.flatnonzero(values >= values.max() - _TIE)
    return int(tied[np.argmin(abscissae[tied])])
