"""Deterministic scalar maximization: coarse grid scan plus golden-section
refinement.  No randomness, no external state; identical inputs give
identical results.

The searches run on rows: many independent problems of the same shape,
advanced in lockstep with one vectorized objective call per step.  Each row
takes exactly the comparisons and arithmetic of a search run on its own, so
the one-row case is the plain scalar maximizer and a row's result does not
depend on which other rows share the batch.
"""

import functools
import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TIE = 1e-12  # values this close count as equal; the smaller abscissa wins


def golden_section_max_rows(f, lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of unimodal functions on the brackets [lo, hi], one per row.

    f maps an array of abscissae, one entry per row and shaped like lo, to
    the array of values.  Each bracket shrinks by the golden ratio per step
    until its width drops below tol; a row that is done keeps its state
    while the others go on.  Returns the better interior point of each row
    and its value.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError("need lo <= hi")
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = np.array(f(c), dtype=float), np.array(f(d), dtype=float)
    active = hi - lo > tol
    # the state is updated in place, row by row under a mask: with few rows
    # the cost is per numpy call, and copyto is the cheapest masked one
    while active.any():
        left = fc >= fd
        shrink_hi, shrink_lo = active & left, active > left
        # keep the left part: hi, d, fd = d, c, fc and probe a new c;
        # keep the right part: lo, c, fc = c, d, fd and probe a new d
        np.copyto(hi, d, where=shrink_hi)
        np.copyto(lo, c, where=shrink_lo)
        np.copyto(d, c, where=shrink_hi)
        np.copyto(fd, fc, where=shrink_hi)
        np.copyto(c, d, where=shrink_lo)
        np.copyto(fc, fd, where=shrink_lo)
        probe = np.where(shrink_hi, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        value = f(probe)
        np.copyto(c, probe, where=shrink_hi)
        np.copyto(fc, value, where=shrink_hi)
        np.copyto(d, probe, where=shrink_lo)
        np.copyto(fd, value, where=shrink_lo)
        active = hi - lo > tol
    left = fc >= fd
    return np.where(left, c, d), np.where(left, fc, fd)


def grid_then_golden_max_rows(
    f, points: np.ndarray, tol: float, first_lo: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scan every row on one grid, then golden-section refine around each
    row's best point.

    f maps an array of abscissae whose leading axis indexes the rows to the
    array of values; the scan calls it once on ``points[None, :]``.  The
    refinement is bracketed by the best point's grid neighbours, or from
    first_lo (default: the first grid point) when the best point is the
    first, and never returns a value below the best grid sample.  Ties
    within 1e-12 go to the smallest abscissa, on the grid and between the
    grid and the refined candidate.  A non-finite value on the grid raises
    FloatingPointError.
    """
    points = np.asarray(points, dtype=float)
    values = f(points[None, :])
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("objective is not finite on the scan grid")
    best = values.max(axis=1)
    idx = np.argmax(values >= (best - _TIE)[:, None], axis=1)
    lo = points[np.maximum(idx - 1, 0)]
    if first_lo is not None:
        lo = np.where(idx == 0, first_lo, lo)
    hi = points[np.minimum(idx + 1, len(points) - 1)]
    x_grid = points[idx]
    x_ref, f_ref = golden_section_max_rows(f, lo[:, None], hi[:, None], tol)
    x_ref, f_ref = x_ref[:, 0], f_ref[:, 0]
    # pick_best on the pair (grid, refined), row by row
    top = np.maximum(best, f_ref)
    grid_tied = best >= top - _TIE
    use_refined = (f_ref >= top - _TIE) & (~grid_tied | (x_ref < x_grid))
    return np.where(use_refined, x_ref, x_grid), np.where(use_refined, f_ref, best)


def _one_row(f):
    """Lift a scalar function onto the array convention, one call per entry.

    functools.wraps is load-bearing: it carries the attributes of f over,
    among them the _bench_counted flag that bench/tracer.py sets on an
    objective it already counts, so the outer maximizer's span counts
    optimize.fevals once and the inner golden_section_max_rows span does not
    count them again."""

    @functools.wraps(f)
    def rows(x):
        return np.array([f(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))

    return rows


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Maximum of a unimodal function on [lo, hi] by golden-section search.

    The bracket shrinks by the golden ratio each iteration until its width
    drops below tol; returns the better interior point and its value.
    """
    x, fx = golden_section_max_rows(_one_row(f), [lo], [hi], tol)
    return float(x[0]), float(fx[0])


def pick_best(candidates: "list[tuple[float, float]]") -> tuple[float, float]:
    """Highest value wins; ties within 1e-12 go to the smallest abscissa."""
    top = max(v for _, v in candidates)
    tied = [(x, v) for x, v in candidates if v >= top - _TIE]
    return min(tied, key=lambda c: c[0])


def grid_then_golden_max(f, points: np.ndarray, tol: float) -> tuple[float, float]:
    """Scan f on a grid, then golden-section refine around the best point.

    Refinement is bracketed by the best point's grid neighbours and never
    returns a value below the best grid sample.  Grid ties within 1e-12 are
    broken toward the smallest abscissa.
    """
    x, fx = grid_then_golden_max_rows(_one_row(f), points, tol)
    return float(x[0]), float(fx[0])
