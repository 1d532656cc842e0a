"""Parameter-sweep drivers: fidelity and success probability against time,
against the decay-to-coupling ratio, and against the dephasing rate.

The closed-form sweeps evaluate a whole grid as arrays (closed_form_outcome)
rather than one protocol run per point.  Every sweep is deterministic, so a
given spec always produces the identical result.  The couplings are equal
and act as the reference unit (g = 1), so the time axis is the
dimensionless product g*t and rates are given relative to g.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import closed_form_factors
from .core import QubitAmplitudes, SystemParams, initial_state
from .lindblad import integrate
from .measurement import apply_measurement_qubit1
from .optimize import grid_then_golden_max_rows
from .protocol import (
    ProtocolSpec,
    _target_entries,
    full_transfer_time,
    reversal_outcome,
    run_protocol,
)

BASELINE_LABEL = "baseline"


@dataclass(frozen=True)
class AxisGrid:
    """Sweep axis: points values from start to stop, linear or log spaced."""

    start: float
    stop: float
    points: int
    log: bool = False

    def __post_init__(self):
        if not self.start >= 0:  # a time or a decay ratio
            raise ValueError("grid-start must be non-negative")
        if self.points < 2:
            raise ValueError("grid-points must be at least 2")
        if not self.start < self.stop:
            raise ValueError("grid-start must be below grid-stop")
        if self.log and self.start <= 0:
            raise ValueError("a log grid needs a positive grid-start")

    def values(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep configuration.

    kind selects the axis: "time" (fidelity/success vs g*t), "decay" (best
    fidelity over time vs s/g) or "dephasing" (fidelity vs g*t for several
    dephasing rates at fixed p).  p_values lists the measurement strengths
    to overlay; the unmeasured baseline (p = q = 0, sigma_z still applied)
    is prepended unless include_baseline is off.
    """

    kind: str
    grid: AxisGrid
    qubit: QubitAmplitudes
    s_over_g: float = 2.0
    p_values: tuple = (0.0, 0.4, 0.8)
    include_baseline: bool = True
    p: float = 0.8
    gamma_phi_over_g: tuple = (0.0, 0.01, 0.1, 1.0)
    t_max: float | None = None
    coarse_points: int = 120
    apply_sigma_z: bool = True

    def __post_init__(self):
        if self.kind not in ("time", "decay", "dephasing"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.s_over_g >= 0:
            raise ValueError("s_over_g must be non-negative")
        for p in (*self.p_values, self.p):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"measurement strength p={p!r} must lie in [0, 1)")
        if not all(rate >= 0 for rate in self.gamma_phi_over_g):
            raise ValueError("dephasing rates must be non-negative")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t-max must be positive")
        if self.coarse_points < 100:
            raise ValueError("coarse_points must be at least 100")


@dataclass(eq=False)
class SweepResult:
    """Axis values plus, per series label, an (n, 2) array of
    (fidelity, success probability) rows."""

    axis_name: str
    axis_values: np.ndarray
    series: "dict[str, np.ndarray]"

    def fidelity(self, label: str) -> np.ndarray:
        return self.series[label][:, 0]

    def success(self, label: str) -> np.ndarray:
        return self.series[label][:, 1]

    def columns(self, metric: str) -> "dict[str, np.ndarray]":
        col = {"fidelity": 0, "success": 1}[metric]
        return {f"{metric}[{label}]": data[:, col] for label, data in self.series.items()}


def _series_labels(spec: SweepSpec) -> list[tuple[str, float, bool]]:
    """(label, p, formula) triples; the unmeasured baseline has p = 0 and
    reverses with q = 0, every other series uses the closed-form q rule."""
    labels = [(BASELINE_LABEL, 0.0, False)] if spec.include_baseline else []
    labels.extend((f"p={p:g}", p, True) for p in spec.p_values)
    return labels


def closed_form_outcome(
    qubit: QubitAmplitudes,
    p,
    s,
    t,
    formula,
    apply_sigma_z: bool = True,
    g1: float = 1.0,
    g2: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity and reversal success of the closed-form protocol, elementwise.

    p, s, t and formula broadcast together: the pre-measurement strength,
    the common decay rate, the reversal time and whether the reversal uses
    the closed-form q = 1 - (1-p) e^{-st} (True) or q = 0 (False, the
    unmeasured baseline when p = 0).  Agrees with run_protocol on the
    analytic engine point by point, but forms only what the target state
    sees: rho00, rho03, rho33 and the trace, each an array of the broadcast
    shape, which reversal_outcome turns into fidelity and success.

    The closed-form rule is the reversal with q = p of the scaled state
    (see analytic_rho), whose success is multiplied by e^{-st}; so the
    fidelity stays finite as e^{-st} underflows and only the success goes
    to 0.  A value that is still not finite raises FloatingPointError.
    """
    rho00, k, b, (d1, d2, d3), decay = closed_form_factors(qubit, p, s, t, g1, g2, formula)
    rho33 = b * d3 * d3
    trace = rho00 + b * (d1 * d1 + d2 * d2) + rho33
    fidelity, success = reversal_outcome(
        qubit, rho00, k * d3, rho33, trace, np.where(formula, 1.0 - np.asarray(p), 1.0),
        apply_sigma_z,
    )
    return fidelity, np.where(formula, decay, 1.0) * success


def time_sweep(spec: SweepSpec) -> SweepResult:
    """Fidelity and success probability against g*t at fixed decay rate.

    Every point runs the closed-form engine with the reversal strength
    re-evaluated at that time, one array evaluation per series.  The success
    column carries the reversal branch probability (identically 1 for the
    baseline).
    """
    if spec.kind != "time":
        raise ValueError("spec.kind must be 'time'")
    times = spec.grid.values()
    series = {}
    for label, p, formula in _series_labels(spec):
        fidelity, success = closed_form_outcome(
            spec.qubit, p, spec.s_over_g, times, formula, spec.apply_sigma_z
        )
        series[label] = np.column_stack([fidelity, success])
    return SweepResult("gt", times, series)


def _best_over_time(f, t_max: float, coarse_points: int, refine_tol: float):
    """Rows of (t*, best value) of f over the reversal time in (0, t_max]:
    a uniform coarse scan, then golden refinement; a best first sample is
    bracketed from a millionth of it, not from t = 0."""
    times = np.linspace(0.0, t_max, coarse_points + 1)[1:]
    return grid_then_golden_max_rows(f, times, refine_tol, first_lo=float(times[0]) * 1e-6)


def max_fidelity_over_time(
    spec: ProtocolSpec,
    t_max: float,
    coarse_points: int = 120,
    refine_tol: float | None = None,
) -> tuple[float, float]:
    """Best protocol fidelity over the reversal time in (0, t_max].

    Coarse scan on a uniform grid, then golden-section refinement bracketed
    by the best point's neighbours; the result never falls below the best
    coarse sample.  Each time runs run_protocol, so any spec and engine can
    be maximized.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if coarse_points < 100:
        raise ValueError("coarse_points must be at least 100")
    if refine_tol is None:
        refine_tol = 1e-6 / spec.params.g_ref

    fidelity = np.vectorize(
        lambda t: run_protocol(replace(spec, transfer_time=float(t))).fidelity,
        otypes=[float],
    )
    t_star, f_max = _best_over_time(fidelity, t_max, coarse_points, refine_tol)
    return float(t_star[0]), float(f_max[0])


def decay_sweep(spec: SweepSpec) -> SweepResult:
    """Best-over-time fidelity against the decay-to-coupling ratio s/g.

    For each grid value of s/g and each series, the reversal time is scanned
    up to t_max (default: twice the full-transfer period) and the maximum
    fidelity recorded together with the success probability at the
    maximizing time.  All (s/g, series) pairs are rows of one batch: one
    array evaluation for the coarse scan and one per golden step.
    """
    if spec.kind != "decay":
        raise ValueError("spec.kind must be 'decay'")
    ratios = spec.grid.values()
    t_max = spec.t_max if spec.t_max is not None else 4.0 * full_transfer_time(1.0)
    labels = _series_labels(spec)
    # rows ordered (s/g, series), one column so each row broadcasts over times
    s = np.repeat(ratios, len(labels))[:, None]
    p = np.tile([p for _, p, _ in labels], len(ratios))[:, None]
    formula = np.tile([rule for _, _, rule in labels], len(ratios))[:, None]

    def fidelity(t):
        return closed_form_outcome(spec.qubit, p, s, t, formula, spec.apply_sigma_z)[0]

    t_star, f_max = _best_over_time(fidelity, t_max, spec.coarse_points, 1e-6)
    _, success = closed_form_outcome(
        spec.qubit, p[:, 0], s[:, 0], t_star, formula[:, 0], spec.apply_sigma_z
    )
    rows = np.column_stack([f_max, success]).reshape(len(ratios), len(labels), 2)
    series = {label: rows[:, j] for j, (label, _, _) in enumerate(labels)}
    return SweepResult("s_over_g", ratios, series)


def dephasing_sweep(spec: SweepSpec) -> SweepResult:
    """Fidelity against g*t for several dephasing rates at fixed p.

    Dephasing breaks the closed-form solution, so each series integrates the
    master equation once from the post-measurement state and reverses the
    whole trajectory in one array evaluation, as the closed-form rule does:
    the scaled state (see integrate), then the reversal with q = p, whose
    success is multiplied by e^{-st}.
    """
    if spec.kind != "dephasing":
        raise ValueError("spec.kind must be 'dephasing'")
    times = spec.grid.values()
    s = spec.s_over_g
    pre = apply_measurement_qubit1(initial_state(spec.qubit), spec.p)

    series = {}
    for gamma_ratio in spec.gamma_phi_over_g:
        params = SystemParams(
            g1=1.0, g2=1.0, kappa=s, gamma1=s, gamma2=s, gamma_phi=float(gamma_ratio)
        )
        states = integrate(params, pre.state, times, scaled=True).states
        fidelity, success = reversal_outcome(
            spec.qubit, *_target_entries(states), 1.0 - spec.p, spec.apply_sigma_z
        )
        series[f"gphi={gamma_ratio:g}g"] = np.column_stack([fidelity, np.exp(-s * times) * success])
    return SweepResult("gt", times, series)


def fig_time_spec() -> SweepSpec:
    """Weak-coupling time sweep: g = 0.5 s, alpha = beta = 1/sqrt(2)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return SweepSpec(
        kind="time",
        grid=AxisGrid(0.0, 6.0, 241),
        qubit=QubitAmplitudes(inv_sqrt2, inv_sqrt2),
        s_over_g=2.0,
        p_values=(0.0, 0.4, 0.8),
    )


def fig_decay_spec() -> SweepSpec:
    """Best-fidelity-vs-decay sweep: alpha = 0.6, beta = 0.8, s/g in [0.1, 20]."""
    return SweepSpec(
        kind="decay",
        grid=AxisGrid(0.1, 20.0, 60, log=True),
        qubit=QubitAmplitudes(0.6, 0.8),
        p_values=(0.0, 0.4, 0.8),
    )


def fig_dephasing_spec() -> SweepSpec:
    """Dephasing time sweep: p = 0.8, rates 0 to g, otherwise as the time sweep."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return SweepSpec(
        kind="dephasing",
        grid=AxisGrid(0.0, 6.0, 241),
        qubit=QubitAmplitudes(inv_sqrt2, inv_sqrt2),
        s_over_g=2.0,
        p=0.8,
        gamma_phi_over_g=(0.0, 0.01, 0.1, 1.0),
        include_baseline=False,
    )
