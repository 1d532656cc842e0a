"""Parameter-sweep drivers: fidelity and success probability against time,
against the decay-to-coupling ratio, and against the dephasing rate.

The closed-form sweeps evaluate a whole grid as arrays (closed_form_outcome)
rather than one protocol run per point.  Every sweep is deterministic, so a
given spec always produces the identical result.  The couplings are equal
and act as the reference unit (g = 1), so the time axis is the
dimensionless product g*t and rates are given relative to g.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import closed_form_factors
from .core import QubitAmplitudes, SystemParams, check_strength
from .optimize import grid_then_root_max_rows
from .protocol import (
    ProtocolSpec,
    _evolved_state,
    _overlap_coefficients,
    _target_entries,
    full_transfer_time,
    reversal_outcome,
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
        if not np.all(np.diff(self.values()) > 0):
            raise ValueError("grid-points too many for the span: the grid values repeat")

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
    is prepended unless include_baseline is off.  Each value of p_values and
    gamma_phi_over_g labels its series as %g prints it, so values that print
    alike are rejected.
    """

    kind: str
    grid: AxisGrid
    qubit: QubitAmplitudes
    s_over_g: float = 2.0
    p_values: tuple = (0.0, 0.4, 0.8)
    include_baseline: bool = True
    p: float = 0.8
    gamma_phi_over_g: tuple = (0.0, 0.01, 0.1, 1.0)
    t_max: float = 4.0 * full_transfer_time(1.0)
    coarse_points: int = 120

    def __post_init__(self):
        if self.kind not in ("time", "decay", "dephasing"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.s_over_g >= 0:
            raise ValueError("s-over-g must be non-negative")
        check_strength((*self.p_values, self.p))
        if not all(rate >= 0 for rate in self.gamma_phi_over_g):
            raise ValueError("gamma-phi-over-g must be non-negative")
        for key, values in (("p", self.p_values), ("gamma-phi-over-g", self.gamma_phi_over_g)):
            labels = [f"{v:g}" for v in values]  # as the series labels print them
            if len(set(labels)) < len(labels):
                raise ValueError(f"{key} values must print distinct labels, got {', '.join(labels)}")
        if not self.t_max > 0:
            raise ValueError("t-max must be positive")
        if self.coarse_points < 100:
            raise ValueError("coarse-points must be at least 100")


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


def _series_labels(spec: SweepSpec) -> list[tuple[str, float, bool]]:
    """(label, p, formula) triples; the unmeasured baseline has p = 0 and
    reverses with q = 0, every other series uses the closed-form q rule."""
    labels = [(BASELINE_LABEL, 0.0, False)] if spec.include_baseline else []
    labels.extend((f"p={p:g}", p, True) for p in spec.p_values)
    return labels


def closed_form_outcome(qubit: QubitAmplitudes, p, s, t, formula, slope=False) -> tuple:
    """Fidelity and reversal success of the closed-form protocol at g = 1,
    with the sigma_z applied, elementwise; with slope, dF/dt as well.

    p, s, t and formula broadcast together: the pre-measurement strength,
    the common decay rate, the reversal time and whether the reversal uses
    the closed-form q = 1 - (1-p) e^{-st} (True) or q = 0 (False, the
    unmeasured baseline when p = 0).  Agrees with run_protocol on the
    analytic engine point by point, but forms only what the target state
    sees: rho00, rho03, rho33 and the trace, each an array of the broadcast
    shape, which reversal_outcome scores: under the closed form those of the
    state scaled by lambda = e^{st/2}, so that w = 1 - p and only the
    success goes to 0 as e^{-st} underflows.  A value that is still not
    finite raises FloatingPointError.  With w fixed, dF/dt is (A' w + B'
    sqrt(w) + D' - F (E' w + R')) / (E w + R), from the same factors, formed
    only when slope is true.
    """
    rho00, k, b, (c2, ic3, c4), half_decay, decay = closed_form_factors(qubit, p, s, t)
    h = np.where(formula, 1.0, half_decay)
    d3 = c4 * h
    rho33 = b * d3 * d3
    # qubit 1 and photon: the undamped sum on the time axis, then the decay
    trace = rho00 + b * (c2 * c2 + ic3 * ic3) * decay + rho33
    keep = 1.0 - np.asarray(p, dtype=float)
    w = np.where(formula, keep, 1.0)
    c = np.where(formula, keep * decay, 1.0)
    fidelity, success = reversal_outcome(qubit, rho00, k * d3, rho33, trace, w, c)
    if not slope:
        return fidelity, success
    # at g = 1, (c2, ic3, c4)' = (-ic3, c2 + c4, -ic3) and c2^2 + ic3^2 + c4^2 = 1,
    # so rho00' = s b e^{-st}, E' = b e^{-st} c4 (s c4 + 2 ic3), rho03' = k d3'
    # and R' = 2 b d3 d3', where on the baseline h' = -(s/2) h
    s = np.asarray(s, dtype=float)
    d3_dot = -h * (ic3 + np.where(formula, 0.0, 0.5 * s) * c4)
    a_per_rho00, b_per_k, d_per_rho33 = _overlap_coefficients(qubit, 1.0, k, 1.0, True)
    dfdt = (
        b * decay * (a_per_rho00 * s * w - fidelity * w * c4 * (s * c4 + 2.0 * ic3))
        + d3_dot * (b_per_k * np.sqrt(w) + 2.0 * b * d3 * (d_per_rho33 - fidelity))
    ) / ((trace - rho33) * w + rho33)
    return fidelity, success, dfdt


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
        fidelity, success = closed_form_outcome(spec.qubit, p, spec.s_over_g, times, formula)
        series[label] = np.column_stack([fidelity, success])
    return SweepResult("gt", times, series)


def decay_sweep(spec: SweepSpec) -> SweepResult:
    """Best-over-time fidelity against the decay-to-coupling ratio s/g.

    For each grid value of s/g and each series, the reversal time is scanned
    on coarse_points uniform steps up to t_max, and the maximum fidelity is
    recorded with the success probability at the maximizing time t*, the
    root of dF/dt next to the best scan point; a best first point is
    bracketed from a millionth of it, not from t = 0.  All (s/g, series)
    pairs are rows of one batch: one array evaluation of the fidelity for
    the coarse scan, one with dF/dt about each row's best scan point, and
    one per root-search step.
    """
    if spec.kind != "decay":
        raise ValueError("spec.kind must be 'decay'")
    ratios = spec.grid.values()
    labels = _series_labels(spec)
    # rows ordered (s/g, series), one column so each row broadcasts over times
    s = np.repeat(ratios, len(labels))[:, None]
    p = np.tile([p for _, p, _ in labels], len(ratios))[:, None]
    formula = np.tile([rule for _, _, rule in labels], len(ratios))[:, None]

    def fidelity(t, slope):
        if slope:
            values, _, dfdt = closed_form_outcome(spec.qubit, p, s, t, formula, slope=True)
            return values, dfdt
        return closed_form_outcome(spec.qubit, p, s, t, formula)[0]

    times = np.linspace(0.0, spec.t_max, spec.coarse_points + 1)[1:]
    t_star, f_max = grid_then_root_max_rows(fidelity, times, first_lo=float(times[0]) * 1e-6)
    _, success = closed_form_outcome(spec.qubit, p[:, 0], s[:, 0], t_star, formula[:, 0])
    rows = np.column_stack([f_max, success]).reshape(len(ratios), len(labels), 2)
    series = {label: rows[:, j] for j, (label, _, _) in enumerate(labels)}
    return SweepResult("s_over_g", ratios, series)


def dephasing_sweep(spec: SweepSpec) -> SweepResult:
    """Fidelity against g*t for several dephasing rates at fixed p.

    Dephasing breaks the closed-form solution, so each series integrates the
    master equation once from the post-measurement state and reverses the
    whole trajectory of scaled states in one array evaluation with the
    closed-form rule, w = lambda^2 (1 - q) = 1 - p (see reversal_outcome).
    """
    if spec.kind != "dephasing":
        raise ValueError("spec.kind must be 'dephasing'")
    times = spec.grid.values()
    s = spec.s_over_g
    series = {}
    for gamma_ratio in spec.gamma_phi_over_g:
        params = SystemParams(1.0, 1.0, s, s, s, gamma_phi=float(gamma_ratio))
        protocol = ProtocolSpec(spec.qubit, params, spec.p, engine="numeric")
        states, log_lambda_sq, _ = _evolved_state(protocol, times)
        keep = 1.0 - spec.p
        fidelity, success = reversal_outcome(
            spec.qubit, *_target_entries(states), keep, keep * np.exp(-log_lambda_sq)
        )
        series[f"gphi={gamma_ratio:g}g"] = np.column_stack([fidelity, success])
    return SweepResult("gt", times, series)
