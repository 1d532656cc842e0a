"""Parameter-sweep drivers: fidelity and success probability against time,
against the decay-to-coupling ratio, and against the dephasing rate.

Each driver walks its grid sequentially and deterministically, so a given
spec always produces the identical result.  The couplings are equal and act
as the reference unit (g = 1), so the time axis is the dimensionless product
g*t and rates are given relative to g.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import QubitAmplitudes, SystemParams, initial_state
from .lindblad import integrate
from .measurement import apply_measurement_qubit1, apply_reversal_qubit2
from .optimize import pick_best, golden_section_max
from .protocol import (
    ProtocolSpec,
    fidelity_to_target,
    full_transfer_time,
    q_formula,
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
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.start < self.stop:
            raise ValueError("grid start must be below stop")
        if self.log and self.start <= 0:
            raise ValueError("log grid needs a positive start")

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
        if self.s_over_g < 0:
            raise ValueError("s_over_g must be non-negative")
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


def _series_labels(spec: SweepSpec) -> list[tuple[str, float | None]]:
    """(label, p) pairs; p None marks the unmeasured baseline."""
    labels: list[tuple[str, float | None]] = []
    if spec.include_baseline:
        labels.append((BASELINE_LABEL, None))
    labels.extend((f"p={p:g}", p) for p in spec.p_values)
    return labels


def _protocol_for(spec: SweepSpec, params: SystemParams, p: float | None) -> ProtocolSpec:
    """Measured series use the closed-form q rule; the baseline fixes q = 0."""
    if p is None:
        return ProtocolSpec(
            qubit=spec.qubit,
            params=params,
            p=0.0,
            q_rule="fixed",
            q_value=0.0,
            transfer_time=0.0,
            apply_sigma_z=spec.apply_sigma_z,
        )
    return ProtocolSpec(
        qubit=spec.qubit,
        params=params,
        p=p,
        q_rule="formula",
        transfer_time=0.0,
        apply_sigma_z=spec.apply_sigma_z,
    )


def time_sweep(spec: SweepSpec) -> SweepResult:
    """Fidelity and success probability against g*t at fixed decay rate.

    Every point runs the closed-form engine with the reversal strength
    re-evaluated at that time.  The success column carries the reversal
    branch probability (identically 1 for the baseline).
    """
    if spec.kind != "time":
        raise ValueError("spec.kind must be 'time'")
    times = spec.grid.values()
    s = spec.s_over_g
    params = SystemParams(g1=1.0, g2=1.0, kappa=s, gamma1=s, gamma2=s)
    series = {}
    for label, p in _series_labels(spec):
        proto = _protocol_for(spec, params, p)
        rows = np.empty((len(times), 2))
        for i, t in enumerate(times):
            outcome = run_protocol(replace(proto, transfer_time=float(t)))
            rows[i] = outcome.fidelity, outcome.reversal_success
        series[label] = rows
    return SweepResult("gt", times, series)


def max_fidelity_over_time(
    spec: ProtocolSpec,
    t_max: float,
    coarse_points: int = 120,
    refine_tol: float | None = None,
) -> tuple[float, float]:
    """Best protocol fidelity over the reversal time in (0, t_max].

    Coarse scan on a uniform grid, then golden-section refinement bracketed
    by the best point's neighbours; the result never falls below the best
    coarse sample.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if coarse_points < 100:
        raise ValueError("coarse_points must be at least 100")
    if refine_tol is None:
        refine_tol = 1e-6 / spec.params.g_ref

    def fid(t: float) -> float:
        return run_protocol(replace(spec, transfer_time=float(t))).fidelity

    times = np.linspace(0.0, t_max, coarse_points + 1)[1:]
    values = np.array([fid(t) for t in times])
    best = float(values.max())
    idx = int(np.nonzero(values >= best - 1e-12)[0][0])
    lo = float(times[idx - 1]) if idx > 0 else float(times[0]) * 1e-6
    hi = float(times[min(idx + 1, len(times) - 1)])
    refined = golden_section_max(fid, lo, hi, refine_tol)
    return pick_best([(float(times[idx]), best), refined])


def decay_sweep(spec: SweepSpec) -> SweepResult:
    """Best-over-time fidelity against the decay-to-coupling ratio s/g.

    For each grid value of s/g and each series, the reversal time is scanned
    up to t_max (default: twice the full-transfer period) and the maximum
    fidelity recorded together with the success probability at the
    maximizing time.
    """
    if spec.kind != "decay":
        raise ValueError("spec.kind must be 'decay'")
    ratios = spec.grid.values()
    t_max = spec.t_max if spec.t_max is not None else 4.0 * full_transfer_time(1.0)
    series = {label: np.empty((len(ratios), 2)) for label, _ in _series_labels(spec)}
    for i, ratio in enumerate(ratios):
        s = float(ratio)
        params = SystemParams(g1=1.0, g2=1.0, kappa=s, gamma1=s, gamma2=s)
        for label, p in _series_labels(spec):
            proto = _protocol_for(spec, params, p)
            t_star, f_max = max_fidelity_over_time(proto, t_max, spec.coarse_points)
            outcome = run_protocol(replace(proto, transfer_time=t_star))
            series[label][i] = f_max, outcome.reversal_success
    return SweepResult("s_over_g", ratios, series)


def dephasing_sweep(spec: SweepSpec) -> SweepResult:
    """Fidelity against g*t for several dephasing rates at fixed p.

    Dephasing breaks the closed-form solution, so each series integrates the
    master equation once from the post-measurement state and applies the
    reversal at every sample time.
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
        states = integrate(params, pre.state, times).states
        rows = np.empty((len(times), 2))
        for i, t in enumerate(times):
            q = q_formula(spec.p, s, float(t))
            kept = apply_reversal_qubit2(states[i], q, spec.apply_sigma_z)
            rows[i] = (
                fidelity_to_target(kept.state, spec.qubit),
                kept.success_probability,
            )
        series[f"gphi={gamma_ratio:g}g"] = rows
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
