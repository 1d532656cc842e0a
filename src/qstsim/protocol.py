"""The full transfer protocol and its figures of merit.

One run is: prepare (alpha|0> + beta|1>) on qubit 1, partially measure qubit 1
with strength p (keep the not-excited branch), let the excitation swap
through the resonator for a time t under decay, then reverse with strength q
on qubit 2 plus a sigma_z, and compare against the target state on qubit 2.
The reversal strength can follow the closed-form rule q = 1 - (1-p) e^{-st},
be fixed by hand, or be optimized numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticInputs, _effective_generator, analytic_rho
from .core import (
    QubitAmplitudes,
    SIGMA_Z2,
    SystemParams,
    embed_qubit2_op,
    initial_state,
    target_state,
)
from .lindblad import integrate
from .measurement import (
    PAULI_X,
    apply_measurement_qubit1,
    apply_reversal_qubit2,
    m0_operator,
)
from .optimize import grid_then_golden_max, pick_best


def full_transfer_time(g: float) -> float:
    """First time the excitation sits entirely on qubit 2 (equal couplings)."""
    return math.pi / (math.sqrt(2.0) * g)


def q_formula(p: float, s: float, t: float) -> float:
    """Closed-form reversal strength q = 1 - (1-p) e^{-st}.

    Chosen so the reversal rescales the ground amplitude by exactly the
    damping factor the excited amplitude picked up on the no-jump branch;
    state-independent, always in [p, 1).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("measurement strength p must lie in [0, 1)")
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    return 1.0 - (1.0 - p) * math.exp(-s * t)


def fidelity_to_target(rho: np.ndarray, qubit: QubitAmplitudes) -> float:
    """Overlap <target| rho |target> of a state with the transferred state."""
    phi = target_state(qubit)
    return float(np.real(np.vdot(phi, rho @ phi)))


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol configuration.

    q_rule selects how the reversal strength is chosen: "formula" for the
    closed-form rule (requires kappa = gamma1 = gamma2), "fixed" for an
    explicit q_value, "optimal" for the numerically maximizing q.  The
    analytic engine needs equal decay rates and no dephasing; the numeric
    engine integrates the master equation and has no such restriction.
    transfer_time defaults to the full-transfer time when g1 = g2 and must
    be given explicitly otherwise.
    """

    qubit: QubitAmplitudes
    params: SystemParams
    p: float = 0.0
    q_rule: str = "formula"
    q_value: float | None = None
    transfer_time: float | None = None
    engine: str = "analytic"
    apply_sigma_z: bool = True

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("measurement strength p must lie in [0, 1)")
        if self.q_rule not in ("formula", "fixed", "optimal"):
            raise ValueError(f"unknown q_rule {self.q_rule!r}")
        if self.q_rule == "fixed":
            if self.q_value is None or not 0.0 <= self.q_value < 1.0:
                raise ValueError("q_rule 'fixed' needs q_value in [0, 1)")
        if self.engine not in ("analytic", "numeric"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.engine == "analytic":
            if self.params.equal_decay_rate() is None or self.params.gamma_phi != 0:
                raise ValueError(
                    "analytic engine requires kappa = gamma1 = gamma2 and no dephasing"
                )
        if self.transfer_time is None:
            if self.params.g1 != self.params.g2:
                raise ValueError("transfer_time must be given when g1 != g2")
            object.__setattr__(
                self, "transfer_time", full_transfer_time(self.params.g1)
            )
        elif self.transfer_time < 0:
            raise ValueError("transfer_time must be non-negative")


@dataclass(frozen=True, eq=False)
class ProtocolOutcome:
    """Figures of merit of one run.

    reversal_success is the kept-branch probability of the reversal alone,
    1 - q + q*rho33 (the quantity usually plotted); success_probability is
    the end-to-end product with the pre-measurement branch probability,
    which is what an experiment pays per attempt.  q_complement_used carries
    1 - q exactly; under strong decay the closed-form q is so close to 1
    that q_used itself may round to 1.0.
    """

    fidelity: float
    q_used: float
    q_complement_used: float
    final_state: np.ndarray
    premeasure_success: float
    reversal_success: float
    success_probability: float


def _evolved_state(spec: ProtocolSpec, t: float) -> tuple[np.ndarray, float]:
    """State just before the reversal, and the pre-measurement probability."""
    pre = apply_measurement_qubit1(initial_state(spec.qubit), spec.p)
    if spec.engine == "analytic":
        inputs = AnalyticInputs(
            alpha=spec.qubit.alpha,
            beta=spec.qubit.beta,
            p=spec.p,
            s=spec.params.equal_decay_rate(),
            g1=spec.params.g1,
            g2=spec.params.g2,
        )
        rho = analytic_rho(inputs, t)
    else:
        rho = integrate(spec.params, pre.state, [t]).states[-1]
    return rho, pre.success_probability


def _resolve_formula_q(spec: ProtocolSpec, t: float) -> tuple[float, float]:
    """(q, 1-q) from the closed-form rule; the complement is cancellation-free."""
    s = spec.params.equal_decay_rate()
    if s is None:
        raise ValueError(
            "q_rule 'formula' needs kappa = gamma1 = gamma2; use 'fixed' or 'optimal'"
        )
    q = q_formula(spec.p, s, t)
    complement = (1.0 - spec.p) * math.exp(-s * t)
    return q, complement


def run_protocol(spec: ProtocolSpec) -> ProtocolOutcome:
    """Run the full pipeline and report fidelity and success probabilities."""
    t = spec.transfer_time
    rho_t, pre_prob = _evolved_state(spec, t)
    if spec.q_rule == "formula":
        q, complement = _resolve_formula_q(spec, t)
    elif spec.q_rule == "fixed":
        q, complement = spec.q_value, 1.0 - spec.q_value
    else:
        q, _ = _best_reversal_strength(rho_t, spec)
        complement = 1.0 - q
    reversed_ = apply_reversal_qubit2(
        rho_t, q, apply_sigma_z=spec.apply_sigma_z, q_complement=complement
    )
    fidelity = fidelity_to_target(reversed_.state, spec.qubit)
    return ProtocolOutcome(
        fidelity=fidelity,
        q_used=q,
        q_complement_used=complement,
        final_state=reversed_.state,
        premeasure_success=pre_prob,
        reversal_success=reversed_.success_probability,
        success_probability=pre_prob * reversed_.success_probability,
    )


def _best_reversal_strength(
    rho_t: np.ndarray,
    spec: ProtocolSpec,
    grid_points: int = 1000,
    refine_tol: float = 1e-8,
) -> tuple[float, float]:
    def fid(q: float) -> float:
        kept = apply_reversal_qubit2(rho_t, q, apply_sigma_z=spec.apply_sigma_z)
        return fidelity_to_target(kept.state, spec.qubit)

    grid = np.linspace(0.0, 1.0 - 1e-9, grid_points)
    candidates = [grid_then_golden_max(fid, grid, refine_tol)]
    if spec.params.equal_decay_rate() is not None:
        # the closed-form rule is a cheap extra candidate when it applies
        q_f, _ = _resolve_formula_q(spec, spec.transfer_time)
        if q_f < 1.0:
            candidates.append((q_f, fid(q_f)))
    return pick_best(candidates)


def optimize_q(
    spec: ProtocolSpec, grid_points: int = 1000, refine_tol: float = 1e-8
) -> tuple[float, float]:
    """Reversal strength in [0, 1) maximizing fidelity at the given time.

    Coarse grid scan followed by golden-section refinement; ties within
    1e-12 resolve to the smallest q, which has the higher success
    probability.  Any q_rule on the spec is ignored.
    """
    rho_t, _ = _evolved_state(spec, spec.transfer_time)
    return _best_reversal_strength(rho_t, spec, grid_points, refine_tol)


def nojump_protocol_oracle(
    qubit: QubitAmplitudes, p: float, s: float, g: float, t: float
) -> np.ndarray:
    """Pure-state walkthrough of the protocol on the no-jump branch.

    Composes the three steps mechanically on unnormalized amplitudes: kept
    measurement branch on qubit 1, no-jump propagation by the effective
    non-Hermitian generator, then the reversal (with the closed-form q) and
    sigma_z on qubit 2.  Only valid at the first full-transfer time of the
    equal-coupling model, where the qubit-1 and photon amplitudes vanish;
    other times are rejected.  The result is returned in the convention
    where the sigma_z's global sign is absorbed, so it is proportional to
    alpha|ground> + beta|qubit 2 excited>.
    """
    from scipy.linalg import expm

    t_star = full_transfer_time(g)
    if abs(t - t_star) > 1e-9:
        raise ValueError(
            f"the pure-state walkthrough holds only at t = {t_star!r}, got {t!r}"
        )
    # closed-form rule, complement computed directly (see q_formula)
    root_complement = math.sqrt(1.0 - p) * math.exp(-0.5 * s * t)
    psi = np.array([qubit.alpha, qubit.beta * math.sqrt(1.0 - p), 0.0, 0.0], complex)
    psi = expm(_effective_generator(g, g, s) * t) @ psi
    reversal = embed_qubit2_op(
        PAULI_X @ np.diag([1.0, root_complement]).astype(complex) @ PAULI_X
    )
    psi = SIGMA_Z2 @ (reversal @ psi)
    return -psi
