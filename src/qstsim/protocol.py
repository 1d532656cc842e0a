"""The full transfer protocol and its figures of merit.

One run is: prepare (alpha|0> + beta|1>) on qubit 1, partially measure qubit 1
with strength p (keep the not-excited branch), let the excitation swap
through the resonator for a time t under decay, then reverse with strength q
on qubit 2 plus a sigma_z, and compare against the target state on qubit 2.
The reversal strength can follow the closed-form rule q = 1 - (1-p) e^{-st},
be fixed by hand, or be the exact fidelity-maximizing q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _effective_generator, analytic_rho
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
)
from .optimize import pick_best


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


def _overlap_coefficients(qubit: QubitAmplitudes, rho00, rho03, rho33, apply_sigma_z):
    """(A, B, D) with <target| kept |target> = A c + B sqrt(c) + D after the
    reversal with complement c = 1 - q, from the entries the target sees."""
    sign = -1.0 if apply_sigma_z else 1.0
    return (
        qubit.alpha**2 * rho00,
        2.0 * sign * qubit.alpha * np.real(qubit.beta * rho03),
        abs(qubit.beta) ** 2 * rho33,
    )


def _target_entries(rho: np.ndarray):
    """rho00, rho03, rho33 and the trace of a state or of a stack of them."""
    return (
        rho[..., 0, 0].real,
        rho[..., 0, 3],
        rho[..., 3, 3].real,
        np.trace(rho, axis1=-2, axis2=-1).real,
    )


def reversal_outcome(
    qubit: QubitAmplitudes, rho00, rho03, rho33, trace, q_complement, apply_sigma_z=True
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity and success probability of the reversal, elementwise.

    apply_reversal_qubit2 and fidelity_to_target reduced to what the target
    sees of the state before the reversal.  With c = q_complement = 1 - q
    the kept branch has probability S = c (trace - rho33) + rho33, and the
    fidelity is (alpha^2 c rho00 -+ 2 alpha sqrt(c) Re(beta rho03) +
    |beta|^2 rho33) / S, minus under the sigma_z.  The arguments after the
    qubit broadcast; the state need not be normalized.  A value that is not
    finite, 0/0 included, raises FloatingPointError.
    """
    c = np.asarray(q_complement, dtype=float)
    a, b, d = _overlap_coefficients(qubit, rho00, rho03, rho33, apply_sigma_z)
    success = c * (trace - rho33) + rho33
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is caught below
        fidelity = (a * c + b * np.sqrt(c) + d) / success
    if not (np.all(np.isfinite(fidelity)) and np.all(np.isfinite(success))):
        raise FloatingPointError("reversal outcome is not finite")
    return fidelity, success


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol configuration.

    q_rule selects how the reversal strength is chosen: "formula" for the
    closed-form rule (requires kappa = gamma1 = gamma2), "fixed" for an
    explicit q_value, "optimal" for the fidelity-maximizing q.  The
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
        if self.q_rule == "formula" and self.params.equal_decay_rate() is None:
            raise ValueError(
                "q-rule 'formula' needs kappa = gamma1 = gamma2; use fixed or optimal"
            )
        if self.transfer_time is None:
            if self.params.g1 != self.params.g2:
                raise ValueError("transfer_time must be given when g1 != g2")
            object.__setattr__(
                self, "transfer_time", full_transfer_time(self.params.g1)
            )
        elif not self.transfer_time >= 0:
            raise ValueError("transfer_time must be non-negative")


@dataclass(frozen=True, eq=False)
class ProtocolOutcome:
    """Figures of merit of one run.

    reversal_success is the kept-branch probability of the reversal alone,
    1 - q + q*rho33 (the quantity usually plotted); success_probability is
    the end-to-end product with the pre-measurement branch probability,
    which is what an experiment pays per attempt.  Under strong decay the
    closed-form q is so close to 1 that q_used may round to 1.0.
    """

    fidelity: float
    q_used: float
    final_state: np.ndarray
    premeasure_success: float
    reversal_success: float
    success_probability: float


def _evolved_state(spec: ProtocolSpec, t: float, scaled: bool = False) -> tuple[np.ndarray, float]:
    """State just before the reversal, and the pre-measurement probability.

    With scaled, the qubit-2 row and column are multiplied by e^{st/2} (see
    analytic_rho); this needs equal decay rates.
    """
    pre = apply_measurement_qubit1(initial_state(spec.qubit), spec.p)
    params = spec.params
    if spec.engine == "analytic":
        rho = analytic_rho(
            spec.qubit, spec.p, params.equal_decay_rate(), t, params.g1, params.g2, scaled
        )
    else:
        rho = integrate(params, pre.state, [t], scaled).states[-1]
    return rho, pre.success_probability


def run_protocol(spec: ProtocolSpec) -> ProtocolOutcome:
    """Run the full pipeline and report fidelity and success probabilities.

    The closed-form q = 1 - (1-p) e^{-st}, whether the formula rule or the
    optimum picks it, is applied as the reversal with q = p of the scaled
    state, whose success probability is e^{st} times larger: the same
    channel, with nothing left to underflow as e^{-st} goes to 0.
    """
    t = spec.transfer_time
    s = spec.params.equal_decay_rate()
    formula = spec.q_rule == "formula"
    rho_t, pre_prob = _evolved_state(spec, t, scaled=formula)
    q = q_formula(spec.p, s, t) if formula else spec.q_value
    if spec.q_rule == "optimal":
        q, _ = _best_reversal_strength(rho_t, spec)
        formula = s is not None and q == q_formula(spec.p, s, t)
        if formula:
            rho_t, _ = _evolved_state(spec, t, scaled=True)
    reversed_ = apply_reversal_qubit2(rho_t, spec.p if formula else q, spec.apply_sigma_z)
    reversal_success = reversed_.success_probability * (math.exp(-s * t) if formula else 1.0)
    return ProtocolOutcome(
        fidelity=fidelity_to_target(reversed_.state, spec.qubit),
        q_used=q,
        final_state=reversed_.state,
        premeasure_success=pre_prob,
        reversal_success=reversal_success,
        success_probability=pre_prob * reversal_success,
    )


_Q_MAX = 1.0 - 1e-9  # the strongest reversal the optimum may use, bar the closed form


def _real_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of a2 x^2 + a1 x + a0 = 0, free of cancellation."""
    if a2 == 0.0:
        return [] if a1 == 0.0 else [-a0 / a1]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    h = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
    return [h / a2, a0 / h] if h != 0.0 else [0.0]


def _best_reversal_strength(rho_t: np.ndarray, spec: ProtocolSpec) -> tuple[float, float]:
    """Exact (q, fidelity) maximizing the fidelity of reversing rho_t.

    With x = sqrt(1 - q) the fidelity is (A x^2 + B x + D) / (E x^2 + R),
    E = trace - rho33 and R = rho33, whose stationary points are the roots
    of -B E x^2 + 2 (A R - D E) x + B R = 0.  The candidates are q = 0,
    q = 1 - 1e-9, the roots in between and, with equal rates, the
    closed-form q, evaluated on the scaled state so that it stays exact as
    q rounds to 1.  Ties within 1e-12 go to the smallest q, which has the
    higher success probability.
    """
    t = spec.transfer_time
    rho00, rho03, rho33, trace = _target_entries(rho_t)
    coefficients = _overlap_coefficients(spec.qubit, rho00, rho03, rho33, spec.apply_sigma_z)
    # Python floats: a root far outside (0, 1) overflows to inf quietly
    a, b, d, e, r = map(float, (*coefficients, trace - rho33, rho33))
    roots = _real_roots(-b * e, 2.0 * (a * r - d * e), b * r)
    qs = [0.0, _Q_MAX]
    qs += [q for q in (1.0 - x * x for x in roots if x > 0.0) if 0.0 < q <= _Q_MAX]
    fidelity, _ = reversal_outcome(
        spec.qubit, rho00, rho03, rho33, trace, 1.0 - np.array(qs), spec.apply_sigma_z
    )
    candidates = list(zip(qs, fidelity.tolist()))
    s = spec.params.equal_decay_rate()
    if s is not None:
        scaled = _target_entries(_evolved_state(spec, t, scaled=True)[0])
        f_formula, _ = reversal_outcome(spec.qubit, *scaled, 1.0 - spec.p, spec.apply_sigma_z)
        candidates.append((q_formula(spec.p, s, t), float(f_formula)))
    return pick_best(candidates)


def optimize_q(spec: ProtocolSpec) -> tuple[float, float]:
    """Exact fidelity-maximizing reversal strength at the given time, and
    its fidelity (see _best_reversal_strength); any q_rule on the spec is
    ignored.
    """
    rho_t, _ = _evolved_state(spec, spec.transfer_time)
    return _best_reversal_strength(rho_t, spec)


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
