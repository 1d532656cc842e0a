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

from .analytic import analytic_rho
from .core import QubitAmplitudes, SystemParams, initial_state, target_state
from .lindblad import integrate
from .measurement import apply_measurement_qubit1, apply_reversal_qubit2
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


def _evolved_state(spec: ProtocolSpec, times, scaled: bool = False) -> tuple[np.ndarray, float]:
    """States just before the reversal at each of the times, shape (n, 4, 4),
    from either engine, and the pre-measurement probability.

    With scaled, the qubit-2 row and column are multiplied by e^{st/2} (see
    analytic_rho); this needs equal decay rates.
    """
    pre = apply_measurement_qubit1(initial_state(spec.qubit), spec.p)
    params = spec.params
    if spec.engine == "analytic":
        rho = analytic_rho(
            spec.qubit, spec.p, params.equal_decay_rate(), times, params.g1, params.g2, scaled
        )
    else:
        rho = integrate(params, pre.state, times, scaled)
    return rho, pre.success_probability


def _closed_form_rule(qubit: QubitAmplitudes, entries, p, decay, apply_sigma_z, formula=True):
    """Fidelity and reversal success of the closed-form q = 1 - (1-p) e^{-st}
    from the _target_entries of the scaled state (see analytic_rho): the
    reversal with q = p, whose success is multiplied by decay = e^{-st}, so
    nothing underflows as e^{-st} goes to 0.  Where formula is false the
    entries are of the unscaled state, reversed with q = 0.  The arguments
    after the qubit broadcast.
    """
    fidelity, success = reversal_outcome(
        qubit, *entries, np.where(formula, 1.0 - np.asarray(p), 1.0), apply_sigma_z
    )
    return fidelity, np.where(formula, decay, 1.0) * success


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


def _candidates(spec: ProtocolSpec, q_rule: str) -> tuple[list[tuple], float]:
    """The candidate reversal strengths of q_rule, each scored by
    reversal_outcome, and the pre-measurement probability.

    A candidate is (q, fidelity, reversal success, state, strength); its
    reversal is apply_reversal_qubit2(state, strength).  formula: the
    closed-form q, on the scaled state with strength p (see
    _closed_form_rule).  fixed: q_value.  optimal: q = 0, _Q_MAX, the
    stationary points in between and, with equal rates, the closed-form q,
    last.  With x = sqrt(1 - q) the fidelity is (A x^2 + B x + D) /
    (E x^2 + R), E = trace - rho33 and R = rho33, whose stationary points
    are the roots of -B E x^2 + 2 (A R - D E) x + B R = 0.
    """
    t = spec.transfer_time
    s = spec.params.equal_decay_rate()
    candidates = []
    if q_rule != "formula":
        (rho,), pre_prob = _evolved_state(spec, [t])
        entries = _target_entries(rho)
        qs = [spec.q_value]
        if q_rule == "optimal":
            rho00, rho03, rho33, trace = entries
            coefficients = _overlap_coefficients(spec.qubit, rho00, rho03, rho33, spec.apply_sigma_z)
            # Python floats: a root far outside (0, 1) overflows to inf quietly
            a, b, d, e, r = map(float, (*coefficients, trace - rho33, rho33))
            roots = _real_roots(-b * e, 2.0 * (a * r - d * e), b * r)
            qs = [0.0, _Q_MAX]
            qs += [q for q in (1.0 - x * x for x in roots if x > 0.0) if 0.0 < q <= _Q_MAX]
        fidelity, success = reversal_outcome(
            spec.qubit, *entries, 1.0 - np.array(qs), spec.apply_sigma_z
        )
        for q, f, kept in zip(qs, fidelity.tolist(), success.tolist()):
            candidates.append((q, f, kept, rho, q))
    if q_rule == "formula" or (q_rule == "optimal" and s is not None):
        (rho,), pre_prob = _evolved_state(spec, [t], scaled=True)
        fidelity, success = _closed_form_rule(
            spec.qubit, _target_entries(rho), spec.p, math.exp(-s * t), spec.apply_sigma_z
        )
        candidates.append((q_formula(spec.p, s, t), float(fidelity), float(success), rho, spec.p))
    return candidates, pre_prob


def run_protocol(spec: ProtocolSpec) -> ProtocolOutcome:
    """Run the full pipeline and report fidelity and success probabilities.

    Reports the fidelity and reversal success of the best candidate of
    spec.q_rule (see _candidates); ties within 1e-12 go to the smallest q,
    which has the higher success probability.  The final state is that
    candidate's reversal.
    """
    candidates, pre_prob = _candidates(spec, spec.q_rule)
    q, fidelity, reversal_success, rho, strength = pick_best(candidates)
    return ProtocolOutcome(
        fidelity=fidelity,
        q_used=q,
        final_state=apply_reversal_qubit2(rho, strength, spec.apply_sigma_z).state,
        premeasure_success=pre_prob,
        reversal_success=reversal_success,
        success_probability=pre_prob * reversal_success,
    )


def optimize_q(spec: ProtocolSpec) -> tuple[float, float]:
    """Exact fidelity-maximizing reversal strength at the given time, and
    its fidelity (see _candidates); any q_rule on the spec is ignored.
    """
    return pick_best(_candidates(spec, "optimal")[0])[:2]
