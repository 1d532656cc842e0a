"""The full transfer protocol and its figures of merit.

One run is: prepare (alpha|0> + beta|1>) on qubit 1, partially measure qubit 1
with strength p (keep the not-excited branch), let the excitation swap
through the resonator for a time t under decay, then reverse with strength q
on qubit 2 plus a sigma_z, and compare against the target state on qubit 2.
The reversal strength can follow the closed-form rule q = 1 - (1-p) e^{-st}
(Korotkov & Keane, PRA 81, 040103(R) (2010)), be fixed by hand, or be the
exact fidelity-maximizing q, each scored through ln(1 - q) on one state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import analytic_rho
from .core import QubitAmplitudes, SystemParams, check_strength
from .lindblad import decay_frame, integrate
from .measurement import apply_measurement_qubit1
from .optimize import pick_best


def full_transfer_time(g: float) -> float:
    """First time the excitation sits entirely on qubit 2 (equal couplings)."""
    return math.pi / (math.sqrt(2.0) * g)


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
    qubit: QubitAmplitudes, rho00, rho03, rho33, trace, w, c, apply_sigma_z=True
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity and success probability of the reversal, elementwise.

    The reversal channel, the kept branch of a bit-flip conjugated partial
    measurement of strength q on qubit 2 followed by a sigma_z, and the
    overlap with the target, reduced to what the target sees of a state
    whose qubit-2 row and column carry lambda (1 for the true state).  With
    c = 1 - q and a finite w = lambda^2 c, the fidelity is (A w + B sqrt(w)
    + D) / (E w + R) and the success c (E w + R) / w, where
    A = alpha^2 rho00, B = -+2 alpha Re(beta rho03) under the sigma_z or
    not, D = |beta|^2 rho33, E = trace - rho33 and R = rho33.  The
    arguments after the qubit broadcast.  A value that is not finite, 0/0
    included, raises FloatingPointError.
    """
    w = np.asarray(w, dtype=float)
    a, b, d = _overlap_coefficients(qubit, rho00, rho03, rho33, apply_sigma_z)
    kept = w * (trace - rho33) + rho33
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is caught below
        fidelity = (a * w + b * np.sqrt(w) + d) / kept
        success = c / w * kept
    if not (np.all(np.isfinite(fidelity)) and np.all(np.isfinite(success))):
        raise FloatingPointError("reversal outcome is not finite")
    return fidelity, success


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol configuration.

    q_rule selects how the reversal strength is chosen: "formula" for the
    closed-form rule (requires kappa = gamma1 = gamma2), which has the
    higher success probability; "fixed" for an explicit q_value; "optimal"
    for the exact fidelity-maximizing q at any rates, uncapped.  The
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
        check_strength(self.p)
        if self.q_rule not in ("formula", "fixed", "optimal"):
            raise ValueError(f"unknown q_rule ('q-rule') {self.q_rule!r}")
        if self.q_rule == "fixed":
            if self.q_value is None or not 0.0 <= self.q_value < 1.0:
                raise ValueError("q_rule ('q-rule') 'fixed' needs q_value ('q') in [0, 1)")
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
                raise ValueError("transfer_time ('gt') must be given when g1 != g2")
            object.__setattr__(
                self, "transfer_time", full_transfer_time(self.params.g1)
            )
        elif not self.transfer_time >= 0:
            raise ValueError("transfer_time ('gt') must be non-negative")


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


def _evolved_state(spec: ProtocolSpec, times) -> tuple[np.ndarray, np.ndarray, float]:
    """Scaled states just before the reversal at each of the times, shape
    (n, 4, 4), from either engine (see integrate and analytic_rho); ln
    lambda^2 at each time; and the pre-measurement probability."""
    pre = apply_measurement_qubit1(spec.qubit, spec.p)
    params = spec.params
    times = np.asarray(times, dtype=float)
    if spec.engine == "analytic":
        rate = params.equal_decay_rate()
        rho = analytic_rho(spec.qubit, spec.p, rate, times, params.g1, params.g2, True)
    else:
        rho = integrate(params, pre.state, times, True)
        rate = -decay_frame(params)[1]  # cached by integrate
    return rho, rate * times, pre.success_probability


_LOG_W_MIN = -40.0  # the optimum's endpoint ln(lambda^2 (1 - q)), near its limit q -> 1
# above e^690 ~ 1e300 the fidelity is A/E to double precision, and w would overflow
_LOG_W_MAX = 690.0


def _candidates(spec: ProtocolSpec) -> tuple[tuple, np.ndarray, float]:
    """The candidate reversals of spec.q_rule, scored on the one scaled
    state at the transfer time, as arrays (-ln(1 - q), fidelity, reversal
    success, w = lambda^2 (1 - q), q), the first for ties, as q may round to
    1; that state; and the pre-measurement probability.

    Each candidate is a ln c = ln(1 - q).  fixed: ln(1 - q_value).
    formula: ln(1 - p) - ln lambda^2, as lambda^2 = e^{st}.  optimal: q = 0;
    the endpoint ln w = _LOG_W_MIN; the stationary point; and, with equal
    rates, the closed-form q, last.  In u = 1 / sqrt(w) the fidelity is
    (A + B u + D u^2) / (E + R u^2), stationary where -B R u^2 + 2 (D E -
    A R) u + B E = 0, whose roots multiply to -E / R: one is positive, at
    ln c = -2 ln u - ln lambda^2.
    """
    (rho,), (log_lambda_sq,), pre_prob = _evolved_state(spec, [spec.transfer_time])
    entries = _target_entries(rho)
    log_cs = [math.log1p(-spec.q_value)] if spec.q_rule == "fixed" else []
    if spec.q_rule == "optimal":
        rho00, rho03, rho33, trace = entries
        coefficients = _overlap_coefficients(spec.qubit, rho00, rho03, rho33, spec.apply_sigma_z)
        # Python floats: a root far outside the range overflows to inf quietly
        a, b, d, e, r = map(float, (*coefficients, trace - rho33, rho33))
        log_cs = [0.0, _LOG_W_MIN - log_lambda_sq]
        if b * r != 0.0:  # that root, free of cancellation
            m = math.copysign(1.0, b) * (d * e - a * r)
            h = math.hypot(m, b * math.sqrt(max(e * r, 0.0)))
            u = (m + h) / abs(b * r) if m >= 0.0 else abs(b) * e / (h - m)
            if 0.0 < u and u * u < math.inf:
                log_cs.append(-2.0 * math.log(u) - log_lambda_sq)
    if spec.q_rule != "fixed" and spec.params.equal_decay_rate() is not None:
        log_cs.append(math.log1p(-spec.p) - log_lambda_sq)
    log_c = np.minimum(log_cs, 0.0)  # a stationary point at q < 0 is the q = 0 one
    w = np.exp(np.minimum(log_lambda_sq + log_c, _LOG_W_MAX))
    fidelity, success = reversal_outcome(spec.qubit, *entries, w, np.exp(log_c), spec.apply_sigma_z)
    # 0.0 - x, not -x: a q of 0 is +0, never -0
    return (-log_c, fidelity, success, w, 0.0 - np.expm1(log_c)), rho, pre_prob


def run_protocol(spec: ProtocolSpec) -> ProtocolOutcome:
    """Run the full pipeline and report fidelity and success probabilities.

    Reports the fidelity and reversal success of the best candidate of
    spec.q_rule (see _candidates); ties within 1e-12 go to the weakest
    reversal, which has the higher success probability.  The final state is
    diag(1, 1, 1, -+u) rho' diag(1, 1, 1, -+u) of the scaled state rho',
    with u = 1 / sqrt(w), normalized; the sign is the sigma_z.
    """
    (strength, fidelity, success, w, q), rho, pre_prob = _candidates(spec)
    best = pick_best(strength, fidelity)
    u = w[best] ** -0.5
    weights = np.array([1.0, 1.0, 1.0, -u if spec.apply_sigma_z else u])
    kept = rho * np.outer(weights, weights)
    return ProtocolOutcome(
        fidelity=fidelity[best],
        q_used=q[best],
        final_state=kept / np.trace(kept).real,
        premeasure_success=pre_prob,
        reversal_success=success[best],
        success_probability=pre_prob * success[best],
    )
