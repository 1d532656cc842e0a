"""Closed-form evolution for the equal-decay-rate model.

When the resonator and both qubits decay at one common rate s and there is no
pure dephasing, every quantum jump lands in the joint ground state, which is
dark.  The density matrix is therefore the pure no-jump branch plus a ground
population making up the norm deficit, and all sixteen entries have explicit
expressions in terms of the coherent exchange amplitudes.  The no-jump vector
is also computed here by matrix exponentiation of the effective non-Hermitian
generator, which provides an independent route to the same state and is used
to cross-check the closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import GROUND, QUBIT1, SystemParams, collapse_operators, hamiltonian


@dataclass(frozen=True)
class AnalyticInputs:
    """Everything the closed forms need: the prepared qubit state (alpha,
    beta), the strength p of the pre-transfer partial measurement, the common
    decay rate s and the two couplings."""

    alpha: float
    beta: complex
    p: float
    s: float
    g1: float
    g2: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm = self.alpha**2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"require alpha^2 + |beta|^2 = 1, got {norm!r}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("measurement strength p must lie in [0, 1)")
        if self.s < 0:
            raise ValueError("decay rate s must be non-negative")
        if self.g1 < 0 or self.g2 < 0 or (self.g1 == 0 and self.g2 == 0):
            raise ValueError("couplings must be non-negative with g1^2 + g2^2 > 0")

    @property
    def n1_sq(self) -> float:
        """Retained-branch probability of the pre-measurement, N1^2."""
        return self.alpha**2 + abs(self.beta) ** 2 * (1.0 - self.p)

    @property
    def a(self) -> float:
        """Initial ground population alpha^2 / N1^2."""
        return self.alpha**2 / self.n1_sq

    @property
    def b(self) -> float:
        """Initial excited population |beta|^2 (1-p) / N1^2."""
        return abs(self.beta) ** 2 * (1.0 - self.p) / self.n1_sq

    @property
    def c(self) -> complex:
        """Initial ground-excited coherence alpha beta* sqrt(1-p) / N1^2."""
        return self.alpha * np.conj(self.beta) * math.sqrt(1.0 - self.p) / self.n1_sq

    @property
    def r(self) -> float:
        return math.hypot(self.g1, self.g2)


def transfer_amplitudes(g1: float, g2: float, t: float) -> tuple[complex, complex, complex]:
    """Coherent exchange amplitudes of an excitation that starts on qubit 1.

    Diagonalizing the exchange block on (qubit 1, photon, qubit 2), whose
    eigenfrequencies are 0 and +-r with r = sqrt(g1^2 + g2^2), gives

        c2(t) = (g1^2 cos(rt) + g2^2) / r^2        amplitude left on qubit 1
        c3(t) = -i (g1/r) sin(rt)                  amplitude on the photon
        c4(t) = g1 g2 (cos(rt) - 1) / r^2          amplitude on qubit 2
    """
    r2 = g1 * g1 + g2 * g2
    rt = math.sqrt(r2) * t
    cos_rt = math.cos(rt)
    c2 = (g1 * g1 * cos_rt + g2 * g2) / r2
    c3 = -1j * g1 * math.sin(rt) / math.sqrt(r2)
    c4 = g1 * g2 * (cos_rt - 1.0) / r2
    return complex(c2), complex(c3), complex(c4)


def analytic_rho(inputs: AnalyticInputs, t: float) -> np.ndarray:
    """Density matrix at time t for the equal-decay-rate model.

    Assembled from the no-jump amplitudes: excited-sector entries are their
    pairwise products damped by exp(-s t); ground-excited coherences carry
    exp(-s t / 2); the ground population absorbs the jump deficit, keeping
    the trace at exactly one.  Valid from the post-measurement state, for
    kappa = gamma1 = gamma2 = s and no dephasing.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    decay = math.exp(-inputs.s * t)
    half_decay = math.exp(-0.5 * inputs.s * t)
    amps = np.array(transfer_amplitudes(inputs.g1, inputs.g2, t))

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 + (inputs.a - 1.0) * decay
    rho[0, 1:] = inputs.c * np.conj(amps) * half_decay
    rho[1:, 0] = np.conj(rho[0, 1:])
    rho[1:, 1:] = inputs.b * np.outer(amps, np.conj(amps)) * decay
    return rho


def _effective_generator(g1: float, g2: float, s: float) -> np.ndarray:
    """No-jump generator -iH - (1/2) sum_k rate_k L_k^+ L_k for equal rates."""
    params = SystemParams(g1=g1, g2=g2, kappa=s, gamma1=s, gamma2=s)
    gen = -1j * hamiltonian(params)
    for term in collapse_operators(params):
        gen -= 0.5 * term.rate * (term.op.conj().T @ term.op)
    return gen


def nojump_amplitudes(inputs: AnalyticInputs, t: float) -> np.ndarray:
    """Sub-normalized amplitudes of the no-jump branch at time t.

    Starts from the normalized post-measurement state (alpha, beta sqrt(1-p),
    0, 0)/N1 and propagates it with the exponential of the effective
    non-Hermitian generator.  The squared norm is the no-jump probability;
    the outer product of this vector, with the deficit added to the ground
    population, reproduces :func:`analytic_rho`.
    """
    from scipy.linalg import expm

    if t < 0:
        raise ValueError("time must be non-negative")
    n1 = math.sqrt(inputs.n1_sq)
    psi0 = np.zeros(4, dtype=complex)
    psi0[GROUND] = inputs.alpha / n1
    psi0[QUBIT1] = inputs.beta * math.sqrt(1.0 - inputs.p) / n1
    gen = _effective_generator(inputs.g1, inputs.g2, inputs.s)
    return expm(gen * t) @ psi0
