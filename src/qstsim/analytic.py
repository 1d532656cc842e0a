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

import numpy as np

from .core import GROUND, QUBIT1, QubitAmplitudes, SystemParams, collapse_operators, hamiltonian


def transfer_amplitudes(g1: float, g2: float, t):
    """Coherent exchange amplitudes of an excitation that starts on qubit 1.

    Diagonalizing the exchange block on (qubit 1, photon, qubit 2), whose
    eigenfrequencies are 0 and +-r with r = sqrt(g1^2 + g2^2), gives

        c2(t) = (g1^2 cos(rt) + g2^2) / r^2        amplitude left on qubit 1
        c3(t) = -i (g1/r) sin(rt)                  amplitude on the photon
        c4(t) = g1 g2 (cos(rt) - 1) / r^2          amplitude on qubit 2

    Returns c2, i c3 and c4, which are all real; t broadcasts.
    """
    r2 = g1 * g1 + g2 * g2
    rt = math.sqrt(r2) * np.asarray(t, dtype=float)
    cos_rt = np.cos(rt)
    c2 = (g1 * g1 * cos_rt + g2 * g2) / r2
    c4 = g1 * g2 * (cos_rt - 1.0) / r2
    return c2, g1 * np.sin(rt) / math.sqrt(r2), c4


def closed_form_factors(qubit: QubitAmplitudes, p, s, t, g1=1.0, g2=1.0, scaled=False):
    """(rho00, k, b, (d1, d2, d3), e^{-st}), the factors of the closed-form state.

    With the amplitudes (a1, a2, a3) = (d1, -i d2, d3), rho0j = k conj(aj)
    and rhoij = b ai conj(aj).  k = alpha beta* sqrt(1-p) / N1^2 and
    b = |beta|^2 (1-p) / N1^2 come from the pre-measurement, dj is the
    real exchange amplitude of transfer_amplitudes damped by e^{-st/2}, and
    rho00 = 1 + (alpha^2 / N1^2 - 1) e^{-st} makes up the trace.  With
    scaled, d3 keeps its undamped value: the qubit-2 row and column are
    multiplied by e^{st/2}, so the state stays finite as e^{-st} underflows.
    p, s, t and scaled broadcast.
    """
    alpha2 = qubit.alpha**2
    keep = 1.0 - np.asarray(p, dtype=float)
    n1_sq = alpha2 + abs(qubit.beta) ** 2 * keep
    st = np.asarray(s, dtype=float) * t
    half_decay = np.exp(-0.5 * st)
    c2, ic3, c4 = transfer_amplitudes(g1, g2, t)
    damped = (c2 * half_decay, ic3 * half_decay, c4 * np.where(scaled, 1.0, half_decay))
    decay = np.exp(-st)
    rho00 = 1.0 + (alpha2 / n1_sq - 1.0) * decay
    k = qubit.alpha * np.conj(qubit.beta) * np.sqrt(keep) / n1_sq
    return rho00, k, abs(qubit.beta) ** 2 * keep / n1_sq, damped, decay


def analytic_rho(qubit: QubitAmplitudes, p, s, t, g1=1.0, g2=1.0, scaled=False) -> np.ndarray:
    """Density matrix at time t for the equal-decay-rate model.

    Starts from the post-measurement state of strength p and evolves under
    kappa = gamma1 = gamma2 = s with no dephasing: excited-sector entries
    are pairwise products of the exchange amplitudes damped by e^{-st};
    ground-excited coherences carry e^{-st/2}; the ground population
    absorbs the jump deficit, keeping the trace at exactly one.  With
    scaled, the qubit-2 row and column are multiplied by e^{st/2}, the
    state the closed-form reversal sees (see closed_form_factors).  p, s, t
    and scaled broadcast; the result has shape (..., 4, 4).
    """
    if not (np.all(np.asarray(t) >= 0) and np.all(np.asarray(s) >= 0)):
        raise ValueError("time and decay rate must be non-negative")
    if not np.all((np.asarray(p) >= 0) & (np.asarray(p) < 1)):
        raise ValueError("measurement strength p must lie in [0, 1)")
    rho00, k, b, damped, _ = closed_form_factors(qubit, p, s, t, g1, g2, scaled)
    rho00, d1, d2, d3 = np.broadcast_arrays(rho00, *damped)
    amps = np.stack([d1, -1j * d2, d3], axis=-1)
    rho = np.empty(rho00.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho00
    rho[..., 0, 1:] = np.asarray(k)[..., None] * np.conj(amps)
    rho[..., 1:, 0] = np.conj(rho[..., 0, 1:])
    rho[..., 1:, 1:] = np.asarray(b)[..., None, None] * amps[..., :, None] * np.conj(amps[..., None, :])
    return rho


def _effective_generator(g1: float, g2: float, s: float) -> np.ndarray:
    """No-jump generator -iH - (1/2) sum_k rate_k L_k^+ L_k for equal rates."""
    params = SystemParams(g1=g1, g2=g2, kappa=s, gamma1=s, gamma2=s)
    gen = -1j * hamiltonian(params)
    for term in collapse_operators(params):
        gen -= 0.5 * term.rate * (term.op.conj().T @ term.op)
    return gen


def nojump_amplitudes(
    qubit: QubitAmplitudes, p: float, s: float, t: float, g1: float = 1.0, g2: float = 1.0
) -> np.ndarray:
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
    psi0 = np.zeros(4, dtype=complex)
    psi0[GROUND] = qubit.alpha
    psi0[QUBIT1] = qubit.beta * math.sqrt(1.0 - p)
    psi0 /= np.linalg.norm(psi0)
    return expm(_effective_generator(g1, g2, s) * t) @ psi0
