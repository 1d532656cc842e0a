"""Closed-form evolution for the equal-decay-rate model.

When the resonator and both qubits decay at one common rate s and there is no
pure dephasing, every quantum jump lands in the joint ground state, which is
dark.  The density matrix is therefore the pure no-jump branch plus a ground
population making up the norm deficit, and all sixteen entries have explicit
expressions in terms of the coherent exchange amplitudes.
"""

import math

import numpy as np

from .core import QubitAmplitudes, check_strength


def transfer_amplitudes(g1: float, g2: float, t):
    """Coherent exchange amplitudes of an excitation that starts on qubit 1.

    Diagonalizing the exchange block on (qubit 1, photon, qubit 2), whose
    eigenfrequencies are 0 and +-r with r = sqrt(g1^2 + g2^2), gives

        c2(t) = (g1^2 cos(rt) + g2^2) / r^2        amplitude left on qubit 1
        c3(t) = -i (g1/r) sin(rt)                  amplitude on the photon
        c4(t) = -2 g1 g2 sin^2(rt/2) / r^2         amplitude on qubit 2

    Returns c2, i c3 and c4, which are all real; t broadcasts.  c4 is
    formed from sin^2(rt/2), as cos(rt) - 1 loses its digits at small rt.
    """
    r2 = g1 * g1 + g2 * g2
    rt = math.sqrt(r2) * np.asarray(t, dtype=float)
    cos_rt = np.cos(rt)
    c2 = (g1 * g1 * cos_rt + g2 * g2) / r2
    c4 = -2.0 * g1 * g2 * np.sin(0.5 * rt) ** 2 / r2
    return c2, g1 * np.sin(rt) / math.sqrt(r2), c4


def closed_form_factors(qubit: QubitAmplitudes, p, s, t, g1=1.0, g2=1.0):
    """(rho00, k, b, (c2, i c3, c4), e^{-st/2}, e^{-st}), the factors of the
    closed-form state.

    With the amplitudes (a1, a2, a3) = (d1, -i d2, d3), rho0j = k conj(aj)
    and rhoij = b ai conj(aj).  k = alpha beta* sqrt(1-p) / N1^2 and
    b = |beta|^2 (1-p) / N1^2 come from the pre-measurement, and
    rho00 = 1 + (alpha^2 / N1^2 - 1) e^{-st} makes up the trace.  The dj
    are the real exchange amplitudes (c2, i c3, c4) of transfer_amplitudes,
    which depend on t alone, times e^{-st/2}.  p, s and t broadcast.
    """
    alpha2 = qubit.alpha**2
    keep = 1.0 - np.asarray(p, dtype=float)
    n1_sq = alpha2 + abs(qubit.beta) ** 2 * keep
    st = np.asarray(s, dtype=float) * t
    decay = np.exp(-st)
    rho00 = 1.0 + (alpha2 / n1_sq - 1.0) * decay
    k = qubit.alpha * np.conj(qubit.beta) * np.sqrt(keep) / n1_sq
    b = abs(qubit.beta) ** 2 * keep / n1_sq
    return rho00, k, b, transfer_amplitudes(g1, g2, t), np.exp(-0.5 * st), decay


def analytic_rho(qubit: QubitAmplitudes, p, s, t, g1=1.0, g2=1.0, scaled=False) -> np.ndarray:
    """Density matrix at time t for the equal-decay-rate model.

    Starts from the post-measurement state of strength p and evolves under
    kappa = gamma1 = gamma2 = s with no dephasing: excited-sector entries
    are pairwise products of the exchange amplitudes damped by e^{-st};
    ground-excited coherences carry e^{-st/2}; the ground population
    absorbs the jump deficit, keeping the trace at exactly one.  With
    scaled, the qubit-2 row and column are multiplied by lambda = e^{st/2},
    as in integrate, so the state stays finite as e^{-st} underflows.  p, s,
    t and scaled broadcast; the result has shape (..., 4, 4).
    """
    if not (np.all(np.asarray(t) >= 0) and np.all(np.asarray(s) >= 0)):
        raise ValueError("time and decay rate must be non-negative")
    check_strength(p)
    rho00, k, b, (c2, ic3, c4), half_decay, _ = closed_form_factors(qubit, p, s, t, g1, g2)
    d3 = c4 * np.where(scaled, 1.0, half_decay)
    rho00, d1, d2, d3 = np.broadcast_arrays(rho00, c2 * half_decay, ic3 * half_decay, d3)
    amps = np.stack([d1, -1j * d2, d3], axis=-1)
    rho = np.empty(rho00.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho00
    rho[..., 0, 1:] = np.asarray(k)[..., None] * np.conj(amps)
    rho[..., 1:, 0] = np.conj(rho[..., 0, 1:])
    rho[..., 1:, 1:] = np.asarray(b)[..., None, None] * amps[..., :, None] * np.conj(amps[..., None, :])
    return rho
