"""Independent references that only the tests use.

Each reaches a quantity the package computes by a different route, and
defines what it needs itself rather than sharing it with the code it
checks: the channel-level protocol (the partial-measurement Kraus pair, the
reversal as its three-step product, the reversal channel on the composite
system and the overlap with the target) instead of the closed-form
reversal outcome; the Hamiltonian, the jump operators and the master
equation term by term, as the 16x16 Liouvillian, instead of the two blocks
that the propagator builds from the rates; the no-jump branch as a pure
state propagated by scipy's matrix exponential of the effective
non-Hermitian generator instead of the closed forms or the package's own
propagator; and the best fidelity over the reversal time by a
golden-section search on the fidelity alone, one run_protocol call per
time, instead of the root of the slope for a whole batch.
"""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from qstsim.core import QubitAmplitudes, SystemParams
from qstsim.protocol import ProtocolSpec, full_transfer_time, run_protocol

# the composite basis: ground, qubit 1 excited, one photon, qubit 2 excited
GROUND, QUBIT1, PHOTON, QUBIT2 = range(4)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def m0_operator(p: float) -> np.ndarray:
    """Kraus operator of the kept (qubit-not-excited) branch, diag(1, sqrt(1-p))."""
    return np.diag([1.0, math.sqrt(1.0 - p)]).astype(complex)


def m1_operator(p: float) -> np.ndarray:
    """Kraus operator of the discarded (qubit tunneled) branch, diag(0, sqrt(p))."""
    return np.diag([0.0, math.sqrt(p)]).astype(complex)


def reversal_operator(q: float) -> np.ndarray:
    """The undo of a partial measurement of strength q < 1, as the three
    steps that realize it: bit flip, partial measurement of strength q, bit
    flip, scaled by 1/sqrt(1-q)."""
    return PAULI_X @ m0_operator(q) @ PAULI_X / math.sqrt(1.0 - q)


def embed_qubit2_op(op2x2: np.ndarray) -> np.ndarray:
    """A single-qubit operator on qubit 2 in the composite basis.

    Qubit 2 is in |1> only in basis state 3 and in |0> in basis states 0..2.
    Raising it out of basis states 1 or 2 would create a second excitation,
    which the basis excludes, so the only off-diagonal pair kept is 0 <-> 3.
    """
    op = np.asarray(op2x2, dtype=complex)
    out = np.diag([op[0, 0], op[0, 0], op[0, 0], op[1, 1]])
    out[GROUND, QUBIT2], out[QUBIT2, GROUND] = op[0, 1], op[1, 0]
    return out


# sigma_z with sigma_z|1> = +|1>; qubit 1 is excited only in basis state 1
SIGMA_Z1 = np.diag([-1.0, 1.0, -1.0, -1.0]).astype(complex)
SIGMA_Z2 = embed_qubit2_op(np.diag([-1.0, 1.0]))


class PostSelected(NamedTuple):
    """Normalized state of a kept branch and the probability of keeping it."""

    state: np.ndarray
    success_probability: float


def apply_reversal_qubit2(rho: np.ndarray, q: float, apply_sigma_z: bool = True) -> PostSelected:
    """The reversal channel on the composite state: the kept branch of the
    three-step reversal of strength q lifted onto qubit 2 (without its
    1/sqrt(1-q), which normalizing removes), then a sigma_z on qubit 2 if
    asked.  Its probability is 1 - q + q rho33 for a unit-trace rho."""
    kraus = embed_qubit2_op(PAULI_X @ m0_operator(q) @ PAULI_X)
    kept = kraus @ np.asarray(rho, dtype=complex) @ kraus
    prob = float(np.trace(kept).real)
    if apply_sigma_z:
        kept = SIGMA_Z2 @ kept @ SIGMA_Z2
    return PostSelected(kept / prob, prob)


def q_formula(p: float, s: float, t: float) -> float:
    """The closed-form reversal strength q = 1 - (1-p) e^{-st}."""
    return 1.0 - (1.0 - p) * math.exp(-s * t)


def fidelity_to_target(rho: np.ndarray, qubit: QubitAmplitudes) -> float:
    """<target| rho |target> with the target alpha|ground> + beta|qubit 2 excited>."""
    phi = np.array([qubit.alpha, 0.0, 0.0, qubit.beta], dtype=complex)
    return float(np.real(np.vdot(phi, rho @ phi)))


def hamiltonian(params: SystemParams) -> np.ndarray:
    """The resonant exchange Hamiltonian in the composite basis: qubit 1 and
    the photon swap at rate g1, the photon and qubit 2 at rate g2, and the
    ground state is decoupled."""
    h = np.zeros((4, 4), dtype=complex)
    h[QUBIT1, PHOTON] = h[PHOTON, QUBIT1] = params.g1
    h[PHOTON, QUBIT2] = h[QUBIT2, PHOTON] = params.g2
    return h


class CollapseTerm(NamedTuple):
    """One dissipation channel: jump operator, rate and dissipator flavour.

    For ``dephasing=False`` the master equation uses the lowering-operator
    form rate * (L rho L+ - {L+ L, rho}/2).  For ``dephasing=True`` (L is a
    sigma_z) it uses (rate/2) * (L rho L - rho).
    """

    op: np.ndarray
    rate: float
    dephasing: bool = False


def _lowering(src: int) -> np.ndarray:
    op = np.zeros((4, 4), dtype=complex)
    op[GROUND, src] = 1.0
    return op


def collapse_operators(params: SystemParams) -> list[CollapseTerm]:
    """Jump operators with their rates, channels with zero rate omitted.

    Photon loss and either qubit's emission all deposit the excitation in
    the joint ground state: |g><photon|, |g><qubit1| and |g><qubit2|.  Pure
    dephasing adds the two embedded sigma_z operators, each with rate
    gamma_phi.
    """
    terms = [
        CollapseTerm(_lowering(PHOTON), params.kappa),
        CollapseTerm(_lowering(QUBIT1), params.gamma1),
        CollapseTerm(_lowering(QUBIT2), params.gamma2),
        CollapseTerm(SIGMA_Z1, params.gamma_phi, dephasing=True),
        CollapseTerm(SIGMA_Z2, params.gamma_phi, dephasing=True),
    ]
    return [term for term in terms if term.rate > 0]


def liouvillian_by_terms(params: SystemParams) -> np.ndarray:
    """The 16x16 generator of the row-major vec(rho), one np.kron per term:
    vec(A rho B) = (A kron B^T) vec(rho), each term of collapse_operators
    in the lowering-operator form at rate gamma, or gamma/2 for a sigma_z."""
    eye = np.eye(4)
    h = hamiltonian(params)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate, dephasing in collapse_operators(params):
        rate = 0.5 * rate if dephasing else rate
        ldl = op.conj().T @ op
        gen += rate * (np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return gen


def _split_terms(terms: list[CollapseTerm]):
    lowering = [t for t in terms if not t.dephasing]
    dephasing = [t for t in terms if t.dephasing]
    if lowering:
        ops = np.stack([t.op for t in lowering])
        ops_dag = ops.conj().transpose(0, 2, 1)
        rates = np.array([t.rate for t in lowering])
        # anticommutator partner (1/2) sum_k rate_k L_k^+ L_k, Hermitian
        half_ldl = 0.5 * np.tensordot(rates, ops_dag @ ops, axes=1)
    else:
        ops = ops_dag = rates = half_ldl = None
    deph = [(0.5 * t.rate, t.op) for t in dephasing]
    return ops, ops_dag, rates, half_ldl, deph


def _make_rhs(params: SystemParams):
    h = hamiltonian(params)
    ops, ops_dag, rates, half_ldl, deph = _split_terms(collapse_operators(params))

    def rhs(rho: np.ndarray) -> np.ndarray:
        drho = -1j * (h @ rho - rho @ h)
        if ops is not None:
            drho += np.tensordot(rates, ops @ rho @ ops_dag, axes=1)
            drho -= half_ldl @ rho + rho @ half_ldl
        for half_rate, z in deph:
            drho += half_rate * (z @ rho @ z - rho)
        return drho

    return rhs


def lindblad_rhs(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation, d rho / d t.

    -i[H, rho] plus the lowering-operator dissipators for photon loss and
    qubit emission, plus (gamma_phi/2)(Z rho Z - rho) for each qubit when
    dephasing is on.  The output is Hermitian and traceless for Hermitian
    input.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got shape {rho.shape}")
    return _make_rhs(params)(rho)


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
    population, reproduces analytic_rho.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    psi0 = np.zeros(4, dtype=complex)
    psi0[GROUND] = qubit.alpha
    psi0[QUBIT1] = qubit.beta * math.sqrt(1.0 - p)
    psi0 /= np.linalg.norm(psi0)
    return expm(_effective_generator(g1, g2, s) * t) @ psi0


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


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Scalar golden-section search for the maximum of a unimodal f on
    [lo, hi], on values alone: the bracket shrinks by the golden ratio until
    it is narrower than tol, or than four ulps of its larger end, where
    rounding would stall it.  Returns the better interior point and its
    value."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def max_fidelity_over_time(spec: ProtocolSpec, t_max: float, coarse_points: int = 120) -> tuple[float, float]:
    """Best protocol fidelity over the reversal time in (0, t_max].

    A uniform coarse scan, then a golden-section search on the fidelity
    alone, bracketed by the best point's neighbours, or from a millionth of
    the first point when that is the best; the result never falls below the
    best coarse sample, and ties within 1e-12 go to the smaller time.  Each
    time runs run_protocol, so any spec and engine can be maximized.  The
    fidelity is flat at its maximum, so the time found is good to about
    1e-8 and its fidelity to rounding.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if coarse_points < 100:
        raise ValueError("coarse_points must be at least 100")

    def fidelity(t: float) -> float:
        return run_protocol(replace(spec, transfer_time=float(t))).fidelity

    times = np.linspace(0.0, t_max, coarse_points + 1)[1:]
    values = np.array([fidelity(t) for t in times])
    i = int(np.argmax(values >= values.max() - 1e-12))
    lo = times[i - 1] if i > 0 else times[0] * 1e-6
    t_ref, f_ref = golden_section_max(fidelity, lo, times[min(i + 1, len(times) - 1)], 1e-10)
    if f_ref > values[i] + 1e-12 or (f_ref >= values[i] - 1e-12 and t_ref < times[i]):
        return float(t_ref), float(f_ref)
    return float(times[i]), float(values[i])
