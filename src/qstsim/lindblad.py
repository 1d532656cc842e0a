"""Exact master-equation propagation for arbitrary decay and dephasing rates.

The generator does not depend on time, so the master equation is solved
exactly by a matrix exponential: with the row-major vectorization
vec(rho)[4i + j] = rho[i, j], d vec(rho)/dt = L vec(rho) for a constant 16x16
Liouvillian L, and vec(rho(t)) = expm(L t) vec(rho(0)).  The cost does not
depend on how stiff the rates are.  The term-by-term right-hand side
:func:`lindblad_rhs` is kept as an independent check of L.
"""

from dataclasses import dataclass

import numpy as np

from .core import DIM, CollapseTerm, SystemParams, collapse_operators, hamiltonian


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration: times[i] goes with states[i]."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


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
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} state, got shape {rho.shape}")
    return _make_rhs(params)(rho)


def liouvillian(params: SystemParams) -> np.ndarray:
    """The 16x16 generator L with vec(d rho/dt) = L vec(rho), row-major vec.

    Assembled from the same Hamiltonian and collapse operators as
    :func:`lindblad_rhs`, using vec(A rho B) = (A kron B^T) vec(rho).
    """
    eye = np.eye(DIM)
    h = hamiltonian(params)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate, dephasing in collapse_operators(params):
        if dephasing:
            gen += 0.5 * rate * (np.kron(op, op.T) - np.eye(DIM * DIM))
        else:
            ldl = op.conj().T @ op
            gen += rate * (
                np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
            )
    return gen


def integrate(
    params: SystemParams,
    rho0: np.ndarray,
    sample_times: "list[float] | np.ndarray",
    scaled: bool = False,
) -> Trajectory:
    """The exact state at each sample time, starting from rho0 at t = 0.

    sample_times must be finite, non-negative and strictly increasing; a
    sample at t = 0 is rho0.  Every jump lands in the ground state and
    nothing feeds its population back, so only the other 15 entries are
    propagated and the ground population is the trace deficit.  With equal
    rates s they are propagated in the frame that multiplies the excited
    block by e^{st} and the ground coherences by e^{st/2}, where the
    generator has no net decay and nothing underflows; the frame is undone
    after sampling.  With scaled, which needs equal rates, the qubit-2 row
    and column keep their factor e^{st/2}, as in analytic_rho.

    Each sample is reached from the previous one by the propagator
    expm(G * gap), memoized by the exact float gap, so a uniform grid costs
    a handful of expm calls.  Every sample is Hermitized, rho <- (rho +
    rho^+)/2, and the next step starts from it.  A given input always
    reproduces the same output bit for bit.

    Raises FloatingPointError if a state is not finite.
    """
    from scipy.linalg import expm

    samples = np.asarray(sample_times, dtype=float)
    if samples.size == 0:
        raise ValueError("sample_times must not be empty")
    if not np.all(np.isfinite(samples)):
        raise ValueError("sample_times must be finite")
    if np.any(np.diff(samples) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if samples[0] < 0:
        raise ValueError("sample_times must be non-negative")
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} initial state, got {rho.shape}")
    s = params.equal_decay_rate()
    if s is None and scaled:
        raise ValueError("a scaled state needs kappa = gamma1 = gamma2")
    s = 0.0 if s is None else s

    rows, cols = np.divmod(np.arange(1, DIM * DIM), DIM)
    shift = 0.5 * s * (np.sign(rows) + np.sign(cols))  # s excited, s/2 ground coherences
    gen = liouvillian(params)[1:, 1:] + np.diag(shift)
    x = 0.5 * (rho + rho.conj().T)
    ground0 = x[0, 0].real
    x[0, 0] = 0.0
    excited0 = np.trace(x).real
    propagators: "dict[float, np.ndarray]" = {}
    frame = np.empty((samples.size, DIM, DIM), dtype=complex)
    t = 0.0
    for i, target in enumerate(samples.tolist()):
        gap = target - t
        if gap > 0:
            if gap not in propagators:
                propagators[gap] = expm(gen * gap)
            x = np.append(0.0, propagators[gap] @ x.reshape(-1)[1:]).reshape(DIM, DIM)
        x = 0.5 * (x + x.conj().T)
        frame[i] = x
        t = target

    # back from the frame: rows and columns 1..3 by e^{-st/2}, qubit 2's
    # excepted when scaled; the ground population from the true excited one
    weights = np.where([False, True, True, not scaled], np.exp(-0.5 * s * samples)[:, None], 1.0)
    states = frame * (weights[:, :, None] * weights[:, None, :])
    excited = np.exp(-s * samples) * np.trace(frame, axis1=1, axis2=2).real
    states[:, 0, 0] = ground0 + (excited0 - excited)
    bad = ~np.isfinite(states).all(axis=(1, 2))
    if bad.any():
        raise FloatingPointError(f"state is not finite at t = {samples[bad.argmax()]:.6g}")
    return Trajectory(times=samples, states=states)
