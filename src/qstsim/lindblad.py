"""Exact master-equation propagation for arbitrary decay and dephasing rates.

The generator does not depend on time, so the master equation is solved
exactly by a matrix exponential: with the row-major vectorization
vec(rho)[4i + j] = rho[i, j], d vec(rho)/dt = L vec(rho) for a constant 16x16
Liouvillian L, and vec(rho(t)) = exp(L t) vec(rho(0)).  The exponential is
the numpy scaling-and-squaring Pade propagator :func:`expm_stack`, so the
cost does not depend on how stiff the rates are and only numpy is needed.
"""

import functools

import numpy as np

from .core import DIM, GROUND, PHOTON, QUBIT1, QUBIT2, SIGMA_Z1, SIGMA_Z2, SystemParams, hamiltonian


# b_0..b_13 of the degree-13 Pade approximant to exp, and the 1-norm
# theta_13 up to which it is exact to double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack of shape (k, n, n).

    Scaling and squaring with the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): each matrix is divided by its
    own power of two 2^s, the smallest that brings its 1-norm to theta_13,
    and its approximant is squared s times.  Every matrix comes out as it
    would alone; an empty stack gives an empty stack.
    """
    mantissa, exponent = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(norm / theta_13)), at least 0
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = np.linalg.solve(v - u, v + u)
    for _ in range(s.min(initial=0)):
        x = x @ x
    for step in range(s.min(initial=0), s.max(initial=0)):
        x = np.where((s > step)[:, None, None], x @ x, x)
    return x


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two DIM x DIM matrices, as one broadcast outer product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(DIM * DIM, DIM * DIM)


def _lowering(src: int) -> np.ndarray:
    """|ground><src|: photon loss and either qubit's emission all deposit the
    excitation in the joint ground state."""
    op = np.zeros((DIM, DIM), dtype=complex)
    op[GROUND, src] = 1.0
    return op


def liouvillian(params: SystemParams) -> np.ndarray:
    """The 16x16 generator L with vec(d rho/dt) = L vec(rho), row-major vec.

    -i[H, rho] plus the dissipator rate (L rho L^+ - {L^+ L, rho}/2) of each
    channel with a positive rate: the lowering operators of photon loss and
    qubit emission, and, for dephasing, each qubit's sigma_z at rate
    gamma_phi/2, which is (gamma_phi/2)(Z rho Z - rho) as Z^+ Z = 1.
    Assembled with vec(A rho B) = (A kron B^T) vec(rho).
    """
    eye = np.eye(DIM)
    h = hamiltonian(params)
    gen = -1j * (_kron(h, eye) - _kron(eye, h.T))
    channels = (
        (_lowering(PHOTON), params.kappa),
        (_lowering(QUBIT1), params.gamma1),
        (_lowering(QUBIT2), params.gamma2),
        (SIGMA_Z1, 0.5 * params.gamma_phi),
        (SIGMA_Z2, 0.5 * params.gamma_phi),
    )
    for op, rate in channels:
        if rate > 0:
            ldl = op.conj().T @ op
            gen += rate * (_kron(op, op.conj()) - 0.5 * (_kron(ldl, eye) + _kron(eye, ldl.T)))
    return gen


_EXCITED = np.outer(np.arange(DIM) > 0, np.arange(DIM) > 0)  # rho[i, j] with i, j > 0


def _abscissa(block: np.ndarray) -> float:
    """Largest real part of the eigenvalues of block, found about its largest
    diagonal entry, so that they round with the spread of the rates."""
    shift = block.diagonal().real.max()
    return float(shift + np.linalg.eigvals(block - shift * np.eye(len(block))).real.max())


@functools.lru_cache(maxsize=1)  # integrate and its caller read one frame
def decay_frame(params: SystemParams) -> tuple[np.ndarray, float, float]:
    """The generator of the 15 entries other than rho00 in the decay frame,
    and the spectral abscissae it removes: a_exc <= 0 of the 9 excited
    entries, a_coh <= a_exc / 2 of the 6 ground coherences (-s and -s/2 at
    equal rates s), clipped to those bounds against rounding."""
    gen = liouvillian(params)[1:, 1:]
    excited = _EXCITED.reshape(-1)[1:]
    a_exc = min(_abscissa(gen[np.ix_(excited, excited)]), 0.0)
    a_coh = min(_abscissa(gen[np.ix_(~excited, ~excited)]), 0.5 * a_exc)
    gen -= np.diag(np.where(excited, a_exc, a_coh))
    gen.setflags(write=False)
    return gen, a_exc, a_coh


def integrate(
    params: SystemParams,
    rho0: np.ndarray,
    sample_times: "list[float] | np.ndarray",
    scaled: bool = False,
) -> np.ndarray:
    """The exact state at each sample time, starting from rho0 at t = 0: a
    stack of shape (len(sample_times), 4, 4), whose i-th state is the one
    at sample_times[i].

    sample_times must be finite, non-negative and strictly increasing; a
    sample at t = 0 is rho0.  The ground population is the trace deficit,
    and the other 15 entries are propagated in the decay_frame, where
    nothing underflows.  With scaled, the qubit-2 row and column keep
    lambda = e^{-a_exc t/2} (e^{st/2} at equal rates, as in analytic_rho):
    lambda^2 rho33 is a frame entry and lambda rho03 one times e^{(a_coh -
    a_exc/2) t} <= 1, so neither overflows.

    Each sample is reached from the previous one by the propagator
    exp(G * gap), one per distinct exact float gap, all from one expm_stack
    evaluation, so a uniform grid costs a handful of propagators.  Every
    sample is Hermitized, rho <- (rho + rho^+)/2, and the next step starts
    from it.  A given input always reproduces the same output bit for bit.

    Raises FloatingPointError if a state is not finite.
    """
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

    gen, a_exc, a_coh = decay_frame(params)
    x = 0.5 * (rho + rho.conj().T)
    ground0 = x[0, 0].real
    x[0, 0] = 0.0
    excited0 = np.trace(x).real
    gaps = np.diff(samples, prepend=0.0)
    distinct = np.unique(gaps[gaps > 0])
    propagators = dict(zip(distinct.tolist(), expm_stack(gen * distinct[:, None, None])))
    frame = np.empty((samples.size, DIM, DIM), dtype=complex)
    for i, gap in enumerate(gaps.tolist()):
        if gap > 0:
            x = np.append(0.0, propagators[gap] @ x.reshape(-1)[1:]).reshape(DIM, DIM)
        x = 0.5 * (x + x.conj().T)
        frame[i] = x

    # back from the frame, with lambda when scaled; the ground population
    # from the true excited one
    rates = np.where(_EXCITED, a_exc, a_coh)
    if scaled:
        rates[QUBIT2, :] -= 0.5 * a_exc
        rates[:, QUBIT2] -= 0.5 * a_exc
    states = frame * np.exp(samples[:, None, None] * rates)
    excited = np.exp(a_exc * samples) * np.trace(frame, axis1=1, axis2=2).real
    states[:, GROUND, GROUND] = ground0 + (excited0 - excited)
    bad = ~np.isfinite(states).all(axis=(1, 2))
    if bad.any():
        raise FloatingPointError(f"state is not finite at t = {samples[bad.argmax()]:.6g}")
    return states
