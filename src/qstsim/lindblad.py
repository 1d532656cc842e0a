"""Exact master-equation propagation for arbitrary decay and dephasing rates.

Every jump of the model, photon loss or either qubit's emission, lands in the
dark ground state, and dephasing only damps coherences, so the master
equation splits (Plenio & Knight, Rev. Mod. Phys. 70, 101 (1998)): the 9
excited entries rho[1:, 1:] and the 3 ground coherences rho[0, 1:] evolve on
their own under the no-jump block of the generator, rho[1:, 0] is the
conjugate of rho[0, 1:], and rho00 takes the trace deficit.  That generator
does not depend on time, so the 12 entries are propagated exactly by a
matrix exponential, the numpy scaling-and-squaring Pade propagator
:func:`expm_stack`; the cost does not depend on how stiff the rates are and
only numpy is needed.
"""

import functools

import numpy as np

from .core import DIM, GROUND, QUBIT2, SystemParams


# b_0..b_13 of the degree-13 Pade approximant to exp, and the 1-norm
# theta_13 up to which it is exact to double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
_SLACK = 1e-9  # what rounding may take from a population


def _squarings(norm: np.ndarray) -> np.ndarray:
    """ceil(log2(norm / theta_13)), at least 0: the squarings that follow the
    approximant of a matrix of 1-norm norm."""
    mantissa, exponent = np.frexp(norm / _THETA13)
    return np.maximum(exponent - (mantissa == 0.5), 0)


def expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack of shape (k, n, n).

    Scaling and squaring with the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): each matrix is divided by its
    own power of two 2^s, the smallest that brings its 1-norm to theta_13,
    and its approximant is squared s times.  Every matrix comes out as it
    would alone; an empty stack gives an empty stack.
    """
    s = _squarings(np.abs(a).sum(axis=-2).max(axis=-1))
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


# n_ij: the qubits excited in exactly one of basis states i and j (qubit 1
# in state 1, qubit 2 in state 3); dephasing damps rho[i, j] at gamma_phi n_ij
_DEPHASED = np.array([[0, 1, 0, 1], [1, 0, 1, 2], [0, 1, 0, 1], [1, 2, 1, 0]])


def _abscissa(block: np.ndarray) -> float:
    """Largest real part of the eigenvalues of block, found about its largest
    diagonal entry, so that they round with the spread of the rates."""
    shift = block.diagonal().real.max()
    return float(shift + np.linalg.eigvals(block - shift * np.eye(len(block))).real.max())


@functools.lru_cache(maxsize=1)  # integrate and its caller read one frame
def decay_frame(params: SystemParams) -> tuple[np.ndarray, float, float]:
    """The generator of the 12 propagated entries in the decay frame, and
    the spectral abscissae it removes.

    The entries are the 9 excited ones, rho[1:, 1:] row by row, then the 3
    ground coherences rho[0, 1:].  With the no-jump block X = -iH -
    diag(gamma1, kappa, gamma2)/2 on (qubit 1, photon, qubit 2), the
    generator is X kron 1 + 1 kron conj(X) on the first and conj(X) on the
    second, less gamma_phi n_ij on entry (i, j).  a_exc <= 0 and a_coh <=
    a_exc / 2 (-s and -s/2 at equal rates s) are those of the two blocks,
    clipped to those bounds against rounding.
    """
    g1, g2 = params.g1, params.g2
    h = np.array([[0.0, g1, 0.0], [g1, 0.0, g2], [0.0, g2, 0.0]], dtype=complex)
    x = -1j * h - 0.5 * np.diag([params.gamma1, params.kappa, params.gamma2])
    gen = np.zeros((12, 12), dtype=complex)
    eye = np.eye(3)
    # X kron 1 + 1 kron conj(X), as broadcast outer products
    gen[:9, :9] = (
        x[:, None, :, None] * eye[None, :, None, :] + eye[:, None, :, None] * x.conj()[None, :, None, :]
    ).reshape(9, 9)
    gen[9:, 9:] = x.conj()
    gen -= params.gamma_phi * np.diag(np.append(_DEPHASED[1:, 1:], _DEPHASED[0, 1:]))
    a_exc = min(_abscissa(gen[:9, :9]), 0.0)
    a_coh = min(_abscissa(gen[9:, 9:]), 0.5 * a_exc)
    gen -= np.diag(np.repeat([a_exc, a_coh], [9, 3]))
    gen.setflags(write=False)
    return gen, a_exc, a_coh


# a step that overflows, in the squarings or after, leaves a state that is
# not finite, which integrate reports
@np.errstate(over="ignore", invalid="ignore")
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
    and the other 12 entries are propagated in the decay_frame, where
    nothing underflows.  With scaled, the qubit-2 row and column keep
    lambda = e^{-a_exc t/2} (e^{st/2} at equal rates, as in analytic_rho):
    lambda^2 rho33 is a frame entry and lambda rho03 one times e^{(a_coh -
    a_exc/2) t} <= 1, so neither overflows.

    Each sample is reached from the previous one by the propagator
    exp(G * gap), one per distinct exact float gap, all from one expm_stack
    evaluation, so a uniform grid costs a handful of propagators.  At every
    sample the excited block is Hermitized, rho <- (rho + rho^+)/2, and the
    next step starts from it; rho[1:, 0] is the conjugate of rho[0, 1:].  A
    given input always reproduces the same output bit for bit.

    Each of the s squarings of a propagator doubles its rounding, to about
    eps 2^s, and the steps add theirs up.  Raises FloatingPointError where
    that sum exceeds 1e-9, as it does from g t of about 5.6e6 on at equal
    rates; and if a state is not finite, or not positive: a population
    below -1e-9, or some |rho_ij|^2 above (rho_ii + 1e-9)(rho_jj + 1e-9),
    which lambda does not change.
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
    excited0 = np.trace(x[1:, 1:]).real
    gaps = np.diff(samples, prepend=0.0)
    distinct, counts = np.unique(gaps[gaps > 0], return_counts=True)
    # the propagated entries came within 0.8 eps 2^s of 50-digit ones at
    # equal rates for g t from 1e2 to 1e12, and under gamma_phi up to 1e6
    squarings = _squarings(np.abs(gen).sum(axis=0).max() * distinct)
    rounding = np.finfo(float).eps * (counts * np.ldexp(1.0, squarings)).sum()
    if rounding > _SLACK:
        raise FloatingPointError(
            f"the squarings of the propagators to t = {samples[-1]:.6g} may round the state"
            f" by {rounding:.2g}, above {_SLACK:g}"
        )
    propagators = dict(zip(distinct.tolist(), expm_stack(gen * distinct[:, None, None])))
    entries = np.empty((samples.size, 12), dtype=complex)
    v = np.append(x[1:, 1:], x[0, 1:])
    for i, gap in enumerate(gaps.tolist()):
        if gap > 0:
            v = propagators[gap] @ v
            block = v[:9].reshape(3, 3)
            v[:9] = (0.5 * (block + block.conj().T)).reshape(-1)
        entries[i] = v
    frame = np.zeros((samples.size, DIM, DIM), dtype=complex)
    frame[:, 1:, 1:] = entries[:, :9].reshape(-1, 3, 3)
    frame[:, 0, 1:] = entries[:, 9:]
    frame[:, 1:, 0] = entries[:, 9:].conj()

    # back from the frame, with lambda when scaled; the ground population
    # from the true excited one
    rates = np.full((DIM, DIM), a_coh)
    rates[1:, 1:] = a_exc
    if scaled:
        rates[QUBIT2, :] -= 0.5 * a_exc
        rates[:, QUBIT2] -= 0.5 * a_exc
    states = frame * np.exp(samples[:, None, None] * rates)
    excited = np.exp(a_exc * samples) * np.trace(frame, axis1=1, axis2=2).real
    states[:, GROUND, GROUND] = ground0 + (excited0 - excited)
    bad = ~np.isfinite(states).all(axis=(1, 2))
    if bad.any():
        raise FloatingPointError(f"state is not finite at t = {samples[bad.argmax()]:.6g}")
    # rounding grown through many squarings shows as a population below
    # -_SLACK, or as a coherence larger than its two populations allow
    populations = states.diagonal(axis1=1, axis2=2).real
    root = np.sqrt(np.maximum(populations, 0.0) + _SLACK)
    bad = (populations < -_SLACK).any(axis=1) | (
        np.abs(states) > root[:, :, None] * root[:, None, :]
    ).any(axis=(1, 2))
    if bad.any():
        raise FloatingPointError(f"state is not positive at t = {samples[bad.argmax()]:.6g}")
    return states
