"""Single-excitation model of two qubits exchanging one quantum via a lossy resonator.

The whole package works in the four-dimensional subspace spanned by the joint
ground state and the three one-excitation states.  The basis ordering is fixed
here once and used verbatim everywhere:

    index 0   |0>_1 |0>_2 |0>_c    no excitation anywhere
    index 1   |1>_1 |0>_2 |0>_c    qubit 1 excited
    index 2   |0>_1 |0>_2 |1>_c    one photon in the resonator
    index 3   |0>_1 |1>_2 |0>_c    qubit 2 excited

The truncation is exact for this protocol: the prepared state carries at most
one excitation and every generator used here is excitation non-increasing.
Couplings and decay rates share a single inverse-time unit (hbar = 1); times
are usually quoted as the dimensionless product g*t.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DIM = 4
GROUND, QUBIT1, PHOTON, QUBIT2 = range(DIM)

# sigma_z of each qubit embedded in the composite basis.  Sign convention:
# sigma_z|1> = +|1>, sigma_z|0> = -|0>.  Qubit 1 is excited only in basis
# state 1, qubit 2 only in basis state 3.
SIGMA_Z1 = np.diag([-1.0, 1.0, -1.0, -1.0]).astype(complex)
SIGMA_Z2 = np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex)


@dataclass(frozen=True)
class SystemParams:
    """Couplings and decay rates, all in the same inverse-time unit.

    g1, g2 couple qubit 1 and qubit 2 to the resonator; kappa is the photon
    loss rate, gamma1/gamma2 the qubit emission rates and gamma_phi the pure
    dephasing rate shared by both qubits.
    """

    g1: float
    g2: float
    kappa: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        if not (self.g1 >= 0 and self.g2 >= 0):
            raise ValueError("couplings g1 and g2 must be non-negative")
        if self.g1 == 0 and self.g2 == 0:
            raise ValueError("at least one coupling must be positive")
        for name in ("kappa", "gamma1", "gamma2", "gamma_phi"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"decay rate {name} must be non-negative")

    @property
    def r(self) -> float:
        """Excitation-exchange frequency sqrt(g1^2 + g2^2)."""
        return float(np.hypot(self.g1, self.g2))

    @property
    def g_ref(self) -> float:
        """Reference coupling used to scale dimensionless times."""
        return max(self.g1, self.g2)

    def equal_decay_rate(self) -> float | None:
        """Common rate s when kappa = gamma1 = gamma2 exactly, else None."""
        if self.kappa == self.gamma1 == self.gamma2:
            return self.kappa
        return None


@dataclass(frozen=True)
class QubitAmplitudes:
    """The state alpha|0> + beta|1> carried from qubit 1 to qubit 2.

    alpha is real by convention (a global phase can always be chosen so);
    beta may be complex.  The pair must be normalized.
    """

    alpha: float
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm = self.alpha**2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"require alpha^2 + |beta|^2 = 1, got {norm!r}")


def initial_state(qubit: QubitAmplitudes) -> np.ndarray:
    """(alpha|0> + beta|1>)_1 |0>_2 |0>_c as a length-4 amplitude vector."""
    return np.array([qubit.alpha, qubit.beta, 0.0, 0.0], dtype=complex)


def target_state(qubit: QubitAmplitudes) -> np.ndarray:
    """|0>_1 (alpha|0> + beta|1>)_2 |0>_c, the transferred state."""
    return np.array([qubit.alpha, 0.0, 0.0, qubit.beta], dtype=complex)


def hamiltonian(params: SystemParams) -> np.ndarray:
    """Resonant excitation-exchange Hamiltonian in the truncated basis.

    Qubit 1 and the resonator swap the excitation at rate g1, the resonator
    and qubit 2 at rate g2.  The joint ground state is decoupled, so row and
    column 0 are identically zero.  Hermitian by construction.
    """
    h = np.zeros((DIM, DIM), dtype=complex)
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
    op = np.zeros((DIM, DIM), dtype=complex)
    op[GROUND, src] = 1.0
    return op


def collapse_operators(params: SystemParams) -> list[CollapseTerm]:
    """Jump operators with their rates in the truncated basis.

    Photon loss and either qubit's emission all deposit the excitation in the
    joint ground state, so the three lowering operators are |g><photon|,
    |g><qubit1| and |g><qubit2|.  Pure dephasing adds the two embedded
    sigma_z operators, each with rate gamma_phi.  Channels with zero rate are
    omitted.
    """
    terms = []
    if params.kappa > 0:
        terms.append(CollapseTerm(_lowering(PHOTON), params.kappa))
    if params.gamma1 > 0:
        terms.append(CollapseTerm(_lowering(QUBIT1), params.gamma1))
    if params.gamma2 > 0:
        terms.append(CollapseTerm(_lowering(QUBIT2), params.gamma2))
    if params.gamma_phi > 0:
        terms.append(CollapseTerm(SIGMA_Z1.copy(), params.gamma_phi, dephasing=True))
        terms.append(CollapseTerm(SIGMA_Z2.copy(), params.gamma_phi, dephasing=True))
    return terms


def embed_qubit2_op(op2x2: np.ndarray) -> np.ndarray:
    """Lift a single-qubit operator acting on qubit 2 into the composite basis.

    Qubit 2 is in |1> only in basis state 3; in basis states 0..2 it is in
    |0>.  Raising qubit 2 out of basis states 1 or 2 would create a second
    excitation, which the basis excludes, so the only off-diagonal pair kept
    is 0 <-> 3.
    """
    op = np.asarray(op2x2, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    out = np.zeros((DIM, DIM), dtype=complex)
    out[GROUND, GROUND] = out[QUBIT1, QUBIT1] = out[PHOTON, PHOTON] = op[0, 0]
    out[QUBIT2, QUBIT2] = op[1, 1]
    out[GROUND, QUBIT2] = op[0, 1]
    out[QUBIT2, GROUND] = op[1, 0]
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T)))


def smallest_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of rho."""
    herm = 0.5 * (rho + rho.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])


def physicality_violations(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-9,
    eig_floor: float = -1e-9,
) -> list[str]:
    """Check the density-matrix invariants; return a message per violation.

    An empty list means rho is Hermitian, unit trace and positive
    semidefinite within the given tolerances.
    """
    problems = []
    herm = hermiticity_defect(rho)
    if herm > herm_tol:
        problems.append(f"hermiticity defect {herm:.3e} > {herm_tol:.1e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > trace_tol:
        problems.append(f"trace defect {tr:.3e} > {trace_tol:.1e}")
    low = smallest_eigenvalue(rho)
    if low < eig_floor:
        problems.append(f"smallest eigenvalue {low:.3e} < {eig_floor:.1e}")
    return problems
