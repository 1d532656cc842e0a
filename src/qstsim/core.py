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

import numpy as np

DIM = 4
GROUND, QUBIT1, PHOTON, QUBIT2 = range(DIM)


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
            raise ValueError("at least one coupling, g1 or g2, must be positive")
        for name in ("kappa", "gamma1", "gamma2", "gamma_phi"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"decay rate {name} must be non-negative")

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


def check_strength(p) -> None:
    """Raise ValueError unless every p lies in [0, 1), where the kept branch is not empty."""
    if not np.all((np.asarray(p) >= 0.0) & (np.asarray(p) < 1.0)):  # NaN fails
        raise ValueError("measurement strength p must lie in [0, 1)")


def initial_state(qubit: QubitAmplitudes) -> np.ndarray:
    """(alpha|0> + beta|1>)_1 |0>_2 |0>_c as a length-4 amplitude vector."""
    return np.array([qubit.alpha, qubit.beta, 0.0, 0.0], dtype=complex)


def target_state(qubit: QubitAmplitudes) -> np.ndarray:
    """|0>_1 (alpha|0> + beta|1>)_2 |0>_c, the transferred state."""
    return np.array([qubit.alpha, 0.0, 0.0, qubit.beta], dtype=complex)


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
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > herm_tol:
        problems.append(f"hermiticity defect {herm:.3e} > {herm_tol:.1e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > trace_tol:
        problems.append(f"trace defect {tr:.3e} > {trace_tol:.1e}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])  # of the Hermitian part
    if low < eig_floor:
        problems.append(f"smallest eigenvalue {low:.3e} < {eig_floor:.1e}")
    return problems
