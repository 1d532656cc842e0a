"""Partial measurement of a qubit, its probabilistic reversal, and their
action on the composite four-state system.

A partial measurement of strength p leaves |0> alone and shrinks the |1>
amplitude by sqrt(1-p); the discarded branch (the qubit found excited) has
the complementary Kraus operator.  The kept branch can be undone with a
second partial measurement sandwiched between bit flips, post-selected.  All
post-selected maps return the renormalized state together with the branch
probability.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DIM, QUBIT1, SIGMA_Z2, embed_qubit2_op

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class DegenerateReversal(ValueError):
    """Raised for reversal strength q >= 1: a projective measurement cannot
    be undone."""


class ZeroProbability(ValueError):
    """Raised when the post-selected branch has (numerically) no weight."""


@dataclass(frozen=True)
class PostSelectedState:
    """Normalized state of a kept branch and the probability of keeping it."""

    state: np.ndarray
    success_probability: float


def m0_operator(p: float) -> np.ndarray:
    """Kraus operator of the kept (qubit-not-excited) measurement branch.

    diag(1, sqrt(1-p)); together with the tunneled branch diag(0, sqrt(p))
    the pair resolves the identity.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("measurement strength p must lie in [0, 1]")
    return np.diag([1.0, math.sqrt(1.0 - p)]).astype(complex)


def m1_operator(p: float) -> np.ndarray:
    """Kraus operator of the discarded (qubit tunneled) branch, diag(0, sqrt(p))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("measurement strength p must lie in [0, 1]")
    return np.diag([0.0, math.sqrt(p)]).astype(complex)


def reversal_operator(q: float) -> np.ndarray:
    """Non-unitary operator that undoes a partial measurement of strength q.

    Built as the three-step product it is realized by: bit flip, second
    partial measurement of strength q, bit flip, scaled by 1/sqrt(1-q).
    The closed form is diag(1, 1/sqrt(1-q)), and the construction is checked
    against it.
    """
    if q >= 1.0:
        raise DegenerateReversal("no reversal exists for q >= 1")
    if q < 0.0:
        raise ValueError("reversal strength q must lie in [0, 1)")
    root = math.sqrt(1.0 - q)
    three_step = PAULI_X @ m0_operator(q) @ PAULI_X / root
    closed_form = np.diag([1.0, 1.0 / root]).astype(complex)
    assert np.allclose(three_step, closed_form, rtol=0, atol=1e-15)
    return three_step


def apply_measurement_qubit1(state: np.ndarray, p: float) -> PostSelectedState:
    """Partially measure qubit 1 and keep the not-excited branch.

    Accepts a normalized amplitude vector or density matrix in the composite
    basis.  Qubit 1 is excited only in basis state 1, so the kept-branch
    Kraus operator scales that amplitude by sqrt(1-p).  The returned success
    probability is the trace of the unnormalized result (N1^2 for the
    standard prepared state).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("measurement strength p must lie in [0, 1)")
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        rho = np.outer(state, state.conj())
    else:
        rho = state
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected a length-{DIM} vector or {DIM}x{DIM} matrix")

    kraus = np.eye(DIM, dtype=complex)
    kraus[QUBIT1, QUBIT1] = math.sqrt(1.0 - p)
    kept = kraus @ rho @ kraus
    prob = float(np.trace(kept).real)
    if prob < 1e-15:
        raise ZeroProbability("the not-excited branch has no weight")
    return PostSelectedState(kept / prob, prob)


def apply_reversal_qubit2(
    rho: np.ndarray, q: float, apply_sigma_z: bool = True
) -> PostSelectedState:
    """Reverse the transfer-induced damping on qubit 2 and fix its phase.

    Applies the kept branch of a second partial measurement, bit-flip
    conjugated so that it rescales the qubit-2 ground sector: rows and
    columns 0..2 pick up sqrt(1-q) relative to the untouched excited entry.
    The branch probability is 1 - q + q*rho33 for a unit-trace rho.  A sigma_z on qubit 2 (on by
    default) then flips the sign of the coherences to basis state 3, which
    corrects the sign the excitation exchange imprints on them.
    """
    if q >= 1.0:
        raise DegenerateReversal("no reversal exists for q >= 1")
    if q < 0.0:
        raise ValueError("reversal strength q must lie in [0, 1)")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} density matrix")

    # diag(sqrt(1-q), sqrt(1-q), sqrt(1-q), 1): the bit-flip conjugated
    # kept-branch Kraus operator lifted onto qubit 2
    root = math.sqrt(1.0 - q)
    kraus = embed_qubit2_op(PAULI_X @ np.diag([1.0, root]).astype(complex) @ PAULI_X)
    kept = kraus @ rho @ kraus
    prob = float(np.trace(kept).real)  # equals 1 - q + q * rho[3, 3]
    if apply_sigma_z:
        kept = SIGMA_Z2 @ kept @ SIGMA_Z2
    return PostSelectedState(kept / prob, prob)
