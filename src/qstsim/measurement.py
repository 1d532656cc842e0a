"""Partial measurement of qubit 1 on the composite four-state system.

A partial measurement of strength p leaves |0> alone and shrinks the |1>
amplitude by sqrt(1-p); the discarded branch (the qubit found excited) is
dropped.  The post-selected map returns the renormalized state together
with the branch probability.  The reversal on qubit 2 is scored in closed
form by protocol.reversal_outcome.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DIM, QUBIT1, QubitAmplitudes, check_strength, initial_state


class ZeroProbability(ValueError):
    """Raised when the post-selected branch has (numerically) no weight."""


@dataclass(frozen=True)
class PostSelectedState:
    """Normalized state of a kept branch and the probability of keeping it."""

    state: np.ndarray
    success_probability: float


def apply_measurement_qubit1(qubit: QubitAmplitudes, p: float) -> PostSelectedState:
    """Prepare the qubit on qubit 1, partially measure it and keep the
    not-excited branch.

    Qubit 1 is excited only in basis state 1, so the kept-branch Kraus
    operator scales that amplitude by sqrt(1-p).  The returned success
    probability is the trace of the unnormalized result, alpha^2 + |beta|^2
    (1 - p).
    """
    check_strength(p)
    state = initial_state(qubit)
    rho = np.outer(state, state.conj())
    kraus = np.eye(DIM, dtype=complex)
    kraus[QUBIT1, QUBIT1] = math.sqrt(1.0 - p)
    kept = kraus @ rho @ kraus
    prob = float(np.trace(kept).real)
    if prob < 1e-15:
        raise ZeroProbability("the not-excited branch has no weight")
    return PostSelectedState(kept / prob, prob)
