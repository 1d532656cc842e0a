"""Partial measurement of a single qubit and its probabilistic undo.

A partial measurement of strength p shrinks the |1> amplitude by sqrt(1-p)
without collapsing the state.  Conjugating a second measurement between bit
flips (and rescaling) inverts it exactly on the kept branch; the price is
that the branch only occurs with some probability.  This script shows the
Kraus pair, the undo identity, and the probability bookkeeping on the
composite system.
"""

import math

import numpy as np

from qstsim import QubitAmplitudes, apply_measurement_qubit1

p = 0.75
m0 = np.diag([1.0, math.sqrt(1.0 - p)])
m1 = np.diag([0.0, math.sqrt(p)])
print(f"partial measurement, strength p = {p}:")
print("kept branch   M0 =", np.diag(m0))
print("lost branch   M1 =", np.diag(m1))
completeness = m0.T @ m0 + m1.T @ m1
print("M0+M0 + M1+M1 =", np.diag(completeness), "(resolves the identity)")

print("\nundoing the kept branch:")
r = np.diag([1.0, 1.0 / math.sqrt(1.0 - p)])  # bit flip, M0 at q = p, bit flip, rescaled
print("reversal      R  =", np.diag(r))
print("R @ M0        =", np.diag(r @ m0), "(exactly the identity)")

psi = np.array([0.8, 0.6j])
kept = m0 @ psi
print("\nexample qubit state      ", psi)
print("after the measurement    ", kept / np.linalg.norm(kept))
undone = r @ kept
print("after the reversal       ", undone / np.linalg.norm(undone))

print("\non the composite system, measuring qubit 1 of (0.6, 0.8):")
for strength in (0.0, 0.5, 0.9):
    result = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), strength)
    ground = result.state[0, 0].real
    print(
        f"  p = {strength:3.1f}: kept-branch probability {result.success_probability:.3f}, "
        f"ground weight {ground:.3f}"
    )
print("stronger measurement steers the state toward the decay-immune ground level")
