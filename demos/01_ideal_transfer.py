"""Lossless excitation swap between the two qubits.

Without any decay, an excitation placed on qubit 1 moves through the
resonator and lands completely on qubit 2 at t = pi / (sqrt(2) g) for equal
couplings.  This script tracks the three mode populations through one full
exchange cycle and then runs the bare protocol at the transfer time to show
unit fidelity.
"""

import math

import numpy as np

from qstsim import (
    ProtocolSpec,
    QubitAmplitudes,
    SystemParams,
    analytic_rho,
    full_transfer_time,
    run_protocol,
)

qubit = QubitAmplitudes(1 / math.sqrt(2), 1 / math.sqrt(2))
t_star = full_transfer_time(1.0)

print("populations during a lossless swap (g1 = g2 = g):")
print(f"{'g*t':>6}  {'qubit 1':>8}  {'photon':>8}  {'qubit 2':>8}")
for t in np.linspace(0.0, 2 * t_star, 13):
    rho = analytic_rho(qubit, p=0.0, s=0.0, t=t)
    print(
        f"{t:6.3f}  {rho[1, 1].real:8.4f}  {rho[2, 2].real:8.4f}  {rho[3, 3].real:8.4f}"
    )

print(f"\nfull transfer expected at g*t = pi/sqrt(2) = {t_star:.4f}")

spec = ProtocolSpec(
    qubit=qubit,
    params=SystemParams(g1=1.0, g2=1.0),
    p=0.0,
    q_rule="fixed",
    q_value=0.0,
)
outcome = run_protocol(spec)
print(f"protocol fidelity at the transfer time: {outcome.fidelity:.12f}")
print(f"success probability (nothing is post-selected away): {outcome.success_probability:.3f}")
