"""Fidelity against success probability in the lossy transfer protocol.

In the weak-coupling regime (g = 0.5 s) the unassisted transfer is poor.
Pre-measuring qubit 1 parks most of the amplitude in the ground level, which
rides out the decay, and the reversal on qubit 2 restores the weights
afterwards.  The stronger the pre-measurement, the better the fidelity and
the rarer the kept branch: this script tabulates that trade-off at the
transfer time and compares the closed-form reversal strength with the
exactly optimal one.

Which reversal each command reports: `qstsim protocol` uses the closed-form
rule q = 1 - (1-p) e^{-st} (Korotkov & Keane 2010) unless told otherwise,
the one with the higher success probability; `qstsim optimize-q` and
`qstsim protocol --q-rule optimal` report the exact fidelity-maximizing q,
the one with the higher fidelity.
"""

from dataclasses import replace

from qstsim import (
    ProtocolSpec,
    QubitAmplitudes,
    SystemParams,
    full_transfer_time,
    run_protocol,
)

qubit = QubitAmplitudes(0.6, 0.8)
s = 2.0  # decay rate in units of g, i.e. g = 0.5 s
params = SystemParams(1.0, 1.0, kappa=s, gamma1=s, gamma2=s)
t_star = full_transfer_time(1.0)

print(f"transfer time g*t = {t_star:.4f}, decay ratio s/g = {s}")
print(f"{'p':>5}  {'fidelity':>9}  {'reversal P':>11}  {'end-to-end P':>13}")
for p in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
    outcome = run_protocol(
        ProtocolSpec(qubit=qubit, params=params, p=p, transfer_time=t_star)
    )
    print(
        f"{p:5.2f}  {outcome.fidelity:9.5f}  {outcome.reversal_success:11.3e}"
        f"  {outcome.success_probability:13.3e}"
    )

print("\nclosed-form rule vs exactly optimal reversal at p = 0.8:")
formula_spec = ProtocolSpec(qubit=qubit, params=params, p=0.8, transfer_time=t_star)
formula = run_protocol(formula_spec)
optimal = run_protocol(replace(formula_spec, q_rule="optimal"))
print(f"  rule:    q = {formula.q_used:.6f}  ->  F = {formula.fidelity:.6f}")
print(f"  optimal: q = {optimal.q_used:.6f}  ->  F = {optimal.fidelity:.6f}")
print(
    f"  the extra fidelity costs success probability: "
    f"{optimal.reversal_success:.3e} vs {formula.reversal_success:.3e}"
)
