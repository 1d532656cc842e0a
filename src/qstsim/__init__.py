"""Measurement-assisted quantum state transfer between two qubits coupled by
a lossy resonator: closed-form and master-equation engines, partial
measurement and reversal channels, protocol orchestration and parameter
sweeps."""

from .analytic import analytic_rho, transfer_amplitudes
from .core import (
    DIM,
    GROUND,
    PHOTON,
    QUBIT1,
    QUBIT2,
    SIGMA_Z1,
    SIGMA_Z2,
    CollapseTerm,
    QubitAmplitudes,
    SystemParams,
    collapse_operators,
    embed_qubit2_op,
    hamiltonian,
    initial_state,
    physicality_violations,
    target_state,
)
from .lindblad import integrate, liouvillian
from .measurement import (
    DegenerateReversal,
    PostSelectedState,
    ZeroProbability,
    apply_measurement_qubit1,
    apply_reversal_qubit2,
    m0_operator,
    m1_operator,
    reversal_operator,
)
from .protocol import (
    ProtocolOutcome,
    ProtocolSpec,
    fidelity_to_target,
    full_transfer_time,
    q_formula,
    run_protocol,
)
from .sweeps import (
    AxisGrid,
    SweepResult,
    SweepSpec,
    decay_sweep,
    dephasing_sweep,
    time_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AxisGrid",
    "CollapseTerm",
    "DIM",
    "DegenerateReversal",
    "GROUND",
    "PHOTON",
    "PostSelectedState",
    "ProtocolOutcome",
    "ProtocolSpec",
    "QUBIT1",
    "QUBIT2",
    "QubitAmplitudes",
    "SIGMA_Z1",
    "SIGMA_Z2",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "ZeroProbability",
    "analytic_rho",
    "apply_measurement_qubit1",
    "apply_reversal_qubit2",
    "collapse_operators",
    "decay_sweep",
    "dephasing_sweep",
    "embed_qubit2_op",
    "fidelity_to_target",
    "full_transfer_time",
    "hamiltonian",
    "initial_state",
    "integrate",
    "liouvillian",
    "m0_operator",
    "m1_operator",
    "physicality_violations",
    "q_formula",
    "reversal_operator",
    "run_protocol",
    "target_state",
    "time_sweep",
    "transfer_amplitudes",
]
