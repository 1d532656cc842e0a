"""Measurement-assisted quantum state transfer between two qubits coupled by
a lossy resonator: closed-form and master-equation engines, the partial
measurement, protocol orchestration and parameter sweeps."""

from .analytic import analytic_rho, transfer_amplitudes
from .core import (
    DIM,
    GROUND,
    PHOTON,
    QUBIT1,
    QUBIT2,
    QubitAmplitudes,
    SystemParams,
    initial_state,
    physicality_violations,
    target_state,
)
from .lindblad import integrate
from .measurement import (
    PostSelectedState,
    ZeroProbability,
    apply_measurement_qubit1,
)
from .protocol import (
    ProtocolOutcome,
    ProtocolSpec,
    full_transfer_time,
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
    "DIM",
    "GROUND",
    "PHOTON",
    "PostSelectedState",
    "ProtocolOutcome",
    "ProtocolSpec",
    "QUBIT1",
    "QUBIT2",
    "QubitAmplitudes",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "ZeroProbability",
    "analytic_rho",
    "apply_measurement_qubit1",
    "decay_sweep",
    "dephasing_sweep",
    "full_transfer_time",
    "initial_state",
    "integrate",
    "physicality_violations",
    "run_protocol",
    "target_state",
    "time_sweep",
    "transfer_amplitudes",
]
