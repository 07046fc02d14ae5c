"""Exact state-vector simulation of sideband pulse programs on trapped ions.

The package models a chain of three-level ions coupled to one shared,
truncated vibrational mode, applies closed-form sideband and carrier pulse
unitaries, ships the pulse program that weaves an N-qubit linear cluster
state through the chain, and verifies the result by fidelity, stabilizer
expectations and leakage bookkeeping.  A multiplicative per-pulse fidelity
estimate and a pulse-area jitter Monte Carlo round out the error side.
"""

from .errors import TruncationError, ValidationError
from .noise import MonteCarloResult, NoiseConfig, fidelity_estimate, monte_carlo
from .protocol import PulseSequence, Snapshot, chain_sequence, cluster6_sequence, run
from .pulse import (
    Pulse,
    PulseKind,
    apply_carrier,
    apply_pulse,
    apply_sideband,
    carrier,
    half_sideband,
    map_ion_to_mode,
    map_mode_to_ion,
    phase_gate,
)
from .register import (
    IonLevel,
    IonPrep,
    RegisterState,
    basis_index,
    basis_label,
    global_phase_alignment,
    inner_product,
    mode_population,
    new_register,
    population,
    states_allclose,
)
from .verify import (
    VerificationReport,
    eprime_leakage,
    fidelity,
    mode_leakage,
    reference_cluster,
    reference_signature,
    stabilizer_expectations,
    verify_run,
)

__version__ = "0.1.0"

__all__ = [
    "IonLevel",
    "IonPrep",
    "MonteCarloResult",
    "NoiseConfig",
    "Pulse",
    "PulseKind",
    "PulseSequence",
    "RegisterState",
    "Snapshot",
    "TruncationError",
    "ValidationError",
    "VerificationReport",
    "apply_carrier",
    "apply_pulse",
    "apply_sideband",
    "basis_index",
    "basis_label",
    "carrier",
    "chain_sequence",
    "cluster6_sequence",
    "eprime_leakage",
    "fidelity",
    "fidelity_estimate",
    "global_phase_alignment",
    "half_sideband",
    "inner_product",
    "map_ion_to_mode",
    "map_mode_to_ion",
    "mode_leakage",
    "mode_population",
    "monte_carlo",
    "new_register",
    "phase_gate",
    "population",
    "reference_cluster",
    "reference_signature",
    "run",
    "stabilizer_expectations",
    "states_allclose",
    "verify_run",
]
