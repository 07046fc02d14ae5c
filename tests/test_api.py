"""The public Python surface of ``ionchain``, pinned name by name.

A name added to or dropped from ``ionchain.__all__`` shows up as a diff of
this list.
"""

from __future__ import annotations

import dataclasses

import ionchain

PUBLIC_NAMES = [
    "IonLevel",
    "IonPrep",
    "MonteCarloResult",
    "NoiseConfig",
    "Pulse",
    "PulseKind",
    "PulseSequence",
    "RegisterState",
    "TruncationError",
    "ValidationError",
    "VerificationReport",
    "apply_pulse",
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
    "verify_run",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ionchain.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ionchain, name) is not None


def test_noise_config_fields_are_pinned():
    # The multiplicative estimate's fidelity is an argument of
    # fidelity_estimate, not a Monte Carlo knob.
    fields = [f.name for f in dataclasses.fields(ionchain.NoiseConfig)]
    assert fields == ["jitter_sigma", "trials", "seed"]
