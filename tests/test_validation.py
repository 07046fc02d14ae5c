"""Python API inputs go through the same type rules as sequence files.

Integers must be integers (never bools, floats or strings) and real numbers
finite reals (never bools or strings); anything else raises ValidationError,
not a TypeError, an OverflowError, a wrong result or a silent coercion.
"""

from __future__ import annotations

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    NoiseConfig,
    Pulse,
    PulseKind,
    ValidationError,
    chain_sequence,
    cluster6_sequence,
    fidelity_estimate,
    reference_cluster,
    run,
    verify_run,
)

CARRIER = PulseKind.CARRIER

# Each call used to raise the error in its comment, or return a result.
BAD_CALLS = {
    "run-n-max-bool": lambda: run(cluster6_sequence(), n_max=True),  # TruncationError
    "run-n-max-float": lambda: run(cluster6_sequence(), n_max=2.0),  # TypeError
    "run-n-max-string": lambda: run(cluster6_sequence(), n_max="2"),  # TypeError
    "reference-n-max-bool": lambda: reference_cluster(3, n_max=True),  # returned
    "sigma-bool": lambda: NoiseConfig(jitter_sigma=True),  # accepted
    "fidelity-bool": lambda: fidelity_estimate(cluster6_sequence(), True),  # accepted
    "sigma-string": lambda: NoiseConfig(jitter_sigma="x"),  # TypeError
    "estimate-string": lambda: fidelity_estimate(cluster6_sequence(), "0.9"),  # TypeError
    "phi-bool": lambda: Pulse(CARRIER, 1, True, 1.0),  # accepted
    "phi-string": lambda: Pulse(CARRIER, 1, "0", 1.0),  # TypeError
    "theta-int-past-float": lambda: Pulse(CARRIER, 1, 0.0, 10**400),  # OverflowError
    "prep-coefficient-string": lambda: IonPrep([(0, "1")]),  # accepted
    "prep-coefficient-bool": lambda: IonPrep([(0, True)]),  # accepted
    "prep-level-float": lambda: IonPrep([(1.0, 1.0)]),  # accepted
    "prep-level-name": lambda: IonPrep([("g", 1.0)]),  # plain ValueError
    "chain-length-float": lambda: chain_sequence(2.5),  # TypeError
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_wrongly_typed_api_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_well_typed_api_input_is_stored_as_python_numbers():
    # numpy scalars and ints are accepted and kept as plain ints and floats,
    # so a report built from them is JSON-serializable.
    pulse = Pulse(CARRIER, np.int64(1), 0, np.float32(0.5))
    assert (type(pulse.ion), type(pulse.phi), type(pulse.theta)) == (int, float, float)
    cfg = NoiseConfig(np.float64(0.01), np.int64(2), np.int64(3))
    assert type(cfg.jitter_sigma) is float
    estimate = fidelity_estimate(cluster6_sequence(), 1)
    assert (type(estimate), estimate) == (float, 1.0)
    assert [type(v) for v in (cfg.trials, cfg.seed)] == [int] * 2
    prep = IonPrep([(np.int64(0), np.complex64(1j))])
    assert prep.coefficients[IonLevel.G] == 1j
    final, _ = run(cluster6_sequence(), n_max=np.int64(1))
    assert verify_run(final, 6).fidelity == pytest.approx(1.0, abs=1e-12)
