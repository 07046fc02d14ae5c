from __future__ import annotations

import math
from functools import reduce

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    RegisterState,
    ValidationError,
    chain_sequence,
    cluster6_sequence,
    eprime_leakage,
    fidelity,
    mode_leakage,
    new_register,
    reference_cluster,
    reference_signature,
    run,
    stabilizer_expectations,
    verify_run,
)
from conftest import amp
from step_fixtures import expected_states

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Independent oracle: build each stabilizer as one dense matrix on the full
# ion-plus-mode space and take the quadratic form directly.
X3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.complex128)
Z3 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=np.complex128)
I3 = np.eye(3, dtype=np.complex128)


def dense_stabilizer(n_ions: int, a: int, n_max: int) -> np.ndarray:
    factors = [I3] * n_ions
    factors[a - 1] = X3
    for nb in (a - 2, a):
        if 0 <= nb < n_ions:
            factors[nb] = Z3
    factors.append(np.eye(n_max + 1, dtype=np.complex128))
    return reduce(np.kron, factors)


def oracle_expectations(state: RegisterState) -> list[float]:
    values = []
    for a in range(1, state.n_ions + 1):
        op = dense_stabilizer(state.n_ions, a, state.n_max)
        values.append(float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes))))
    return values


class TestReferenceCluster:
    def test_one_qubit_is_uniform_superposition(self):
        ref = reference_cluster(1, n_max=1)
        assert amp(ref, [IonLevel.G], 0) == pytest.approx(INV_SQRT2)
        assert amp(ref, [IonLevel.E], 0) == pytest.approx(INV_SQRT2)

    def test_two_qubit_expansion_by_hand(self):
        # (|gg> - |ge> + |eg> + |ee>)/2, mode empty.
        ref = reference_cluster(2, n_max=1)
        signs = {
            (IonLevel.G, IonLevel.G): 0.5,
            (IonLevel.G, IonLevel.E): -0.5,
            (IonLevel.E, IonLevel.G): 0.5,
            (IonLevel.E, IonLevel.E): 0.5,
        }
        for levels, value in signs.items():
            assert amp(ref, levels, 0) == pytest.approx(value)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_support_and_magnitudes(self, n):
        ref = reference_cluster(n, n_max=2)
        nonzero = np.abs(ref.amplitudes) > 0
        assert np.count_nonzero(nonzero) == 2**n
        assert np.allclose(
            np.abs(ref.amplitudes[nonzero]), 2.0 ** (-n / 2.0), atol=1e-12
        )
        assert abs(np.linalg.norm(ref.amplitudes) - 1.0) < 1e-12
        assert eprime_leakage(ref) == 0.0
        assert mode_leakage(ref) == 0.0

    def test_six_qubit_matches_distributed_product_fixture(self):
        # The final hand-built program fixture is the same state written as
        # nested products; the reference must agree up to global phase.
        ref = reference_cluster(6, n_max=2)
        fixture = RegisterState(6, 2, expected_states(n_max=2)[-1])
        assert fidelity(fixture, ref) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_chain(self):
        with pytest.raises(ValidationError):
            reference_cluster(0)


class TestFidelity:
    def test_self_fidelity(self, rng):
        from conftest import make_random_state

        state = make_random_state(rng, 2, 2)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = new_register([IonPrep.basis(IonLevel.G)], 1)
        b = new_register([IonPrep.basis(IonLevel.E)], 1)
        assert fidelity(a, b) == 0.0

    def test_symmetric_and_phase_invariant(self, rng):
        from conftest import make_random_state

        a = make_random_state(rng, 2, 2)
        b = make_random_state(rng, 2, 2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
        rotated = RegisterState(2, 2, a.amplitudes * np.exp(1.7j))
        assert fidelity(rotated, b) == pytest.approx(fidelity(a, b), abs=1e-14)
        assert fidelity(b, rotated) == pytest.approx(fidelity(b, a), abs=1e-14)

    def test_protocol_output_fidelity(self):
        final, _ = run(cluster6_sequence(), n_max=2)
        assert fidelity(final, reference_cluster(6, n_max=2)) >= 1.0 - 1e-10

    def test_bounded(self, rng):
        from conftest import make_random_state

        for _ in range(20):
            a = make_random_state(rng, 2, 2)
            b = make_random_state(rng, 2, 2)
            assert 0.0 <= fidelity(a, b) <= 1.0 + 1e-12


class TestStabilizers:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_dense_oracle_on_reference(self, n):
        ref = reference_cluster(n, n_max=1)
        assert np.allclose(
            stabilizer_expectations(ref), oracle_expectations(ref), atol=1e-12
        )

    def test_matches_dense_oracle_on_random_leakage_free_states(self, rng):
        from conftest import make_random_state

        for _ in range(10):
            state = make_random_state(rng, 3, 1)
            shaped = np.array(state.shaped(), copy=True)
            for axis in range(3):
                index = [slice(None)] * 4
                index[axis] = 2
                shaped[tuple(index)] = 0.0
            amps = shaped.reshape(-1)
            state = RegisterState(3, 1, amps / np.linalg.norm(amps))
            assert np.allclose(
                stabilizer_expectations(state), oracle_expectations(state), atol=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reference_signature_is_unit_magnitude(self, n):
        values = stabilizer_expectations(reference_cluster(n, n_max=1))
        for value in values:
            assert abs(abs(value) - 1.0) < 1e-10
        assert reference_signature(n) == [
            1 if v > 0 else -1 for v in values
        ]

    def test_signature_stable_under_recomputation(self):
        assert reference_signature(6) == reference_signature(6)

    def test_all_ground_probe_has_zero_expectations(self):
        state = new_register([IonPrep.basis(IonLevel.G)] * 6, 1)
        for value in stabilizer_expectations(state):
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_protocol_output_signature_matches_reference(self):
        final, _ = run(cluster6_sequence(), n_max=2)
        values = stabilizer_expectations(final)
        signature = reference_signature(6)
        for value, sign in zip(values, signature):
            assert value == pytest.approx(sign, abs=1e-10)

    def test_stabilizers_square_to_identity(self, rng):
        # Applying K_a twice to a leakage-free state gives the state back.
        from conftest import make_random_state

        state = make_random_state(rng, 2, 1)
        shaped = np.array(state.shaped(), copy=True)
        shaped[2, :, :] = 0.0
        shaped[:, 2, :] = 0.0
        amps = shaped.reshape(-1)
        amps /= np.linalg.norm(amps)
        for a in (1, 2):
            op = dense_stabilizer(2, a, 1)
            assert np.max(np.abs(op @ (op @ amps) - amps)) < 1e-12

    def test_rejects_eprime_leakage_naming_the_ion(self):
        prep = IonPrep(
            [(IonLevel.G, math.sqrt(1 - 1e-4)), (IonLevel.EPRIME, 1e-2)]
        )
        state = new_register([IonPrep.basis(IonLevel.G), prep], 1)
        with pytest.raises(ValidationError, match="ion 2"):
            stabilizer_expectations(state)


class TestVerifyRun:
    def test_ideal_protocol_report(self):
        final, _ = run(cluster6_sequence(), n_max=2)
        report = verify_run(final, 6)
        assert report.fidelity >= 1.0 - 1e-10
        assert report.leakage_eprime <= 1e-12
        assert report.leakage_mode <= 1e-12
        assert abs(abs(report.global_phase) - 1.0) < 1e-12

    def test_reference_against_itself(self):
        ref = reference_cluster(4, n_max=2)
        report = verify_run(ref, 4)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.global_phase == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_jittered_state_reports_without_error(self):
        from ionchain import NoiseConfig, monte_carlo

        seq = chain_sequence(4)
        result = monte_carlo(seq, NoiseConfig(jitter_sigma=0.05, trials=3, seed=9))
        assert all(s < 1.0 for s in result.samples)

    def test_dimension_mismatch(self):
        final, _ = run(chain_sequence(3), n_max=2)
        with pytest.raises(ValidationError):
            verify_run(final, 4)

    @pytest.mark.parametrize("n_qubits", [6.0, True, "6"])
    def test_n_qubits_must_be_an_int_before_any_work(self, n_qubits, monkeypatch):
        final, _ = run(cluster6_sequence(), n_max=2)

        def no_work(state):
            raise AssertionError("stabilizers computed before n_qubits was checked")

        monkeypatch.setattr("ionchain.verify.stabilizer_expectations", no_work)
        with pytest.raises(ValidationError, match=r"^n_qubits must be an integer >= 1, got "):
            verify_run(final, n_qubits)
