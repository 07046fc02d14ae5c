from __future__ import annotations

import math

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    Pulse,
    PulseKind,
    RegisterState,
    TruncationError,
    ValidationError,
    apply_carrier,
    apply_pulse,
    apply_sideband,
    basis_index,
    half_sideband,
    map_ion_to_mode,
    map_mode_to_ion,
    new_register,
    phase_gate,
    population,
)
from conftest import make_random_state, permute_other_ions

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def single_ion_ket(level, n, n_max=2):
    state = new_register([IonPrep.basis(IonLevel.G)], n_max)
    amps = np.zeros(state.dim, dtype=np.complex128)
    amps[basis_index(state, [level], n)] = 1.0
    return RegisterState(1, n_max, amps)


def amp(state, levels, n):
    return state.amplitudes[basis_index(state, levels, n)]


class TestSidebandMap:
    def test_half_pulse_splits_excited_ion(self):
        # |e,0> with phi=pi, theta=pi/2 -> (|e,0> + |g,1>)/sqrt2
        state = single_ion_ket(IonLevel.E, 0)
        out = apply_sideband(state, 1, PulseKind.SIDEBAND_GE, math.pi, math.pi / 2)
        assert amp(out, [IonLevel.E], 0) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amp(out, [IonLevel.G], 1) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_full_loop_through_eprime_flips_g1(self):
        # |g,1> under a 2*pi g-e' pulse -> -|g,1> with no e' residue.
        state = single_ion_ket(IonLevel.G, 1)
        out = apply_sideband(state, 1, PulseKind.SIDEBAND_GEPRIME, 0.37, 2 * math.pi)
        assert amp(out, [IonLevel.G], 1) == pytest.approx(-1.0, abs=1e-12)
        assert population(out, 1, IonLevel.EPRIME) <= 1e-12

    def test_zero_area_is_identity(self, rng):
        state = make_random_state(rng, 2, 2, zero_top=[(1, IonLevel.E)])
        out = apply_sideband(state, 1, PulseKind.SIDEBAND_GE, 1.3, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_non_addressed_excited_level_is_dark(self):
        # |e,n> untouched by a g-e' sideband, any parameters.
        for n in (0, 1, 2):
            state = single_ion_ket(IonLevel.E, n)
            out = apply_sideband(state, 1, PulseKind.SIDEBAND_GEPRIME, 0.9, 2.1)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_negated_area_inverts(self, rng):
        state = make_random_state(rng, 2, 2, zero_top=[(2, IonLevel.E)])
        there = apply_sideband(state, 2, PulseKind.SIDEBAND_GE, 0.7, 1.9)
        back = apply_sideband(there, 2, PulseKind.SIDEBAND_GE, 0.7, -1.9)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_rejects_bad_arguments(self, rng):
        state = make_random_state(rng, 2, 2)
        with pytest.raises(ValidationError):
            apply_sideband(state, 3, PulseKind.SIDEBAND_GE, 0.0, 1.0)
        with pytest.raises(ValidationError):
            apply_sideband(state, 1, PulseKind.CARRIER, 0.0, 1.0)
        for phi, theta in [(0.0, math.nan), (math.inf, 1.0)]:
            with pytest.raises(ValidationError, match="finite"):
                apply_sideband(state, 1, PulseKind.SIDEBAND_GE, phi, theta)


class TestCarrierMap:
    def test_rotates_excited_to_plus(self):
        state = single_ion_ket(IonLevel.E, 0)
        out = apply_carrier(state, 1, math.pi / 2, 0.0)
        assert amp(out, [IonLevel.E], 0) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amp(out, [IonLevel.G], 0) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_rotates_ground_to_minus(self):
        state = single_ion_ket(IonLevel.G, 0)
        out = apply_carrier(state, 1, math.pi / 2, 0.0)
        assert amp(out, [IonLevel.G], 0) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amp(out, [IonLevel.E], 0) == pytest.approx(-INV_SQRT2, abs=1e-12)

    def test_zero_angle_is_identity(self, rng):
        state = make_random_state(rng, 2, 2)
        out = apply_carrier(state, 1, 0.0, 0.4)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_fock_levels_untouched(self):
        # Same rotation on every phonon number.
        for n in (0, 1, 2):
            state = single_ion_ket(IonLevel.E, n)
            out = apply_carrier(state, 1, math.pi / 2, 0.0)
            assert amp(out, [IonLevel.E], n) == pytest.approx(INV_SQRT2, abs=1e-12)
            assert amp(out, [IonLevel.G], n) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_eprime_untouched(self):
        state = single_ion_ket(IonLevel.EPRIME, 1)
        out = apply_carrier(state, 1, 1.1, 0.3)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_ion_out_of_range(self, rng):
        state = make_random_state(rng, 2, 2)
        with pytest.raises(ValidationError):
            apply_carrier(state, 0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            apply_carrier(state, 3, 1.0, 0.0)
        for theta_c, phi_c in [(math.inf, 0.0), (1.0, math.nan)]:
            with pytest.raises(ValidationError, match="finite"):
                apply_carrier(state, 1, theta_c, phi_c)


class TestGadgets:
    def test_parameter_table(self):
        assert half_sideband(1) == Pulse(PulseKind.SIDEBAND_GE, 1, math.pi, math.pi / 2)
        assert map_ion_to_mode(4) == Pulse(PulseKind.SIDEBAND_GE, 4, math.pi, math.pi)
        assert map_mode_to_ion(2) == Pulse(PulseKind.SIDEBAND_GE, 2, 0.0, math.pi)
        assert phase_gate(3) == Pulse(PulseKind.SIDEBAND_GEPRIME, 3, 0.0, 2 * math.pi)

    def test_map_mode_to_ion_action(self):
        out = apply_pulse(single_ion_ket(IonLevel.G, 1), map_mode_to_ion(1))
        assert amp(out, [IonLevel.E], 0) == pytest.approx(1.0, abs=1e-12)
        still = apply_pulse(single_ion_ket(IonLevel.G, 0), map_mode_to_ion(1))
        assert amp(still, [IonLevel.G], 0) == pytest.approx(1.0, abs=1e-12)

    def test_map_ion_to_mode_action(self):
        out = apply_pulse(single_ion_ket(IonLevel.E, 0), map_ion_to_mode(1))
        assert amp(out, [IonLevel.G], 1) == pytest.approx(1.0, abs=1e-12)
        still = apply_pulse(single_ion_ket(IonLevel.G, 0), map_ion_to_mode(1))
        assert amp(still, [IonLevel.G], 0) == pytest.approx(1.0, abs=1e-12)

    def test_phase_gate_action(self):
        out = apply_pulse(single_ion_ket(IonLevel.G, 1), phase_gate(1))
        assert amp(out, [IonLevel.G], 1) == pytest.approx(-1.0, abs=1e-12)
        assert population(out, 1, IonLevel.EPRIME) <= 1e-12
        still = apply_pulse(single_ion_ket(IonLevel.G, 0), phase_gate(1))
        assert amp(still, [IonLevel.G], 0) == pytest.approx(1.0, abs=1e-12)

    def test_pulse_inverse_helper(self):
        pulse = half_sideband(2)
        assert pulse.inverse().theta == -pulse.theta

    def test_pulse_validation(self):
        with pytest.raises(ValidationError):
            Pulse(PulseKind.CARRIER, 0, 0.0, 1.0)
        for ion in (1.5, 1.0, True, "1"):
            with pytest.raises(ValidationError, match="integer"):
                Pulse(PulseKind.SIDEBAND_GE, ion, 0.0, 1.0)
        assert Pulse(PulseKind.CARRIER, np.int64(2), 0.0, 1.0).ion == 2
        with pytest.raises(ValidationError, match="kind"):
            Pulse("sideband_ge_typo", 1, 0.0, 1.0)
        with pytest.raises(ValidationError):
            Pulse(PulseKind.CARRIER, 1, math.nan, 1.0)


class TestUnitarityProperties:
    def test_thousand_random_norm_and_inverse_checks(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n_ions = int(rng.integers(1, 4))
            n_max = int(rng.integers(1, 5))
            ion = int(rng.integers(1, n_ions + 1))
            kind = (
                PulseKind.SIDEBAND_GE
                if rng.integers(2) == 0
                else PulseKind.SIDEBAND_GEPRIME
            )
            x_level = IonLevel.E if kind == PulseKind.SIDEBAND_GE else IonLevel.EPRIME
            phi = float(rng.uniform(-math.pi, math.pi))
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            state = make_random_state(rng, n_ions, n_max, zero_top=[(ion, x_level)])
            there = apply_sideband(state, ion, kind, phi, theta)
            assert abs(there.norm() - 1.0) < 1e-12
            back = apply_sideband(there, ion, kind, phi, -theta)
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_carrier_norm_and_inverse(self, rng):
        for _ in range(200):
            state = make_random_state(rng, 2, 2)
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            phi = float(rng.uniform(-math.pi, math.pi))
            there = apply_carrier(state, 1, theta, phi)
            assert abs(there.norm() - 1.0) < 1e-12
            back = apply_carrier(there, 1, -theta, phi)
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


class TestExcitationConservation:
    @staticmethod
    def eigenspace_probabilities(state, ion, x_level):
        """Probability per eigenvalue of (phonons + addressed ion in x)."""
        shaped = np.abs(state.shaped()) ** 2
        probs = np.zeros(state.n_max + 3)
        for d in range(3):
            sub = np.take(shaped, d, axis=ion - 1)
            for n in range(state.n_max + 1):
                value = n + (1 if d == x_level else 0)
                probs[value] += np.sum(np.take(sub, n, axis=-1))
        return probs

    @pytest.mark.parametrize(
        "kind,x_level",
        [(PulseKind.SIDEBAND_GE, IonLevel.E),
         (PulseKind.SIDEBAND_GEPRIME, IonLevel.EPRIME)],
    )
    def test_total_excitation_preserved(self, rng, kind, x_level):
        for _ in range(50):
            state = make_random_state(rng, 2, 3, zero_top=[(1, x_level)])
            before = self.eigenspace_probabilities(state, 1, x_level)
            out = apply_sideband(
                state, 1, kind,
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            )
            after = self.eigenspace_probabilities(out, 1, x_level)
            assert np.max(np.abs(after - before)) < 1e-12


class TestDarkLevels:
    def test_eprime_population_invariant_under_ge_and_carrier(self, rng):
        for _ in range(50):
            state = make_random_state(rng, 2, 2, zero_top=[(1, IonLevel.E)])
            before = population(state, 1, IonLevel.EPRIME)
            out = apply_sideband(state, 1, PulseKind.SIDEBAND_GE, 0.4, 1.7)
            assert abs(population(out, 1, IonLevel.EPRIME) - before) < 1e-12
            out = apply_carrier(state, 1, 1.2, 0.5)
            assert abs(population(out, 1, IonLevel.EPRIME) - before) < 1e-12

    def test_e_population_invariant_under_geprime(self, rng):
        for _ in range(50):
            state = make_random_state(rng, 2, 2, zero_top=[(1, IonLevel.EPRIME)])
            before = population(state, 1, IonLevel.E)
            out = apply_sideband(state, 1, PulseKind.SIDEBAND_GEPRIME, 0.4, 1.7)
            assert abs(population(out, 1, IonLevel.E) - before) < 1e-12


class TestLocality:
    def test_pulse_commutes_with_relabeling_of_other_ions(self, rng):
        # Swapping ions 2 and 3 before or after a pulse on ion 1 is the same.
        perm = [0, 2, 1]
        for _ in range(20):
            state = make_random_state(rng, 3, 2, zero_top=[(1, IonLevel.E)])
            pulse_then_permute = permute_other_ions(
                apply_sideband(state, 1, PulseKind.SIDEBAND_GE, 0.9, 1.1), perm
            )
            permute_then_pulse = apply_sideband(
                permute_other_ions(state, perm), 1, PulseKind.SIDEBAND_GE, 0.9, 1.1
            )
            assert np.max(
                np.abs(pulse_then_permute.amplitudes - permute_then_pulse.amplitudes)
            ) < 1e-12


class TestTruncation:
    def test_refuses_to_leak_past_cutoff(self):
        state = single_ion_ket(IonLevel.E, 2, n_max=2)
        with pytest.raises(TruncationError) as excinfo:
            apply_sideband(state, 1, PulseKind.SIDEBAND_GE, 0.0, 1.0)
        assert excinfo.value.leaked_probability == pytest.approx(1.0)

    def test_threshold_is_strict(self):
        base = single_ion_ket(IonLevel.G, 0, n_max=1)
        amps = np.array(base.amplitudes, copy=True)
        amps[basis_index(base, [IonLevel.E], 1)] = 2e-6  # probability 4e-12
        amps /= np.linalg.norm(amps)
        state = RegisterState(1, 1, amps)
        with pytest.raises(TruncationError):
            apply_sideband(state, 1, PulseKind.SIDEBAND_GE, 0.0, 1.0)

    def test_top_eprime_component_blocks_geprime_only(self):
        state = single_ion_ket(IonLevel.EPRIME, 2, n_max=2)
        with pytest.raises(TruncationError):
            apply_sideband(state, 1, PulseKind.SIDEBAND_GEPRIME, 0.0, 1.0)
        out = apply_sideband(state, 1, PulseKind.SIDEBAND_GE, 0.0, 1.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)
