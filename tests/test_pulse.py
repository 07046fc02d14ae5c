from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    Pulse,
    PulseKind,
    PulseSequence,
    RegisterState,
    TruncationError,
    ValidationError,
    apply_pulse,
    half_sideband,
    map_ion_to_mode,
    map_mode_to_ion,
    phase_gate,
    population,
    run,
)
from ionchain import register
from ionchain.pulse import coupled_pairs, pulse_tables, rotate_pairs
from ionchain.register import ion_axes
from conftest import amp, ket, make_random_state, oracle_basis_index, permute_other_ions

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestSidebandMap:
    def test_half_pulse_splits_excited_ion(self):
        # |e,0> with phi=pi, theta=pi/2 -> (|e,0> + |g,1>)/sqrt2
        state = ket([IonLevel.E], 0, 2)
        out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, math.pi, math.pi / 2))
        assert amp(out, [IonLevel.E], 0) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amp(out, [IonLevel.G], 1) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_full_loop_through_eprime_flips_g1(self):
        # |g,1> under a 2*pi g-e' pulse -> -|g,1> with no e' residue.
        state = ket([IonLevel.G], 1, 2)
        out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GEPRIME, 1, 0.37, 2 * math.pi))
        assert amp(out, [IonLevel.G], 1) == pytest.approx(-1.0, abs=1e-12)
        assert population(out, 1, IonLevel.EPRIME) <= 1e-12

    def test_zero_area_is_identity(self, rng):
        state = make_random_state(rng, 2, 2, zero_top=[(1, IonLevel.E)])
        out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 1.3, 0.0))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_non_addressed_excited_level_is_dark(self):
        # |e,n> untouched by a g-e' sideband, any parameters.
        for n in (0, 1, 2):
            state = ket([IonLevel.E], n, 2)
            out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GEPRIME, 1, 0.9, 2.1))
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_negated_area_inverts(self, rng):
        state = make_random_state(rng, 2, 2, zero_top=[(2, IonLevel.E)])
        there = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 2, 0.7, 1.9))
        back = apply_pulse(there, Pulse(PulseKind.SIDEBAND_GE, 2, 0.7, -1.9))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_rejects_bad_arguments(self, rng):
        state = make_random_state(rng, 2, 2)
        with pytest.raises(ValidationError):
            apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 3, 0.0, 1.0))
        for phi, theta in [(0.0, math.nan), (math.inf, 1.0)]:
            with pytest.raises(ValidationError, match="finite"):
                apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, phi, theta))


class TestCarrierMap:
    def test_rotates_excited_to_plus(self):
        state = ket([IonLevel.E], 0, 2)
        out = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, 0.0, math.pi / 2))
        assert amp(out, [IonLevel.E], 0) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amp(out, [IonLevel.G], 0) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_rotates_ground_to_minus(self):
        state = ket([IonLevel.G], 0, 2)
        out = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, 0.0, math.pi / 2))
        assert amp(out, [IonLevel.G], 0) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amp(out, [IonLevel.E], 0) == pytest.approx(-INV_SQRT2, abs=1e-12)

    def test_zero_angle_is_identity(self, rng):
        state = make_random_state(rng, 2, 2)
        out = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, 0.4, 0.0))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_fock_levels_untouched(self):
        # Same rotation on every phonon number.
        for n in (0, 1, 2):
            state = ket([IonLevel.E], n, 2)
            out = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, 0.0, math.pi / 2))
            assert amp(out, [IonLevel.E], n) == pytest.approx(INV_SQRT2, abs=1e-12)
            assert amp(out, [IonLevel.G], n) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_eprime_untouched(self):
        state = ket([IonLevel.EPRIME], 1, 2)
        out = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, 0.3, 1.1))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_ion_out_of_range(self, rng):
        state = make_random_state(rng, 2, 2)
        with pytest.raises(ValidationError):
            apply_pulse(state, Pulse(PulseKind.CARRIER, 0, 0.0, 1.0))
        with pytest.raises(ValidationError):
            apply_pulse(state, Pulse(PulseKind.CARRIER, 3, 0.0, 1.0))
        for theta_c, phi_c in [(math.inf, 0.0), (1.0, math.nan)]:
            with pytest.raises(ValidationError, match="finite"):
                apply_pulse(state, Pulse(PulseKind.CARRIER, 1, phi_c, theta_c))


class TestPulseTables:
    """Every kind's tables end in one Fock-row axis that its pair rows index."""

    @pytest.mark.parametrize("kind", list(PulseKind))
    def test_one_entry_per_fock_row_of_the_pairs(self, kind):
        a, _, _ = coupled_pairs(ion_axes(np.arange(3 * 4), 1, 3), kind)
        c, s = pulse_tables(kind, 1.0, 3)
        assert c.shape == s.shape == a.shape[-1:]
        rows = pulse_tables(kind, np.array([1.0, -2.0]), 3)[0]
        assert rows.shape == (2, a.shape[-1])
        assert np.array_equal(rows[0], c)

    def test_carrier_rows_are_one_rotation(self):
        c, s = pulse_tables(PulseKind.CARRIER, 1.3, 2)
        assert np.all(c == c[0]) and np.all(s == s[0]) and c.size == 3
        assert (c[0], s[0]) == pytest.approx((math.cos(0.65), math.sin(0.65)), abs=1e-15)
        c, _ = pulse_tables(PulseKind.SIDEBAND_GE, 1.3, 2)
        want = [math.cos(0.65), math.cos(0.65 * math.sqrt(2))]
        assert c == pytest.approx(want, abs=1e-15)


def test_rotate_pairs_is_elementwise_whatever_the_length_or_layout():
    """Each output of ``rotate_pairs`` is bitwise what a one-element call gives.

    The dense pulses and the batched Monte Carlo hand the kernel pairs of
    every length and layout, so they agree only if no element's bits depend
    on the arrays around it: whole strided pair views with broadcast Fock-row
    tables, one Fock row's strided slice of them with its scalar table
    entries (the dense pulses' call), and contiguous arrays of lengths 2 to
    65, against per-element one-element copies.
    """
    rng = np.random.default_rng(7)
    n_max = 3
    calls = []
    for kind in PulseKind:
        source = rng.normal(size=3**4 * (n_max + 1)) + 1j * rng.normal(size=3**4 * (n_max + 1))
        target = np.empty_like(source)
        a, b, _ = coupled_pairs(ion_axes(source, 2, n_max), kind)
        out_a, out_b, _ = coupled_pairs(ion_axes(target, 2, n_max), kind)
        c, s = pulse_tables(kind, rng.uniform(0.0, 4.0), n_max)
        calls.append((a, b, c, s, rng.uniform(-math.pi, math.pi), out_a, out_b))
        for m in range(len(c)):
            calls.append((a[..., m], b[..., m], c[m], s[m], rng.uniform(-math.pi, math.pi),
                          out_a[..., m], out_b[..., m]))
    for size in range(2, 66):
        a, b = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
        c, s = rng.normal(size=(2, size))
        calls.append((a, b, c, s, rng.uniform(-math.pi, math.pi),
                      np.empty(size, complex), np.empty(size, complex)))
    bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
    for a, b, c, s, phi, out_a, out_b in calls:
        rotate_pairs(a, b, c, s, phi, out_a, out_b, np.empty(4 * a.size, complex))
        c, s = np.broadcast_to(c, a.shape), np.broadcast_to(s, a.shape)
        alone_a, alone_b = np.empty(a.shape, complex), np.empty(a.shape, complex)
        for i in np.ndindex(a.shape):
            one_a, one_b = np.empty(1, complex), np.empty(1, complex)
            rotate_pairs(*(np.array([x[i]]) for x in (a, b, c, s)), phi,
                         one_a, one_b, np.empty(4, complex))
            alone_a[i], alone_b[i] = one_a[0], one_b[0]
        assert np.array_equal(bits(out_a), bits(alone_a))
        assert np.array_equal(bits(out_b), bits(alone_b))


@pytest.mark.parametrize("split", [False, True], ids=["default", "split"])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_dense_pulse_is_one_kernel_call_on_the_whole_pair_views(monkeypatch, n_max, split):
    """``apply_pulse`` writes the bytes of one ``rotate_pairs`` call on whole views.

    The oracle is one call on the full ``coupled_pairs`` views with the
    broadcast Fock-row tables.  ``apply_pulse`` may cut that call into blocks,
    worker threads and Fock rows, but not change a bit, signed zeros
    included, whether it runs inline or split three ways.
    """
    if split:
        monkeypatch.setattr(register, "BLOCK_BYTES", 36 * 16)
        monkeypatch.setattr(register, "_cpus", lambda: 3)
        monkeypatch.setattr(register, "WORKER_BLOCKS", 1)
    rng = np.random.default_rng(n_max)
    n_ions = 5
    amps = make_random_state(rng, n_ions, n_max).amplitudes.copy()
    amps.reshape(-1, n_max + 1)[:, n_max] = 0.0  # no guard fires, on any ion
    for part in (amps.real, amps.imag):
        zeros = rng.random(amps.size) < 0.2
        part[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    assert np.signbit(amps.real[amps.real == 0]).any()
    state = RegisterState(n_ions, n_max, amps)
    for kind in PulseKind:
        for ion in (1, 3, 5):
            pulse = Pulse(kind, ion, rng.uniform(-math.pi, math.pi), rng.uniform(-4.0, 4.0))
            want = state.amplitudes.copy()
            a, b, _ = coupled_pairs(ion_axes(state.amplitudes, ion, n_max), kind)
            out_a, out_b, _ = coupled_pairs(ion_axes(want, ion, n_max), kind)
            c, s = pulse_tables(kind, pulse.theta, n_max)
            rotate_pairs(a, b, c, s, pulse.phi, out_a, out_b, np.empty(4 * a.size, complex))
            assert apply_pulse(state, pulse).amplitudes.tobytes() == want.tobytes()


class TestGadgets:
    def test_parameter_table(self):
        assert half_sideband(1) == Pulse(PulseKind.SIDEBAND_GE, 1, math.pi, math.pi / 2)
        assert map_ion_to_mode(4) == Pulse(PulseKind.SIDEBAND_GE, 4, math.pi, math.pi)
        assert map_mode_to_ion(2) == Pulse(PulseKind.SIDEBAND_GE, 2, 0.0, math.pi)
        assert phase_gate(3) == Pulse(PulseKind.SIDEBAND_GEPRIME, 3, 0.0, 2 * math.pi)

    def test_map_mode_to_ion_action(self):
        out = apply_pulse(ket([IonLevel.G], 1, 2), map_mode_to_ion(1))
        assert amp(out, [IonLevel.E], 0) == pytest.approx(1.0, abs=1e-12)
        still = apply_pulse(ket([IonLevel.G], 0, 2), map_mode_to_ion(1))
        assert amp(still, [IonLevel.G], 0) == pytest.approx(1.0, abs=1e-12)

    def test_map_ion_to_mode_action(self):
        out = apply_pulse(ket([IonLevel.E], 0, 2), map_ion_to_mode(1))
        assert amp(out, [IonLevel.G], 1) == pytest.approx(1.0, abs=1e-12)
        still = apply_pulse(ket([IonLevel.G], 0, 2), map_ion_to_mode(1))
        assert amp(still, [IonLevel.G], 0) == pytest.approx(1.0, abs=1e-12)

    def test_phase_gate_action(self):
        out = apply_pulse(ket([IonLevel.G], 1, 2), phase_gate(1))
        assert amp(out, [IonLevel.G], 1) == pytest.approx(-1.0, abs=1e-12)
        assert population(out, 1, IonLevel.EPRIME) <= 1e-12
        still = apply_pulse(ket([IonLevel.G], 0, 2), phase_gate(1))
        assert amp(still, [IonLevel.G], 0) == pytest.approx(1.0, abs=1e-12)

    def test_gadget_undone_by_negated_area(self, rng):
        state = make_random_state(rng, 2, 2, zero_top=[(2, IonLevel.E), (2, IonLevel.EPRIME)])
        for gadget in (half_sideband, map_ion_to_mode, map_mode_to_ion, phase_gate):
            pulse = gadget(2)
            there = apply_pulse(state, pulse)
            back = apply_pulse(there, dataclasses.replace(pulse, theta=-pulse.theta))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_pulse_validation(self):
        with pytest.raises(ValidationError):
            Pulse(PulseKind.CARRIER, 0, 0.0, 1.0)
        for ion in (1.5, 1.0, True, "1"):
            with pytest.raises(ValidationError, match="integer"):
                Pulse(PulseKind.SIDEBAND_GE, ion, 0.0, 1.0)
        assert Pulse(PulseKind.CARRIER, np.int64(2), 0.0, 1.0).ion == 2
        with pytest.raises(ValidationError, match="kind"):
            Pulse("sideband_ge_typo", 1, 0.0, 1.0)
        with pytest.raises(ValidationError, match="kind"):
            Pulse("sideband_ge", 1, 0.0, 1.0)
        with pytest.raises(ValidationError):
            Pulse(PulseKind.CARRIER, 1, math.nan, 1.0)


class TestOverflowingArea:
    # Finite, yet theta*sqrt(5)/2 overflows on the top Fock row at n_max=5.
    AREA = 1.7e308

    def test_apply_pulse_refuses_before_rotating(self):
        state = ket([IonLevel.E], 0, 5)
        pulse = Pulse(PulseKind.SIDEBAND_GE, 1, 0.0, self.AREA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows"):
                apply_pulse(state, pulse)
            seq = PulseSequence((IonPrep.basis(IonLevel.E),), (pulse,))
            with pytest.raises(ValidationError, match="overflows"):
                run(seq, n_max=5)

    def test_largest_area_that_fits_still_runs(self):
        state = ket([IonLevel.E], 0, 4)
        out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 0.0, self.AREA))
        assert np.isfinite(out.amplitudes).all()


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
            there = apply_pulse(state, Pulse(kind, ion, phi, theta))
            assert abs(np.linalg.norm(there.amplitudes) - 1.0) < 1e-12
            back = apply_pulse(there, Pulse(kind, ion, phi, -theta))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_carrier_norm_and_inverse(self, rng):
        for _ in range(200):
            state = make_random_state(rng, 2, 2)
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            phi = float(rng.uniform(-math.pi, math.pi))
            there = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, phi, theta))
            assert abs(np.linalg.norm(there.amplitudes) - 1.0) < 1e-12
            back = apply_pulse(there, Pulse(PulseKind.CARRIER, 1, phi, -theta))
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
            phi = float(rng.uniform(-math.pi, math.pi))
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            out = apply_pulse(state, Pulse(kind, 1, phi, theta))
            after = self.eigenspace_probabilities(out, 1, x_level)
            assert np.max(np.abs(after - before)) < 1e-12


class TestDarkLevels:
    def test_eprime_population_invariant_under_ge_and_carrier(self, rng):
        for _ in range(50):
            state = make_random_state(rng, 2, 2, zero_top=[(1, IonLevel.E)])
            before = population(state, 1, IonLevel.EPRIME)
            out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 0.4, 1.7))
            assert abs(population(out, 1, IonLevel.EPRIME) - before) < 1e-12
            out = apply_pulse(state, Pulse(PulseKind.CARRIER, 1, 0.5, 1.2))
            assert abs(population(out, 1, IonLevel.EPRIME) - before) < 1e-12

    def test_e_population_invariant_under_geprime(self, rng):
        for _ in range(50):
            state = make_random_state(rng, 2, 2, zero_top=[(1, IonLevel.EPRIME)])
            before = population(state, 1, IonLevel.E)
            out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GEPRIME, 1, 0.4, 1.7))
            assert abs(population(out, 1, IonLevel.E) - before) < 1e-12


class TestLocality:
    def test_pulse_commutes_with_relabeling_of_other_ions(self, rng):
        # Swapping ions 2 and 3 before or after a pulse on ion 1 is the same.
        perm = [0, 2, 1]
        for _ in range(20):
            state = make_random_state(rng, 3, 2, zero_top=[(1, IonLevel.E)])
            pulse_then_permute = permute_other_ions(
                apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 0.9, 1.1)), perm
            )
            permute_then_pulse = apply_pulse(
                permute_other_ions(state, perm), Pulse(PulseKind.SIDEBAND_GE, 1, 0.9, 1.1)
            )
            assert np.max(
                np.abs(pulse_then_permute.amplitudes - permute_then_pulse.amplitudes)
            ) < 1e-12


class TestTruncation:
    def test_refuses_to_leak_past_cutoff(self):
        state = ket([IonLevel.E], 2, 2)
        with pytest.raises(TruncationError) as excinfo:
            apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 0.0, 1.0))
        assert excinfo.value.leaked_probability == pytest.approx(1.0)

    def test_threshold_is_strict(self):
        base = ket([IonLevel.G], 0, 1)
        amps = np.array(base.amplitudes, copy=True)
        amps[oracle_basis_index(1, [IonLevel.E], 1)] = 2e-6  # probability 4e-12
        amps /= np.linalg.norm(amps)
        state = RegisterState(1, 1, amps)
        with pytest.raises(TruncationError):
            apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 0.0, 1.0))

    def test_top_eprime_component_blocks_geprime_only(self):
        state = ket([IonLevel.EPRIME], 2, 2)
        with pytest.raises(TruncationError):
            apply_pulse(state, Pulse(PulseKind.SIDEBAND_GEPRIME, 1, 0.0, 1.0))
        out = apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 1, 0.0, 1.0))
        assert np.array_equal(out.amplitudes, state.amplitudes)
