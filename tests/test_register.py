from __future__ import annotations

import math

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    RegisterState,
    ValidationError,
    basis_index,
    basis_label,
    chain_sequence,
    global_phase_alignment,
    inner_product,
    mode_population,
    new_register,
    population,
    reference_cluster,
    states_allclose,
)
from ionchain import register
from ionchain.register import MAX_AMPLITUDES, check_register_size
from conftest import make_random_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ket(levels, n, n_max=1):
    preps = [IonPrep.basis(level) for level in levels]
    state = new_register(preps, n_max)
    amps = np.zeros(state.dim, dtype=np.complex128)
    amps[basis_index(state, levels, n)] = 1.0
    return RegisterState(len(levels), n_max, amps)


class TestNewRegister:
    def test_single_excited_ion(self):
        state = new_register([IonPrep.basis(IonLevel.E)], n_max=1)
        expected = np.zeros(6, dtype=np.complex128)
        expected[basis_index(state, [IonLevel.E], 0)] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_single_ground_ion(self):
        state = new_register([IonPrep.basis(IonLevel.G)], n_max=1)
        assert state.amplitudes[basis_index(state, [IonLevel.G], 0)] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_two_ion_product_expanded_by_hand(self):
        # (|g>-|e>)/sqrt2 x (|e>+|g>)/sqrt2 -> four amplitudes +-1/2, mode |0>.
        prep1 = IonPrep([(IonLevel.G, INV_SQRT2), (IonLevel.E, -INV_SQRT2)])
        prep2 = IonPrep([(IonLevel.E, INV_SQRT2), (IonLevel.G, INV_SQRT2)])
        state = new_register([prep1, prep2], n_max=2)
        expected = {
            (IonLevel.G, IonLevel.G): 0.5,
            (IonLevel.G, IonLevel.E): 0.5,
            (IonLevel.E, IonLevel.G): -0.5,
            (IonLevel.E, IonLevel.E): -0.5,
        }
        for (l1, l2), value in expected.items():
            index = basis_index(state, [l1, l2], 0)
            assert state.amplitudes[index] == pytest.approx(value, abs=1e-15)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert mode_population(state, 0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_and_bad_cutoff(self):
        with pytest.raises(ValidationError):
            new_register([], n_max=2)
        with pytest.raises(ValidationError):
            new_register([IonPrep.basis(IonLevel.G)], n_max=0)

    def test_rejects_unnormalized_prep(self):
        with pytest.raises(ValidationError):
            IonPrep([(IonLevel.G, 0.9), (IonLevel.E, 0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_prep(self, bad):
        # NaN slips past a norm check, since abs(nan - 1) > atol is False.
        with pytest.raises(ValidationError, match="finite"):
            IonPrep([(IonLevel.G, bad)])

    def test_prep_tolerates_tiny_norm_error(self):
        prep = IonPrep([(IonLevel.G, 1.0 + 1e-10)])
        assert np.linalg.norm(prep.coefficients) == pytest.approx(1.0, abs=1e-15)


class TestAmplitudeCap:
    """Oversized registers are refused from the arithmetic, never allocated."""

    @pytest.mark.parametrize("n_ions, n_max", [(14, 2), (12, 30), (1, 5_592_404)])
    def test_admits_up_to_the_cap(self, n_ions, n_max):
        assert 3**n_ions * (n_max + 1) <= MAX_AMPLITUDES
        check_register_size(n_ions, n_max)

    @pytest.mark.parametrize(
        "n_ions, n_max", [(15, 2), (15, 1), (12, 31), (1, 5_592_405), (20, 2), (10**8, 1)]
    )
    def test_refuses_over_the_cap(self, n_ions, n_max):
        with pytest.raises(ValidationError, match="over the limit"):
            check_register_size(n_ions, n_max)

    def test_cap_is_268_mb_of_complex128(self):
        assert MAX_AMPLITUDES * 16 == 268_435_456

    def test_new_register_checks_before_allocating(self, monkeypatch):
        monkeypatch.setattr(register, "MAX_AMPLITUDES", 3**3 * 3)
        preps = [IonPrep.basis(IonLevel.G)] * 3
        assert new_register(preps, n_max=2).dim == 81
        with pytest.raises(ValidationError, match="over the limit of 81"):
            new_register(preps, n_max=3)
        with pytest.raises(ValidationError, match="over the limit of 81"):
            new_register(preps + preps[:1], n_max=1)

    def test_reference_cluster_checks_before_allocating(self, monkeypatch):
        monkeypatch.setattr(register, "MAX_AMPLITUDES", 3**3 * 3)
        assert reference_cluster(3, n_max=2).dim == 81
        with pytest.raises(ValidationError, match="over the limit"):
            reference_cluster(3, n_max=3)

    def test_chain_sequence_refuses_chains_too_long_at_n_max_1(self):
        assert chain_sequence(14).n_ions == 14
        for n in (15, 10**8):
            with pytest.raises(ValidationError, match="at n_max=1"):
                chain_sequence(n)


class TestInnerProduct:
    def test_self_overlap_is_one(self, rng):
        state = make_random_state(rng, 2, 2)
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        a = ket([IonLevel.G], 0)
        b = ket([IonLevel.E], 0)
        assert inner_product(a, b) == 0.0

    def test_half_overlap(self):
        a = ket([IonLevel.E], 0)
        amps = np.zeros(6, dtype=np.complex128)
        amps[basis_index(a, [IonLevel.E], 0)] = INV_SQRT2
        amps[basis_index(a, [IonLevel.G], 1)] = INV_SQRT2
        b = RegisterState(1, 1, amps)
        assert inner_product(a, b) == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_conjugate_linear_in_first_argument(self):
        a = ket([IonLevel.E], 0)
        amps = a.amplitudes * 1j
        b = RegisterState(1, 1, amps)
        assert inner_product(b, a) == pytest.approx(-1j, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(ket([IonLevel.G], 0, n_max=1), ket([IonLevel.G], 0, n_max=2))


class TestPopulations:
    def test_basis_state_population(self):
        state = ket([IonLevel.E], 0)
        assert population(state, 1, IonLevel.E) == 1.0
        assert population(state, 1, IonLevel.G) == 0.0

    def test_split_state_populations(self):
        # (|e,0> + |g,1>)/sqrt2: half ground, half excited, half one phonon.
        base = ket([IonLevel.E], 0)
        amps = np.zeros(6, dtype=np.complex128)
        amps[basis_index(base, [IonLevel.E], 0)] = INV_SQRT2
        amps[basis_index(base, [IonLevel.G], 1)] = INV_SQRT2
        state = RegisterState(1, 1, amps)
        assert population(state, 1, IonLevel.G) == pytest.approx(0.5, abs=1e-15)
        assert mode_population(state, 1) == pytest.approx(0.5, abs=1e-15)

    def test_levels_sum_to_one(self, rng):
        state = make_random_state(rng, 3, 2)
        for ion in (1, 2, 3):
            total = sum(population(state, ion, level) for level in IonLevel)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_mode_populations_sum_to_one(self, rng):
        state = make_random_state(rng, 2, 3)
        total = sum(mode_population(state, n) for n in range(4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_arguments(self, rng):
        state = make_random_state(rng, 2, 2)
        with pytest.raises(ValidationError):
            population(state, 0, IonLevel.G)
        with pytest.raises(ValidationError):
            population(state, 3, IonLevel.G)
        with pytest.raises(ValidationError):
            mode_population(state, 3)
        with pytest.raises(ValidationError):
            mode_population(state, -1)


class TestIndexing:
    @pytest.mark.parametrize("n_ions,n_max", [(1, 1), (2, 2), (3, 3), (6, 2)])
    def test_encode_decode_roundtrip_exhaustive(self, n_ions, n_max):
        state = new_register([IonPrep.basis(IonLevel.G)] * n_ions, n_max)
        seen = set()
        for digits in range(3**n_ions):
            levels = []
            rest = digits
            for _ in range(n_ions):
                rest, d = divmod(rest, 3)
                levels.append(IonLevel(d))
            levels.reverse()
            for n in range(n_max + 1):
                index = basis_index(state, levels, n)
                assert index not in seen
                seen.add(index)
                label = basis_label(state, index)
                names, phonon = label.split(";")
                assert int(phonon) == n
                assert names.split(" ") == [
                    {IonLevel.G: "g", IonLevel.E: "e", IonLevel.EPRIME: "eprime"}[l]
                    for l in levels
                ]
        assert len(seen) == state.dim

    def test_ion_one_is_most_significant(self):
        state = new_register([IonPrep.basis(IonLevel.G)] * 2, n_max=1)
        index = basis_index(state, [IonLevel.E, IonLevel.G], 0)
        assert index == 1 * 3 * 2 * 1  # e digit of ion 1 times 3 * (n_max+1)

    def test_amplitudes_are_read_only(self):
        state = new_register([IonPrep.basis(IonLevel.G)], n_max=1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestPhaseComparison:
    def test_alignment_recovers_phase(self, rng):
        state = make_random_state(rng, 2, 2)
        phase = np.exp(0.83j)
        rotated = RegisterState(2, 2, state.amplitudes * phase)
        recovered = global_phase_alignment(state, rotated)
        assert recovered == pytest.approx(phase, abs=1e-12)
        assert states_allclose(rotated, state, atol=1e-12, up_to_global_phase=True)
        assert not states_allclose(rotated, state, atol=1e-12)

    def test_exact_comparison(self, rng):
        state = make_random_state(rng, 2, 2)
        assert states_allclose(state, state, atol=0.0)
