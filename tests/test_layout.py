"""The dense basis layout and its buffer.

The reads (populations, leakages, labels, indices, the reference state) are
checked bitwise against an independent formulation written in the tests: axis
gathers with ``np.take``/``np.ix_`` and hand-written base-3 codecs.  The
ownership tests pin when a ``RegisterState`` copies its amplitudes and when
it adopts them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    RegisterState,
    apply_pulse,
    eprime_leakage,
    half_sideband,
    mode_leakage,
    mode_population,
    new_register,
    population,
    reference_cluster,
)
from ionchain import pulse, register, verify
from ionchain.register import LEVELS_BY_NAME, IonPrep
from conftest import oracle_basis_index, oracle_basis_label


# ---------------------------------------------------------------------------
# Oracle: gathers along explicit axes and base-3 digit loops.
# ---------------------------------------------------------------------------


def _shaped(state):
    return state.amplitudes.reshape([3] * state.n_ions + [state.n_max + 1])


def oracle_population(state, ion, level):
    sub = np.take(_shaped(state), level, axis=ion - 1)
    return float(np.sum(np.abs(sub) ** 2))


def oracle_mode_population(state, n):
    sub = np.take(_shaped(state), n, axis=state.n_ions)
    return float(np.sum(np.abs(sub) ** 2))


def oracle_eprime_leakage(state):
    qubit_block = _shaped(state)[np.ix_(*([[0, 1]] * state.n_ions))]
    return float(max(0.0, 1.0 - np.sum(np.abs(qubit_block) ** 2)))


def oracle_mode_leakage(state):
    return float(sum(oracle_mode_population(state, n) for n in range(2, state.n_max + 1)))


def oracle_reference_amplitudes(n_qubits, n_max):
    scale = 2.0 ** (-n_qubits / 2.0)
    levels = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1
    flips = np.sum((levels[:, :-1] == 0) & (levels[:, 1:] == 1), axis=1)
    digits = levels @ 3 ** np.arange(n_qubits - 1, -1, -1)
    amps = np.zeros(3**n_qubits * (n_max + 1), dtype=np.complex128)
    amps[digits * (n_max + 1)] = np.where(flips % 2 == 1, -scale, scale)
    return amps


def same_bits(a, b) -> bool:
    """Equal to the last bit, signed zeros included."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def random_state_with_zeros(rng, n_ions, n_max):
    """Random state whose parts are often +0.0 or -0.0, sometimes whole e' rows."""
    dim = 3**n_ions * (n_max + 1)
    parts = rng.normal(size=(2, dim))
    zeros = rng.random(size=(2, dim)) < 0.3
    parts[zeros] = np.where(rng.random(size=zeros.sum()) < 0.5, 0.0, -0.0)
    amps = (parts[0] + 1j * parts[1]) / np.linalg.norm(parts)
    if rng.random() < 0.5:
        # Clear every e' row to signed zeros, as a leakage-free program leaves it.
        shaped = amps.reshape([3] * n_ions + [n_max + 1])
        for ion in range(n_ions):
            index = [slice(None)] * (n_ions + 1)
            index[ion] = 2
            shaped[tuple(index)] = complex(-0.0, 0.0)
    return RegisterState(n_ions, n_max, amps)


LAYOUTS = list(itertools.product(range(1, 8), range(1, 4)))


@pytest.mark.parametrize("n_ions, n_max", LAYOUTS)
def test_reads_match_the_axis_gather_oracle_bitwise(n_ions, n_max):
    rng = np.random.default_rng(1000 * n_ions + n_max)
    for _ in range(6):
        state = random_state_with_zeros(rng, n_ions, n_max)
        for ion, level in itertools.product(range(1, n_ions + 1), IonLevel):
            assert same_bits(
                population(state, ion, level), oracle_population(state, ion, level)
            )
        for n in range(n_max + 1):
            assert same_bits(mode_population(state, n), oracle_mode_population(state, n))
        assert same_bits(eprime_leakage(state), oracle_eprime_leakage(state))
        assert same_bits(mode_leakage(state), oracle_mode_leakage(state))


@pytest.mark.parametrize("n_ions, n_max", LAYOUTS)
def test_index_codecs_match_the_base_3_oracle(n_ions, n_max):
    state = reference_cluster(n_ions, n_max)
    # Each amplitude holds its own flat index, so the shaped view reads it back.
    indexed = RegisterState(n_ions, n_max, np.arange(state.dim)).shaped()
    rng = np.random.default_rng(n_ions + 10 * n_max)
    dim = state.dim
    indices = range(dim) if dim <= 1000 else rng.choice(dim, size=1000, replace=False)
    for index in map(int, indices):
        label = register.basis_labels(n_ions, n_max, [index])[0]
        assert label == oracle_basis_label(n_ions, n_max, index)
        names, n = label.split(";")
        levels = [LEVELS_BY_NAME[name] for name in names.split()]
        assert indexed[(*levels, int(n))] == index
        assert oracle_basis_index(n_max, levels, int(n)) == index


@pytest.mark.parametrize("n_ions, n_max", LAYOUTS)
def test_label_codec_matches_the_oracle_at_every_index(n_ions, n_max):
    state = reference_cluster(n_ions, n_max)
    labels = register.basis_labels(n_ions, n_max, np.arange(state.dim))
    assert labels == [oracle_basis_label(n_ions, n_max, i) for i in range(state.dim)]


@pytest.mark.parametrize("n_ions, n_max", [(12, 2), (14, 1)])
def test_label_codec_matches_the_oracle_on_long_chains(n_ions, n_max):
    dim = 3**n_ions * (n_max + 1)
    indices = np.random.default_rng(n_ions).choice(dim, size=1000, replace=False)
    want = [oracle_basis_label(n_ions, n_max, int(i)) for i in indices]
    assert register.basis_labels(n_ions, n_max, indices) == want


def test_label_codec_reads_a_deep_mode():
    # The word tables are sized by the ions only: this mode has 100,001 levels.
    n_max = 100_000
    labels = register.basis_labels(1, n_max, np.arange(3 * (n_max + 1)))
    assert labels == [oracle_basis_label(1, n_max, i) for i in range(3 * (n_max + 1))]
    assert labels[-1] == "eprime;100000"


@pytest.mark.parametrize("n_ions, n_max", LAYOUTS)
def test_reference_cluster_matches_the_digit_oracle_bitwise(n_ions, n_max):
    assert same_bits(
        reference_cluster(n_ions, n_max).amplitudes,
        oracle_reference_amplitudes(n_ions, n_max),
    )


# ---------------------------------------------------------------------------
# One buffer per state
# ---------------------------------------------------------------------------


class TestOwnership:
    def test_callers_writeable_array_is_copied(self):
        amps = np.zeros(3 * 2, dtype=np.complex128)
        amps[0] = 1.0
        state = RegisterState(1, 1, amps)
        amps[0] = 5.0
        amps[1] = 1.0
        assert state.amplitudes[0] == 1.0 and state.amplitudes[1] == 0.0
        assert not np.shares_memory(state.amplitudes, amps)

    def test_read_only_view_of_a_writeable_base_is_copied(self):
        base = np.zeros(3 * 2, dtype=np.complex128)
        base[0] = 1.0
        view = base[:]
        view.setflags(write=False)
        state = RegisterState(1, 1, view)
        base[0] = 5.0
        assert state.amplitudes[0] == 1.0
        assert not np.shares_memory(state.amplitudes, base)

    def test_read_only_owner_is_adopted(self):
        amps = np.zeros(3 * 2, dtype=np.complex128)
        amps[0] = 1.0
        amps.setflags(write=False)
        assert RegisterState(1, 1, amps).amplitudes is amps

    def test_pulse_output_owns_a_read_only_buffer_and_leaves_its_input(self):
        state = new_register([IonPrep.basis(IonLevel.E), IonPrep.basis(IonLevel.G)], 2)
        before = state.amplitudes.copy()
        out = apply_pulse(state, half_sideband(1))
        assert not out.amplitudes.flags.writeable
        assert out.amplitudes.base is None
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert same_bits(state.amplitudes, before)
        assert not same_bits(out.amplitudes, before)
        with pytest.raises(ValueError):
            out.amplitudes[0] = 0.0

    def test_pulse_output_is_adopted_not_copied_again(self, monkeypatch):
        handed = []

        def spy(n_ions, n_max, amplitudes):
            handed.append(amplitudes)
            return RegisterState(n_ions, n_max, amplitudes)

        monkeypatch.setattr(pulse, "RegisterState", spy)
        state = new_register([IonPrep.basis(IonLevel.E)], 1)
        assert apply_pulse(state, half_sideband(1)).amplitudes is handed[0]

    def test_reference_cluster_hands_over_the_buffer_it_keeps(self, monkeypatch):
        handed = []

        def spy(n_ions, n_max, amplitudes):
            handed.append(amplitudes)
            return RegisterState(n_ions, n_max, amplitudes)

        monkeypatch.setattr(verify, "RegisterState", spy)
        state = reference_cluster(4, 2)
        assert state.amplitudes is handed[0]
        assert state.amplitudes.base is None
