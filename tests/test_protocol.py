from __future__ import annotations

import math
import weakref

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    PulseKind,
    PulseSequence,
    RegisterState,
    TruncationError,
    ValidationError,
    chain_sequence,
    cluster6_sequence,
    fidelity,
    half_sideband,
    mode_population,
    new_register,
    population,
    reference_cluster,
    run,
)
from conftest import states_allclose
from step_fixtures import expected_states


class TestSequenceStructure:
    def test_eleven_steps_ten_sidebands(self):
        seq = cluster6_sequence()
        assert len(seq.steps) == 11
        assert seq.sideband_count() == 10

    def test_step_kinds_in_order(self):
        kinds = [step.kind.value for step in cluster6_sequence().steps]
        assert kinds == [
            "sideband_ge",
            "sideband_geprime",
            "sideband_ge",
            "carrier",
            "sideband_ge",
            "sideband_geprime",
            "sideband_geprime",
            "sideband_ge",
            "sideband_ge",
            "sideband_geprime",
            "sideband_ge",
        ]

    def test_single_carrier_on_ion_one(self):
        seq = cluster6_sequence()
        carriers = [s for s in seq.steps if s.kind == PulseKind.CARRIER]
        assert len(carriers) == 1
        assert carriers[0].ion == 1
        assert carriers[0].theta == pytest.approx(math.pi / 2)
        assert carriers[0].phi == 0.0

    def test_addressed_ions_in_order(self):
        ions = [step.ion for step in cluster6_sequence().steps]
        assert ions == [1, 3, 2, 1, 4, 3, 5, 4, 6, 5, 6]

    def test_chain6_equals_cluster6(self):
        assert chain_sequence(6) == cluster6_sequence()

    def test_chain_rejects_tiny_chains(self):
        with pytest.raises(ValidationError):
            chain_sequence(1)

    def test_sequence_rejects_out_of_range_step(self):
        with pytest.raises(ValidationError):
            PulseSequence(
                (IonPrep.basis(IonLevel.G),), (half_sideband(2),)
            )

    @pytest.mark.parametrize("labels", [("one",), ("one", "two", "three")])
    def test_sequence_rejects_a_label_count_unlike_the_step_count(self, labels):
        preps = (IonPrep.basis(IonLevel.E),)
        steps = (half_sideband(1), half_sideband(1))
        with pytest.raises(ValidationError, match=f"{len(labels)} labels for 2 steps"):
            PulseSequence(preps, steps, labels)


class TestRunner:
    def test_empty_sequence_returns_initial_state(self):
        seq = PulseSequence((IonPrep.basis(IonLevel.G),), ())
        final, snapshots = run(seq, n_max=2)
        initial = new_register([IonPrep.basis(IonLevel.G)], 2)
        assert np.array_equal(final.amplitudes, initial.amplitudes)
        assert snapshots == []

    def test_without_snapshot_nothing_is_taken(self):
        _, taken = run(cluster6_sequence(), n_max=2)
        assert taken == []

    def test_no_earlier_state_outlives_its_step(self):
        previous = []

        def snapshot(state):
            # By the time the next step's state is handed over, the run
            # must have let go of the one before it.
            assert all(ref() is None for ref in previous)
            previous.append(weakref.ref(state))
            return None

        final, taken = run(cluster6_sequence(), n_max=2, snapshot=snapshot)
        assert taken == [None] * 11
        assert previous[-1]() is final

    def test_final_state_matches_reference(self):
        final, _ = run(cluster6_sequence(), n_max=2)
        ref = reference_cluster(6, n_max=2)
        assert fidelity(final, ref) >= 1.0 - 1e-10

    def test_run_is_deterministic(self):
        a, _ = run(cluster6_sequence(), n_max=2)
        b, _ = run(cluster6_sequence(), n_max=2)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_truncation_reports_step_index(self):
        # Load |e,0> into the mode, re-excite the ion with a carrier, and the
        # third pulse starts from |e,1>, which would couple past n_max=1.
        from ionchain import carrier, map_ion_to_mode

        seq = PulseSequence(
            (IonPrep.basis(IonLevel.E),),
            (map_ion_to_mode(1), carrier(1, math.pi, 0.0), half_sideband(1)),
        )
        with pytest.raises(TruncationError) as excinfo:
            run(seq, n_max=1)
        assert excinfo.value.step_index == 3

    def test_labelled_step_is_named_by_its_label_alone(self):
        # The pulse error body names the ion, so the prefix does not repeat it.
        from ionchain import carrier, map_ion_to_mode

        steps = (map_ion_to_mode(1), carrier(1, math.pi, 0.0), half_sideband(1))
        labels = ("load ion 1", "re-excite ion 1", "split ion 1")
        seq = PulseSequence((IonPrep.basis(IonLevel.E),), steps, labels)
        with pytest.raises(TruncationError) as excinfo:
            run(seq, n_max=1)
        assert str(excinfo.value).startswith(
            "step 3 (split ion 1): sideband pulse on ion 1 would couple"
        )
        assert str(excinfo.value).count("ion 1") == 2

    def test_overflowing_area_reports_step_index(self):
        from ionchain import Pulse

        seq = PulseSequence(
            (IonPrep.basis(IonLevel.E),),
            (Pulse(PulseKind.SIDEBAND_GE, 1, 0.0, 1.7e308),),
        )
        with pytest.raises(ValidationError) as excinfo:
            run(seq, n_max=5)
        assert excinfo.value.step_index == 1
        assert str(excinfo.value).startswith(
            "step 1 (sideband_ge on ion 1): sideband_ge pulse on ion 1: area 1.7e+308"
        )


@pytest.fixture(scope="module")
def snapshots():
    _, states = run(cluster6_sequence(), n_max=2, snapshot=lambda s: s)
    return states


@pytest.fixture(scope="module")
def expected():
    states = expected_states(n_max=2)
    for vec in states:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    return states


class TestSnapshotRegression:
    @pytest.mark.parametrize("step", range(1, 12))
    def test_state_after_step(self, snapshots, expected, step):
        target = RegisterState(6, 2, expected[step - 1])
        assert states_allclose(
            snapshots[step - 1], target, atol=1e-10, up_to_global_phase=True
        )

    def test_snapshots_are_normalized(self, snapshots):
        assert len(snapshots) == 11
        for state in snapshots:
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


class TestProtocolInvariants:
    def test_mode_returns_to_vacuum(self):
        final, _ = run(cluster6_sequence(), n_max=2)
        assert mode_population(final, 0) == pytest.approx(1.0, abs=1e-10)

    def test_no_eprime_residue_after_phase_gates(self):
        seq = cluster6_sequence()
        _, states = run(seq, n_max=2, snapshot=lambda s: s)
        for pulse, state in zip(seq.steps, states, strict=True):
            if pulse.kind == PulseKind.SIDEBAND_GEPRIME:
                leak = population(state, pulse.ion, IonLevel.EPRIME)
                assert leak <= 1e-12

    def test_no_over_excitation(self):
        _, states = run(cluster6_sequence(), n_max=2, snapshot=lambda s: s)
        assert len(states) == 11
        for state in states:
            assert mode_population(state, 2) <= 1e-12

    def test_truncation_robustness_cutoff_1_vs_5(self):
        tight, _ = run(cluster6_sequence(), n_max=1)
        roomy, _ = run(cluster6_sequence(), n_max=5)
        shaped_tight = tight.shaped()
        shaped_roomy = roomy.shaped()
        shared = shaped_roomy[..., :2]
        assert np.max(np.abs(shared - shaped_tight)) < 1e-10


class TestChainGeneralization:
    @pytest.mark.parametrize("n_ions", [2, 3, 4, 5, 6, 7, 8])
    def test_chain_reproduces_reference(self, n_ions):
        final, _ = run(chain_sequence(n_ions), n_max=2)
        ref = reference_cluster(n_ions, n_max=2)
        assert fidelity(final, ref) >= 1.0 - 1e-10

    def test_chain2_reference_expanded_by_hand(self):
        # 2-qubit reference: (|gg> - |ge> + |eg> + |ee>)/2 with the mode empty.
        final, _ = run(chain_sequence(2), n_max=2)
        shaped = final.shaped()
        assert shaped[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert shaped[0, 1, 0] == pytest.approx(-0.5, abs=1e-12)
        assert shaped[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert shaped[1, 1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_even_chain_step_count(self):
        # 4 anchor steps, then 4 steps per even ion beyond 2, minus the
        # missing phase gate after the last ion of an even chain.
        assert len(chain_sequence(2).steps) == 4
        assert len(chain_sequence(4).steps) == 4 + 3
        assert len(chain_sequence(6).steps) == 4 + 3 + 4
        assert len(chain_sequence(8).steps) == 4 + 3 + 4 + 4


SPLIT = "split ion 1 into the bus"
CARRIER = "carrier rotation on ion 1"


def _phase(k):
    return f"conditional phase between bus and ion {k}"


def _load(k):
    return f"load ion {k} into the bus"


def _empty(k):
    return f"empty the bus into ion {k}"


class TestProgramPinned:
    """Labels and preparations of chain programs, written out by hand."""

    @pytest.mark.parametrize("n_ions, labels", [
        (2, [SPLIT, _phase(1), _empty(2), CARRIER]),
        (3, [SPLIT, _phase(3), _empty(2), CARRIER]),
        (7, [SPLIT, _phase(3), _empty(2), CARRIER,
             _load(4), _phase(3), _phase(5), _empty(4),
             _load(6), _phase(5), _phase(7), _empty(6)]),
        (8, [SPLIT, _phase(3), _empty(2), CARRIER,
             _load(4), _phase(3), _phase(5), _empty(4),
             _load(6), _phase(5), _phase(7), _empty(6),
             _load(8), _phase(7), _empty(8)]),
    ])
    def test_labels(self, n_ions, labels):
        assert list(chain_sequence(n_ions).labels) == labels

    def test_chain2_preparations(self):
        assert chain_sequence(2).preps == (
            IonPrep.basis(IonLevel.E), IonPrep.basis(IonLevel.G)
        )

    @pytest.mark.parametrize("n_ions", range(3, 11))
    def test_final_preparation_sign(self, n_ions):
        half = 1.0 / math.sqrt(2.0)
        sign = 1.0 if n_ions % 2 == 0 else -1.0
        preps = chain_sequence(n_ions).preps
        minus = IonPrep([(IonLevel.G, half), (IonLevel.E, -half)])
        assert preps[-1] == IonPrep([(IonLevel.G, half), (IonLevel.E, sign * half)])
        assert preps[:2] == (IonPrep.basis(IonLevel.E), IonPrep.basis(IonLevel.G))
        assert preps[2:-1] == (minus,) * (n_ions - 3)
