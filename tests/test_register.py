from __future__ import annotations

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from ionchain import (
    IonLevel,
    IonPrep,
    NoiseConfig,
    RegisterState,
    ValidationError,
    chain_sequence,
    global_phase_alignment,
    inner_product,
    mode_population,
    monte_carlo,
    new_register,
    population,
    reference_cluster,
    run,
    verify_run,
)
from ionchain import register
from ionchain.register import MAX_AMPLITUDES, check_register_size
from conftest import amp, ket, make_random_state, oracle_basis_index, states_allclose

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestNewRegister:
    def test_single_excited_ion(self):
        state = new_register([IonPrep.basis(IonLevel.E)], n_max=1)
        assert state == ket([IonLevel.E], 0, 1)

    def test_single_ground_ion(self):
        state = new_register([IonPrep.basis(IonLevel.G)], n_max=1)
        assert amp(state, [IonLevel.G], 0) == 1.0
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
            assert amp(state, [l1, l2], 0) == pytest.approx(value, abs=1e-15)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert mode_population(state, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_ions", range(2, 9))
    def test_owns_the_bytes_of_the_kron_product(self, monkeypatch, n_ions, n_max):
        rng = np.random.default_rng(10 * n_ions + n_max)
        preps = []
        for _ in range(n_ions):
            coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
            coeffs[1:][rng.random(2) < 0.3] = 0.0
            preps.append(IonPrep(zip(IonLevel, coeffs / np.linalg.norm(coeffs))))
        given = []

        def adopted(**fields):
            given.append(fields["amplitudes"])
            return RegisterState(**fields)

        monkeypatch.setattr(register, "RegisterState", adopted)
        state = new_register(preps, n_max)
        # The state keeps the array new_register wrote, instead of a copy of it.
        assert state.amplitudes is given[0] and state.amplitudes.base is None
        kron = np.ones(1, dtype=np.complex128)
        for prep in preps:
            kron = np.kron(kron, prep.coefficients)
        mode = np.zeros(n_max + 1, dtype=np.complex128)
        mode[0] = 1.0
        kron = np.kron(kron, mode)
        with register._one_blas_thread():  # the norm's bits, as new_register takes it
            kron /= np.linalg.norm(kron)
        assert state.amplitudes.tobytes() == kron.tobytes()

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


class TestIonPrep:
    def test_cannot_be_changed_once_built(self):
        # A changed preparation would let new_register build an all-NaN state.
        prep = IonPrep.basis(IonLevel.G)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prep.coefficients = np.zeros(3)
        assert prep.coefficients == (1.0, 0.0, 0.0)

    def test_equal_preparations_are_equal_and_hash_equal(self):
        a = IonPrep([(IonLevel.G, 0.6), (IonLevel.E, 0.8j)])
        b = IonPrep([(IonLevel.E, 0.5j), (IonLevel.G, 0.6), (IonLevel.E, 0.3j)])
        assert a == b and hash(a) == hash(b)
        assert a != IonPrep([(IonLevel.G, 0.6), (IonLevel.E, -0.8j)])
        assert len({a, b, IonPrep.basis(IonLevel.G)}) == 2

    def test_repr(self):
        prep = IonPrep([(IonLevel.G, 0.6), (IonLevel.E, 0.8j)])
        assert repr(prep) == "IonPrep(g:0.6+0j, e:0+0.8j)"


class TestAmplitudeCap:
    """Oversized registers are refused from the arithmetic, never allocated."""

    @pytest.mark.parametrize("n_ions, n_max", [(14, 2), (12, 30), (1, 5_592_404)])
    def test_admits_up_to_the_cap(self, n_ions, n_max):
        assert 3**n_ions * (n_max + 1) <= MAX_AMPLITUDES
        assert check_register_size(n_ions, n_max) == 3**n_ions * (n_max + 1)

    def test_returns_the_dimension_it_checked(self):
        assert check_register_size(12, 2) == 1_594_323
        assert check_register_size(14, 2) == 3**14 * 3
        assert check_register_size(3) == 54  # at the smallest cutoff, 1

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda huge: new_register([IonPrep.basis(IonLevel.G)] * 2, huge),
            lambda huge: chain_sequence(huge),
            lambda huge: reference_cluster(2, huge),
            lambda huge: RegisterState(huge, 1, np.zeros(6, dtype=np.complex128)),
            lambda huge: verify_run(reference_cluster(2, 2), huge),
        ],
        ids=["new_register", "chain_sequence", "reference_cluster", "RegisterState",
             "verify_run"],
    )
    def test_an_integer_too_long_to_print_is_refused_in_one_line(self, call):
        # str() of an int past Python's 4300-digit limit raises ValueError.
        with pytest.raises(ValidationError) as excinfo:
            call(10**5000)
        message = str(excinfo.value)
        assert "\n" not in message and len(message) < 200
        assert "an integer of 16610 bits" in message


class TestInnerProduct:
    def test_self_overlap_is_one(self, rng):
        state = make_random_state(rng, 2, 2)
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        a = ket([IonLevel.G], 0, 1)
        b = ket([IonLevel.E], 0, 1)
        assert inner_product(a, b) == 0.0

    def test_half_overlap(self):
        a = ket([IonLevel.E], 0, 1)
        amps = INV_SQRT2 * (a.amplitudes + ket([IonLevel.G], 1, 1).amplitudes)
        b = RegisterState(1, 1, amps)
        assert inner_product(a, b) == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_conjugate_linear_in_first_argument(self):
        a = ket([IonLevel.E], 0, 1)
        amps = a.amplitudes * 1j
        b = RegisterState(1, 1, amps)
        assert inner_product(b, a) == pytest.approx(-1j, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(ket([IonLevel.G], 0, 1), ket([IonLevel.G], 0, 2))


class TestPopulations:
    def test_basis_state_population(self):
        state = ket([IonLevel.E], 0, 1)
        assert population(state, 1, IonLevel.E) == 1.0
        assert population(state, 1, IonLevel.G) == 0.0

    def test_split_state_populations(self):
        # (|e,0> + |g,1>)/sqrt2: half ground, half excited, half one phonon.
        base = ket([IonLevel.E], 0, 1)
        amps = INV_SQRT2 * (base.amplitudes + ket([IonLevel.G], 1, 1).amplitudes)
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
        # Each amplitude holds its own flat index, so the shaped view reads it back.
        state = RegisterState(n_ions, n_max, np.arange(3**n_ions * (n_max + 1)))
        seen = set()
        for digits in range(3**n_ions):
            levels = []
            rest = digits
            for _ in range(n_ions):
                rest, d = divmod(rest, 3)
                levels.append(IonLevel(d))
            levels.reverse()
            for n in range(n_max + 1):
                index = int(state.shaped()[(*levels, n)].real)
                assert index not in seen
                seen.add(index)
                label = register.basis_labels(n_ions, n_max, [index])[0]
                names, phonon = label.split(";")
                assert int(phonon) == n
                assert names.split(" ") == [
                    {IonLevel.G: "g", IonLevel.E: "e", IonLevel.EPRIME: "eprime"}[l]
                    for l in levels
                ]
        assert len(seen) == state.dim

    def test_ion_one_is_most_significant(self):
        state = RegisterState(2, 1, np.arange(18))
        index = state.shaped()[IonLevel.E, IonLevel.G, 0]
        assert index == 1 * 3 * 2 * 1  # e digit of ion 1 times 3 * (n_max+1)
        assert index == oracle_basis_index(1, [IonLevel.E, IonLevel.G], 0)

    @pytest.mark.parametrize("shape", [(17,), (19,), (2, 9), ()])
    def test_rejects_a_vector_of_the_wrong_shape(self, shape):
        with pytest.raises(ValidationError, match=r"expected \(18,\)"):
            RegisterState(2, 1, np.zeros(shape, dtype=np.complex128))

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
        assert state == RegisterState(2, 2, state.amplitudes.copy())
        assert global_phase_alignment(state, state) == 1.0
        assert states_allclose(state, state, atol=0.0)

    def test_alignment_without_overlap_is_one(self):
        a = ket([IonLevel.G, IonLevel.E], 0, 1)
        b = ket([IonLevel.E, IonLevel.G], 1, 1)
        assert global_phase_alignment(a, b) == 1 + 0j


@pytest.fixture
def blas_get():
    """Thread-count getter of numpy's bundled OpenBLAS, set to 2 for the test, then put back."""
    blas = register._openblas_threads()
    if blas is None:
        pytest.skip("this numpy has no bundled OpenBLAS")
    get, set_threads = blas
    before = get()
    set_threads(2)
    yield get
    set_threads(before)


class TestOneBlasThread:
    def test_holds_one_thread_and_puts_back_the_count(self, blas_get):
        outside = blas_get()
        with register._one_blas_thread():
            assert blas_get() == 1
        assert blas_get() == outside
        with pytest.raises(RuntimeError, match="body"):
            with register._one_blas_thread():
                assert blas_get() == 1
                raise RuntimeError("body")
        assert blas_get() == outside

    def test_overlapping_holds_on_two_threads_put_back_the_count(self, blas_get):
        """The count is process-wide: the last hold to leave, not the first, restores it."""
        outside = blas_get()
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = []

        def first():
            with register._one_blas_thread():
                first_in.set()
                second_in.wait(5)
            first_out.set()

        def second():
            first_in.wait(5)
            with register._one_blas_thread():
                second_in.set()
                first_out.wait(5)
                seen.append(blas_get())

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] and blas_get() == outside

    def test_many_threads_entering_and_leaving_lose_no_update(self, blas_get):
        outside = blas_get()
        seen = []

        def hold_often():
            for _ in range(5000):
                with register._one_blas_thread():
                    seen.append(blas_get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold_often) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 40000 and set(seen) == {1}
        assert register._blas_holders == 0 and blas_get() == outside

    def test_every_blas_reduction_runs_on_one_thread(self, monkeypatch, blas_get):
        """The norm, the overlaps, the stabilizers and the Monte Carlo scoring see one thread."""
        outside = blas_get()
        seq = chain_sequence(3)
        g, e = ket([IonLevel.G], 0, 1), ket([IonLevel.E], 0, 1)
        seen = []

        def spy(call):
            def counted(*args, **kwargs):
                seen.append(blas_get())
                return call(*args, **kwargs)
            return counted

        for module, name in ((np, "vdot"), (np.linalg, "norm")):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
        verify_run(run(seq, n_max=2)[0], 3)
        global_phase_alignment(g, e)  # no shared amplitude: the overlap fallback
        monte_carlo(seq, NoiseConfig(jitter_sigma=0.01, trials=3), n_max=2)
        assert seen and set(seen) == {1}
        assert blas_get() == outside

    def test_another_blas_build_is_left_alone(self, monkeypatch, blas_get):
        outside = blas_get()
        state, _ = run(chain_sequence(4), n_max=2)
        want = verify_run(state, 4)
        monkeypatch.setattr(register, "_openblas_threads", lambda: None)
        with register._one_blas_thread():
            assert blas_get() == outside
        assert verify_run(state, 4) == want
