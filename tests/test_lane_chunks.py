"""Stabilizers on the occupied lane chunks keep the bits of the dense image pass.

``verify.stabilizer_expectations`` gathers each K_a|psi> only on the
``register.LANE``-aligned chunks of the state that hold an amplitude and
takes its ``np.vdot`` there, falling back to a dense pass over the whole
vector for a real part that is exactly zero, a state holding a value that
is not finite, or a state whose chunks hold more than a quarter of it.
The dense pass it replaced, which wrote the whole image K_a|psi> block by
block with ``register.blockwise``, is kept here as the oracle.  Every
stabilizer float is compared with it by its ``uint64`` bits, zero signs and
NaN payloads included, and every refusal by its type and message.

The property the chunks rest on is pinned here too: on one BLAS thread,
``np.vdot`` over the occupied chunks equals the dense ``np.vdot`` bit for
bit, in process and under each OpenBLAS kernel this CPU can switch to.  A
numpy or BLAS whose lanes have another period fails these tests by name.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import (
    IonLevel,
    IonPrep,
    Pulse,
    PulseKind,
    PulseSequence,
    RegisterState,
    ValidationError,
    chain_sequence,
    new_register,
    run,
    stabilizer_expectations,
    verify,
)
from ionchain.register import (
    BLOCK_BYTES,
    LANE,
    _one_blas_thread,
    basis_digits,
    basis_labels,
    blockwise,
    lane_chunks,
    population,
)

TESTS = Path(__file__).resolve().parent


@_one_blas_thread()
def dense_stabilizers(state: RegisterState) -> list[float]:
    """The dense image pass: the oracle every chunked value must equal bit for bit."""
    n = state.n_ions
    for ion in range(1, n + 1):
        leak = population(state, ion, IonLevel.EPRIME)
        if leak > verify.LEAKAGE_ATOL:
            raise ValidationError(
                f"ion {ion} holds {leak:.3e} population on e'; stabilizers "
                "are defined on the g-e subspace only"
            )
    values: list[float] = []
    scratch = np.empty_like(state.amplitudes)
    for a in range(1, n + 1):
        first, last = max(1, a - 1), min(n, a + 1)
        axis = 1 + a - first
        neighbours = [1 + nb - first for nb in (a - 1, a + 1) if 1 <= nb <= n]
        blockwise(
            lambda source, target, _: dense_image(source, target, axis, neighbours),
            state.amplitudes, scratch, first, state.n_max, last,
        )
        value = complex(np.vdot(state.amplitudes, scratch))
        if abs(value.imag) > 1e-10:
            raise ValidationError(
                f"stabilizer {a} expectation has imaginary residue {value.imag:.3e}"
            )
        values.append(float(value.real))
    return values


def dense_image(source, target, axis: int, neighbours: list[int]) -> None:
    """Write K_a of the ``source`` block into ``target``: ion a's level is ``axis``."""
    def level(block, ax, k):
        return block[(slice(None),) * ax + (k,)]

    level(target, axis, 0)[...] = level(source, axis, 1)
    level(target, axis, 1)[...] = level(source, axis, 0)
    level(target, axis, 2)[...] = 0.0
    for nb in neighbours:
        np.negative(level(target, nb, 1), out=level(target, nb, 1))
        level(target, nb, 2)[...] = 0.0


def outcome(fn, state):
    """The ``uint64`` bits of ``fn(state)``, or the type and message it raised."""
    try:
        values = fn(state)
    except ValidationError as err:
        return type(err), str(err)
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_same_as_dense(state: RegisterState):
    want = outcome(dense_stabilizers, state)
    assert outcome(stabilizer_expectations, state) == want
    return want


CHAINS = [(n, n_max) for n in range(2, 11) for n_max in range(1, 6)] + [(12, 2)]


@pytest.mark.parametrize("n_ions, n_max", CHAINS)
def test_chain_stabilizers_equal_the_dense_pass(n_ions, n_max):
    final, _ = run(chain_sequence(n_ions), n_max)
    assert isinstance(assert_same_as_dense(final), list)


@pytest.mark.parametrize("n_ions, n_max", [(4, 3), (6, 4), (8, 3), (10, 3)])
def test_tiny_jitter_keeps_the_dense_bits(n_ions, n_max):
    rng = np.random.default_rng(n_ions * 10 + n_max)
    seq = chain_sequence(n_ions)
    steps = [Pulse(s.kind, s.ion, s.phi, s.theta * (1 + 3e-6 * rng.normal())) for s in seq.steps]
    final, _ = run(PulseSequence(seq.preps, steps), n_max)
    leaks = [population(final, ion, IonLevel.EPRIME) for ion in range(1, n_ions + 1)]
    assert 0 < max(leaks) < verify.LEAKAGE_ATOL
    assert isinstance(assert_same_as_dense(final), list)


_SQRT_HALF = math.sqrt(0.5)
_PREPS = [
    IonPrep.basis(IonLevel.G),
    IonPrep.basis(IonLevel.E),
    IonPrep([(IonLevel.G, _SQRT_HALF), (IonLevel.E, _SQRT_HALF)]),
    IonPrep([(IonLevel.G, _SQRT_HALF), (IonLevel.E, -_SQRT_HALF)]),
    IonPrep([(IonLevel.G, _SQRT_HALF), (IonLevel.E, 1j * _SQRT_HALF)]),
    IonPrep([(IonLevel.G, math.sqrt(1 - 1e-10)), (IonLevel.EPRIME, 1e-5)]),  # 1e-10 on e'
    IonPrep([(IonLevel.G, 0.6), (IonLevel.E, 0.8)]),
]


@st.composite
def product_programs(draw):
    """Product preparations of 1-5 ions and up to four carriers, at n_max 1-3."""
    n_ions = draw(st.integers(1, 5))
    preps = draw(st.lists(st.sampled_from(_PREPS), min_size=n_ions, max_size=n_ions))
    carriers = draw(st.lists(
        st.tuples(st.integers(1, n_ions), st.sampled_from([0.0, math.pi / 2, math.pi, -1.0]),
                  st.sampled_from([math.pi / 2, math.pi, 2 * math.pi, 0.7])),
        max_size=4,
    ))
    steps = [Pulse(PulseKind.CARRIER, ion, phi, theta) for ion, phi, theta in carriers]
    return PulseSequence(preps, steps), draw(st.integers(1, 3))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(program=product_programs())
def test_product_and_carrier_programs_equal_the_dense_pass(program):
    seq, n_max = program
    final, _ = run(seq, n_max)
    assert_same_as_dense(final)


def traced_peak(state: RegisterState) -> int:
    """Most bytes ``stabilizer_expectations(state)`` held at once, its tables already cached."""
    stabilizer_expectations(state)
    tracemalloc.start()
    try:
        stabilizer_expectations(state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_zeros_come_from_the_whole_vector():
    # Every stabilizer of a product of basis states is exactly zero: each
    # value takes the fallback, and its sign is the dense pass's.
    calls = []
    fallback = verify._dense_value

    def counted(amps, a, n, n_max, image):
        calls.append(a)
        return fallback(amps, a, n, n_max, image)

    state = new_register([IonPrep.basis(IonLevel.E)] + [_PREPS[4]] * 3, 2)
    with mock.patch.object(verify, "_dense_value", counted):
        values = assert_same_as_dense(state)
    assert calls == [1, 2, 3, 4]
    assert all(v in (0, 1 << 63) for v in values)


def test_zero_fallback_holds_one_dense_image_and_one_block():
    # Ten ions at n_max 2 in g: 2.8 MB a vector, every value an exact zero.
    state = new_register([IonPrep.basis(IonLevel.G)] * 10, 2)
    assert stabilizer_expectations(state) == [0.0] * 10
    assert traced_peak(state) <= state.amplitudes.nbytes + BLOCK_BYTES


def filling_program(n_ions: int) -> PulseSequence:
    """Carriers and faint sidebands that leave an amplitude in every lane chunk, e' under 1e-9."""
    steps = []
    for _ in range(3):
        for kind, theta in ((PulseKind.CARRIER, 1.1), (PulseKind.SIDEBAND_GE, 2e-5),
                            (PulseKind.SIDEBAND_GEPRIME, 2e-5)):
            steps += [Pulse(kind, ion, 0.3, theta) for ion in range(1, n_ions + 1)]
    return PulseSequence([IonPrep.basis(IonLevel.G)] * n_ions, steps)


@pytest.mark.parametrize("n_ions, n_max", [(5, 2), (8, 3), (10, 2)])
def test_states_filling_the_chunks_equal_the_dense_pass(n_ions, n_max):
    final, _ = run(filling_program(n_ions), n_max)
    assert lane_chunks(final.amplitudes).size > 0.9 * final.dim
    assert isinstance(assert_same_as_dense(final), list)


def test_filled_chunks_hold_one_dense_image():
    # Gathering on every chunk would hold about four images' worth.
    final, _ = run(filling_program(10), 2)
    assert traced_peak(final) <= final.amplitudes.nbytes + BLOCK_BYTES


def test_chain12_chunks_hold_less_than_one_dense_image():
    final, _ = run(chain_sequence(12), 2)
    assert traced_peak(final) < final.amplitudes.nbytes / 2


@pytest.mark.parametrize(
    "placed",
    [
        {27: np.nan},  # |e g g;0>
        {27: np.inf},
        {4: complex(np.inf, 1.0), 40: np.nan},
        {10: -np.inf, 30: complex(0.0, np.nan)},
        {0: np.inf, 14: np.nan},  # NaNs of two signs: the chunks alone pick the other
        {1: np.inf, 32: np.nan},
        {6: np.inf},  # an e' level: the leak is refused
    ],
    ids=["nan", "inf", "inf-and-nan", "minus-inf-and-imag-nan", "nan-signs", "nan-signs-2",
         "inf-on-eprime"],
)
def test_values_that_are_not_finite_match_the_dense_pass(placed):
    # The rest of the state is an ordinary chain:3 state, zero in whole chunks.
    final, _ = run(chain_sequence(3), 2)
    amps = np.array(final.amplitudes)
    for index, value in placed.items():
        amps[index] = value
    assert_same_as_dense(RegisterState(3, 2, amps))


@pytest.mark.parametrize(
    "value, nan_at",
    [(np.inf, None), (np.nan, None), (complex(0.0, -np.inf), None), (np.inf, 322)],
    ids=["inf", "nan", "imag-minus-inf", "inf-and-nan"],
)
def test_values_that_are_not_finite_in_a_sparse_state_match_the_dense_pass(value, nan_at):
    # ``value`` goes where X_1 moves it into a chunk the state leaves empty:
    # only a pass over the whole vector multiplies it there by a zero of the
    # state.  That 0 * inf is a NaN with its sign set, a NaN at 322 has it
    # clear, and which of them a lane meets first decides the sign it keeps.
    final, _ = run(chain_sequence(8), 2)
    amps = np.array(final.amplitudes)
    kept = lane_chunks(amps)
    assert kept.size * 4 <= amps.size and (nan_at is None or nan_at in kept)
    stride = 3 * 3**7  # ion 1's digit
    amps[np.setdiff1d(kept + stride, kept)[0] - stride] = value
    if nan_at is not None:
        amps[nan_at] = np.nan
    assert_same_as_dense(RegisterState(8, 2, amps))


@pytest.mark.parametrize("ion", [1, 2, 3, 4])
@pytest.mark.parametrize("eprime", [1e-12, 0.9999999e-9, 1e-9, 1.0000001e-9, 2e-9, 1e-3, 0.25])
def test_eprime_check_matches_the_dense_pass(ion, eprime):
    preps = [_PREPS[2]] * 4
    preps[ion - 1] = IonPrep(
        [(IonLevel.G, math.sqrt(1 - eprime)), (IonLevel.EPRIME, math.sqrt(eprime))]
    )
    got = assert_same_as_dense(new_register(preps, 2))
    if eprime > 1.00000001e-9:
        assert got[0] is ValidationError and got[1].startswith(f"ion {ion} holds")
    elif eprime < 0.99999999e-9:
        assert isinstance(got, list)


def test_lane_chunks_cover_every_nonzero_amplitude():
    rng = np.random.default_rng(7)
    for size in (1, 7, 8, 9, 81, 1000, 3**7 * 3):
        amps = np.zeros(size, dtype=np.complex128)
        kept = rng.choice(size, max(1, size // 20), replace=False)
        amps[kept] = rng.choice(np.array([1.0, 1e-300j, complex(-0.0, -0.0)]), kept.size)
        amps[-1] = complex(0.0, np.nan)
        positions = lane_chunks(amps)
        occupied = {k // LANE for k in np.flatnonzero(amps != 0).tolist()}
        assert positions.tolist() == [k for k in range(size) if k // LANE in occupied]
        assert not np.any(np.delete(amps, positions))
    assert lane_chunks(np.zeros(10, dtype=np.complex128)).size == 0


@pytest.mark.parametrize("n_ions, n_max", [(1, 1), (2, 3), (5, 2), (7, 1)])
def test_basis_digits_read_like_basis_labels(n_ions, n_max):
    indices = np.arange(3**n_ions * (n_max + 1))
    names = ["g", "e", "eprime"]
    digits = basis_digits(n_ions, n_max, indices)
    assert digits.shape == (n_ions, indices.size) and digits.dtype == np.uint8
    labels = [" ".join(names[d] for d in column) + f";{k % (n_max + 1)}"
              for k, column in zip(indices, digits.T)]
    assert labels == basis_labels(n_ions, n_max, indices)


def lane_mismatches(seed: int = 0, trials: int = 40) -> int:
    """How many chunked ``np.vdot`` of random sparse vectors differ from the dense one by a bit."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    with _one_blas_thread():
        for trial in range(trials):
            size = int(rng.choice([3**9 * 3, 3**10 * 6 + 3, 20011]))
            kept = rng.choice(size, int(rng.integers(1, size // 8)), replace=False)
            if trial % 2:  # the clipped last chunk too
                kept = np.append(kept, size - 1)
            state = np.zeros(size, dtype=np.complex128)
            state[kept] = rng.normal(size=kept.size) + 1j * rng.normal(size=kept.size)
            other = rng.normal(size=size) + 1j * rng.normal(size=size)
            positions = lane_chunks(state)
            dense = np.vdot(state, other)
            mismatches += dense.tobytes() != np.vdot(state[positions], other[positions]).tobytes()
    return mismatches


def test_chunked_vdot_has_the_dense_bits():
    assert lane_mismatches() == 0


#: x86_64 builds of OpenBLAS alias the older cores' tables to Prescott's, and its
#: verbose line names the first alias.
NAMED_AS = {"Prescott": "Katmai"}


@pytest.mark.parametrize("core", ["Haswell", "SkylakeX", "Sandybridge", "Nehalem", "Prescott"])
def test_chunked_vdot_has_the_dense_bits_on_each_kernel(core):
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, test_lane_chunks as t; print(json.dumps(t.lane_mismatches(trials=20)))"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if proc.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU cannot run the {core} kernel")
    ran = re.findall(r"Core: (\w+)", proc.stdout + proc.stderr)
    if ran != [NAMED_AS.get(core, core)]:
        pytest.skip(f"OpenBLAS ran {ran or 'no reported'} kernel for {core}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == 0
