"""Dense passes split into blocks on worker threads stay bitwise the whole-vector pass.

``apply_pulse`` and ``stabilizer_expectations`` each make one
``register.blockwise`` call, which cuts the state into slab-aligned blocks
of ``register.BLOCK_BYTES`` and runs them on up to one thread per CPU, at
most one per ``register.WORKER_BLOCKS`` blocks.
The block size, the CPU count (``register._cpus``) and that floor are
patched here to force a few dozen amplitudes a block and one or three
workers, and every result is compared by its bytes with the default,
unsplit run: amplitudes including the signs of zeros, stabilizer values,
and the message and attributes of every error.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import (
    Pulse,
    PulseKind,
    RegisterState,
    TruncationError,
    ValidationError,
    apply_pulse,
    chain_sequence,
    cluster6_sequence,
    run,
    stabilizer_expectations,
)
from ionchain import pulse, register
from ionchain.register import blockwise, ion_blocks
from step_fixtures import expected_states
from test_contract import _report_hashes

#: Bytes of a forced block: 36 amplitudes, a few slabs or part of one.
SMALL_BLOCK = 36 * 16

#: (BLOCK_BYTES, CPUs) of each setting; None keeps the module's own.
SETTINGS = [(None, None), (SMALL_BLOCK, 1), (SMALL_BLOCK, 3)]


@contextlib.contextmanager
def split(block_bytes, cpus):
    """Patch the block size and the CPU count; None leaves one as it is.

    A patched CPU count also lets a worker take a single block, so three
    workers run on any vector of three blocks or more.
    """
    with contextlib.ExitStack() as stack:
        if block_bytes is not None:
            stack.enter_context(mock.patch.object(register, "BLOCK_BYTES", block_bytes))
        if cpus is not None:
            stack.enter_context(mock.patch.object(register, "_cpus", lambda: cpus))
            stack.enter_context(mock.patch.object(register, "WORKER_BLOCKS", 1))
        yield


def outcome(fn):
    """Bytes of what ``fn`` returns, or the type, message and attributes of its error."""
    try:
        result = fn()
    except (TruncationError, ValidationError) as err:
        return type(err), str(err), dict(err.__dict__)
    if isinstance(result, RegisterState):
        return result.amplitudes.tobytes()
    return np.asarray(result, dtype=np.float64).tobytes()


def under_every_setting(fn):
    """``outcome(fn)`` under each of SETTINGS, checking no thread outlives a call."""
    threads = threading.active_count()
    outcomes = []
    for block_bytes, cpus in SETTINGS:
        with split(block_bytes, cpus):
            outcomes.append(outcome(fn))
        assert threading.active_count() == threads
    return outcomes


def assert_all_equal(outcomes):
    for other in outcomes[1:]:
        assert other == outcomes[0]


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("n_ions", range(2, 9))
def test_chain_steps_bitwise_equal(n_ions, n_max):
    seq = chain_sequence(n_ions)

    def steps():
        _, taken = run(seq, n_max, snapshot=lambda state: state.amplitudes.tobytes())
        return taken

    outcomes = []
    for block_bytes, cpus in SETTINGS:
        with split(block_bytes, cpus):
            outcomes.append(steps())
    assert_all_equal(outcomes)


@pytest.mark.parametrize("n_ions", range(2, 9))
def test_chain_stabilizers_bitwise_equal(n_ions):
    final, _ = run(chain_sequence(n_ions), 2)
    assert_all_equal(under_every_setting(lambda: stabilizer_expectations(final)))


def test_step_fixture_oracles_when_split():
    want = expected_states(n_max=2)
    with split(SMALL_BLOCK, 3):
        _, states = run(cluster6_sequence(), 2, snapshot=lambda s: s.amplitudes)
    for got, expected in zip(states, want, strict=True):
        assert np.allclose(got, expected, atol=1e-12)


CUT_CASES = [(1, None), (1, 2), (3, None), (5, 6), (6, None)]


def test_blocks_cut_both_axes():
    amps = np.zeros(3**6 * 3, dtype=np.complex128)
    with split(SMALL_BLOCK, None):
        for ion, last in CUT_CASES:
            blocks = ion_blocks(amps, ion, 2, last)
            assert len(blocks) > 1
            assert sum(block.size for block in blocks) == amps.size
            assert all(block.nbytes <= SMALL_BLOCK or block.shape[0] == 1 for block in blocks)
    # Ion 1 has a single slab, so its blocks cut the later-ions axis.
    with split(SMALL_BLOCK, None):
        assert all(block.shape[-2] < 3**5 for block in ion_blocks(amps, 1, 2))
    # Each case's blocks cover the vector once, with a block of half a slab,
    # just under, at or just over one slab, or SMALL_BLOCK.
    owner = np.empty(amps.size, dtype=np.int64)
    for ion, last in CUT_CASES:
        slab = register.ion_axes(owner, ion, 2, last)[0].nbytes
        for block_bytes in (slab // 2, slab - 16, slab, slab + 16, SMALL_BLOCK):
            owner.fill(-1)
            with split(block_bytes, None):
                blocks = ion_blocks(owner, ion, 2, last)
            for k, block in enumerate(blocks):
                block[...] = k
            assert not (owner == -1).any()
            assert sum(block.size for block in blocks) == owner.size


def test_truncation_keeps_message_and_leak():
    amps = np.zeros(3**4 * 3, dtype=np.complex128)
    amps.reshape(3, 3, 3, 3, 3)[1, 0, 2, 1, 2] = 1e-5  # |e g e' e; 2>
    amps[0] = math.sqrt(1.0 - 1e-10)
    state = RegisterState(4, 2, amps)
    outcomes = under_every_setting(
        lambda: apply_pulse(state, Pulse(PulseKind.SIDEBAND_GE, 4, 0.3, 1.0))
    )
    assert outcomes[0][0] is TruncationError
    assert outcomes[0][2]["leaked_probability"] == pytest.approx(1e-10)
    assert_all_equal(outcomes)


def test_eprime_refusal_keeps_message():
    amps = np.zeros(3**4 * 2, dtype=np.complex128)
    amps[0] = 0.8
    amps.reshape(3, 3, 3, 3, 2)[0, 0, 2, 0, 0] = 0.6
    state = RegisterState(4, 1, amps)
    outcomes = under_every_setting(lambda: stabilizer_expectations(state))
    assert outcomes[0][0] is ValidationError and "ion 3" in outcomes[0][1]
    assert_all_equal(outcomes)


def test_small_vector_starts_no_thread():
    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a vector of under 2 * WORKER_BLOCKS blocks started a thread")

    # cluster6 is one block; chain:10 at n_max=2 (2.8 MB) is three.
    for seq in (cluster6_sequence(), chain_sequence(10)):
        final, _ = run(seq, 2)
        with (
            mock.patch.object(register, "_cpus", lambda: 3),
            mock.patch.object(register.threading, "Thread", NoThread),
        ):
            run(seq, 2)
            stabilizer_expectations(final)


def test_split_program_runs_on_worker_threads():
    # The split.json program of tools/report_hashes.py (11 ions at --n-max 2,
    # 8.5 MB) must cut into enough blocks for two workers on every ion it
    # addresses under the default constants, or its pinned line covers no
    # threaded pass.
    program = _report_hashes().SPLIT_SEQUENCE
    vector = np.empty(3 ** len(program["ions"]) * 3, dtype=np.complex128)
    for ion in sorted({step["ion"] for step in program["steps"]}):
        assert len(ion_blocks(vector, ion, 2)) >= 2 * register.WORKER_BLOCKS, ion


def test_forced_split_runs_on_three_threads():
    threads = set()
    kernel = pulse.rotate_pairs

    def recorded(*args):
        threads.add(threading.get_ident())
        kernel(*args)
        time.sleep(1e-3)  # release the GIL, so the started workers claim blocks too

    with split(SMALL_BLOCK, 3), mock.patch.object(pulse, "rotate_pairs", recorded):
        run(chain_sequence(6), 2)
    assert len(threads) >= 3  # the calling thread and two started ones


def test_worker_exception_reaches_caller():
    threads = threading.active_count()
    started = threading.Event()
    caller = threading.get_ident()

    def task(source, target, work):
        if threading.get_ident() == caller:  # waits until a started worker has failed
            started.wait(timeout=10)
            return
        started.set()
        raise RuntimeError("block failed")

    amps = np.zeros(3**4 * 3, dtype=np.complex128)
    with split(SMALL_BLOCK, 3), pytest.raises(RuntimeError, match="failed"):
        blockwise(task, amps, np.empty_like(amps), 2, 2)
    assert threading.active_count() == threads


def test_kernel_exception_reaches_caller_and_threads_end():
    threads = threading.active_count()
    state, _ = run(chain_sequence(6), 2)

    def broken(*args):
        raise RuntimeError("kernel failed")

    with split(SMALL_BLOCK, 3), mock.patch.object(pulse, "rotate_pairs", broken):
        with pytest.raises(RuntimeError, match="kernel failed"):
            apply_pulse(state, Pulse(PulseKind.CARRIER, 2, 0.1, 0.2))
    assert threading.active_count() == threads


# Parts of amplitudes: signed zeros, values far under every guard, and plain numbers.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -3e-8, 1.0, -0.5]),
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=True),
)


@st.composite
def states(draw):
    """Unnormalized register states of 1-4 ions whose e' weight is mostly under 1e-9."""
    n_ions = draw(st.integers(1, 4))
    n_max = draw(st.integers(1, 3))
    dim = 3**n_ions * (n_max + 1)
    amps = np.empty(dim, dtype=np.complex128)
    amps.real = draw(st.lists(_PARTS, min_size=dim, max_size=dim))
    amps.imag = draw(st.lists(_PARTS, min_size=dim, max_size=dim))
    if draw(st.booleans()):  # e' population under the stabilizers' 1e-9 guard
        digits = np.arange(dim) // (n_max + 1)
        has_eprime = np.zeros(dim, dtype=bool)
        for _ in range(n_ions):
            digits, level = np.divmod(digits, 3)
            has_eprime |= level == 2
        amps[has_eprime] *= 1e-6
    return RegisterState(n_ions, n_max, amps)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(
    state=states(),
    kind=st.sampled_from(list(PulseKind)),
    ion=st.integers(1, 4),
    phi=st.sampled_from([0.0, math.pi, 2.5, -1.0]),
    theta=st.sampled_from([math.pi / 2, math.pi, 2 * math.pi, -0.4, 1.1]),
    block_bytes=st.sampled_from([16, 48, 144, SMALL_BLOCK]),
)
def test_random_states_bitwise_equal(state, kind, ion, phi, theta, block_bytes):
    step = Pulse(kind, min(ion, state.n_ions), phi, theta)
    outcomes = []
    for cpus in (None, 1, 3):
        with split(None if cpus is None else block_bytes, cpus):
            outcomes.append(
                (outcome(lambda: apply_pulse(state, step)),
                 outcome(lambda: stabilizer_expectations(state)))
            )
    assert_all_equal(outcomes)
