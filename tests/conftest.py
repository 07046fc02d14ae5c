from __future__ import annotations

import numpy as np
import pytest

from ionchain import IonLevel, RegisterState, global_phase_alignment
from ionchain.register import LEVEL_NAMES


def make_random_state(
    rng: np.random.Generator,
    n_ions: int,
    n_max: int,
    zero_top: list[tuple[int, int]] | None = None,
) -> RegisterState:
    """Random normalized register state.

    zero_top lists (1-based ion, level) pairs whose |level, n_max> components
    are cleared, so sideband pulses on those transitions stay inside the
    truncated space.
    """
    dim = 3**n_ions * (n_max + 1)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    shaped = amps.reshape([3] * n_ions + [n_max + 1])
    for ion, level in zero_top or []:
        index = [slice(None)] * (n_ions + 1)
        index[ion - 1] = level
        index[n_ions] = n_max
        shaped[tuple(index)] = 0.0
    amps = shaped.reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return RegisterState(n_ions, n_max, amps)


def permute_other_ions(state: RegisterState, perm: list[int]) -> RegisterState:
    """Relabel ions by the permutation ``perm`` (0-based, new-from-old axes)."""
    shaped = state.shaped()
    axes = list(perm) + [state.n_ions]
    return RegisterState(
        state.n_ions, state.n_max, np.transpose(shaped, axes).reshape(-1)
    )


def oracle_basis_label(n_ions: int, n_max: int, index: int) -> str:
    """Label of a flat amplitude index, by base-3 ``divmod`` on one index."""
    digits, n = divmod(index, n_max + 1)
    names = []
    for _ in range(n_ions):
        digits, d = divmod(digits, 3)
        names.append(LEVEL_NAMES[IonLevel(d)])
    return " ".join(reversed(names)) + f";{n}"


def oracle_basis_index(n_max: int, levels, n: int) -> int:
    """Flat amplitude index of |levels; n>, by a base-3 digit loop, ion 1 first."""
    digits = 0
    for level in levels:
        digits = digits * 3 + level
    return digits * (n_max + 1) + n


def ket(levels, n: int, n_max: int) -> RegisterState:
    """The basis state |levels; n> at cutoff ``n_max``."""
    amps = np.zeros(3 ** len(levels) * (n_max + 1), dtype=np.complex128)
    amps[oracle_basis_index(n_max, levels, n)] = 1.0
    return RegisterState(len(levels), n_max, amps)


def amp(state: RegisterState, levels, n: int) -> complex:
    """Amplitude of |levels; n> in ``state``."""
    return state.amplitudes[oracle_basis_index(state.n_max, levels, n)]


def states_allclose(
    a: RegisterState,
    b: RegisterState,
    atol: float = 1e-10,
    up_to_global_phase: bool = False,
) -> bool:
    """Amplitude-wise comparison, optionally after aligning the global phase of ``b``."""
    assert (a.n_ions, a.n_max) == (b.n_ions, b.n_max)
    bv = b.amplitudes
    if up_to_global_phase:
        bv = bv * global_phase_alignment(b, a)
    return bool(np.max(np.abs(a.amplitudes - bv)) <= atol)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
