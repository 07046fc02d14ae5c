"""Reference cluster states, fidelities, and stabilizer checks.

The reference N-qubit linear cluster state is

    2^(-N/2) * prod_a ( |g>_a Z_(a+1) + |e>_a ),    Z_(N+1) = identity,

with Z = |g><g| - |e><e| on each ion, embedded in the full ion-plus-mode
space (no amplitude on e' or on excited Fock levels).  Verification uses
the path-graph stabilizers K_a = Z_(a-1) X_a Z_(a+1) (missing neighbours
dropped), whose sign pattern on the reference is computed rather than
assumed: a state with |<K_a>| = 1 and the reference's signs for every a is
the reference up to global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .register import (
    IonLevel,
    RegisterState,
    _one_blas_thread,
    _shown,
    blockwise,
    check_register_size,
    global_phase_alignment,
    inner_product,
    ion_axes,
    mode_population,
    population,
)

#: Stabilizer expectations are rejected above this EPRIME population.
LEAKAGE_ATOL = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Summary of how close a run came to the reference cluster state."""

    fidelity: float
    stabilizer_expectations: tuple[float, ...]
    leakage_eprime: float
    leakage_mode: float
    global_phase: complex


def reference_cluster(n_qubits: int, n_max: int = 2) -> RegisterState:
    """The N-qubit linear cluster state with the mode in the vacuum."""
    dim = check_register_size(n_qubits, n_max)
    scale = 2.0 ** (-n_qubits / 2.0)
    # Row k of ``levels`` is the basis label k, 0 -> |g>, 1 -> |e>, ion 1 first.
    levels = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1
    flips = np.sum((levels[:, :-1] == 0) & (levels[:, 1:] == 1), axis=1)
    # Flat and read-only, so the state adopts it instead of copying.
    amps = np.zeros(dim, dtype=np.complex128)
    signs = np.where(flips % 2 == 1, -scale, scale)
    # Axes: (no earlier ion, ion 1, ..., ion N, no later ion, mode).
    ion_axes(amps, 1, n_max, n_qubits)[(0, *levels.T, 0, 0)] = signs
    amps.setflags(write=False)
    return RegisterState(n_qubits, n_max, amps)


def fidelity(state: RegisterState, ref: RegisterState) -> float:
    """|<ref|state>|^2; symmetric and global-phase invariant."""
    return float(abs(inner_product(ref, state)) ** 2)


@_one_blas_thread()
def stabilizer_expectations(state: RegisterState) -> list[float]:
    """<K_a> for a = 1..N, with K_a = Z_(a-1) X_a Z_(a+1) on the g-e subspace.

    Each K_a is a signed permutation: X_a swaps ion a's g and e rows, and Z
    negates a neighbour's e row and zeroes its e' row.  Raises a
    ValidationError naming the leaking ion if any ion carries more than
    1e-9 population on e' (the operators are only defined on the qubit
    subspace).  Those checks and each expectation's ``np.vdot`` read the
    whole vector on the calling thread, with one BLAS thread for the whole
    loop, so no OpenBLAS thread wakes between the passes; the image K_a|psi>
    is written block by block (``blockwise``).
    """
    n = state.n_ions
    for ion in range(1, n + 1):
        leak = population(state, ion, IonLevel.EPRIME)
        if leak > LEAKAGE_ATOL:
            raise ValidationError(
                f"ion {ion} holds {leak:.3e} population on e'; stabilizers "
                "are defined on the g-e subspace only"
            )
    values: list[float] = []
    scratch = np.empty_like(state.amplitudes)
    for a in range(1, n + 1):
        # One level axis each for ion a and its neighbours; blocks keep them whole.
        first, last = max(1, a - 1), min(n, a + 1)
        axis = 1 + a - first
        neighbours = [1 + nb - first for nb in (a - 1, a + 1) if 1 <= nb <= n]
        blockwise(
            lambda source, target, _: _stabilizer_image(source, target, axis, neighbours),
            state.amplitudes, scratch, first, state.n_max, last,
        )
        value = complex(np.vdot(state.amplitudes, scratch))
        if abs(value.imag) > 1e-10:
            raise ValidationError(
                f"stabilizer {a} expectation has imaginary residue {value.imag:.3e}"
            )
        values.append(float(value.real))
    return values


def _stabilizer_image(source, target, axis: int, neighbours: list[int]) -> None:
    """Write K_a of the ``source`` block into ``target``: ion a's level is ``axis``.

    X swaps the g and e rows of ion a and zeroes its e' row; each neighbour's
    Z then negates its e row and zeroes its e' row, in that order.
    """
    def level(block, ax, k):
        return block[(slice(None),) * ax + (k,)]

    level(target, axis, 0)[...] = level(source, axis, 1)
    level(target, axis, 1)[...] = level(source, axis, 0)
    level(target, axis, 2)[...] = 0.0
    for nb in neighbours:
        np.negative(level(target, nb, 1), out=level(target, nb, 1))
        level(target, nb, 2)[...] = 0.0


def reference_signature(n_qubits: int) -> list[int]:
    """Signs of <K_a> on the reference cluster state, computed by brute force."""
    values = stabilizer_expectations(reference_cluster(n_qubits, n_max=1))
    signature = []
    for a, value in enumerate(values, start=1):
        if abs(abs(value) - 1.0) > 1e-10:
            raise RuntimeError(
                f"reference stabilizer {a} has |<K>| = {abs(value)!r}, expected 1"
            )
        signature.append(1 if value > 0 else -1)
    return signature


def eprime_leakage(state: RegisterState) -> float:
    """Probability that at least one ion sits in e'."""
    qubit_block = state.shaped()[(slice(2),) * state.n_ions]
    return float(max(0.0, 1.0 - np.sum(np.abs(qubit_block) ** 2)))


def mode_leakage(state: RegisterState) -> float:
    """Total probability on Fock levels n >= 2.

    The bus legitimately holds one phonon mid-program, so n = 1 is part of
    the computational path, not leakage.  Population a jittered run leaves
    on n = 1 at the end is not lost: it lowers the fidelity against the
    reference, whose mode sits in the vacuum.
    """
    return float(
        sum(mode_population(state, n) for n in range(2, state.n_max + 1))
    )


def verify_run(state: RegisterState, n_qubits: int) -> VerificationReport:
    """Fidelity, stabilizer expectations and leakages against the reference."""
    if state.n_ions != n_qubits:
        raise ValidationError(
            f"state has {state.n_ions} ions, expected {_shown(n_qubits)}"
        )
    # Before the reference, so its scratch vector is freed before that one exists.
    stabilizers = tuple(stabilizer_expectations(state))
    ref = reference_cluster(n_qubits, n_max=state.n_max)
    return VerificationReport(
        fidelity=fidelity(state, ref),
        stabilizer_expectations=stabilizers,
        leakage_eprime=eprime_leakage(state),
        leakage_mode=mode_leakage(state),
        global_phase=global_phase_alignment(ref, state),
    )
