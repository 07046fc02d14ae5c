"""Reference cluster states, fidelities, and stabilizer checks.

The reference N-qubit linear cluster state is

    2^(-N/2) * prod_a ( |g>_a Z_(a+1) + |e>_a ),    Z_(N+1) = identity,

with Z = |g><g| - |e><e| on each ion, embedded in the full ion-plus-mode
space (no amplitude on e' or on excited Fock levels).  Verification uses
the path-graph stabilizers K_a = Z_(a-1) X_a Z_(a+1) (missing neighbours
dropped), whose sign pattern on the reference is computed rather than
assumed: a state with |<K_a>| = 1 and the reference's signs for every a is
the reference up to global phase.

The stabilizers run on the occupied lane chunks of the state
(``register.lane_chunks``) while those hold at most a quarter of it: 7.2%
of chain:12's amplitudes at n_max 2.  Their values keep the dense pass's
bits while the BLAS kernel's lanes have a period dividing
``register.LANE``; a value that is exactly zero is recomputed by the dense
pass, so its sign is the dense one too.  A fuller state takes the dense
pass, one image of the whole vector written in place, for every value.
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
    basis_digits,
    check_register_size,
    global_phase_alignment,
    inner_product,
    ion_axes,
    lane_chunks,
    mode_population,
    population,
    require_int,
)

#: Stabilizer expectations are rejected above this EPRIME population.
LEAKAGE_ATOL = 1e-9

# The levels as plain ints, for comparing with ``basis_digits``: numpy
# compares a uint8 array with an IntEnum member about 15 times slower.
_G, _E, _EPRIME = (int(level) for level in IonLevel)


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

    Each K_a is a signed permutation: X_a swaps ion a's g and e levels, and
    Z negates a neighbour's e level and zeroes its e' level.  Raises a
    ValidationError naming the leaking ion if any ion carries more than
    1e-9 population on e' (the operators are only defined on the qubit
    subspace).

    While the occupied lane chunks (``register.lane_chunks``) hold at most
    a quarter of the state, the image K_a|psi> is gathered there only and
    each ``np.vdot`` reads only there, with one BLAS thread for the whole
    loop.  Since the kernel's lanes have a period that divides LANE and an
    exact zero adds nothing to a lane, every value that is not zero has the
    bits of the dense dot.  A real part that is exactly zero is recomputed
    over the whole vector, so the sign of a zero is the dense one.  The e'
    sums over the chunks only filter: an ion whose sum comes near the bound
    gets the dense ``population``, which decides and is reported.  A state
    that fills more chunks, or holds a value that is not finite, takes the
    dense pass for every value.
    """
    n, n_max, amps = state.n_ions, state.n_max, state.amplitudes
    chunks = _occupied(amps)
    suspects = range(1, n + 1)
    if chunks:
        positions, here = chunks
        digits = basis_digits(n, n_max, positions)
        weights = np.abs(here) ** 2
        # The margin covers summing the same values in another order.
        near = LEAKAGE_ATOL * (1 - 1e-6)
        suspects = [ion for ion in suspects if np.sum(weights[digits[ion - 1] == _EPRIME]) > near]
        del weights
    for ion in suspects:
        leak = population(state, ion, IonLevel.EPRIME)
        if leak > LEAKAGE_ATOL:
            raise ValidationError(
                f"ion {ion} holds {leak:.3e} population on e'; stabilizers "
                "are defined on the g-e subspace only"
            )
    dense = None  # the whole-vector image, made at the first value that needs it
    values: list[float] = []
    for a in range(1, n + 1):
        if chunks:
            value = complex(np.vdot(here, _image(amps, positions, digits, a, n_max)))
        if not chunks or value.real == 0:
            if dense is None:
                dense = np.empty_like(amps)
            value = _dense_value(amps, a, n, n_max, dense)
        if abs(value.imag) > 1e-10:
            raise ValidationError(
                f"stabilizer {a} expectation has imaginary residue {value.imag:.3e}"
            )
        values.append(float(value.real))
    return values


def _occupied(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``lane_chunks(amps)`` and the values there, or None if the dense pass should run.

    A kept position holds at most 64 bytes (index, value, digits, partner
    and image), a dense image 16 bytes an amplitude, so past a quarter of
    the vector the chunks would hold more than the image.  A value that is
    not finite is left to the dense pass too, where a ``0 * inf`` is seen.
    """
    positions = lane_chunks(amps)
    if positions.size * 4 > amps.size:
        return None
    here = amps[positions]
    return (positions, here) if np.isfinite(here).all() else None


def _image(amps: np.ndarray, positions: np.ndarray, digits: np.ndarray, a: int, n_max: int):
    """K_a|psi> at the flat ``positions`` of ``amps``, whose ``basis_digits`` are ``digits``.

    X takes each value from the position with ion a's g and e swapped and
    writes +0.0 where ion a is in e'; each neighbour's Z then negates where
    it is in e and writes +0.0 where it is in e', in that order.  Negating
    with ``np.negative``, not by multiplying with -1, keeps the signs of
    zeros that ``_dense_value``'s image has.
    """
    n = len(digits)
    level = digits[a - 1]
    stride = (n_max + 1) * 3 ** (n - a)
    partner = positions - stride
    np.add(partner, 2 * stride, out=partner, where=level == _G)
    image = amps[partner]
    image[level == _EPRIME] = 0.0
    for nb in (a - 1, a + 1):
        if 1 <= nb <= n:
            np.negative(image, out=image, where=digits[nb - 1] == _E)
            image[digits[nb - 1] == _EPRIME] = 0.0
    return image


def _dense_value(amps: np.ndarray, a: int, n: int, n_max: int, image: np.ndarray) -> complex:
    """<psi|K_a|psi> by ``np.vdot`` over the whole vector, with K_a|psi> written into ``image``.

    The image is written on the ``ion_axes`` views of ion a and its
    neighbours, in place: X swaps ion a's g and e rows and zeroes its e'
    row; each neighbour's Z then negates its e row and zeroes its e' row.
    """
    first, last = max(1, a - 1), min(n, a + 1)
    source, target = (ion_axes(v, first, n_max, last) for v in (amps, image))

    def rows(view, ion, level):
        return view[(slice(None),) * (1 + ion - first) + (level,)]

    rows(target, a, _G)[...] = rows(source, a, _E)
    rows(target, a, _E)[...] = rows(source, a, _G)
    rows(target, a, _EPRIME)[...] = 0.0
    for nb in (a - 1, a + 1):
        if 1 <= nb <= n:
            np.negative(rows(target, nb, _E), out=rows(target, nb, _E))
            rows(target, nb, _EPRIME)[...] = 0.0
    return complex(np.vdot(amps, image))


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
    n_qubits = require_int(n_qubits, "n_qubits", 1)
    if state.n_ions != n_qubits:
        raise ValidationError(
            f"state has {state.n_ions} ions, expected {_shown(n_qubits)}"
        )
    # Before the reference, so the stabilizers' dense image is freed before that one exists.
    stabilizers = tuple(stabilizer_expectations(state))
    ref = reference_cluster(n_qubits, n_max=state.n_max)
    return VerificationReport(
        fidelity=fidelity(state, ref),
        stabilizer_expectations=stabilizers,
        leakage_eprime=eprime_leakage(state),
        leakage_mode=mode_leakage(state),
        global_phase=global_phase_alignment(ref, state),
    )
