"""Hilbert space of N three-level ions sharing one truncated vibrational mode.

Each ion carries a ground level ``g`` and two metastable excited levels
``e`` and ``e'``.  The chain's shared centre-of-mass mode is kept as a
harmonic oscillator truncated at ``n_max`` phonons.  A register state is a
dense, normalized complex amplitude vector over the product basis.

Basis ordering is fixed once and for all: ion 1 is the most significant
base-3 digit (g=0, e=1, e'=2), ions follow in increasing order, and the
phonon number is the least significant index.  Written kets such as
``|e g g;1>`` therefore read left to right exactly like the amplitude
index decomposition.

``ion_axes`` is the one place that turns this layout into array axes for
one ion: every pulse, the Monte Carlo compile and the stabilizer checks
read and write amplitudes through that view.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

#: Preparations may deviate from unit norm by at most this much before
#: being rejected (they are renormalized to machine precision on accept).
PREP_NORM_ATOL = 1e-9

#: Largest amplitude vector the simulator allocates: 2**24 complex128
#: values, 268 MB.  Admits 14 ions at n_max=2 and 12 ions up to n_max=30.
MAX_AMPLITUDES = 2**24


class IonLevel(IntEnum):
    """Internal level of a single ion: ground, excited, auxiliary excited."""

    G = 0
    E = 1
    EPRIME = 2


LEVEL_NAMES = {IonLevel.G: "g", IonLevel.E: "e", IonLevel.EPRIME: "eprime"}
LEVELS_BY_NAME = {name: level for level, name in LEVEL_NAMES.items()}


class IonPrep:
    """Initial pure state of one ion, given as (level, coefficient) pairs.

    Levels are integers 0..2 and coefficients finite numbers, normalized
    within ``PREP_NORM_ATOL``; accepted preparations are renormalized exactly.
    """

    __slots__ = ("coefficients",)

    def __init__(self, pairs: Iterable[tuple[IonLevel, complex]]):
        coeffs = np.zeros(3, dtype=np.complex128)
        what = "each part of an ion preparation coefficient"
        for level, value in pairs:
            is_complex = isinstance(value, (complex, np.complexfloating))
            re, im = (value.real, value.imag) if is_complex else (value, 0.0)
            level = require_int(level, "ion preparation level", 0, 2)
            coeffs[level] += complex(require_real(re, what), require_real(im, what))
        norm = float(np.linalg.norm(coeffs))
        if abs(norm - 1.0) > PREP_NORM_ATOL:
            raise ValidationError(
                f"ion preparation has norm {norm!r}, expected 1 within {PREP_NORM_ATOL}"
            )
        coeffs /= norm
        coeffs.setflags(write=False)
        self.coefficients = coeffs

    @classmethod
    def basis(cls, level: IonLevel) -> "IonPrep":
        """Preparation in a single bare level."""
        return cls([(level, 1.0)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IonPrep):
            return NotImplemented
        return bool(np.array_equal(self.coefficients, other.coefficients))

    def __hash__(self):
        return hash(self.coefficients.tobytes())

    def __repr__(self) -> str:
        terms = [
            f"{LEVEL_NAMES[IonLevel(i)]}:{c:.6g}"
            for i, c in enumerate(self.coefficients)
            if c != 0
        ]
        return f"IonPrep({', '.join(terms)})"


@dataclass(frozen=True)
class RegisterState:
    """Immutable normalized state of ``n_ions`` ions plus the shared mode.

    ``amplitudes`` has length ``3**n_ions * (n_max + 1)`` and is read-only;
    every operation returns a fresh state.
    """

    n_ions: int
    n_max: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_register_size(self.n_ions, self.n_max)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim,):
            raise ValidationError(
                f"amplitude vector has shape {amps.shape}, expected ({self.dim},)"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 3**self.n_ions * (self.n_max + 1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def shaped(self) -> np.ndarray:
        """View with one axis per ion (size 3) plus the mode axis (last)."""
        return self.amplitudes.reshape([3] * self.n_ions + [self.n_max + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterState):
            return NotImplemented
        return (
            self.n_ions == other.n_ions
            and self.n_max == other.n_max
            and bool(np.array_equal(self.amplitudes, other.amplitudes))
        )


def basis_index(state: RegisterState, levels: Sequence[IonLevel], n: int) -> int:
    """Flat amplitude index of the basis ket with the given levels and phonon number."""
    if len(levels) != state.n_ions:
        raise ValidationError(
            f"expected {state.n_ions} levels, got {len(levels)}"
        )
    n = require_int(n, "phonon number", 0, state.n_max)
    digits = 0
    for level in levels:
        digits = digits * 3 + require_int(level, "level", 0, 2)
    return digits * (state.n_max + 1) + n


def basis_label(state: RegisterState, index: int) -> str:
    """Human-readable label like ``"g e g;1"`` for a flat amplitude index."""
    index = require_int(index, "index", 0, state.dim - 1)
    digits, n = divmod(index, state.n_max + 1)
    names = []
    for _ in range(state.n_ions):
        digits, d = divmod(digits, 3)
        names.append(LEVEL_NAMES[IonLevel(d)])
    return " ".join(reversed(names)) + f";{n}"


def require_int(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int: an integer in low..high, never a bool, or ValidationError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not (
        low <= value and (high is None or value <= high)
    ):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{what} must be an integer {bounds}, got {_shown(value)}")
    return int(value)


def require_real(value, what: str) -> float:
    """``value`` as a float if a finite real number, never a bool; else ValidationError.

    An int too large for a float is refused, not left to raise OverflowError.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(f"{what} must be finite and real, got {_shown(value)}")


def _shown(value) -> str:
    """Short repr of ``value`` for a one-line error, also for an enormous int."""
    try:
        return reprlib.repr(value)
    except ValueError:  # an int past Python's limit on digits in a string
        return f"an integer of {value.bit_length()} bits"


def ion_axes(block: np.ndarray, ion: int, n_max: int) -> np.ndarray:
    """View of flat basis-ordered ``block``: (earlier ions, ``ion``, later ions, mode).

    Axis 1 is the 1-based ion's level (g, e, e'); writes go to ``block``.
    """
    return block.reshape(3 ** (ion - 1), 3, -1, n_max + 1)


def check_register_size(n_ions: int, n_max: int) -> None:
    """The one shape gate, run before allocating: integers >= 1, MAX_AMPLITUDES cap.

    The dimension is 3**n_ions * (n_max + 1).  Since 3**n >= 2**n, any
    n_ions of at least MAX_AMPLITUDES.bit_length() is over the cap at every
    n_max, so 3**n_ions is never formed for an absurd n_ions.
    """
    n_ions = require_int(n_ions, "n_ions", 1)
    n_max = require_int(n_max, "n_max", 1)
    if (
        n_ions >= MAX_AMPLITUDES.bit_length()
        or 3**n_ions * (n_max + 1) > MAX_AMPLITUDES
    ):
        raise ValidationError(
            f"{n_ions} ions at n_max={n_max} need 3^{n_ions}*{n_max + 1} "
            f"amplitudes, over the limit of {MAX_AMPLITUDES}"
        )


def new_register(preps: Sequence[IonPrep], n_max: int) -> RegisterState:
    """Tensor product of the ion preparations with the mode in the vacuum.

    Parameters
    ----------
    preps : sequence of IonPrep
        One preparation per ion, ion 1 first.
    n_max : int
        Fock cutoff; the mode keeps levels 0..n_max.
    """
    check_register_size(len(preps), n_max)
    amps = np.ones(1, dtype=np.complex128)
    for prep in preps:
        amps = np.kron(amps, prep.coefficients)
    mode = np.zeros(n_max + 1, dtype=np.complex128)
    mode[0] = 1.0
    amps = np.kron(amps, mode)
    amps /= np.linalg.norm(amps)
    return RegisterState(n_ions=len(preps), n_max=n_max, amplitudes=amps)


def _check_same_space(a: RegisterState, b: RegisterState) -> None:
    if a.n_ions != b.n_ions or a.n_max != b.n_max:
        raise ValidationError(
            f"register shapes differ: ({a.n_ions} ions, n_max={a.n_max}) vs "
            f"({b.n_ions} ions, n_max={b.n_max})"
        )


def inner_product(a: RegisterState, b: RegisterState) -> complex:
    """``<a|b>``, conjugate-linear in the first argument."""
    _check_same_space(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def population(state: RegisterState, ion: int, level: IonLevel) -> float:
    """Total probability of finding the 1-based ``ion`` in ``level``."""
    ion = require_int(ion, "ion", 1, state.n_ions)
    shaped = state.shaped()
    sub = np.take(shaped, require_int(level, "level", 0, 2), axis=ion - 1)
    return float(np.sum(np.abs(sub) ** 2))


def mode_population(state: RegisterState, n: int) -> float:
    """Total probability of exactly ``n`` phonons in the shared mode."""
    n = require_int(n, "phonon number", 0, state.n_max)
    shaped = state.shaped()
    sub = np.take(shaped, n, axis=state.n_ions)
    return float(np.sum(np.abs(sub) ** 2))


def global_phase_alignment(reference: RegisterState, state: RegisterState) -> complex:
    """Unit phase ``z`` such that ``z * reference`` best lines up with ``state``.

    Alignment keys on the largest-magnitude amplitude of the reference, so
    kets written only up to global phase compare stably.  Falls back to the
    overlap phase when the state carries no weight there.
    """
    _check_same_space(reference, state)
    k = int(np.argmax(np.abs(reference.amplitudes)))
    ratio = state.amplitudes[k] / reference.amplitudes[k]
    if abs(ratio) < 1e-14:
        overlap = np.vdot(reference.amplitudes, state.amplitudes)
        if abs(overlap) < 1e-14:
            return 1.0 + 0.0j
        return complex(overlap / abs(overlap))
    return complex(ratio / abs(ratio))


def states_allclose(
    a: RegisterState,
    b: RegisterState,
    atol: float = 1e-10,
    up_to_global_phase: bool = False,
) -> bool:
    """Amplitude-wise comparison, optionally after aligning the global phase of ``b``."""
    _check_same_space(a, b)
    bv = b.amplitudes
    if up_to_global_phase:
        bv = bv * global_phase_alignment(b, a)
    return bool(np.max(np.abs(a.amplitudes - bv)) <= atol)
