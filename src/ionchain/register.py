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

``basis_shape`` writes this layout once and ``ion_axes`` views it per ion:
every pulse, the Monte Carlo compile, the reference cluster state and the
stabilizer checks read and write amplitudes through that view.
``blockwise`` runs a dense pass over the slab-aligned blocks that
``ion_blocks`` cuts the same view into, on up to one thread per CPU, each
with its own scratch.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import reprlib
import threading
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError

#: Preparations may deviate from unit norm by at most this much before
#: being rejected (they are renormalized to machine precision on accept).
PREP_NORM_ATOL = 1e-9

#: Largest amplitude vector the simulator allocates: 2**24 complex128
#: values, 268 MB.  Admits 14 ions at n_max=2 and 12 ions up to n_max=30.
MAX_AMPLITUDES = 2**24

#: Bytes of state one block of a dense pass covers (see ``ion_blocks``).
#: With pulses rotating one Fock row at a time, 1 MiB blocks ran chain:12
#: faster than 512 KiB blocks (README, "Kernel and benchmark").
BLOCK_BYTES = 1 << 20

#: Blocks a dense pass needs for each worker thread, so a vector of
#: fewer than twice this many (8 MiB) runs inline on the calling thread:
#: below that, starting threads and moving the state between the CPUs'
#: caches cost more than the second CPU saves.  Halved when BLOCK_BYTES
#: doubled, so every vector splits as it did on 512 KiB blocks.
WORKER_BLOCKS = 4


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

    ``amplitudes`` is the flat ``basis_shape`` vector, read-only: an array that
    is read-only and owns its memory is adopted, any other is copied.
    """

    n_ions: int
    n_max: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = check_register_size(self.n_ions, self.n_max)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (dim,):
            raise ValidationError(f"amplitude vector has shape {amps.shape}, expected ({dim},)")
        if amps.flags.writeable or amps.base is not None:
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return math.prod(basis_shape(self.n_ions, self.n_max))

    def shaped(self) -> np.ndarray:
        """View with one axis per ion (size 3) plus the mode axis (last)."""
        return self.amplitudes.reshape(basis_shape(self.n_ions, self.n_max))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterState):
            return NotImplemented
        return (
            self.n_ions == other.n_ions
            and self.n_max == other.n_max
            and bool(np.array_equal(self.amplitudes, other.amplitudes))
        )


def basis_labels(n_ions: int, n_max: int, indices: Sequence[int] | np.ndarray) -> list[str]:
    """Label like ``"g e g;1"`` of each flat index: two cached word lookups and ``;n``."""
    hi, lo = _word_tables(n_ions)
    ions, n = np.divmod(np.asarray(indices, dtype=np.int64), n_max + 1)
    a, b = np.divmod(ions, len(lo))
    return [f"{hi[i]}{lo[j]};{k}" for i, j, k in zip(a.tolist(), b.tolist(), n.tolist())]


@functools.lru_cache(maxsize=None)
def _word_tables(n_ions: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Level words of the first ``n_ions // 2`` ions (``"g e "``) and of the rest (``"g e"``)."""
    hi, lo = (tuple(" ".join(word) for word in itertools.product(LEVEL_NAMES.values(), repeat=k))
              for k in (n_ions // 2, n_ions - n_ions // 2))
    return tuple(f"{word} " if word else "" for word in hi), lo


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


def basis_shape(n_ions: int, n_max: int) -> tuple[int, ...]:
    """Axes of the dense basis: a level axis per ion, ion 1 first, then the mode."""
    return (3,) * n_ions + (n_max + 1,)


def ion_axes(block: np.ndarray, ion: int, n_max: int, last: int | None = None) -> np.ndarray:
    """View of flat basis-ordered ``block``: (earlier ions, ``ion``, later ions, mode).

    Axis 1 is the 1-based ion's level (g, e, e'); with ``last``, ions ``ion``
    to ``last`` each get a level axis, in order.  Writes go to ``block``.
    """
    levels = (3,) * (1 if last is None else last - ion + 1)
    return block.reshape(3 ** (ion - 1), *levels, -1, n_max + 1)


def ion_blocks(
    block: np.ndarray, ion: int, n_max: int, last: int | None = None
) -> list[np.ndarray]:
    """``ion_axes(block, ion, n_max, last)`` cut into views of about BLOCK_BYTES.

    A block holds as many whole slabs of the earlier-ions axis as fit in
    BLOCK_BYTES, at least one, and as much of the later-ions axis as fits:
    all of it unless one slab is larger (ion 1 of a long vector has a single
    slab).  Every level and Fock axis stays whole, so a pass on the view
    runs block by block unchanged, and equal-sized arrays are cut alike.
    """
    axes = ion_axes(block, ion, n_max, last)
    rows = max(1, BLOCK_BYTES // axes[0].nbytes)
    cols = max(1, BLOCK_BYTES // axes[0, ..., 0, :].nbytes)
    return [
        axes[i : i + rows, ..., j : j + cols, :]
        for i in range(0, len(axes), rows)
        for j in range(0, axes.shape[-2], cols)
    ]


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blockwise(
    task: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    source: np.ndarray, target: np.ndarray, ion: int, n_max: int, last: int | None = None,
) -> None:
    """Call ``task(source_block, target_block, work)`` for each ``ion_blocks`` pair.

    Both flat vectors are cut alike, and ``work`` is the worker's flat
    scratch, as large as the first (largest) block.  A pass uses one worker
    per CPU, at most one per WORKER_BLOCKS blocks.  Each worker claims the
    next unclaimed block until none is left, so a worker whose CPU is shared
    (with OpenBLAS threads still spinning after a BLAS call, or another
    process) takes fewer blocks instead of holding the others up.  Worker 0
    is the calling thread, so one worker runs inline and starts no thread;
    the others are started here and all are joined before this returns or
    raises.  The first exception a worker raised is re-raised in the caller.
    """
    sources = ion_blocks(source, ion, n_max, last)
    targets = ion_blocks(target, ion, n_max, last)
    workers = max(1, min(_cpus(), len(sources) // WORKER_BLOCKS))
    work = np.empty((workers, sources[0].size), dtype=source.dtype)
    errors: list[BaseException] = []
    claim = itertools.count()  # next() on it is atomic under the GIL

    def run(worker: int) -> None:
        try:
            while (i := next(claim)) < len(sources):
                task(sources[i], targets[i], work[worker])
        except BaseException as err:  # handed to the caller below
            errors.append(err)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def check_register_size(n_ions: int, n_max: int | None = None) -> int:
    """The one shape gate, run before allocating: integers >= 1, MAX_AMPLITUDES cap.

    Returns the dimension it checked, the product of ``basis_shape``.  Since
    3**n >= 2**n, any n_ions of at least MAX_AMPLITUDES.bit_length() is over
    the cap at every n_max, so 3**n_ions is never formed for an absurd n_ions.
    Without an ``n_max`` (a pulse program, before any cutoff is chosen) the
    gate and the dimension are at the smallest cutoff, 1, and the message
    names that cutoff as the least one.
    """
    n_ions = require_int(n_ions, "n_ions", 1)
    cutoff = 1 if n_max is None else require_int(n_max, "n_max", 1)
    if (
        n_ions >= MAX_AMPLITUDES.bit_length()
        or (dim := math.prod(basis_shape(n_ions, cutoff))) > MAX_AMPLITUDES
    ):
        ions = _shown(n_ions)
        size = f"3^{ions}*{_shown(cutoff + 1)} amplitudes"
        if n_max is None:
            need = f"need {size} even at n_max=1"
        else:
            need = f"at n_max={_shown(cutoff)} need {size}"
        raise ValidationError(f"{ions} ions {need}, over the limit of {MAX_AMPLITUDES}")
    return dim


def new_register(preps: Sequence[IonPrep], n_max: int) -> RegisterState:
    """Tensor product of the ion preparations with the mode in the vacuum.

    Parameters
    ----------
    preps : sequence of IonPrep
        One preparation per ion, ion 1 first.
    n_max : int
        Fock cutoff; the mode keeps levels 0..n_max.
    """
    dim = check_register_size(len(preps), n_max)
    ions = np.ones(1, dtype=np.complex128)
    for prep in preps:
        ions = np.kron(ions, prep.coefficients)
    mode = np.zeros(n_max + 1, dtype=np.complex128)
    mode[0] = 1.0
    # The last product goes straight into an array the state adopts, uncopied.
    amps = np.empty(dim, dtype=np.complex128)
    np.multiply(ions[:, None], mode, out=amps.reshape(-1, n_max + 1))
    amps /= np.linalg.norm(amps)
    amps.setflags(write=False)
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
    rows = ion_axes(state.amplitudes, ion, state.n_max)
    return float(np.sum(np.abs(rows[:, require_int(level, "level", 0, 2)]) ** 2))


def mode_population(state: RegisterState, n: int) -> float:
    """Total probability of exactly ``n`` phonons in the shared mode."""
    n = require_int(n, "phonon number", 0, state.n_max)
    return float(np.sum(np.abs(state.amplitudes[n :: state.n_max + 1]) ** 2))


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
