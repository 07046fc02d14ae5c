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
every pulse, the Monte Carlo compile and the reference cluster state read
and write amplitudes through that view.  ``basis_labels`` and
``basis_digits`` decode flat indices into the same digits, and
``lane_chunks`` names the LANE-aligned chunks of a vector that hold an
amplitude, on which the stabilizer checks work.  ``blockwise`` runs a dense
pass over the slab-aligned blocks that ``ion_blocks`` cuts the same view
into, on up to one thread per CPU, each with its own scratch.

ionchain's own whole-vector BLAS reductions (``new_register``'s norm,
``inner_product``, the overlap fallback of ``global_phase_alignment``, the
stabilizers' ``np.vdot`` and the Monte Carlo scoring) run with numpy's
bundled OpenBLAS held at one thread (``_one_blas_thread``): a threaded
reduction rounds differently for each thread count, so this keeps every
reported float the same whatever thread count the process was given, and
wakes no OpenBLAS thread to spin on a CPU that a block worker wants.  On
one thread, the kernel keeps its partial sums in lanes whose period
divides LANE, so a dot over the occupied lane chunks of two vectors has
the dense dot's bits wherever it is nonzero: those bytes depend on the
kernel's lane period as they would on its thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
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

#: Amplitudes in one lane chunk (``lane_chunks``).  Not a knob: with one
#: BLAS thread, ``np.vdot`` over the occupied 8-aligned chunks equalled the
#: dense ``np.vdot`` bit for bit under numpy 2.4.6's OpenBLAS 0.3.31 on its
#: SkylakeX, Haswell, Sandybridge, Nehalem and Prescott kernels (200 random
#: sparse vectors each, 0 differed), while 193 of 200 differed with chunks
#: of 4 (README, "Kernel and benchmark").
LANE = 8


class IonLevel(IntEnum):
    """Internal level of a single ion: ground, excited, auxiliary excited."""

    G = 0
    E = 1
    EPRIME = 2


LEVEL_NAMES = {IonLevel.G: "g", IonLevel.E: "e", IonLevel.EPRIME: "eprime"}
LEVELS_BY_NAME = {name: level for level, name in LEVEL_NAMES.items()}


@dataclass(frozen=True, init=False, repr=False)
class IonPrep:
    """Initial pure state of one ion, given as (level, coefficient) pairs.

    Levels are integers 0..2 and coefficients finite numbers, normalized
    within ``PREP_NORM_ATOL``; accepted preparations are renormalized exactly
    and kept as the g, e, e' coefficients, which cannot be changed.
    """

    coefficients: tuple[complex, complex, complex]

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
        object.__setattr__(self, "coefficients", tuple((coeffs / norm).tolist()))

    @classmethod
    def basis(cls, level: IonLevel) -> "IonPrep":
        """Preparation in a single bare level."""
        return cls([(level, 1.0)])

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
        return self.amplitudes.size

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
    a, b, n = _split_index(n_ions, n_max, indices)
    return [f"{hi[i]}{lo[j]};{k}" for i, j, k in zip(a.tolist(), b.tolist(), n.tolist())]


def basis_digits(n_ions: int, n_max: int, indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """Level (g=0, e=1, e'=2) of each ion at each flat index: row ``i`` is ion ``i + 1``.

    Two cached table lookups, as in ``basis_labels``; uint8, shape
    ``(n_ions, len(indices))``.
    """
    hi, lo = _digit_tables(n_ions)
    a, b, _ = _split_index(n_ions, n_max, indices)
    return np.concatenate((hi.take(a, axis=1), lo.take(b, axis=1)))


def _split_index(n_ions: int, n_max: int, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each flat index as (word of the first ``n_ions // 2`` ions, word of the rest, phonons)."""
    ions, n = np.divmod(np.asarray(indices, dtype=np.int64), n_max + 1)
    a, b = np.divmod(ions, 3 ** (n_ions - n_ions // 2))
    return a, b, n


@functools.lru_cache(maxsize=None)
def _digit_tables(n_ions: int) -> tuple[np.ndarray, np.ndarray]:
    """Digits of each level word of the first ``n_ions // 2`` ions and of the rest, by column."""
    hi, lo = ((np.arange(3**k) // 3 ** np.arange(k - 1, -1, -1)[:, None] % 3).astype(np.uint8)
              for k in (n_ions // 2, n_ions - n_ions // 2))
    return hi, lo


@functools.lru_cache(maxsize=None)
def _word_tables(n_ions: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``_digit_tables`` spelled out: ``"g e "`` for the first ions, ``"g e"`` for the rest."""
    names = list(LEVEL_NAMES.values())
    hi, lo = (tuple(" ".join(names[d] for d in word) for word in table.T.tolist())
              for table in _digit_tables(n_ions))
    return tuple(f"{word} " if word else "" for word in hi), lo


def lane_chunks(amplitudes: np.ndarray) -> np.ndarray:
    """Sorted flat positions of every LANE-aligned chunk that holds an amplitude ``!= 0``.

    ``amplitudes`` is a flat complex128 vector.  The last chunk is clipped
    at its end.  A NaN counts as nonzero, so every amplitude that is not
    exactly zero lies on a position.
    """
    size = amplitudes.size
    chunks = -(-size // LANE)
    # Part flags, real and imaginary, of each chunk read as 64-bit words.
    nonzero = np.zeros(chunks * 2 * LANE, dtype=bool)
    np.not_equal(amplitudes.view(np.float64), 0, out=nonzero[: 2 * size])
    words = nonzero.view(np.uint64).reshape(chunks, -1)
    occupied = np.flatnonzero(functools.reduce(np.bitwise_or, words.T))
    positions = (occupied[:, None] * LANE + np.arange(LANE)).ravel()
    return positions[: np.searchsorted(positions, size)]


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


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if it has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


_blas_lock = threading.Lock()
_blas_holders = 0  # bodies inside ``_one_blas_thread`` now, on any thread
_blas_count = 1  # the thread count the first of them found


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore the count.

    A threaded reduction splits a vector where its thread count says, so its
    rounding follows that count; on one thread the bits do not.  The count
    is process-wide, so the first body to enter sets it and the last to
    leave, even by an exception, puts back the count the first one found:
    the caller's own BLAS work keeps its threads, also when holds on several
    threads overlap.  With another BLAS this does nothing.
    """
    global _blas_holders, _blas_count
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_threads = blas
    with _blas_lock:
        if _blas_holders == 0:
            _blas_count = get()
            set_threads(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_threads(_blas_count)


def blockwise(
    task: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    source: np.ndarray, target: np.ndarray, ion: int, n_max: int, last: int | None = None,
) -> None:
    """Call ``task(source_block, target_block, work)`` for each ``ion_blocks`` pair.

    Both flat vectors are cut alike, and ``work`` is the worker's flat
    scratch, as large as the first (largest) block.  A pass uses one worker
    per CPU, at most one per WORKER_BLOCKS blocks.  Each worker claims the
    next unclaimed block until none is left, so a worker whose CPU is shared
    (with another process) takes fewer blocks instead of holding the others
    up.  Worker 0 is the calling thread, so one worker runs inline and
    starts no thread; the others are started here and all are joined before
    this returns or raises.  The first exception a worker raised is
    re-raised in the caller.
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


@_one_blas_thread()
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


@_one_blas_thread()
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


@_one_blas_thread()
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
