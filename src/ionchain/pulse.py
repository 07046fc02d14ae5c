"""Closed-form laser-pulse unitaries on one ion plus the shared mode.

Two pulse families are modelled:

* resonant red-sideband pulses on the g-e or g-e' transition, which
  exchange one phonon with the addressed ion.  Writing theta for the pulse
  area (the product of Lamb-Dicke parameter, Rabi frequency and duration --
  only that product enters the dynamics) and phi for the laser phase, the
  exact map on the addressed ion and the mode is, with x the excited level
  of the chosen transition::

      |x,n>  ->  cos(theta*sqrt(n+1)/2) |x,n>  - e^{+i phi} sin(theta*sqrt(n+1)/2) |g,n+1>
      |g,n>  ->  cos(theta*sqrt(n)/2)   |g,n>  + e^{-i phi} sin(theta*sqrt(n)/2)   |x,n-1>

  (the sin term is absent for n = 0, and the third level of the ion is
  exactly dark);

* carrier rotations on the g-e pair of one ion, identical on every Fock
  level::

      |g>  ->  cos(theta/2) |g>  - e^{+i phi} sin(theta/2) |e>
      |e>  ->  cos(theta/2) |e>  + e^{-i phi} sin(theta/2) |g>

Because the underlying generator is time independent, negating theta gives
the exact inverse of any pulse.

The pair (|x,n_max>, |g,n_max+1>) pokes past the Fock cutoff; a sideband
pulse therefore refuses to run (TruncationError) when the probability on
|x,n_max> exceeds 1e-12, and passes that component through unchanged when
it is negligible, keeping the applied map exactly norm preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TruncationError, ValidationError
from .register import (
    IonLevel,
    RegisterState,
    blockwise,
    ion_axes,
    require_int,
    require_real,
)

#: A sideband pulse aborts when the top coupled component carries more
#: probability than this.
TRUNCATION_ATOL = 1e-12


class PulseKind(str, Enum):
    """Which laser event a pulse describes."""

    SIDEBAND_GE = "sideband_ge"
    SIDEBAND_GEPRIME = "sideband_geprime"
    CARRIER = "carrier"


SIDEBAND_KINDS = (PulseKind.SIDEBAND_GE, PulseKind.SIDEBAND_GEPRIME)

EXCITED_LEVEL = {
    PulseKind.SIDEBAND_GE: IonLevel.E,
    PulseKind.SIDEBAND_GEPRIME: IonLevel.EPRIME,
}


@dataclass(frozen=True)
class Pulse:
    """One laser event: kind, 1-based ion (int), phase phi and area theta (floats)."""

    kind: PulseKind
    ion: int
    phi: float
    theta: float

    def __post_init__(self):
        # Not a membership test: a plain string equals its str-valued member.
        if not isinstance(self.kind, PulseKind):
            raise ValidationError(f"pulse kind must be a PulseKind, got {self.kind!r}")
        object.__setattr__(self, "ion", require_int(self.ion, "ion index", 1))
        object.__setattr__(self, "phi", require_real(self.phi, "pulse parameters"))
        object.__setattr__(self, "theta", require_real(self.theta, "pulse parameters"))


def coupled_pairs(axes: np.ndarray, kind: PulseKind):
    """Views (a, b, top) of an ``ion_axes`` view or block: the pairs a pulse rotates.

    A sideband pairs a = |g,m+1> with b = |x,m> and guards top = |x,n_max>;
    a carrier pairs a = |e> with b = |g> and guards nothing (top is empty).
    The Fock row is the last axis of each.
    """
    if kind == PulseKind.CARRIER:
        return axes[:, 1], axes[:, 0], axes[:, 0, :, :0]
    x_level = int(EXCITED_LEVEL[kind])
    return axes[:, 0, :, 1:], axes[:, x_level, :, :-1], axes[:, x_level, :, -1]


def pulse_rates(kind: PulseKind, n_max: int) -> np.ndarray:
    """Angle per unit area of each Fock row's pairs, in row order.

    Sideband pair m turns by theta*sqrt(m+1)/2 (n_max rows) and every carrier
    pair by theta/2 (n_max+1 equal rows), so every kind's tables index alike.
    """
    return np.sqrt(np.arange(1.0, n_max + 1)) if kind in SIDEBAND_KINDS else np.ones(n_max + 1)


def turn_tables(theta, rates) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of ``0.5 * theta[..., None] * rates``: the half angles pairs turn by.

    ``theta`` may be an array of areas and ``rates`` any array that
    broadcasts against ``theta[..., None]``, rows last.  An angle that
    overflows gives NaN entries, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * np.asarray(theta)[..., None] * rates
        return np.cos(half), np.sin(half)


def rotate_pairs(a, b, c, s, phi: float, out_a, out_b, work) -> None:
    """Write the closed-form pulse on coupled amplitude pairs (a, b).

    Sets ``out_a = c*a - e^{+i phi} s*b`` and ``out_b = c*b + e^{-i phi} s*a``.
    ``out_a`` may be ``a`` and ``out_b`` may be ``b``, because all six
    products are formed in ``work`` before either output is written; any
    other overlap is forbidden.  ``work`` is a flat complex buffer of at
    least four times ``a.size``, whose head holds four contiguous arrays of
    the pairs' shape for the partial products (allocating them per call
    made the Monte Carlo 2-15% slower; README, "Kernel and benchmark").
    Forming all six first also made the batched Monte Carlo faster than
    alternating products and outputs.  No product is computed in place,
    because numpy rounds a one-element complex product in place without
    the fused multiply-add it uses elsewhere.  Sideband pairs are
    (|g,m+1>, |x,m>) and carrier pairs (|e>, |g>); the dense pulses (one
    Fock row at a time, with scalar tables ``c[m]``, ``s[m]``, in place)
    and the batched Monte Carlo (whole (pairs, trials) arrays) both go
    through this one expression, so they agree bitwise.
    """
    e_plus = np.exp(1j * phi)
    e_minus = np.exp(-1j * phi)
    ca, spare, esb, esa = work[: 4 * a.size].reshape(4, *a.shape)
    np.multiply(c, a, out=ca)
    np.multiply(s, b, out=spare)
    np.multiply(e_plus, spare, out=esb)
    np.multiply(s, a, out=spare)
    np.multiply(e_minus, spare, out=esa)
    cb = np.multiply(c, b, out=spare)
    np.subtract(ca, esb, out=out_a)
    np.add(cb, esa, out=out_b)


def apply_pulse(state: RegisterState, pulse: Pulse) -> RegisterState:
    """Apply one pulse; ValidationError for an ion the register lacks.

    A sideband pulse raises TruncationError instead of running when the
    state carries more than 1e-12 probability on |x, n_max>, and any pulse
    raises ValidationError when its area overflows a rotation angle.  Both
    checks read the whole vector on the calling thread; the rest runs block
    by block on all CPUs (``blockwise``), each worker with its own scratch.
    A block task copies its block into the new buffer, then turns the pairs
    of that copy in place, one Fock row at a time with that row's scalar
    cos and sin, so each numpy loop runs over a whole row of pairs instead
    of over the n_max entries of a broadcast table (a carrier's rows are
    equal, and it loops alike).
    """
    require_int(pulse.ion, "ion", 1, state.n_ions)
    _, _, top = coupled_pairs(ion_axes(state.amplitudes, pulse.ion, state.n_max), pulse.kind)
    leak = float(np.sum(np.abs(top) ** 2))
    if leak > TRUNCATION_ATOL:
        raise TruncationError(
            f"sideband pulse on ion {pulse.ion} would couple {leak:.3e} probability "
            f"past the Fock cutoff n_max={state.n_max}; raise n_max",
            leaked_probability=leak,
        )
    c, s = turn_tables(pulse.theta, pulse_rates(pulse.kind, state.n_max))
    if not np.isfinite(c).all():  # cos and sin overflow together
        raise ValidationError(
            f"{pulse.kind.value} pulse on ion {pulse.ion}: area {pulse.theta!r} "
            f"overflows its rotation angle at n_max={state.n_max}"
        )
    out = np.empty_like(state.amplitudes)

    def rotate_block(source, target, work) -> None:
        np.copyto(target, source)
        a, b, _ = coupled_pairs(target, pulse.kind)
        for m in range(len(c)):
            rotate_pairs(a[..., m], b[..., m], c[m], s[m], pulse.phi,
                         a[..., m], b[..., m], work)

    blockwise(rotate_block, state.amplitudes, out, pulse.ion, state.n_max)
    out.setflags(write=False)
    return RegisterState(state.n_ions, state.n_max, out)


# ---------------------------------------------------------------------------
# Named pulse gadgets
# ---------------------------------------------------------------------------
# The phase choices below are fixed by solving the sideband map for the
# stated transformations: phi=pi, theta=pi sends |e,0> -> +|g,1>, while
# phi=0, theta=pi sends |g,1> -> +|e,0>.


def half_sideband(ion: int) -> Pulse:
    """Quarter-turn g-e sideband: splits |e,0> into (|e,0> + |g,1>)/sqrt(2)."""
    return Pulse(PulseKind.SIDEBAND_GE, ion, phi=math.pi, theta=math.pi / 2)


def map_ion_to_mode(ion: int) -> Pulse:
    """Full g-e sideband loading the ion's excitation into the mode: |e,0> -> |g,1>."""
    return Pulse(PulseKind.SIDEBAND_GE, ion, phi=math.pi, theta=math.pi)


def map_mode_to_ion(ion: int) -> Pulse:
    """Full g-e sideband emptying the mode into the ion: |g,1> -> |e,0>."""
    return Pulse(PulseKind.SIDEBAND_GE, ion, phi=0.0, theta=math.pi)


def phase_gate(ion: int) -> Pulse:
    """Full 2*pi loop through e', flipping the sign of |g,1> only."""
    return Pulse(PulseKind.SIDEBAND_GEPRIME, ion, phi=0.0, theta=2 * math.pi)


def carrier(ion: int, theta_c: float = math.pi / 2, phi_c: float = 0.0) -> Pulse:
    """Carrier rotation pulse on the g-e pair of one ion."""
    return Pulse(PulseKind.CARRIER, ion, phi=phi_c, theta=theta_c)
