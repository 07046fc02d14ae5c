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
from .register import IonLevel, RegisterState, ion_axes, require_int, require_real

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
        if self.kind not in tuple(PulseKind):
            raise ValidationError(f"unknown pulse kind {self.kind!r}")
        object.__setattr__(self, "ion", require_int(self.ion, "ion index", 1))
        object.__setattr__(self, "phi", require_real(self.phi, "pulse parameters"))
        object.__setattr__(self, "theta", require_real(self.theta, "pulse parameters"))

    def inverse(self) -> "Pulse":
        """Same pulse run backwards (theta negated)."""
        return Pulse(self.kind, self.ion, self.phi, -self.theta)


def coupled_pairs(block: np.ndarray, pulse: Pulse, n_max: int):
    """Views (a, b, top) of ``block``: the pairs ``pulse`` rotates, Fock row last.

    A sideband pairs a = |g,m+1> with b = |x,m> and guards top = |x,n_max>;
    a carrier pairs a = |e> with b = |g> and guards nothing (top is empty).
    """
    axes = ion_axes(block, pulse.ion, n_max)
    if pulse.kind == PulseKind.CARRIER:
        return axes[:, 1], axes[:, 0], block[:0]
    x_level = int(EXCITED_LEVEL[pulse.kind])
    return axes[:, 0, :, 1:], axes[:, x_level, :, :-1], axes[:, x_level, :, n_max]


def pulse_tables(kind: PulseKind, theta, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the half angle each pair turns by, Fock row m last.

    A carrier turns every pair by theta/2; sideband pair m by
    theta*sqrt(m+1)/2.  ``theta`` may be an array of areas, one row each.
    """
    half = 0.5 * np.asarray(theta)
    if kind in SIDEBAND_KINDS:
        half = half[..., None] * np.sqrt(np.arange(1, n_max + 1, dtype=np.float64))
    return np.cos(half), np.sin(half)


def rotate_pairs(a, b, c, s, phi: float, out_a, out_b) -> None:
    """Write the closed-form pulse on coupled amplitude pairs (a, b).

    Sets ``out_a = c*a - e^{+i phi} s*b`` and ``out_b = c*b + e^{-i phi} s*a``;
    the outputs must not overlap the inputs.  Sideband pairs are
    (|g,m+1>, |x,m>) and carrier pairs (|e>, |g>); the dense pulses and the
    batched Monte Carlo both go through this one expression, so they agree
    bitwise.  Writing in place keeps one result at a time alive, which on
    long chains is measurably faster than returning both.
    """
    e_plus = np.exp(1j * phi)
    e_minus = np.exp(-1j * phi)
    out_a[...] = c * a - e_plus * (s * b)
    out_b[...] = c * b + e_minus * (s * a)


def truncation_error(ion: int, n_max: int, leak: float) -> TruncationError:
    """The error a sideband pulse on ``ion`` raises for ``leak`` > TRUNCATION_ATOL."""
    return TruncationError(
        f"sideband pulse on ion {ion} would couple {leak:.3e} probability "
        f"past the Fock cutoff n_max={n_max}; raise n_max",
        leaked_probability=leak,
    )


def apply_pulse(state: RegisterState, pulse: Pulse) -> RegisterState:
    """Apply one pulse; ValidationError for an ion the register lacks.

    A sideband pulse raises TruncationError instead of running when the
    state carries more than 1e-12 probability on |x, n_max>.
    """
    require_int(pulse.ion, "ion", 1, state.n_ions)
    a, b, top = coupled_pairs(state.amplitudes, pulse, state.n_max)
    leak = float(np.sum(np.abs(top) ** 2))
    if leak > TRUNCATION_ATOL:
        raise truncation_error(pulse.ion, state.n_max, leak)
    c, s = pulse_tables(pulse.kind, pulse.theta, state.n_max)
    out = state.amplitudes.copy()
    out_a, out_b, _ = coupled_pairs(out, pulse, state.n_max)
    rotate_pairs(a, b, c, s, pulse.phi, out_a, out_b)
    return RegisterState(state.n_ions, state.n_max, out)


def apply_sideband(
    state: RegisterState,
    ion: int,
    kind: PulseKind,
    phi: float,
    theta: float,
) -> RegisterState:
    """Red-sideband pulse of ``kind`` (SIDEBAND_GE or SIDEBAND_GEPRIME) on ``ion``.

    ``ion`` is 1-based; phi and theta are the laser phase and pulse area in
    radians.  Runs as ``apply_pulse``, TruncationError included.
    """
    if kind not in SIDEBAND_KINDS:
        raise ValidationError(f"{kind} is not a sideband pulse kind")
    return apply_pulse(state, Pulse(kind, ion, phi, theta))


def apply_carrier(
    state: RegisterState,
    ion: int,
    theta_c: float,
    phi_c: float,
) -> RegisterState:
    """Rotate the g-e pair of one ion, leaving e' and every Fock level alone."""
    return apply_pulse(state, Pulse(PulseKind.CARRIER, ion, phi_c, theta_c))


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
