"""Pulse choreography that weaves a linear cluster state across the chain.

The built-in sequences use the shared vibrational mode as a single-rung
quantum bus.  Ion 1 is first entangled with the bus by a half sideband and
later rotated by a carrier pulse; every other even ion lends its
preparation to the bus (map in), the bus picks up conditional phases from
the neighbouring odd ions (phase gates), and the bus is emptied back into
an even ion (map out).  After the final map the bus returns to the vacuum
and the ions are left in the linear cluster state.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import sqrt
from typing import Any

from .errors import TruncationError, ValidationError, prefixed
from .pulse import (
    SIDEBAND_KINDS,
    Pulse,
    apply_pulse,
    carrier,
    half_sideband,
    map_ion_to_mode,
    map_mode_to_ion,
    phase_gate,
)
from .register import (
    IonLevel,
    IonPrep,
    RegisterState,
    check_register_size,
    new_register,
    require_int,
)

_INV_SQRT2 = 1.0 / sqrt(2.0)

#: Label template of each gadget ``chain_sequence`` uses, filled with its ion.
_LABELS = {
    half_sideband: "split ion {} into the bus",
    phase_gate: "conditional phase between bus and ion {}",
    map_mode_to_ion: "empty the bus into ion {}",
    map_ion_to_mode: "load ion {} into the bus",
    carrier: "carrier rotation on ion {}",
}


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses plus each ion's preparation (as many ions as fit at n_max=1)."""

    preps: tuple[IonPrep, ...]
    steps: tuple[Pulse, ...]
    labels: tuple[str | None, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "preps", tuple(self.preps))
        object.__setattr__(self, "steps", tuple(self.steps))
        labels = tuple(self.labels)
        if not labels:
            labels = (None,) * len(self.steps)
        if len(labels) != len(self.steps):
            raise ValidationError(
                f"{len(labels)} labels for {len(self.steps)} steps"
            )
        object.__setattr__(self, "labels", labels)
        check_register_size(len(self.preps))
        for i, step in enumerate(self.steps, start=1):
            require_int(step.ion, f"step {i} ion", 1, len(self.preps))

    @property
    def n_ions(self) -> int:
        return len(self.preps)

    def sideband_count(self) -> int:
        """Number of sideband steps (carrier rotations excluded)."""
        return sum(1 for s in self.steps if s.kind in SIDEBAND_KINDS)


def chain_sequence(n_ions: int) -> PulseSequence:
    """Pulse program producing the ``n_ions``-qubit linear cluster state.

    Ions 1 and 2 anchor the chain (excited and ground preparations); odd
    ions from 3 up are prepared in (|g>-|e>)/sqrt(2) and interact only via
    phase gates; even ions from 4 up are prepared in (|g>-|e>)/sqrt(2) and
    routed through the bus, except the final even ion, which starts in
    (|g>+|e>)/sqrt(2).  For two ions the bus qubit takes its conditional
    phase from ion 1 itself.  A chain too long to simulate even at
    n_max=1 is refused before any preparation is built.
    """
    n_ions = require_int(n_ions, "chain length", 2)
    check_register_size(n_ions)

    preps = [IonPrep.basis(IonLevel.E), IonPrep.basis(IonLevel.G)] + [
        IonPrep([(IonLevel.G, _INV_SQRT2),
                 (IonLevel.E, _INV_SQRT2 if k == n_ions and k % 2 == 0 else -_INV_SQRT2)])
        for k in range(3, n_ions + 1)
    ]
    plan = [(half_sideband, 1), (phase_gate, 1 if n_ions == 2 else 3),
            (map_mode_to_ion, 2), (carrier, 1)]
    for m in range(4, n_ions + 1, 2):
        gates = [(phase_gate, k) for k in (m - 1, m + 1) if k <= n_ions]
        plan += [(map_ion_to_mode, m), *gates, (map_mode_to_ion, m)]
    return PulseSequence(
        tuple(preps),
        tuple(gadget(ion) for gadget, ion in plan),
        tuple(_LABELS[gadget].format(ion) for gadget, ion in plan),
    )


def cluster6_sequence() -> PulseSequence:
    """The 11-step, six-ion program (one carrier, ten sideband pulses)."""
    return chain_sequence(6)


def run(
    seq: PulseSequence,
    n_max: int = 2,
    snapshot: Callable[[RegisterState], Any] | None = None,
) -> tuple[RegisterState, list[Any]]:
    """Build the initial register, apply every step in order.

    Returns the final state and the results of ``snapshot`` called on the
    state right after each step (an empty list when ``snapshot`` is None).
    A run keeps no earlier state itself, so one that ``snapshot`` does not
    keep is freed at the next step.  A TruncationError or ValidationError
    raised by any pulse is re-raised with the step named before its message
    and the 1-based step index attached.
    """
    state = new_register(list(seq.preps), n_max)
    taken: list[Any] = []
    for i, (step, label) in enumerate(zip(seq.steps, seq.labels), start=1):
        try:
            state = apply_pulse(state, step)
        except (TruncationError, ValidationError) as err:
            where = f"step {i} ({label or f'{step.kind.value} on ion {step.ion}'})"
            raise prefixed(err, where, step_index=i) from err
        if snapshot is not None:
            taken.append(snapshot(state))
    return state, taken
