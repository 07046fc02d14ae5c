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

from dataclasses import dataclass, field
from math import sqrt

from .errors import TruncationError, ValidationError
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
        check_register_size(len(self.preps), 1)
        for i, step in enumerate(self.steps, start=1):
            require_int(step.ion, f"step {i} ion", 1, len(self.preps))

    @property
    def n_ions(self) -> int:
        return len(self.preps)

    def sideband_count(self) -> int:
        """Number of sideband steps (carrier rotations excluded)."""
        return sum(1 for s in self.steps if s.kind in SIDEBAND_KINDS)


@dataclass(frozen=True)
class Snapshot:
    """State recorded right after one step of a run."""

    step_index: int
    pulse: Pulse
    state: RegisterState
    label: str | None = None


def _ground() -> IonPrep:
    return IonPrep.basis(IonLevel.G)


def _excited() -> IonPrep:
    return IonPrep.basis(IonLevel.E)


def _g_minus_e() -> IonPrep:
    return IonPrep([(IonLevel.G, _INV_SQRT2), (IonLevel.E, -_INV_SQRT2)])


def _g_plus_e() -> IonPrep:
    return IonPrep([(IonLevel.G, _INV_SQRT2), (IonLevel.E, _INV_SQRT2)])


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
    check_register_size(n_ions, 1)

    preps: list[IonPrep] = [_excited(), _ground()]
    for k in range(3, n_ions + 1):
        if k == n_ions and n_ions % 2 == 0:
            preps.append(_g_plus_e())
        else:
            preps.append(_g_minus_e())

    steps: list[Pulse] = [half_sideband(1)]
    labels: list[str] = ["split ion 1 into the bus"]

    if n_ions == 2:
        steps.append(phase_gate(1))
        labels.append("conditional phase between bus and ion 1")
    else:
        steps.append(phase_gate(3))
        labels.append("conditional phase between bus and ion 3")

    steps.append(map_mode_to_ion(2))
    labels.append("empty the bus into ion 2")
    steps.append(carrier(1))
    labels.append("carrier rotation on ion 1")

    for m in range(4, n_ions + 1, 2):
        steps.append(map_ion_to_mode(m))
        labels.append(f"load ion {m} into the bus")
        steps.append(phase_gate(m - 1))
        labels.append(f"conditional phase between bus and ion {m - 1}")
        if m + 1 <= n_ions:
            steps.append(phase_gate(m + 1))
            labels.append(f"conditional phase between bus and ion {m + 1}")
        steps.append(map_mode_to_ion(m))
        labels.append(f"empty the bus into ion {m}")

    return PulseSequence(tuple(preps), tuple(steps), tuple(labels))


def cluster6_sequence() -> PulseSequence:
    """The 11-step, six-ion program (one carrier, ten sideband pulses)."""
    return chain_sequence(6)


def step_error(
    err: TruncationError, index: int, step: Pulse, label: str | None
) -> TruncationError:
    """``err`` restated for the 1-based step ``index`` of a sequence."""
    return TruncationError(
        f"step {index} ({label or step.kind.value} on ion {step.ion}): {err}",
        leaked_probability=err.leaked_probability,
        step_index=index,
    )


def run(
    seq: PulseSequence,
    n_max: int = 2,
    record_snapshots: bool = False,
) -> tuple[RegisterState, list[Snapshot]]:
    """Build the initial register, apply every step in order.

    Returns the final state and, when requested, one Snapshot per step.
    A TruncationError raised by any pulse is re-raised with the 1-based
    step index attached.
    """
    state = new_register(list(seq.preps), n_max)
    snapshots: list[Snapshot] = []
    for i, (step, label) in enumerate(zip(seq.steps, seq.labels), start=1):
        try:
            state = apply_pulse(state, step)
        except TruncationError as err:
            raise step_error(err, i, step, label) from err
        if record_snapshots:
            snapshots.append(Snapshot(i, step, state, label))
    return state, snapshots
