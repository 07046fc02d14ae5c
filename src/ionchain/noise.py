"""Multiplicative per-pulse fidelity estimate and pulse-area jitter Monte Carlo.

Two error views are offered.  The cheap estimate multiplies one fidelity
figure per sideband pulse (carrier rotations count as trivial single-qubit
operations and are excluded); its pulse count can be overridden, since the
headline figure customarily quoted for this protocol uses eight sideband
excitations while the sequence as written contains ten.  The Monte Carlo
model perturbs every sideband area theta to theta*(1+eps) with independent
zero-mean Gaussian eps and scores each trial against the ideal final state.

The Monte Carlo never evolves a dense register per trial.  A sideband pulse
couples only |x,m> with |g,m+1> on one ion and a carrier only |g> with |e>,
so the basis states a program can populate follow from its initial support
and pulse pattern, whatever the areas.  The program is compiled once into
index pairs over those states (262 of 3,645 for the six-ion program at
n_max=4), and batches of trials step through it as (trials, support) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TruncationError, ValidationError
from .protocol import PulseSequence, run, step_error
from .pulse import (
    SIDEBAND_KINDS,
    TRUNCATION_ATOL,
    Pulse,
    coupled_pairs,
    pulse_tables,
    rotate_pairs,
    truncation_error,
)
from .register import MAX_AMPLITUDES, new_register, require_int, require_real

#: Compact amplitudes one batch of trials may hold (16 bytes per trial and
#: reachable state): 62 trials of the six-ion program's 262 states.
BATCH_BYTES = 1 << 18


def _require_fidelity(value) -> float:
    """``value`` as a float if it is a real number in (0, 1], else ValidationError."""
    fidelity = require_real(value, "per_pulse_fidelity")
    if not 0.0 < fidelity <= 1.0:
        raise ValidationError(f"per_pulse_fidelity must lie in (0, 1], got {value!r}")
    return fidelity


@dataclass(frozen=True)
class NoiseConfig:
    """Knobs for the jitter Monte Carlo.

    jitter_sigma is the fractional pulse-area error (dimensionless);
    per_pulse_fidelity feeds the multiplicative estimate.  trials is capped
    at MAX_AMPLITUDES, the same budget as one register, since every trial
    keeps a sample; seed is a non-negative integer, as numpy's generator
    requires.  Each knob is stored as a Python float or int.
    """

    per_pulse_fidelity: float = 0.93
    jitter_sigma: float = 0.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        sigma = require_real(self.jitter_sigma, "jitter_sigma")
        if sigma < 0.0:
            raise ValidationError(f"jitter_sigma must be >= 0, got {sigma!r}")
        checked = {
            "per_pulse_fidelity": _require_fidelity(self.per_pulse_fidelity),
            "jitter_sigma": sigma,
            "trials": require_int(self.trials, "trials", 1, MAX_AMPLITUDES),
            "seed": require_int(self.seed, "seed", 0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample statistics of the trial fidelities."""

    mean_fidelity: float
    std_error: float
    samples: np.ndarray


def fidelity_estimate(
    seq: PulseSequence,
    per_pulse_fidelity: float = 0.93,
    pulse_count_override: int | None = None,
) -> float:
    """F**k with k the sequence's sideband-pulse count (or the override)."""
    per_pulse_fidelity = _require_fidelity(per_pulse_fidelity)
    if pulse_count_override is not None:
        k = require_int(pulse_count_override, "pulse_count_override", 0)
    else:
        k = seq.sideband_count()
    return float(per_pulse_fidelity**k)


def batch_trials(support_size: int, trials: int) -> int:
    """Trials per batch: as many support-sized rows as BATCH_BYTES holds, >= 1."""
    return max(1, min(trials, BATCH_BYTES // (16 * support_size)))


class _Step(NamedTuple):
    """One pulse compiled to positions in the compact amplitude vector."""

    pulse: Pulse
    label: str | None
    # The a members of the pulse's coupled pairs, then their b partners in
    # the same order (see pulse.coupled_pairs).
    pairs: np.ndarray
    rows: np.ndarray  # Fock row of each pair
    top: np.ndarray  # reachable |x,n_max> states: the truncation guard


def _compile(
    seq: PulseSequence, initial: np.ndarray, n_max: int
) -> tuple[np.ndarray, list[_Step]]:
    """Reachable dense indices of ``seq`` and its steps' pairs among them.

    Each step keeps only the pairs touching a state reachable before it, so
    the support is the union of the steps' own reachable sets.
    """
    reach = initial != 0
    grid = np.arange(reach.size)
    dense_steps = []
    for step in seq.steps:
        first, second, top = coupled_pairs(grid, step, n_max)
        rows = np.broadcast_to(np.arange(first.shape[-1]), first.shape)
        top = top.ravel()
        top = top[reach[top]]
        live = reach[first] | reach[second]
        pairs = np.concatenate((first[live], second[live]))
        reach[pairs] = True
        dense_steps.append((pairs, rows[live], top))
    support = np.flatnonzero(reach)
    compact = np.empty(reach.size, dtype=np.intp)
    compact[support] = np.arange(support.size)
    steps = [
        _Step(pulse, label, compact[pairs], rows, compact[top])
        for pulse, label, (pairs, rows, top) in zip(seq.steps, seq.labels, dense_steps)
    ]
    return support, steps


def _evolve(
    amps: np.ndarray, steps: list[_Step], thetas: np.ndarray, n_max: int
) -> tuple[int, int, float] | None:
    """Evolve the (trials, support) array ``amps`` through ``steps`` in place.

    ``thetas`` holds each trial's sideband areas in step order.  Returns
    (row, 1-based step, leaked probability) for the first row that tripped
    the truncation guard, at its first tripping step, or None.  The leak is
    summed over the reachable top-rung states only, so it may differ from a
    dense run's in the last bit.
    """
    tripped = np.zeros(len(amps), dtype=np.intp)
    leaks = np.zeros(len(amps))
    column = 0
    for index, step in enumerate(steps, start=1):
        pulse = step.pulse
        if pulse.kind in SIDEBAND_KINDS:
            leak = np.sum(np.abs(amps[:, step.top]) ** 2, axis=1)
            new = (leak > TRUNCATION_ATOL) & (tripped == 0)
            tripped[new] = index
            leaks[new] = leak[new]
            c, s = pulse_tables(pulse.kind, thetas[:, column], n_max)
            c, s = c[:, step.rows], s[:, step.rows]
            column += 1
        else:
            c, s = pulse_tables(pulse.kind, pulse.theta, n_max)
        pairs = amps[:, step.pairs]
        out = np.empty_like(pairs)
        half = pairs.shape[1] // 2
        rotate_pairs(
            pairs[:, :half], pairs[:, half:], c, s, pulse.phi,
            out[:, :half], out[:, half:],
        )
        amps[:, step.pairs] = out
    if not tripped.any():
        return None
    row = int(np.argmax(tripped > 0))
    return row, int(tripped[row]), float(leaks[row])


def monte_carlo(
    seq: PulseSequence,
    cfg: NoiseConfig,
    n_max: int = 2,
) -> MonteCarloResult:
    """Fidelity distribution under fractional pulse-area jitter.

    Draw order is fixed for reproducibility: one eps per sideband step in
    step order, trials outermost, from numpy's default PCG64 generator
    seeded with cfg.seed.  Carrier pulses draw nothing and stay exact.
    Identical configs therefore give bitwise-identical samples, and runs
    with the same seed but different sigma share the same unit draws (eps
    scales linearly with sigma).

    Trials run in batches over the program's reachable subspace: one dense
    ideal run, one compile of the pulse pattern into index pairs, then per
    batch a (trials, support) complex array that every step gathers, rotates
    and scatters in place.  Memory is bounded by the dense ideal state and
    the compile's dense index arrays, plus a batch of at most BATCH_BYTES
    (256 KiB) and its per-step temporaries, whatever the trial count.  Each
    sample is scored against the dense ideal state through one reused dense
    row, so it is bitwise the fidelity a dense run of the trial would give.

    A trial whose jittered area is not finite raises the ValidationError
    that Pulse gives; a trial that would couple more than 1e-12 past the
    Fock cutoff raises TruncationError with its trial and step index.  The
    first failing trial wins, as in a trial-by-trial run.  Jittered sequences
    spread population above the levels the ideal run touches, so n_max needs
    headroom: the ideal-run cutoff of 2 aborts for any appreciable sigma.
    For the six-ion program n_max=4 is ample for sigma up to 0.05; longer
    chains need more (chain:10 trips at n_max=4 with sigma 0.02).
    """
    ideal, _ = run(seq, n_max=n_max)
    initial = new_register(list(seq.preps), n_max).amplitudes
    support, steps = _compile(seq, initial, n_max)
    jittered = [step for step in seq.steps if step.kind in SIDEBAND_KINDS]
    areas = np.array([step.theta for step in jittered])
    batch = batch_trials(support.size, cfg.trials)
    rng = np.random.default_rng(cfg.seed)
    samples = np.empty(cfg.trials, dtype=np.float64)
    start_amps = initial[support]
    dense = np.zeros(ideal.dim, dtype=np.complex128)
    for start in range(0, cfg.trials, batch):
        size = min(batch, cfg.trials - start)
        eps = rng.normal(0.0, cfg.jitter_sigma, size=(size, len(jittered)))
        with np.errstate(over="ignore", invalid="ignore"):
            thetas = areas * (1.0 + eps)
        finite = np.isfinite(thetas).all(axis=1)
        good = size if finite.all() else int(np.argmin(finite))
        amps = np.tile(start_amps, (good, 1))
        failure = _evolve(amps, steps, thetas[:good], n_max)
        if failure is not None:
            row, index, leak = failure
            step = steps[index - 1]
            err = step_error(
                truncation_error(step.pulse.ion, n_max, leak),
                index, step.pulse, step.label,
            )
            raise TruncationError(
                f"trial {start + row}: {err}",
                leaked_probability=leak,
                step_index=index,
                trial_index=start + row,
            )
        if good < size:
            column = int(np.argmin(np.isfinite(thetas[good])))
            pulse = jittered[column]
            # Raises the ValidationError a trial-by-trial run would.
            Pulse(pulse.kind, pulse.ion, pulse.phi, float(thetas[good, column]))
        for row in range(size):
            dense[support] = amps[row]
            samples[start + row] = abs(complex(np.vdot(ideal.amplitudes, dense))) ** 2
    mean = float(np.mean(samples))
    if cfg.trials > 1 and not np.all(samples == samples[0]):
        std_error = float(np.std(samples, ddof=1) / np.sqrt(cfg.trials))
    else:
        std_error = 0.0
    return MonteCarloResult(mean_fidelity=mean, std_error=std_error, samples=samples)
