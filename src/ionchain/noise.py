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
n_max=4), and batches of trials step through it as (support, trials) arrays.
A batch is as many trials as ``BATCH_BYTES`` holds (16 bytes per trial and
reachable state): 125 for that program.  It is a budget of its own, not the
dense passes' ``register.BLOCK_BYTES``: batches of a 1 MiB dense block made
the six-ion sweep slower.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import TruncationError, ValidationError, prefixed
from .protocol import PulseSequence, run
from .pulse import (
    SIDEBAND_KINDS,
    TRUNCATION_ATOL,
    Pulse,
    coupled_pairs,
    pulse_tables,
    rotate_pairs,
)
from .register import MAX_AMPLITUDES, ion_axes, new_register, require_int, require_real

#: Bytes of amplitudes one Monte Carlo batch holds (see ``monte_carlo``).
BATCH_BYTES = 1 << 19


@dataclass(frozen=True)
class NoiseConfig:
    """Knobs for the jitter Monte Carlo.

    jitter_sigma is the fractional pulse-area error (dimensionless).  trials
    is capped at MAX_AMPLITUDES, the same budget as one register, since
    every trial keeps a sample; seed is a non-negative integer, as numpy's
    generator requires.  Each knob is stored as a Python float or int.
    """

    jitter_sigma: float = 0.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        sigma = require_real(self.jitter_sigma, "jitter_sigma")
        if sigma < 0.0:
            raise ValidationError(f"jitter_sigma must be >= 0, got {sigma!r}")
        checked = {
            "jitter_sigma": abs(sigma),  # -0.0 passes the check; numpy refuses its sign bit
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
    fidelity = require_real(per_pulse_fidelity, "per_pulse_fidelity")
    if not 0.0 < fidelity <= 1.0:
        raise ValidationError(
            f"per_pulse_fidelity must lie in (0, 1], got {per_pulse_fidelity!r}"
        )
    if pulse_count_override is not None:
        k = require_int(pulse_count_override, "pulse_count_override", 0)
    else:
        k = seq.sideband_count()
    # F**(2**64) is already 0.0 for every float F < 1, and a larger int
    # exponent would overflow its conversion to float.
    return float(fidelity ** min(k, 2**64))


class _Step(NamedTuple):
    """One pulse of any kind compiled to positions in the compact amplitude vector."""

    pulse: Pulse
    # The a members of the pulse's coupled pairs, then their b partners in
    # the same order (see pulse.coupled_pairs).
    pairs: np.ndarray
    rows: np.ndarray  # Fock row of each pair: its entry in the pulse_tables
    top: np.ndarray  # reachable |x,n_max> states: the guard, empty for a carrier


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
        first, second, top = coupled_pairs(ion_axes(grid, step.ion, n_max), step.kind)
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
        _Step(pulse, compact[pairs], rows, compact[top])
        for pulse, (pairs, rows, top) in zip(seq.steps, dense_steps)
    ]
    return support, steps


def _evolve(
    amps: np.ndarray, steps: list[_Step], thetas: np.ndarray, n_max: int
) -> np.ndarray:
    """Evolve the (support, trials) array ``amps`` through ``steps`` in place.

    ``thetas`` holds each trial's areas, one column per step; each step
    guards, then rotates by its own column.  Returns the mask of trials to
    replay: an area that overflows a rotation angle, or a probability on a
    reachable |x,n_max> state near or above 1e-12 before a step (the margin
    covers summing over reachable states only).  With trials last, a step's
    pairs, tables and outputs are contiguous (pairs, trials) blocks.
    """
    trials = amps.shape[1]
    replay = np.zeros(trials, dtype=bool)
    # Each step's outputs and scratch are contiguous slices of one buffer.
    widest = max((step.pairs.size for step in steps), default=0)
    buffer = np.empty(3 * widest * trials, dtype=amps.dtype)
    for step, theta in zip(steps, thetas.T):
        c, s = pulse_tables(step.pulse.kind, theta, n_max)
        replay |= ~np.isfinite(c).all(axis=1)
        if step.top.size:  # empty for carriers and often for sidebands
            leak = np.sum(np.abs(amps[step.top]) ** 2, axis=0)
            replay |= ~(leak <= TRUNCATION_ATOL * (1.0 - 1e-6))
        pairs = amps[step.pairs]
        half = len(pairs) // 2
        out = buffer[: pairs.size].reshape(pairs.shape)
        rotate_pairs(
            pairs[:half], pairs[half:], c.T[step.rows], s.T[step.rows],
            step.pulse.phi, out[:half], out[half:], buffer[pairs.size :],
        )
        amps[step.pairs] = out
    return replay


def monte_carlo(
    seq: PulseSequence,
    cfg: NoiseConfig,
    n_max: int = 2,
) -> MonteCarloResult:
    """Fidelity distribution under fractional pulse-area jitter.

    Draw order is fixed for reproducibility: one eps per sideband step in
    step order, trials outermost, from numpy's default PCG64 generator
    seeded with cfg.seed.  The draws fill the sideband columns of one
    (trials, steps) area matrix areas*(1+jitter); carrier columns take
    jitter 0, so carriers draw nothing and stay exact, and each step reads
    its own column.  Identical configs therefore give bitwise-identical
    samples, and runs with the same seed but different sigma share the same
    unit draws (eps scales linearly with sigma).

    Trials run in batches over the program's reachable subspace: one dense
    ideal run, one compile of the pulse pattern into index pairs, then per
    batch a (support, trials) complex array that every step gathers, rotates
    and scatters in place.  Memory is bounded by the dense ideal state and
    the compile's dense index arrays, plus a batch of at most
    ``BATCH_BYTES`` (512 KiB; one trial if a single trial is larger) and one
    buffer for its per-step outputs and scratch, whatever the trial count.
    Each sample is scored against the dense ideal state through one reused
    dense row, so it is bitwise the fidelity a dense run of the trial would
    give.

    The batch only flags trials that may fail: a guard probability on
    |x,n_max> near or above 1e-12, or an area that overflows.  Flagged
    trials are replayed in order as a dense ``run`` of the pulses built from
    their own row of areas, and the replay decides: its TruncationError or
    ValidationError is re-raised with ``trial N:`` prefixed and the trial
    index set, so a sweep fails exactly as a trial-by-trial run would.  A
    flagged trial whose replay passes is scored from the batch.  Jittered
    sequences spread population above the levels the ideal run touches, so
    n_max needs headroom.  A red sideband conserves ion excitations plus
    phonons and only carriers change that count, so the states a program can
    reach have a largest phonon number whatever the areas: chain:N reaches
    no |x,n_max> state from n_max = N // 2 (1 for chain:2 and chain:3),
    where no sigma can truncate.  The six-ion program needs 3, chain:10
    needs 5.
    """
    ideal, _ = run(seq, n_max=n_max)
    initial = new_register(list(seq.preps), n_max).amplitudes
    support, steps = _compile(seq, initial, n_max)
    areas = np.array([step.theta for step in seq.steps])
    jittered = np.array([step.kind in SIDEBAND_KINDS for step in seq.steps], dtype=bool)
    batch = max(1, BATCH_BYTES // (16 * support.size))
    rng = np.random.default_rng(cfg.seed)
    samples = np.empty(cfg.trials, dtype=np.float64)
    start_amps = initial[support]
    dense = np.zeros(ideal.dim, dtype=np.complex128)
    for start in range(0, cfg.trials, batch):
        size = min(batch, cfg.trials - start)
        jitter = np.zeros((size, areas.size))
        jitter[:, jittered] = rng.normal(0.0, cfg.jitter_sigma, (size, jittered.sum()))
        amps = np.repeat(start_amps[:, None], size, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            thetas = areas * (1.0 + jitter)
            replay = _evolve(amps, steps, thetas, n_max)
        for row in np.flatnonzero(replay):
            trial = start + int(row)
            try:
                pulses = [replace(p, theta=t) for p, t in zip(seq.steps, thetas[row].tolist())]
                run(PulseSequence(seq.preps, pulses, seq.labels), n_max=n_max)
            except (TruncationError, ValidationError) as err:
                raise prefixed(err, f"trial {trial}", trial_index=trial) from err
        for row, final in enumerate(amps.T.copy()):  # each trial's state contiguous
            dense[support] = final
            samples[start + row] = abs(complex(np.vdot(ideal.amplitudes, dense))) ** 2
    mean = float(np.mean(samples))
    if cfg.trials > 1 and not np.all(samples == samples[0]):
        std_error = float(np.std(samples, ddof=1) / np.sqrt(cfg.trials))
    else:
        std_error = 0.0
    return MonteCarloResult(mean_fidelity=mean, std_error=std_error, samples=samples)
