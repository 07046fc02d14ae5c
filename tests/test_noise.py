from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import (
    IonLevel,
    IonPrep,
    NoiseConfig,
    Pulse,
    PulseKind,
    PulseSequence,
    TruncationError,
    ValidationError,
    carrier,
    chain_sequence,
    cluster6_sequence,
    fidelity,
    fidelity_estimate,
    half_sideband,
    monte_carlo,
    new_register,
    run,
)
from ionchain import noise
from ionchain.cli import load_sequence
from ionchain.errors import prefixed
from ionchain.noise import _compile
from ionchain.pulse import coupled_pairs, turn_tables
from ionchain.register import MAX_AMPLITUDES, ion_axes

# Frozen on first computation: cluster6, sigma=0.02, trials=1000, seed=1,
# n_max=4 (jittered runs need Fock headroom above the ideal-run cutoff).
PINNED_MEAN_SIGMA_002 = 0.9933999076373285


class TestFidelityEstimate:
    def test_conventional_eight_pulse_figure(self):
        est = fidelity_estimate(cluster6_sequence(), 0.93, pulse_count_override=8)
        assert est == pytest.approx(0.5596, abs=0.0005)
        assert est == pytest.approx(0.93**8, abs=1e-15)

    def test_counted_pulse_figure(self):
        seq = cluster6_sequence()
        est = fidelity_estimate(seq, 0.93)
        assert seq.sideband_count() == 10
        assert est == pytest.approx(0.93**10, abs=1e-15)
        assert est == pytest.approx(0.4840, abs=0.0005)

    def test_perfect_pulses(self):
        assert fidelity_estimate(cluster6_sequence(), 1.0) == 1.0
        assert fidelity_estimate(chain_sequence(3), 1.0, pulse_count_override=8) == 1.0

    def test_monotone_in_fidelity_and_count(self):
        seq = cluster6_sequence()
        values_f = [fidelity_estimate(seq, f) for f in (0.5, 0.7, 0.9, 0.99, 1.0)]
        assert values_f == sorted(values_f)
        values_k = [
            fidelity_estimate(seq, 0.93, pulse_count_override=k) for k in range(0, 15)
        ]
        assert values_k == sorted(values_k, reverse=True)

    def test_rejects_bad_fidelity(self):
        with pytest.raises(ValidationError):
            fidelity_estimate(cluster6_sequence(), 0.0)
        with pytest.raises(ValidationError):
            fidelity_estimate(cluster6_sequence(), 1.2)
        for k in (-1, 2.5, True, "8"):
            with pytest.raises(ValidationError, match="pulse_count_override"):
                fidelity_estimate(cluster6_sequence(), 0.9, pulse_count_override=k)
        assert fidelity_estimate(cluster6_sequence(), 0.9, np.int64(2)) == 0.9**2

    @pytest.mark.parametrize("fid, want", [(0.93, 0.0), (1 - 2**-53, 0.0), (1.0, 1.0)])
    def test_pulse_count_past_float_range(self, fid, want):
        # 10**400 does not convert to a float; the result is still exact.
        for k in (2**64, 10**400):
            got = fidelity_estimate(cluster6_sequence(), fid, pulse_count_override=k)
            assert (type(got), got) == (float, want)


class TestNoiseConfig:
    def test_defaults(self):
        assert NoiseConfig() == NoiseConfig(jitter_sigma=0.0, trials=1, seed=0)
        # The estimate's per-pulse fidelity is not a knob; it defaults in
        # fidelity_estimate.
        assert fidelity_estimate(cluster6_sequence()) == 0.93**10

    def test_validation(self):
        with pytest.raises(ValidationError):
            fidelity_estimate(cluster6_sequence(), per_pulse_fidelity=0.0)
        with pytest.raises(ValidationError):
            NoiseConfig(jitter_sigma=-0.1)
        with pytest.raises(ValidationError):
            NoiseConfig(trials=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            NoiseConfig(seed=seed)

    @pytest.mark.parametrize("trials", [MAX_AMPLITUDES + 1, 10**12, 2.5, True])
    def test_rejects_trials_outside_the_budget(self, trials):
        # Checked before monte_carlo allocates one sample per trial.
        with pytest.raises(ValidationError, match="trials"):
            NoiseConfig(trials=trials)

    def test_accepts_bounds(self):
        assert NoiseConfig(trials=MAX_AMPLITUDES, seed=0).trials == MAX_AMPLITUDES
        assert NoiseConfig(seed=np.int64(3), trials=np.int64(2)).seed == 3

    def test_negative_zero_sigma_is_stored_positive(self):
        sigma = NoiseConfig(jitter_sigma=-0.0).jitter_sigma
        assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValidationError, match="jitter_sigma"):
            NoiseConfig(jitter_sigma=sigma)


class TestMonteCarlo:
    def test_zero_jitter_is_exact(self):
        result = monte_carlo(
            cluster6_sequence(), NoiseConfig(jitter_sigma=0.0, trials=10, seed=1)
        )
        assert result.mean_fidelity == pytest.approx(1.0, abs=1e-10)
        assert result.std_error == 0.0
        assert np.all(result.samples == result.samples[0])

    def test_vanishing_jitter_limit(self):
        result = monte_carlo(
            cluster6_sequence(),
            NoiseConfig(jitter_sigma=1e-6, trials=50, seed=3),
            n_max=4,
        )
        assert result.mean_fidelity >= 1.0 - 1e-6

    def test_deterministic_given_seed(self):
        cfg = NoiseConfig(jitter_sigma=0.02, trials=25, seed=11)
        a = monte_carlo(cluster6_sequence(), cfg, n_max=4)
        b = monte_carlo(cluster6_sequence(), cfg, n_max=4)
        assert np.array_equal(a.samples, b.samples)
        assert a.mean_fidelity == b.mean_fidelity

    def test_pinned_regression_value(self):
        result = monte_carlo(
            cluster6_sequence(),
            NoiseConfig(jitter_sigma=0.02, trials=1000, seed=1),
            n_max=4,
        )
        assert 0.5 < result.mean_fidelity < 1.0
        assert result.mean_fidelity == pytest.approx(
            PINNED_MEAN_SIGMA_002, abs=1e-12
        )

    def test_common_random_numbers_monotone_per_sample(self):
        runs = []
        for sigma in (0.005, 0.01, 0.02, 0.05):
            cfg = NoiseConfig(jitter_sigma=sigma, trials=200, seed=1)
            runs.append(monte_carlo(cluster6_sequence(), cfg, n_max=4).samples)
        for tighter, looser in zip(runs, runs[1:]):
            assert np.all(looser <= tighter + 1e-15)

    def test_samples_stay_in_bounds(self):
        result = monte_carlo(
            cluster6_sequence(),
            NoiseConfig(jitter_sigma=0.05, trials=100, seed=5),
            n_max=4,
        )
        assert np.all(result.samples >= 0.0)
        assert np.all(result.samples <= 1.0 + 1e-12)

    def test_tight_cutoff_aborts_with_trial_and_step(self):
        # At the ideal-run cutoff, jittered sequences leak past the top
        # Fock level and the run refuses to continue.
        cfg = NoiseConfig(jitter_sigma=0.02, trials=1000, seed=1)
        with pytest.raises(TruncationError) as excinfo:
            monte_carlo(cluster6_sequence(), cfg, n_max=2)
        assert excinfo.value.trial_index is not None
        assert excinfo.value.step_index is not None

    def test_carrier_pulse_is_never_jittered(self):
        # A carrier-only sequence is exact under any jitter.
        from ionchain import IonLevel, IonPrep, PulseSequence, carrier

        seq = PulseSequence(
            (IonPrep.basis(IonLevel.E),), (carrier(1), carrier(1, 1.1, 0.2))
        )
        result = monte_carlo(seq, NoiseConfig(jitter_sigma=0.5, trials=5, seed=2))
        assert result.mean_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_single_trial_std_error(self):
        result = monte_carlo(
            cluster6_sequence(), NoiseConfig(jitter_sigma=0.0, trials=1, seed=1)
        )
        assert result.std_error == 0.0


# ---------------------------------------------------------------------------
# Batched engine against a trial-by-trial oracle
# ---------------------------------------------------------------------------


def trialwise(seq: PulseSequence, cfg: NoiseConfig, n_max: int) -> np.ndarray:
    """Reference Monte Carlo from public run + fidelity: one dense run per trial.

    Draws one eps per sideband step as the step's pulse is built, trials
    outermost, so a non-finite area stops the trial before it runs.
    """
    ideal, _ = run(seq, n_max=n_max)
    rng = np.random.default_rng(cfg.seed)
    samples = np.empty(cfg.trials)
    for trial in range(cfg.trials):
        try:
            steps = [
                step if step.kind == PulseKind.CARRIER else Pulse(
                    step.kind, step.ion, step.phi,
                    step.theta * (1.0 + rng.normal(0.0, cfg.jitter_sigma)),
                )
                for step in seq.steps
            ]
            final, _ = run(PulseSequence(seq.preps, steps, seq.labels), n_max=n_max)
        except TruncationError as err:
            raise TruncationError(
                f"trial {trial}: {err}", step_index=err.step_index, trial_index=trial
            ) from err
        except ValidationError as err:
            raise ValidationError(f"trial {trial}: {err}") from err
        samples[trial] = fidelity(final, ideal)
    return samples


def _outcome(fn):
    try:
        return "samples", fn()
    except TruncationError as err:
        return "truncation", (str(err), err.trial_index, err.step_index)
    except ValidationError as err:
        return "validation", str(err)


def assert_parity(seq: PulseSequence, cfg: NoiseConfig, n_max: int) -> str:
    """Batched and trial-by-trial runs agree bitwise, or fail identically."""
    kind, expected = _outcome(lambda: trialwise(seq, cfg, n_max))
    got_kind, got = _outcome(lambda: monte_carlo(seq, cfg, n_max=n_max).samples)
    assert got_kind == kind, (got, expected)
    if kind == "samples":
        assert np.array_equal(got, expected)
    else:
        assert got == expected
    return kind


def support_size(seq: PulseSequence, n_max: int) -> int:
    """Basis states ``seq`` can reach at ``n_max``, whatever the areas."""
    support, _, _ = _compile(seq, n_max)
    return support.size


def batch_sizes(monkeypatch, seq: PulseSequence, cfg: NoiseConfig, n_max: int) -> list[int]:
    """Trials in each batch ``monte_carlo`` evolves, in order.

    The first ``_evolve`` call is the ideal program's one column, not a
    batch of trials, so it is not recorded.
    """
    sizes = []
    evolve = noise._evolve

    def recorded(amps, *args):
        sizes.append(amps.shape[1])
        return evolve(amps, *args)

    with monkeypatch.context() as patched:
        patched.setattr(noise, "_evolve", recorded)
        monte_carlo(seq, cfg, n_max=n_max)
    assert sizes[0] == 1
    return sizes[1:]


# The two-ion program of tools/report_hashes.py's carriers.json: jittered
# sidebands interleaved with carriers of other than the default areas and phases.
CARRIER_PROGRAM = PulseSequence(
    (IonPrep.basis(IonLevel.E), IonPrep([(IonLevel.G, 0.6), (IonLevel.E, 0.8j)])),
    (
        half_sideband(1),
        carrier(2, 1.1, 0.2),
        Pulse(PulseKind.SIDEBAND_GEPRIME, 2, 0.0, 2 * math.pi),
        carrier(1, -0.4, 2.5),
        Pulse(PulseKind.SIDEBAND_GE, 2, 0.0, math.pi),
        Pulse(PulseKind.SIDEBAND_GE, 1, math.pi, math.pi),
    ),
)


class TestBatchedParity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("sigma", [0.005, 0.05])
    def test_cluster6_seeds_and_sigmas(self, seed, sigma):
        cfg = NoiseConfig(jitter_sigma=sigma, trials=70, seed=seed)
        assert assert_parity(cluster6_sequence(), cfg, n_max=4) == "samples"

    def test_cluster6_support_and_batch(self, monkeypatch):
        # 262 of 3,645 states are reachable under any jitter: 125 trials a batch.
        assert support_size(cluster6_sequence(), 4) == 262
        cfg = NoiseConfig(jitter_sigma=0.02, trials=1000, seed=1)
        assert batch_sizes(monkeypatch, cluster6_sequence(), cfg, 4) == [125] * 8

    @pytest.mark.parametrize("trials", [1, 124, 125, 126, 251])
    def test_trial_counts_around_the_batch_size(self, trials):
        cfg = NoiseConfig(jitter_sigma=0.02, trials=trials, seed=3)
        assert assert_parity(cluster6_sequence(), cfg, n_max=4) == "samples"

    def test_carrier_only_program(self):
        prep = IonPrep([(IonLevel.G, 0.6), (IonLevel.E, 0.8j)])
        seq = PulseSequence(
            (prep, IonPrep.basis(IonLevel.EPRIME)),
            (carrier(1), carrier(2, 1.1, 0.2), carrier(1, -0.4, 2.5)),
        )
        cfg = NoiseConfig(jitter_sigma=0.5, trials=9, seed=2)
        assert assert_parity(seq, cfg, n_max=1) == "samples"

    def test_sequence_file_with_eprime_preparations(self, tmp_path):
        r = 1 / math.sqrt(2)
        doc = {
            "version": "1",
            "ions": [
                [{"level": "e", "re": r, "im": 0.0}, {"level": "eprime", "re": 0.0, "im": r}],
                [{"level": "g", "re": 0.6, "im": 0.0}, {"level": "eprime", "re": -0.8, "im": 0.0}],
                [{"level": "eprime", "re": 1.0, "im": 0.0}],
            ],
            "steps": [
                {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi / 2},
                {"kind": "sideband_geprime", "ion": 2, "phi": 0.3, "theta": 2 * math.pi},
                {"kind": "carrier", "ion": 1, "phi": 0.0, "theta": math.pi / 2},
                {"kind": "sideband_geprime", "ion": 3, "phi": -1.0, "theta": 1.2},
                {"kind": "sideband_ge", "ion": 2, "phi": 0.0, "theta": math.pi},
            ],
        }
        path = tmp_path / "eprime.json"
        path.write_text(json.dumps(doc))
        cfg = NoiseConfig(jitter_sigma=0.1, trials=40, seed=5)
        assert assert_parity(load_sequence(str(path)), cfg, n_max=4) == "samples"

    @pytest.mark.parametrize(
        "seq, n_max, sigma, seed, trials",
        [
            (cluster6_sequence(), 2, 0.02, 1, 1000),
            (cluster6_sequence(), 2, 2e-6, 1, 100),  # trips in trial 20
            (cluster6_sequence(), 2, 1e-6, 2, 300),  # trips in trial 175
            (chain_sequence(10), 4, 0.02, 0, 5),  # trips at step 17
        ],
    )
    def test_truncation_parity(self, seq, n_max, sigma, seed, trials):
        cfg = NoiseConfig(jitter_sigma=sigma, trials=trials, seed=seed)
        assert assert_parity(seq, cfg, n_max) == "truncation"

    def test_overflowing_area_parity(self):
        seq = PulseSequence((IonPrep.basis(IonLevel.E),), (half_sideband(1),))
        for seed in range(3):
            cfg = NoiseConfig(jitter_sigma=1e308, trials=200, seed=seed)
            assert assert_parity(seq, cfg, n_max=1) == "validation"

    def test_batch_size_arithmetic(self, monkeypatch):
        # A batch is as many support-sized trial columns as BATCH_BYTES holds.
        assert 16 * 262 * 125 <= noise.BATCH_BYTES < 16 * 262 * 126
        cfg = NoiseConfig(jitter_sigma=0.02, trials=10, seed=1)
        assert batch_sizes(monkeypatch, cluster6_sequence(), cfg, 4) == [10]
        # chain:10's support at n_max 5 is 10,886 states, 174 KB a trial.
        assert support_size(chain_sequence(10), 5) == 10_886
        cfg = NoiseConfig(jitter_sigma=0.02, trials=7, seed=1)
        assert batch_sizes(monkeypatch, chain_sequence(10), cfg, 5) == [3, 3, 1]
        # Never zero, however large a trial is against the budget.
        monkeypatch.setattr(noise, "BATCH_BYTES", 16 * 262 - 1)
        cfg = NoiseConfig(jitter_sigma=0.02, trials=4, seed=1)
        assert batch_sizes(monkeypatch, cluster6_sequence(), cfg, 4) == [1] * 4

    @pytest.mark.parametrize("seq, n_max, sigma", [
        (cluster6_sequence(), 4, 0.02),
        (CARRIER_PROGRAM, 3, 0.05),
    ], ids=["cluster6", "carriers"])
    def test_samples_do_not_depend_on_the_batch_size(self, monkeypatch, seq, n_max, sigma):
        cfg = NoiseConfig(jitter_sigma=sigma, trials=200, seed=3)
        block = 16 * support_size(seq, n_max)
        outcomes = [monte_carlo(seq, cfg, n_max=n_max).samples.tobytes()]
        for per_batch in (1, 3):
            with monkeypatch.context() as patched:
                patched.setattr(noise, "BATCH_BYTES", block * per_batch)
                outcomes.append(monte_carlo(seq, cfg, n_max=n_max).samples.tobytes())
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


# ---------------------------------------------------------------------------
# Failures come from a dense replay of the failing trial
# ---------------------------------------------------------------------------


def _one_sideband(level: IonLevel, kind: PulseKind, theta: float) -> PulseSequence:
    return PulseSequence((IonPrep.basis(level),), (Pulse(kind, 1, 0.0, theta),))


class TestFailureReplay:
    @pytest.mark.parametrize(
        "seq, n_max, sigma, seed, trials",
        [
            (cluster6_sequence(), 2, 0.02, 1, 1000),
            (cluster6_sequence(), 2, 2e-6, 1, 100),
            (cluster6_sequence(), 2, 1e-6, 2, 300),
            (chain_sequence(10), 4, 0.02, 0, 5),
        ],
    )
    def test_error_is_the_dense_run_of_the_failing_trial(
        self, seq, n_max, sigma, seed, trials
    ):
        cfg = NoiseConfig(jitter_sigma=sigma, trials=trials, seed=seed)
        with pytest.raises(TruncationError) as dense:
            trialwise(seq, cfg, n_max)
        with pytest.raises(TruncationError) as batched:
            monte_carlo(seq, cfg, n_max=n_max)
        want, got = dense.value, batched.value
        # trialwise chains the dense run's own error, leak included.
        assert (str(got), got.step_index, got.trial_index, got.leaked_probability) == (
            str(want), want.step_index, want.trial_index,
            want.__cause__.leaked_probability,
        )
        assert type(got.trial_index) is int

    def test_flagged_trial_whose_replay_passes_is_scored(self, monkeypatch):
        # Only the batch's flag is tightened: the replays run at the real 1e-12.
        monkeypatch.setattr("ionchain.noise.TRUNCATION_ATOL", 1e-15)
        cfg = NoiseConfig(jitter_sigma=2e-6, trials=20, seed=1)
        samples = monte_carlo(cluster6_sequence(), cfg, n_max=2).samples
        assert np.array_equal(samples, trialwise(cluster6_sequence(), cfg, 2))

    def test_replays_that_pass_leave_later_batches_alone(self, monkeypatch):
        # Three trials a batch, so flagged rows fall in every batch.
        monkeypatch.setattr("ionchain.noise.TRUNCATION_ATOL", 1e-15)
        monkeypatch.setattr(noise, "BATCH_BYTES", 16 * support_size(cluster6_sequence(), 2) * 3)
        cfg = NoiseConfig(jitter_sigma=2e-6, trials=20, seed=1)
        samples = monte_carlo(cluster6_sequence(), cfg, n_max=2).samples
        assert np.array_equal(samples, trialwise(cluster6_sequence(), cfg, 2))

    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_area_overflowing_at_the_cutoff(self, sigma):
        seq = _one_sideband(IonLevel.E, PulseKind.SIDEBAND_GE, 1.7e308)
        cfg = NoiseConfig(jitter_sigma=sigma, trials=20, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_parity(seq, cfg, n_max=5) == "validation"

    def test_unbuildable_trial_is_named(self):
        cfg = NoiseConfig(jitter_sigma=1e308, trials=3, seed=0)
        with pytest.raises(ValidationError) as excinfo:
            monte_carlo(cluster6_sequence(), cfg, n_max=4)
        err = excinfo.value
        assert str(err) == "trial 0: pulse parameters must be finite and real, got inf"
        assert err.trial_index == 0

    def test_prefixed_keeps_type_and_attributes(self):
        err = TruncationError("leak", leaked_probability=0.5, step_index=3)
        got = prefixed(err, "trial 7", trial_index=7)
        assert type(got) is TruncationError and str(got) == "trial 7: leak"
        assert (got.leaked_probability, got.step_index, got.trial_index) == (0.5, 3, 7)
        assert err.trial_index is None

    @pytest.mark.parametrize(
        "level, kind",
        [
            (IonLevel.E, PulseKind.SIDEBAND_GE),
            # No pair is reachable, so the overflowing step rotates nothing.
            (IonLevel.G, PulseKind.SIDEBAND_GEPRIME),
        ],
    )
    def test_jitter_overflowing_a_last_step(self, level, kind):
        # The ideal area fits at n_max=5; about a quarter of the jittered
        # ones overflow, after the last guard reading.
        seq = _one_sideband(level, kind, 1.5e308)
        cfg = NoiseConfig(jitter_sigma=0.1, trials=40, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_parity(seq, cfg, n_max=5) == "validation"


_PREPS = [
    IonPrep.basis(IonLevel.G),
    IonPrep.basis(IonLevel.E),
    IonPrep.basis(IonLevel.EPRIME),
    IonPrep([(IonLevel.G, 0.6), (IonLevel.E, -0.8)]),
    IonPrep([(IonLevel.G, 0.6), (IonLevel.EPRIME, 0.8j)]),
    IonPrep([(IonLevel.E, 0.6), (IonLevel.EPRIME, 0.8)]),
]


@st.composite
def jittered_programs(draw):
    n_ions = draw(st.integers(1, 4))
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    steps = draw(st.lists(
        st.builds(
            Pulse,
            st.sampled_from(list(PulseKind)),
            st.integers(1, n_ions),
            angles,
            st.one_of(st.sampled_from([math.pi / 2, math.pi, 2 * math.pi]), angles),
        ),
        max_size=6,
    ))
    preps = draw(st.lists(st.sampled_from(_PREPS), min_size=n_ions, max_size=n_ions))
    cfg = NoiseConfig(
        jitter_sigma=draw(st.sampled_from([0.0, 1e-7, 0.02, 0.3, 1e308])),
        trials=draw(st.integers(1, 80)),
        seed=draw(st.integers(0, 2**32)),
    )
    return PulseSequence(preps, steps), cfg, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(jittered_programs())
def test_batched_matches_trialwise_on_random_programs(case):
    seq, cfg, n_max = case
    assert_parity(seq, cfg, n_max)


# ---------------------------------------------------------------------------
# The compiled arrays, against a compile with a dense position map
# ---------------------------------------------------------------------------


def _position_map_compile(seq: PulseSequence, n_max: int):
    """Support, start amplitudes and (pulse, pairs, rows, top) steps of ``seq``.

    The oracle keeps the whole dense initial register and maps dense indices
    to support positions through a dense position array.
    """
    initial = new_register(list(seq.preps), n_max).amplitudes
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
    position = np.empty(reach.size, dtype=np.intp)
    position[support] = np.arange(support.size)
    steps = [
        (pulse, position[pairs], rows, position[top])
        for pulse, (pairs, rows, top) in zip(seq.steps, dense_steps)
    ]
    return support, initial[support], steps


def assert_compiles_alike(seq: PulseSequence, n_max: int) -> None:
    support, start, steps = _compile(seq, n_max)
    want_support, want_start, want_steps = _position_map_compile(seq, n_max)
    assert np.array_equal(support, want_support)
    assert start.tobytes() == want_start.tobytes()
    assert len(steps) == len(want_steps)
    for step, (pulse, pairs, rows, top) in zip(steps, want_steps):
        assert step.pulse == pulse
        for got, want in ((step.pairs, pairs), (step.rows, rows), (step.top, top)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n_ions, n_max",
    [(n, m) for n in range(2, 11) for m in range(1, 6) if 3**n * (m + 1) <= 2**20],
)
def test_compile_matches_the_position_map_on_chains(n_ions, n_max):
    assert_compiles_alike(chain_sequence(n_ions), n_max)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_compile_matches_the_position_map_on_the_carrier_program(n_max):
    assert_compiles_alike(CARRIER_PROGRAM, n_max)


@st.composite
def compiled_programs(draw):
    n_ions = draw(st.integers(1, 5))
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    steps = draw(st.lists(
        st.builds(Pulse, st.sampled_from(list(PulseKind)), st.integers(1, n_ions), angles, angles),
        max_size=8,
    ))
    preps = draw(st.lists(st.sampled_from(_PREPS), min_size=n_ions, max_size=n_ions))
    return PulseSequence(preps, steps), draw(st.integers(1, 4))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(compiled_programs())
def test_compile_matches_the_position_map_on_random_programs(case):
    assert_compiles_alike(*case)


# ---------------------------------------------------------------------------
# The ideal state is the compact engine's zero-jitter column
# ---------------------------------------------------------------------------


def compact_ideal(seq: PulseSequence, n_max: int) -> np.ndarray:
    """The ideal column ``monte_carlo`` evolves, expanded into a zero dense vector."""
    columns = []
    evolve = noise._evolve

    def recorded(amps, *args):
        replay = evolve(amps, *args)
        columns.append(amps)
        return replay

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(noise, "_evolve", recorded)
        monte_carlo(seq, NoiseConfig(), n_max=n_max)
    support, _, _ = _compile(seq, n_max)
    dense = np.zeros(3**seq.n_ions * (n_max + 1), dtype=complex)
    dense[support] = columns[0][:, 0]
    return dense


def assert_ideal_is_the_dense_run(seq: PulseSequence, n_max: int) -> None:
    """Same nonzero positions and values; or the same refusal.

    Every nonzero real or imaginary part is bitwise equal.  A zero part of a
    nonzero amplitude may differ in sign (one part at chain:7 and n_max 2,
    five at chain:10 and n_max 2), since the dense run also turns pairs of
    states no pulse has populated yet; neither ``np.vdot`` nor ``abs(...)**2``
    sees that sign, so the part-wise ``==`` below is the check that matters.
    """
    try:
        want = run(seq, n_max=n_max)[0].amplitudes
    except (TruncationError, ValidationError) as err:
        with pytest.raises(type(err)) as got:
            monte_carlo(seq, NoiseConfig(), n_max=n_max)
        assert str(got.value) == str(err) and got.value.trial_index is None
        return
    got = compact_ideal(seq, n_max)
    nonzero = np.flatnonzero(want)
    assert np.array_equal(np.flatnonzero(got), nonzero)
    assert np.array_equal(got[nonzero].view(float), want[nonzero].view(float))


def counted_runs(seq: PulseSequence, cfg: NoiseConfig, n_max: int):
    """(dense ``run`` calls ``monte_carlo`` made, its result or the error it raised)."""
    calls = []
    dense_run = noise.run

    def counted(*args, **kwargs):
        calls.append(args)
        return dense_run(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(noise, "run", counted)
        kind, outcome = _outcome(lambda: monte_carlo(seq, cfg, n_max=n_max))
    return len(calls), kind, outcome


# The one-ion program of tools/report_hashes.py's hot.json: its third pulse
# would couple probability past the cutoff at n_max=1.
HOT_PROGRAM = PulseSequence(
    (IonPrep.basis(IonLevel.E),),
    (
        Pulse(PulseKind.SIDEBAND_GE, 1, math.pi, math.pi),
        Pulse(PulseKind.CARRIER, 1, 0.0, math.pi),
        Pulse(PulseKind.SIDEBAND_GE, 1, math.pi, 0.5),
    ),
)


class TestIdealColumn:
    @pytest.mark.parametrize(
        "n_ions, n_max",
        [(n, m) for n in range(2, 11) for m in range(1, 6) if 3**n * (m + 1) <= 2**20],
    )
    def test_chains(self, n_ions, n_max):
        assert_ideal_is_the_dense_run(chain_sequence(n_ions), n_max)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_carrier_program(self, n_max):
        assert_ideal_is_the_dense_run(CARRIER_PROGRAM, n_max)

    def test_program_without_steps(self):
        prep = IonPrep([(IonLevel.G, 0.6), (IonLevel.EPRIME, 0.8j)])
        seq = PulseSequence((prep, IonPrep.basis(IonLevel.E)), ())
        assert_ideal_is_the_dense_run(seq, 2)
        result = monte_carlo(seq, NoiseConfig(jitter_sigma=0.3, trials=3), n_max=2)
        assert np.array_equal(result.samples, trialwise(seq, NoiseConfig(0.3, 3), 2))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(compiled_programs())
    def test_random_programs(self, case):
        assert_ideal_is_the_dense_run(*case)

    def test_sweep_makes_no_dense_run(self):
        cfg = NoiseConfig(jitter_sigma=0.02, trials=1000, seed=1)
        calls, kind, result = counted_runs(cluster6_sequence(), cfg, 4)
        assert (calls, kind) == (0, "samples")
        assert result.mean_fidelity == pytest.approx(PINNED_MEAN_SIGMA_002, abs=1e-12)

    def test_tables_cover_the_rows_in_use_not_the_cutoff(self):
        # One sideband from |e,0> reads Fock row 0 only, at any cutoff; the
        # last column is its largest rate, sqrt(n_max), where it overflows.
        _, _, steps = _compile(_one_sideband(IonLevel.E, PulseKind.SIDEBAND_GE, 1.0), 100)
        assert noise._rates(steps, 100).tolist() == [[1.0, 10.0]]

    def test_tables_of_a_long_program_fit_the_batch_budget(self, monkeypatch):
        # 100 sideband-carrier rounds on one ion read Fock rows 0 to 100:
        # every step's tables at once would be 8 x 200 x 102 entries, five
        # times the budget.
        seq = PulseSequence((IonPrep.basis(IonLevel.E),), [
            gadget(1) for _ in range(100) for gadget in (half_sideband, carrier)
        ])
        sizes = []

        def recorded(theta, rates):
            sizes.append(np.broadcast_shapes(np.shape(theta) + (1,), rates.shape))
            return turn_tables(theta, rates)

        monkeypatch.setattr(noise, "turn_tables", recorded)
        cfg = NoiseConfig(jitter_sigma=0.02, trials=8, seed=1)
        assert assert_parity(seq, cfg, n_max=120) == "samples"
        assert max(math.prod(shape) for shape in sizes) * 16 <= noise.BATCH_BYTES

    @pytest.mark.parametrize("seq, n_max, kind", [
        (HOT_PROGRAM, 1, "truncation"),
        (_one_sideband(IonLevel.E, PulseKind.SIDEBAND_GE, 1.7e308), 5, "validation"),
    ], ids=["truncates", "overflows"])
    def test_failing_ideal_program_is_replayed_once(self, seq, n_max, kind):
        _, want = _outcome(lambda: run(seq, n_max=n_max))
        cfg = NoiseConfig(jitter_sigma=0.1, trials=20, seed=0)
        assert counted_runs(seq, cfg, n_max) == (1, kind, want)
        assert "trial" not in str(want)


# ---------------------------------------------------------------------------
# The cutoff no jitter can truncate
# ---------------------------------------------------------------------------


def _guard_states(n_ions: int, n_max: int) -> int:
    """Reachable |x,n_max> states summed over chain:N's steps, whatever the areas."""
    seq = chain_sequence(n_ions)
    _, _, steps = _compile(seq, n_max)
    return sum(step.top.size for step in steps)


class TestCutoffBound:
    @pytest.mark.parametrize("n_ions", range(2, 11))
    def test_guard_sets_are_empty_from_half_the_chain(self, n_ions):
        bound = max(1, n_ions // 2)
        assert _guard_states(n_ions, bound) == 0
        if n_ions >= 4:
            assert _guard_states(n_ions, bound - 1) > 0

    def test_cluster6_at_the_bound_survives_large_jitter(self):
        cfg = NoiseConfig(jitter_sigma=0.3, trials=50, seed=2)
        mean = monte_carlo(cluster6_sequence(), cfg, n_max=3).mean_fidelity
        assert mean == pytest.approx(0.3108155042189504, abs=1e-12)
        with pytest.raises(TruncationError) as below:
            monte_carlo(cluster6_sequence(), cfg, n_max=2)
        assert (below.value.trial_index, below.value.step_index) == (0, 9)
