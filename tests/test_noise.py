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
from ionchain.register import MAX_AMPLITUDES

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
    support, _ = _compile(seq, new_register(list(seq.preps), n_max).amplitudes, n_max)
    return support.size


def batch_sizes(monkeypatch, seq: PulseSequence, cfg: NoiseConfig, n_max: int) -> list[int]:
    """Trials in each batch ``monte_carlo`` evolves, in order."""
    sizes = []
    evolve = noise._evolve

    def recorded(amps, *args):
        sizes.append(amps.shape[1])
        return evolve(amps, *args)

    with monkeypatch.context() as patched:
        patched.setattr(noise, "_evolve", recorded)
        monte_carlo(seq, cfg, n_max=n_max)
    return sizes


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
# The cutoff no jitter can truncate
# ---------------------------------------------------------------------------


def _guard_states(n_ions: int, n_max: int) -> int:
    """Reachable |x,n_max> states summed over chain:N's steps, whatever the areas."""
    seq = chain_sequence(n_ions)
    _, steps = _compile(seq, new_register(list(seq.preps), n_max).amplitudes, n_max)
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
