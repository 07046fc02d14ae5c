"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not deferred to calibration.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import ionchain as ic
from ionchain.cli import _emit, build_noise_report, build_run_report, main
from conftest import amp, ket, make_random_state
from step_fixtures import expected_states


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_protocol_reproduction(capsys):
    argv = ["run", "--protocol", "cluster6", "--n-max", "2"]
    assert main(list(argv)) == 0  # warm the jit cache before timing
    capsys.readouterr()
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    fid = doc["verification"]["fidelity"]
    ok = code == 0 and fid >= 1.0 - 1e-10 and elapsed < 1.0
    report(1, ok, f"fidelity={fid:.15f}, runtime={elapsed * 1e3:.2f} ms (< 1 s)")


def test_criterion_2_snapshot_regression():
    _, snaps = ic.run(ic.cluster6_sequence(), n_max=2, snapshot=lambda s: s)
    targets = expected_states(n_max=2)
    worst = 0.0
    for state, target_vec in zip(snaps, targets):
        target = ic.RegisterState(6, 2, target_vec)
        phase = ic.global_phase_alignment(target, state)
        delta = float(np.max(np.abs(state.amplitudes - phase * target.amplitudes)))
        worst = max(worst, delta)
    ok = len(snaps) == 11 and worst <= 1e-10
    report(2, ok, f"11 post-step states, worst amplitude deviation {worst:.3e}")


def test_criterion_3_per_pulse_fidelity_arithmetic():
    seq = ic.cluster6_sequence()
    k8 = ic.fidelity_estimate(seq, 0.93, pulse_count_override=8)
    k_counted = ic.fidelity_estimate(seq, 0.93)
    ok = (
        abs(k8 - 0.5596) <= 0.0005
        and seq.sideband_count() == 10
        and abs(k_counted - 0.4840) <= 0.0005
    )
    report(3, ok, f"0.93^8={k8:.4f} (target 0.5596), 0.93^10={k_counted:.4f}")


def test_criterion_4_gadget_table():
    errors = []
    inv = 1.0 / math.sqrt(2.0)
    out = ic.apply_pulse(ket([ic.IonLevel.E], 0, 2), ic.half_sideband(1))
    errors.append(abs(amp(out, [ic.IonLevel.E], 0) - inv))
    errors.append(abs(amp(out, [ic.IonLevel.G], 1) - inv))
    out = ic.apply_pulse(ket([ic.IonLevel.G], 1, 2), ic.map_mode_to_ion(1))
    errors.append(abs(amp(out, [ic.IonLevel.E], 0) - 1.0))
    out = ic.apply_pulse(ket([ic.IonLevel.E], 0, 2), ic.map_ion_to_mode(1))
    errors.append(abs(amp(out, [ic.IonLevel.G], 1) - 1.0))
    out = ic.apply_pulse(ket([ic.IonLevel.G], 1, 2), ic.phase_gate(1))
    errors.append(abs(amp(out, [ic.IonLevel.G], 1) + 1.0))
    errors.append(ic.population(out, 1, ic.IonLevel.EPRIME))
    worst = max(errors)
    report(4, worst < 1e-12, f"four gadget transformations, worst error {worst:.3e}")


def test_criterion_5_property_suite():
    rng = np.random.default_rng(42)
    worst_norm = 0.0
    worst_inverse = 0.0
    worst_conservation = 0.0
    worst_dark = 0.0
    for _ in range(1000):
        n_ions = int(rng.integers(1, 4))
        n_max = int(rng.integers(1, 5))
        ion = int(rng.integers(1, n_ions + 1))
        kind = (
            ic.PulseKind.SIDEBAND_GE
            if rng.integers(2) == 0
            else ic.PulseKind.SIDEBAND_GEPRIME
        )
        x_level = (
            ic.IonLevel.E if kind == ic.PulseKind.SIDEBAND_GE else ic.IonLevel.EPRIME
        )
        dark_level = (
            ic.IonLevel.EPRIME if kind == ic.PulseKind.SIDEBAND_GE else ic.IonLevel.E
        )
        phi = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        state = make_random_state(rng, n_ions, n_max, zero_top=[(ion, x_level)])

        there = ic.apply_pulse(state, ic.Pulse(kind, ion, phi, theta))
        worst_norm = max(worst_norm, abs(np.linalg.norm(there.amplitudes) - 1.0))
        back = ic.apply_pulse(there, ic.Pulse(kind, ion, phi, -theta))
        worst_inverse = max(
            worst_inverse, float(np.max(np.abs(back.amplitudes - state.amplitudes)))
        )

        def excitation_probs(s):
            shaped = np.abs(s.shaped()) ** 2
            probs = np.zeros(n_max + 3)
            for d in range(3):
                sub = np.take(shaped, d, axis=ion - 1)
                for n in range(n_max + 1):
                    probs[n + (1 if d == x_level else 0)] += np.sum(
                        np.take(sub, n, axis=-1)
                    )
            return probs

        worst_conservation = max(
            worst_conservation,
            float(np.max(np.abs(excitation_probs(there) - excitation_probs(state)))),
        )
        worst_dark = max(
            worst_dark,
            abs(
                ic.population(there, ion, dark_level)
                - ic.population(state, ion, dark_level)
            ),
        )

    tight, _ = ic.run(ic.cluster6_sequence(), n_max=1)
    roomy, _ = ic.run(ic.cluster6_sequence(), n_max=5)
    truncation_gap = float(
        np.max(np.abs(roomy.shaped()[..., :2] - tight.shaped()))
    )

    ok = (
        worst_norm < 1e-12
        and worst_inverse < 1e-12
        and worst_conservation < 1e-12
        and worst_dark < 1e-12
        and truncation_gap < 1e-10
    )
    report(
        5,
        ok,
        "1000 checks: norm drift "
        f"{worst_norm:.2e}, inverse {worst_inverse:.2e}, conservation "
        f"{worst_conservation:.2e}, dark level {worst_dark:.2e}, "
        f"cutoff 1-vs-5 gap {truncation_gap:.2e}",
    )


def test_criterion_6_stabilizer_oracle():
    ok = True
    details = []
    for n in (2, 3, 4, 5, 6):
        final, _ = ic.run(ic.chain_sequence(n), n_max=2)
        values = ic.stabilizer_expectations(final)
        signature = ic.reference_signature(n)
        gap = max(abs(v - s) for v, s in zip(values, signature))
        ok = ok and gap <= 1e-10
        details.append(f"N={n}: {gap:.1e}")
    steps_equal = ic.chain_sequence(6) == ic.cluster6_sequence()
    ok = ok and steps_equal
    report(
        6,
        ok,
        "signature gaps " + ", ".join(details) + f"; chain(6)==cluster6: {steps_equal}",
    )


def test_criterion_7_noise_determinism_and_trends(tmp_path):
    seq = ic.cluster6_sequence()
    exact = ic.monte_carlo(seq, ic.NoiseConfig(jitter_sigma=0.0, trials=10, seed=1))
    sigma_ok = exact.mean_fidelity == pytest.approx(1.0, abs=1e-10)

    sweeps = [
        ic.monte_carlo(
            seq, ic.NoiseConfig(jitter_sigma=s, trials=200, seed=1), n_max=4
        ).samples
        for s in (0.005, 0.01, 0.02, 0.05)
    ]
    monotone = all(
        bool(np.all(looser <= tighter + 1e-15))
        for tighter, looser in zip(sweeps, sweeps[1:])
    )

    def emitted(doc):
        path = tmp_path / "report.json"
        _emit(doc, str(path))
        return path.read_bytes()

    cfg = ic.NoiseConfig(jitter_sigma=0.02, trials=40, seed=7)
    first = emitted(build_noise_report(seq, "cluster6", 4, cfg, 0.93))
    second = emitted(build_noise_report(seq, "cluster6", 4, cfg, 0.93))
    bytes_ok = first == second
    run_first = emitted(build_run_report(seq, "cluster6", 2, 0.93, True, False))
    run_second = emitted(build_run_report(seq, "cluster6", 2, 0.93, True, False))
    bytes_ok = bytes_ok and run_first == run_second

    ok = sigma_ok and monotone and bytes_ok
    report(
        7,
        ok,
        f"sigma=0 mean={exact.mean_fidelity:.12f}, per-sample monotone={monotone}, "
        f"byte-identical reports={bytes_ok}",
    )
