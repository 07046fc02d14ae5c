from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ionchain
from ionchain import cli, cluster6_sequence, chain_sequence, register
from ionchain.cli import (
    _emit,
    main,
    sequence_from_document,
    sequence_to_document,
)
from conftest import oracle_basis_label


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CHAIN2_TEXT = json.dumps(sequence_to_document(chain_sequence(2)))


def _mutated(path, value):
    """A two-ion sequence document with the field at ``path`` set to ``value``."""
    doc = json.loads(_CHAIN2_TEXT)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


# Every wrongly typed field of a sequence file: each used to escape as a
# traceback or be silently coerced.
WRONGLY_TYPED = {
    "ions-int": _mutated(["ions"], 5),
    "ion-terms-int": _mutated(["ions", 0], 5),
    "term-int": _mutated(["ions", 0, 0], 5),
    "steps-int": _mutated(["steps"], 5),
    "step-int": _mutated(["steps", 0], 5),
    "theta-null": _mutated(["steps", 0, "theta"], None),
    "theta-string": _mutated(["steps", 0, "theta"], "1.5"),
    "phi-bool": _mutated(["steps", 0, "phi"], False),
    "kind-list": _mutated(["steps", 0, "kind"], []),
    "level-list": _mutated(["ions", 0, 0, "level"], []),
    "ion-float": _mutated(["steps", 0, "ion"], 1.9),
    "ion-integral-float": _mutated(["steps", 0, "ion"], 1.0),
    "ion-string": _mutated(["steps", 0, "ion"], "1"),
    "ion-bool": _mutated(["steps", 0, "ion"], True),
    "ion-zero": _mutated(["steps", 0, "ion"], 0),
    "ion-overflow": _CHAIN2_TEXT.replace('"ion": 1,', '"ion": 1e400,', 1),
    "re-string": _mutated(["ions", 0, 0, "re"], "1"),
    "re-bool": _mutated(["ions", 0, 0, "re"], True),
    "im-infinity": _mutated(["ions", 0, 0, "im"], math.inf),
    "version-int": _mutated(["version"], 1),
    "label-int": _mutated(["steps", 0, "label"], 5),
    "label-null": _mutated(["steps", 0, "label"], None),
    "theta-int-past-float": _mutated(["steps", 0, "theta"], 10**400),
    "integer-past-digit-limit": _CHAIN2_TEXT.replace(
        '"ion": 1,', '"ion": ' + "9" * 5000 + ",", 1
    ),
    "not-utf8": "\udcff",
}

# Sequence files that repeat a field: json keeps the last value, so each
# used to run whatever the last one said.
REPEATED = {
    "steps": _CHAIN2_TEXT[:-1] + ', "steps": []}',
    "theta": _CHAIN2_TEXT.replace('"theta": ', '"theta": 0.0, "theta": ', 1),
    "re": _CHAIN2_TEXT.replace('"re": ', '"re": 0.0, "re": ', 1),
}
REPEATED_WHERE = {
    "steps": "sequence document",
    "theta": "step 1",
    "re": "ion 1 preparation term",
}

# Command lines argparse refuses: each used to print a usage block or a
# "prog: error:" line of argparse's own instead of the one-line error.
BAD_FLAGS = {
    "n-max-not-a-number": ["run", "--protocol", "cluster6", "--n-max", "x"],
    "trials-float": ["noise", "--protocol", "cluster6", "--trials", "1.5"],
    "fidelity-not-a-number": ["run", "--protocol", "cluster6", "--per-pulse-fidelity", "x"],
    "unknown-flag": ["run", "--protocol", "cluster6", "--bogus"],
    "missing-value": ["run", "--protocol"],
    "protocol-and-sequence": ["run", "--protocol", "cluster6", "--sequence", "SEQ"],
    "emit-without-protocol": ["emit"],
    "unknown-command": ["simulate"],
    "no-command": [],
    # float() alone reads these as 0.1, 0.9 and 0.01.
    "sigma-underscore": ["noise", "--protocol", "cluster6", "--jitter-sigma", "1_0e-2"],
    "fidelity-arabic-indic-digits": [
        "run", "--protocol", "cluster6", "--per-pulse-fidelity", "\u0660.\u0669",
    ],
    "sigma-spaces": ["noise", "--protocol", "cluster6", "--jitter-sigma", " 0.01 "],
}


def _python_env():
    """Environment whose PYTHONPATH finds the ionchain under test."""
    src = os.path.dirname(os.path.dirname(ionchain.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class TestEmit:
    def test_cluster6_document_shape(self, capsys):
        code, out, err = run_cli(capsys, "emit", "--protocol", "cluster6")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["version"] == "1"
        assert len(doc["ions"]) == 6
        assert [s["kind"] for s in doc["steps"]] == [
            "sideband_ge",
            "sideband_geprime",
            "sideband_ge",
            "carrier",
            "sideband_ge",
            "sideband_geprime",
            "sideband_geprime",
            "sideband_ge",
            "sideband_ge",
            "sideband_geprime",
            "sideband_ge",
        ]

    def test_chain6_bytes_match_cluster6(self, capsys):
        _, out_cluster, _ = run_cli(capsys, "emit", "--protocol", "cluster6")
        _, out_chain, _ = run_cli(capsys, "emit", "--protocol", "chain:6")
        assert out_cluster == out_chain

    def test_bad_chain_size_exits_2(self, capsys):
        # Only ASCII digits name a chain size: int() would take the others.
        # int() also refuses a digit string past sys.get_int_max_str_digits().
        for tail in ["one", "", " 6", "+6", "-6", "1_0", " +1_0", "٦", "６", "6.0", "9" * 5000]:
            code, out, err = run_cli(capsys, "emit", "--protocol", "chain:" + tail)
            assert code == 2, tail
            assert out == ""
            assert err.startswith("error: bad chain size") and err.count("\n") == 1
        code, _, _ = run_cli(capsys, "emit", "--protocol", "chain:1")
        assert code == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_roundtrip_reparses_to_same_sequence(self, n):
        seq = chain_sequence(n)
        again = sequence_from_document(
            json.loads(json.dumps(sequence_to_document(seq)))
        )
        assert again == seq

    def test_emit_to_file(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        code, out, _ = run_cli(capsys, "emit", "--protocol", "cluster6", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert len(doc["steps"]) == 11


class TestRun:
    def test_cluster6_report(self, capsys):
        code, out, err = run_cli(capsys, "run", "--protocol", "cluster6")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["fidelity"] >= 1.0 - 1e-10
        est = doc["fidelity_estimate"]
        assert est["k8"] == pytest.approx(0.5596, abs=0.0005)
        assert est["k_counted"] == pytest.approx(0.4840, abs=0.0005)
        assert est["counted_sideband_pulses"] == 10
        # amplitudes below the floor are dropped: the cluster state keeps
        # 64 of the 2187 components.
        assert len(doc["final_state"]) == 64
        labels = [entry[0] for entry in doc["final_state"]]
        assert "g g g g g g;0" in labels

    def test_chain2_report_stabilizers(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--protocol", "chain:2")
        assert code == 0
        doc = json.loads(out)
        for value in doc["verification"]["stabilizer_expectations"]:
            assert abs(abs(value) - 1.0) < 1e-10

    def test_full_flag_lists_every_amplitude(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--protocol", "chain:2", "--full")
        doc = json.loads(out)
        assert len(doc["final_state"]) == 3**2 * 3

    def test_snapshots_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--protocol", "cluster6", "--snapshots")
        doc = json.loads(out)
        assert len(doc["snapshots"]) == 11
        seq = cluster6_sequence()
        for i, (snap, pulse, label) in enumerate(
            zip(doc["snapshots"], seq.steps, seq.labels, strict=True), start=1
        ):
            assert list(snap) == ["step_index", "kind", "ion", "label", "amplitudes"]
            assert (snap["step_index"], snap["kind"], snap["ion"], snap["label"]) == (
                i, pulse.kind.value, pulse.ion, label
            )

    def test_snapshots_keep_no_earlier_state(self, capsys, monkeypatch):
        seen = []
        block = cli._amplitude_block

        def checked(state, full):
            # Each state's kept amplitudes are copied while its step is the
            # latest; the final report reads the last one again.
            assert all(ref() is None or ref() is state for ref in seen)
            seen.append(weakref.ref(state))
            return block(state, full)

        monkeypatch.setattr(cli, "_amplitude_block", checked)
        code, out, _ = run_cli(capsys, "run", "--protocol", "chain:4", "--snapshots")
        assert code == 0
        assert len(json.loads(out)["snapshots"]) == len(seen) - 1 == 7

    def test_snapshot_without_full_holds_no_state_vector(self, monkeypatch):
        states = []
        block = cli._amplitude_block

        def recorded(state, full):
            states.append(state)
            return block(state, full)

        monkeypatch.setattr(cli, "_amplitude_block", recorded)
        doc = cli.build_run_report(chain_sequence(4), "chain:4", 2, 0.93, True, False)
        assert len(doc["snapshots"]) == len(states) - 1 == 7
        for snap in doc["snapshots"]:
            array = snap["amplitudes"]
            held = [array.values, *(cell.cell_contents for cell in array.slab.__closure__)]
            assert not any(isinstance(x, register.RegisterState) for x in held)
            assert not any(np.shares_memory(x, state.amplitudes) for x in held
                           if isinstance(x, np.ndarray) for state in states)

    def test_sequence_file_roundtrip_equals_builtin_run(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        run_cli(capsys, "emit", "--protocol", "cluster6", "--out", str(path))
        code, from_file, _ = run_cli(capsys, "run", "--sequence", str(path))
        assert code == 0
        _, direct, _ = run_cli(capsys, "run", "--protocol", "cluster6")
        from_doc = json.loads(from_file)
        direct_doc = json.loads(direct)
        assert from_doc["final_state"] == direct_doc["final_state"]
        assert from_doc["verification"] == direct_doc["verification"]

    def test_single_ion_empty_sequence(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "version": "1",
            "ions": [[{"level": "g", "re": 1.0, "im": 0.0}]],
            "steps": [],
        }))
        code, out, _ = run_cli(capsys, "run", "--sequence", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["final_state"] == [["g;0", 1.0, 0.0]]

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "run", "--protocol", "cluster6", "--snapshots")
        _, second, _ = run_cli(capsys, "run", "--protocol", "cluster6", "--snapshots")
        assert first == second

    def test_report_schema(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--protocol", "cluster6", "--snapshots")
        doc = json.loads(out)
        assert set(doc) == {
            "version", "config", "final_state", "verification",
            "fidelity_estimate", "snapshots",
        }
        assert set(doc["config"]) == {"protocol", "n_ions", "n_max", "full"}
        assert set(doc["verification"]) == {
            "fidelity", "stabilizer_expectations", "leakage_eprime",
            "leakage_mode", "global_phase",
        }
        assert set(doc["fidelity_estimate"]) == {
            "per_pulse_fidelity", "k8", "k_counted",
            "counted_sideband_pulses", "conventional_sideband_pulses",
        }
        assert isinstance(doc["verification"]["fidelity"], float)
        assert len(doc["verification"]["stabilizer_expectations"]) == 6
        assert len(doc["verification"]["global_phase"]) == 2
        for entry in doc["final_state"]:
            label, re, im = entry
            assert isinstance(label, str)
            assert isinstance(re, float) and isinstance(im, float)
        for snap in doc["snapshots"]:
            assert set(snap) == {"step_index", "kind", "ion", "label", "amplitudes"}

    def test_report_floats_roundtrip_losslessly(self, capsys):
        from ionchain import run as run_protocol, verify_run

        _, out, _ = run_cli(capsys, "run", "--protocol", "cluster6")
        doc = json.loads(out)
        final, _ = run_protocol(cluster6_sequence(), n_max=2)
        report = verify_run(final, 6)
        assert doc["verification"]["fidelity"] == report.fidelity
        assert doc["fidelity_estimate"]["k8"] == 0.93**8

    def test_validation_failures_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--protocol", "hexagon")
        assert code == 2 and "error" in err
        code, _, _ = run_cli(capsys, "run")
        assert code == 2
        missing = tmp_path / "missing.json"
        code, _, _ = run_cli(capsys, "run", "--sequence", str(missing))
        assert code == 2

    def test_unknown_sequence_fields_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "version": "1",
            "ions": [[{"level": "g", "re": 1.0, "im": 0.0}]],
            "steps": [],
            "comment": "not allowed",
        }))
        code, _, err = run_cli(capsys, "run", "--sequence", str(path))
        assert code == 2
        assert "comment" in err

    def test_missing_version_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "ions": [[{"level": "g", "re": 1.0, "im": 0.0}]],
            "steps": [],
        }))
        code, _, err = run_cli(capsys, "run", "--sequence", str(path))
        assert code == 2
        assert "version" in err

    def test_truncation_exits_3_with_step_index(self, capsys, tmp_path):
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({
            "version": "1",
            "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
            "steps": [
                {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi},
                {"kind": "carrier", "ion": 1, "phi": 0.0, "theta": math.pi},
                {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": 0.5},
            ],
        }))
        code, out, err = run_cli(capsys, "run", "--sequence", str(path), "--n-max", "1")
        assert code == 3
        assert out == ""
        assert "step 3" in err


    def test_nan_coefficient_exits_2(self, capsys, tmp_path):
        # Python's json reads NaN; the report must never carry it.
        path = tmp_path / "nan.json"
        doc = sequence_to_document(chain_sequence(3))
        doc["ions"][0][0]["re"] = math.nan
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", "--sequence", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("text", WRONGLY_TYPED.values(), ids=WRONGLY_TYPED.keys())
    def test_wrongly_typed_sequence_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "typed.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, out, err = run_cli(capsys, "run", "--sequence", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, text", REPEATED.items(), ids=REPEATED.keys())
    def test_repeated_field_exits_2(self, capsys, tmp_path, name, text):
        path = tmp_path / "twice.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", "--sequence", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: repeated field {name!r} in {REPEATED_WHERE[name]}\n"

    def test_well_typed_variants_still_run(self, capsys, tmp_path):
        # Integer numbers and a present string label are the strict types.
        path = tmp_path / "ints.json"
        path.write_text(_mutated(["ions", 0, 0, "im"], 0).replace('"re": 1.0', '"re": 1'))
        code, _, err = run_cli(capsys, "run", "--sequence", str(path))
        assert (code, err) == (0, "")

    def test_oversized_problems_exit_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(register, "MAX_AMPLITUDES", 3**6 * 3)
        code, out, _ = run_cli(capsys, "run", "--protocol", "cluster6")
        assert code == 0 and out
        cases = [
            ("run", "--protocol", "cluster6", "--n-max", "3"),
            ("run", "--protocol", "chain:7"),
            ("noise", "--protocol", "cluster6", "--n-max", "4"),
            ("emit", "--protocol", "chain:7"),
            ("run", "--protocol", "chain:100000000"),
        ]
        path = tmp_path / "seven.json"
        doc = sequence_to_document(cluster6_sequence())
        doc["ions"].append(doc["ions"][0])
        path.write_text(json.dumps(doc))
        cases.append(("run", "--sequence", str(path)))
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and "over the limit" in err
            assert err.count("\n") == 1

    def test_oversized_full_report_exits_2_before_simulating(self, capsys, monkeypatch):
        # cluster6 at n_max=2 has 2,187 amplitudes and 11 steps.
        monkeypatch.setattr(cli, "MAX_REPORT_AMPLITUDES", 2187)
        for argv in [("--full",), ("--snapshots",), ()]:
            code, out, _ = run_cli(capsys, "run", "--protocol", "cluster6", *argv)
            assert code == 0 and out

        def no_run(*args, **kwargs):
            raise AssertionError("simulated an oversized --full report")

        monkeypatch.setattr(cli, "run", no_run)
        for argv, per_state, states in [
            (("--full", "--snapshots"), 2187, 12),
            (("--full", "--n-max", "3"), 2916, 1),
        ]:
            code, out, err = run_cli(capsys, "run", "--protocol", "cluster6", *argv)
            assert (code, out) == (2, "")
            assert err == (
                f"error: --full would list {per_state * states} amplitudes "
                f"({per_state} a state), over the limit of 2187\n"
            )

    @pytest.mark.parametrize("value", ["nan", "0", "1.5"])
    def test_bad_per_pulse_fidelity_exits_before_simulating(
        self, capsys, monkeypatch, value
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking --per-pulse-fidelity")

        monkeypatch.setattr(cli, "run", no_run)
        code, out, err = run_cli(
            capsys, "run", "--protocol", "chain:12", "--per-pulse-fidelity", value
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: per_pulse_fidelity") and err.count("\n") == 1

    def test_reports_are_strict_json(self, tmp_path):
        from ionchain import ValidationError

        with pytest.raises(ValidationError, match="strict JSON"):
            _emit({"fidelity": math.nan}, None)
        with pytest.raises(ValidationError, match="strict JSON"):
            _emit({"fidelity": math.inf}, str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()


class TestNoise:
    def test_zero_jitter_mean_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "noise", "--protocol", "cluster6",
            "--jitter-sigma", "0", "--trials", "10", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mean_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert doc["std_error"] == 0.0
        assert len(doc["samples"]) == 10

    @pytest.mark.parametrize("sigma", ["-0.0", "-0"])
    def test_negative_zero_sigma_runs_as_zero(self, capsys, sigma):
        argv = ["noise", "--protocol", "cluster6", "--trials", "3", "--jitter-sigma"]
        zero = run_cli(capsys, *argv, "0")
        assert zero[0] == 0
        assert run_cli(capsys, *argv, sigma) == zero

    def test_estimate_block_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "noise", "--protocol", "cluster6",
            "--trials", "2", "--seed", "1",
        )
        doc = json.loads(out)
        assert doc["fidelity_estimate"]["k8"] == pytest.approx(0.5596, abs=0.0005)
        assert doc["config"]["per_pulse_fidelity"] == 0.93

    def test_repeated_noise_reports_byte_identical(self, capsys):
        argv = ["noise", "--protocol", "cluster6", "--jitter-sigma", "0.02",
                "--trials", "40", "--seed", "7", "--n-max", "4"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_truncation_in_trial_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "noise", "--protocol", "cluster6",
            "--jitter-sigma", "0.02", "--trials", "5", "--seed", "1",
        )
        assert code == 3
        assert "trial" in err

    def test_bad_config_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "noise", "--protocol", "cluster6", "--trials", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--seed", "-1"),
        ("--trials", str(10**12)),
        # int() would read these as n_max 10, 3 trials and seed 1.
        ("--n-max", "1_0"),
        ("--trials", " \u0663"),
        ("--seed", "+1"),
    ])
    def test_bad_seed_or_trials_exits_2(self, capsys, argv):
        code, out, err = run_cli(
            capsys, "noise", "--protocol", "cluster6", "--trials", "2", *argv,
        )
        assert code == 2
        assert out == ""
        assert argv[0][2:] in err and err.count("\n") == 1

    def test_truncation_names_step_and_trial_once(self, capsys):
        code, out, err = run_cli(
            capsys, "noise", "--protocol", "chain:10", "--jitter-sigma", "0.02",
            "--trials", "5", "--n-max", "4",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("truncation: ") and err.count("\n") == 1
        assert err.count("trial 0") == 1
        assert err.count("step 17") == 1
        # The step's label, then the pulse error, which names the ion once.
        assert "step 17 (load ion 10 into the bus): sideband pulse on ion 10 " in err
        assert err.count("ion 10") == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_2(self, capsys, sigma):
        code, out, err = run_cli(
            capsys, "noise", "--protocol", "cluster6", "--jitter-sigma", sigma,
        )
        assert code == 2
        assert out == ""
        assert "jitter_sigma" in err

    def test_overflowing_jittered_area_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "noise", "--protocol", "cluster6", "--jitter-sigma", "1e308",
            "--trials", "3", "--n-max", "4",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "pulse parameters must be finite" in err


def old_amplitude_triples(state, full):
    """The per-amplitude loop the report builder used to run, as the oracle.

    Labels come from the base-3 oracle, not from the codec under test.
    """
    triples = []
    for index, amp in enumerate(state.amplitudes):
        if full or abs(amp) > cli.REPORT_AMPLITUDE_FLOOR:
            label = oracle_basis_label(state.n_ions, state.n_max, index)
            triples.append([label, float(amp.real), float(amp.imag)])
    return triples


# One ion leaves the first word table empty; odd chains split unevenly.
# Three ions keep the bare seed as their id, so those test ids stay stable.
@pytest.mark.parametrize("seed, n_ions", [
    pytest.param(seed, n_ions, id=str(seed) if n_ions == 3 else f"{seed}-{n_ions}ions")
    for n_ions in (3, 1, 2, 5) for seed in range(4)
])
def test_amplitude_triples_match_the_loop_at_the_floor(seed, n_ions):
    rng = np.random.default_rng(seed)
    n_max = 2
    dim = 3**n_ions * (n_max + 1)
    # Magnitudes a few ulps either side of the floor, then +0.0, -0.0 and 1.
    ulps = rng.integers(-4, 5, size=dim)
    radius = cli.REPORT_AMPLITUDE_FLOOR + ulps * np.spacing(cli.REPORT_AMPLITUDE_FLOOR)
    amps = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
    amps[rng.random(dim) < 0.1] = complex(0.0, -0.0)
    amps[rng.random(dim) < 0.1] = complex(-0.0, 0.0)
    amps[0] = 1.0
    state = register.RegisterState(n_ions, n_max, amps)
    for full in (False, True):
        # The text keeps the sign of a zero, which == on the floats would not.
        expected = json.dumps(old_amplitude_triples(state, full), indent=2)
        block = cli._amplitude_block(state, full)
        for depth in (1, 3):  # a top-level key's value, and a snapshot entry's
            out = []
            cli._render_into(block, depth, out)
            assert "".join(out) == expected.replace("\n", "\n" + "  " * depth)


class TestArguments:
    @pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
    def test_bad_flags_exit_2_in_one_line(self, capsys, tmp_path, argv):
        # SEQ names a valid file: with both sources given, one used to win silently.
        path = tmp_path / "seq.json"
        path.write_text(_CHAIN2_TEXT)
        code, out, err = run_cli(capsys, *[str(path) if a == "SEQ" else a for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, rule", [
        *[(flag, value, f"must be a whole number in ASCII digits, got {value!r}")
          for flag, value in [("--trials", "-3"), ("--n-max", "1.5"), ("--seed", "+1"), ("--trials", "1_0")]],
        ("--trials", "9" * 5000, f"must have at most {sys.get_int_max_str_digits()} digits, got 5000"),
    ])
    def test_bad_whole_number_names_the_rule(self, capsys, flag, value, rule):
        code, out, err = run_cli(capsys, "noise", "--protocol", "cluster6", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: {rule}\n"

    @pytest.mark.parametrize("argv", [
        ("run", "--per-pulse-fidelity", "x"),
        # float() alone reads these as 0.1, 0.9 and 0.01.
        ("noise", "--jitter-sigma", "1_0e-2"),
        ("noise", "--jitter-sigma", "\u0660.\u0669"),
        ("noise", "--jitter-sigma", " 0.01"),
    ])
    def test_bad_real_number_names_the_rule(self, capsys, argv):
        command, flag, value = argv
        code, out, err = run_cli(capsys, command, "--protocol", "cluster6", flag, value)
        assert (code, out) == (2, "")
        rule = f"must be a real number in ASCII without spaces or _, got {value!r}"
        assert err == f"error: argument {flag}: {rule}\n"

    @pytest.mark.parametrize("argv, cutoff", [
        (("run", "--protocol", "chain:16", "--n-max", "2"), "need 3^16*2 amplitudes even at n_max=1"),
        (("noise", "--protocol", "chain:15", "--n-max", "4"), "need 3^15*2 amplitudes even at n_max=1"),
        (("emit", "--protocol", "chain:16"), "need 3^16*2 amplitudes even at n_max=1"),
        (("run", "--protocol", "chain:16", "--n-max", "0"), "need 3^16*2 amplitudes even"),
    ])
    def test_too_long_chain_names_no_cutoff_the_user_did_not_give(self, capsys, argv, cutoff):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cutoff in err and "over the limit" in err


class TestOut:
    """``--out`` is refused before simulating and written only after the report."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated despite a bad --out")

        monkeypatch.setattr(cli, "run", fail)
        monkeypatch.setattr(cli, "monte_carlo", fail)

    @pytest.mark.parametrize("command", [
        ["emit", "--protocol", "cluster6"],
        ["run", "--protocol", "chain:10"],
        ["noise", "--protocol", "cluster6", "--trials", "2"],
    ])
    def test_missing_directory_exits_2(self, capsys, tmp_path, no_run, command):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *command, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("command", [
        ["emit", "--protocol", "cluster6"],
        ["run", "--protocol", "chain:10"],
    ])
    @pytest.mark.parametrize("name", ["", "dir", "dir/", "missing/"])
    def test_directory_or_empty_name_exits_2(self, capsys, tmp_path, no_run, command, name):
        (tmp_path / "dir").mkdir()
        path = f"{tmp_path}/{name}" if name else ""
        code, out, err = run_cli(capsys, *command, "--out", path)
        assert (code, out) == (2, "")
        assert err == f"error: --out {path!r} does not name a file\n"

    @staticmethod
    def refuse_access(monkeypatch, refused_path, refused_bits):
        # Patched, since a chmod shows nothing to a suite run as root.
        real_access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            not (str(path) == str(refused_path) and mode & refused_bits)
            and real_access(path, mode)
        ))

    @pytest.mark.parametrize("bits", [os.W_OK, os.X_OK], ids=["no-write", "no-search"])
    @pytest.mark.parametrize("command", [
        ["emit", "--protocol", "cluster6"],
        ["run", "--protocol", "chain:10"],
        ["noise", "--protocol", "cluster6", "--trials", "2"],
    ])
    def test_unwritable_directory_exits_2(
        self, capsys, tmp_path, monkeypatch, no_run, command, bits
    ):
        self.refuse_access(monkeypatch, tmp_path, bits)
        path = str(tmp_path / "x.json")
        code, out, err = run_cli(capsys, *command, "--out", path)
        assert (code, out) == (2, "")
        assert err == f"error: --out {path!r}: {str(tmp_path)!r} is not writable\n"
        assert not os.path.exists(path)

    def test_unwritable_existing_file_exits_2(self, capsys, tmp_path, monkeypatch, no_run):
        path = tmp_path / "report.json"
        path.write_text("earlier report\n")
        self.refuse_access(monkeypatch, path, os.W_OK)
        code, out, err = run_cli(capsys, "run", "--protocol", "chain:10", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: --out {str(path)!r}: {str(path)!r} is not writable\n"
        assert path.read_text() == "earlier report\n"

    def test_existing_file_in_unwritable_directory_is_written(
        self, capsys, tmp_path, monkeypatch
    ):
        # Truncating a file, as with /dev/null, needs no write access to its directory.
        path = tmp_path / "report.json"
        path.write_text("earlier report\n")
        self.refuse_access(monkeypatch, tmp_path, os.W_OK | os.X_OK)
        code, out, err = run_cli(capsys, "emit", "--protocol", "chain:2", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == run_cli(capsys, "emit", "--protocol", "chain:2")[1]

    def test_write_error_exits_2(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("builtins.open", refuse)
        code, out, err = run_cli(
            capsys, "emit", "--protocol", "chain:2", "--out", str(tmp_path / "x.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, expected", [
        (["run", "--protocol", "chain:4", "--per-pulse-fidelity", "1.5"], 2),
        (["noise", "--protocol", "cluster6", "--jitter-sigma", "0.2",
          "--trials", "3"], 3),
    ])
    def test_failing_run_leaves_existing_file(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "report.json"
        path.write_text("earlier report\n")
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (expected, "")
        assert path.read_text() == "earlier report\n"


# One command of each kind.
STDOUT_COMMANDS = [
    ["run", "--protocol", "cluster6"],
    ["noise", "--protocol", "cluster6", "--trials", "3"],
    ["emit", "--protocol", "cluster6"],
]


class TestProcess:
    """Whole interpreter processes: nothing is printed that was not asked for."""

    def test_import_is_silent_with_warnings_as_errors(self):
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", "import ionchain"],
            env=_python_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stderr, out.stdout) == (0, "", "")

    def test_overflowing_area_is_one_stderr_line(self, tmp_path):
        # Finite, but theta*sqrt(5)/2 overflows at n_max=5.
        path = tmp_path / "over.json"
        path.write_text(json.dumps({
            "version": "1",
            "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
            "steps": [{"kind": "sideband_ge", "ion": 1, "phi": 0.0, "theta": 1.7e308}],
        }))
        out = subprocess.run(
            [sys.executable, "-m", "ionchain.cli", "run", "--sequence", str(path),
             "--n-max", "5"],
            env=_python_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "overflows" in out.stderr

    @pytest.mark.parametrize("argv, line", [
        (["run", "--sequence", "over.json", "--n-max", "5"],
         "error: step 1 (sideband_ge on ion 1): sideband_ge pulse on ion 1: area"
         " 1.7e+308 overflows its rotation angle at n_max=5\n"),
        (["noise", "--protocol", "cluster6", "--jitter-sigma", "1e308", "--trials", "3",
          "--n-max", "4"],
         "error: trial 0: pulse parameters must be finite and real, got inf\n"),
    ])
    def test_validation_error_names_its_step_or_trial(self, tmp_path, argv, line):
        (tmp_path / "over.json").write_text(json.dumps({
            "version": "1",
            "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
            "steps": [{"kind": "sideband_ge", "ion": 1, "phi": 0.0, "theta": 1.7e308}],
        }))
        out = subprocess.run(
            [sys.executable, "-m", "ionchain.cli", *argv],
            cwd=tmp_path, env=_python_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stdout, out.stderr) == (2, "", line)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_failed_write_to_stdout_is_one_stderr_line(self, argv):
        # Buffered, each report fits in stdout's buffer: only the flush fails.
        env = _python_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            out = subprocess.run(
                [sys.executable, "-m", "ionchain.cli", *argv],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert (out.returncode, out.stderr) == (
            2, "error: cannot write the report to stdout: [Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_report_to_a_closed_pipe_is_one_stderr_line(self, argv):
        # Unbuffered, the first write fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "ionchain.cli", *argv],
                env=dict(_python_env(), PYTHONUNBUFFERED="1"), stdout=write_end,
                stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (
            2, "error: cannot write the report to stdout: [Errno 32] Broken pipe\n"
        )

    def test_error_is_one_stderr_line(self):
        out = subprocess.run(
            [sys.executable, "-m", "ionchain.cli", "run", "--protocol", "chain:1"],
            env=_python_env(), capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, code, start", [
        (["run", "--sequence", "leak.json", "--n-max", "1"], 3,
         "truncation: step 3 (leak\\nhere): "),
        (["noise", "--sequence", "leak.json", "--n-max", "1"], 3,
         "truncation: step 3 (leak\\nhere): "),
        (["run", "--sequence", "d\nx/s.json"], 2,
         "error: sequence file d\\nx/s.json is not valid JSON: "),
        (["run", "--protocol", "cluster6", "x\ny"], 2,
         "error: unrecognized arguments: x\\ny\n"),
    ], ids=["run-label", "noise-label", "path", "stray-argument"])
    def test_newline_in_a_refusal_is_escaped(self, tmp_path, argv, code, start):
        # The third step would couple past one phonon; its label holds a newline.
        (tmp_path / "leak.json").write_text(json.dumps({
            "version": "1",
            "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
            "steps": [
                {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi / 2},
                {"kind": "carrier", "ion": 1, "phi": 0.0, "theta": math.pi},
                {"kind": "sideband_ge", "ion": 1, "phi": 0.0, "theta": 1.0,
                 "label": "leak\nhere"},
            ],
        }))
        (tmp_path / "d\nx").mkdir()
        (tmp_path / "d\nx" / "s.json").write_text("{")
        out = subprocess.run(
            [sys.executable, "-m", "ionchain.cli", *argv],
            cwd=tmp_path, env=_python_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stdout) == (code, "")
        assert out.stderr.startswith(start) and out.stderr.count("\n") == 1, out.stderr


# ---------------------------------------------------------------------------
# The report writer against json.dumps(indent=2)
# ---------------------------------------------------------------------------

# Parts a kept amplitude or a sample may have: signed zeros, subnormals and
# the far end of the float range, as well as ordinary values.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.5, -0.25, 1 / 3]


@dataclass(frozen=True)
class Block:
    """A leaf standing for an array the writer renders from numpy data."""

    name: str


def _state_with_kept(n_ions, n_max, count, seed):
    """A state with ``count`` amplitudes above the report floor, at random indices.

    Their parts are drawn from SPECIAL_FLOATS, so a kept amplitude may have a
    signed-zero part; every other amplitude is a zero of either sign.
    """
    rng = np.random.default_rng(seed)
    dim = 3**n_ions * (n_max + 1)
    parts = rng.choice(SPECIAL_FLOATS, size=(dim, 2))
    parts[np.hypot(parts[:, 0], parts[:, 1]) <= cli.REPORT_AMPLITUDE_FLOOR, 0] = 0.5
    kept = np.sort(rng.choice(dim, count, replace=False))
    amps = rng.choice([0.0, -0.0], size=(dim, 2))
    amps[kept] = parts[kept]
    return register.RegisterState(n_ions, n_max, amps[:, 0] + 1j * amps[:, 1])


def _with_part(state, index, value):
    amps = state.amplitudes.copy()
    amps.view(np.float64)[index] = value
    return register.RegisterState(state.n_ions, state.n_max, amps)


@functools.cache
def _blocks():
    """name -> (the block, the list json.dumps is given); one block serves every depth."""
    big = _state_with_kept(10, 1, 65537, seed=5)  # 118,098 amplitudes
    big_triples = old_amplitude_triples(big, False)
    nonzero = np.flatnonzero(big.amplitudes)
    small = _state_with_kept(2, 2, 9, seed=6)
    blocks = {}
    for count in (65535, 65536, 65537):
        amps = big.amplitudes.copy()
        amps[nonzero[count:]] = 0.0
        state = register.RegisterState(10, 1, amps)
        blocks[f"amplitudes-{count}"] = (cli._amplitude_block(state, False), big_triples[:count])
    for count in (0, 1, 9):
        state = _state_with_kept(2, 2, count, seed=count)
        blocks[f"amplitudes-{count}"] = (cli._amplitude_block(state, False),
                                         old_amplitude_triples(state, False))
    blocks["amplitudes-full"] = (cli._amplitude_block(small, True),
                                 old_amplitude_triples(small, True))
    samples = np.random.default_rng(7).choice(SPECIAL_FLOATS + [0.1, 0.2, 0.3], 65537)
    samples[5::7] = np.random.default_rng(8).random(samples[5::7].size)
    for name, values in [("samples-0", samples[:0]), ("samples-3", samples[:3]),
                         ("samples-65537", samples)]:
        blocks[name] = (cli._sample_block(values), values.tolist())
    # Non-finite parts: a NaN amplitude is below the floor, so it shows under --full.
    for name, state, full in [("amplitudes-nan", _with_part(small, 3, math.nan), True),
                              ("amplitudes-inf", _with_part(small, 8, -math.inf), False)]:
        blocks[name] = (cli._amplitude_block(state, full), old_amplitude_triples(state, full))
    for name, values in [("samples-nan", np.array([0.5, math.nan, -0.0])),
                         ("samples-inf", np.array([math.inf]))]:
        blocks[name] = (cli._sample_block(values), values.tolist())
    return blocks


FINITE_BLOCKS = ["amplitudes-0", "amplitudes-1", "amplitudes-9", "amplitudes-full",
                 "amplitudes-65535", "amplitudes-65536", "amplitudes-65537",
                 "samples-0", "samples-3", "samples-65537"]
NON_FINITE_LEAVES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["amplitudes-nan", "amplitudes-inf", "samples-nan", "samples-inf"]).map(Block),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(2**100), 10**400]),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS),
    st.text(),  # any code point but a surrogate: non-ASCII and control characters too
)
FINITE_TREES = st.recursive(
    st.one_of(SCALARS, st.sampled_from(FINITE_BLOCKS).map(Block)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(), children, max_size=3)),
    max_leaves=8,
)


def _documents(tree, depth, texts):
    """The document for the writer and the one for json.dumps, from one tree.

    A block of 65,535 items or more is given to json.dumps as a placeholder
    string, and ``texts`` maps that string's JSON to the block's own
    json.dumps(indent=2) text, indented to its depth, so the large lists are
    dumped once rather than in every example.
    """
    if isinstance(tree, Block):
        block, items = _blocks()[tree.name]
        if len(items) < 65535:
            return block, items
        key = f"\x00block {len(texts)}"
        texts[json.dumps(key)] = _block_text(tree.name, depth)
        return block, key
    if isinstance(tree, dict):
        pairs = {k: _documents(v, depth + 1, texts) for k, v in tree.items()}
        return {k: v[0] for k, v in pairs.items()}, {k: v[1] for k, v in pairs.items()}
    if isinstance(tree, list):
        pairs = [_documents(v, depth + 1, texts) for v in tree]
        return [v[0] for v in pairs], [v[1] for v in pairs]
    return tree, tree


@functools.cache
def _block_text(name, depth):
    return json.dumps(_blocks()[name][1], indent=2).replace("\n", "\n" + "  " * depth)


def _expected_text(reference, texts):
    text = json.dumps(reference, indent=2, allow_nan=False)
    for key, block_text in texts.items():
        text = text.replace(key, block_text)
    return text + "\n"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@example({"snapshots": [{"amplitudes": Block("amplitudes-65537")}, {}, []], "": "\x00é\n",
          "none": Block("amplitudes-0")})
@example([Block("samples-65537"), [Block("amplitudes-65536"), Block("amplitudes-65535")],
          {"☃\t": -0.0}, Block("samples-0"), Block("amplitudes-1")])
@given(FINITE_TREES)
def test_writer_matches_json_dumps(tree):
    texts = {}
    doc, reference = _documents(tree, 0, texts)
    assert "".join(cli._render(doc)) == _expected_text(reference, texts)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_non_finite_float_is_refused_as_json_refuses_it(data):
    tree = data.draw(NON_FINITE_LEAVES)
    for wrap in data.draw(st.lists(st.sampled_from(["list", "dict"]), max_size=3)):
        tree = [tree] if wrap == "list" else {data.draw(st.text()): tree}
    siblings = data.draw(st.lists(FINITE_TREES, max_size=3))
    siblings.insert(data.draw(st.integers(0, len(siblings))), tree)
    doc, reference = _documents(siblings, 0, {})
    with pytest.raises(ValueError) as refused:
        json.dumps(reference, indent=2, allow_nan=False)
    with pytest.raises(ionchain.ValidationError) as err:
        _emit(doc, None)
    assert str(err.value) == f"report is not strict JSON: {refused.value}"
