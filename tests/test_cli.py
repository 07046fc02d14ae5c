from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import ionchain
from ionchain import cli, cluster6_sequence, chain_sequence, register
from ionchain.cli import (
    _emit,
    main,
    sequence_from_document,
    sequence_to_document,
)


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
        for tail in ["one", "", " 6", "+6", "-6", "1_0", " +1_0", "٦", "６", "6.0"]:
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
        assert doc["snapshots"][0]["step_index"] == 1

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


class TestProcess:
    """Whole interpreter processes: nothing is printed that was not asked for."""

    def test_import_is_silent_with_warnings_as_errors(self):
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", "import ionchain"],
            env=_python_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stderr, out.stdout) == (0, "", "")

    def test_error_is_one_stderr_line(self):
        out = subprocess.run(
            [sys.executable, "-m", "ionchain.cli", "run", "--protocol", "chain:1"],
            env=_python_env(), capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
