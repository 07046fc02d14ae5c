"""Tests for the benchmark itself: its gates reject corrupted answers, its
exact trace counts repeat, and its output names match BENCHMARK.json.

Run from the repository root (about a minute on two CPUs):

    python3 -m pytest perfbench/test_gates.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from worker import check_chain, check_cli, check_mc  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

FIRST = [0.991, 0.987, 0.995, 0.979]
SIGNATURE = worker.CHAIN_SIGNATURE


def mc_samples() -> np.ndarray:
    samples = np.full(worker.MC_TRIALS, 0.99)
    samples[: len(FIRST)] = FIRST
    return samples


def test_mc_gate_accepts_a_correct_answer():
    assert check_mc(mc_samples(), 0.99, FIRST) is None


@pytest.mark.parametrize("index, value", [
    (0, FIRST[0] + 1e-9),
    (3, FIRST[3] - 1e-9),
    (10, float("nan")),
    (500, float("inf")),
    (7, 1.0 + 1e-9),
    (8, -1e-9),
])
def test_mc_gate_rejects_a_corrupted_sample(index, value):
    samples = mc_samples()
    samples[index] = value
    assert check_mc(samples, 0.99, FIRST) is not None


def test_mc_gate_rejects_a_missing_trial_and_a_nan_mean():
    assert check_mc(mc_samples()[:-1], 0.99, FIRST) is not None
    assert check_mc(mc_samples(), float("nan"), FIRST) is not None


def test_chain_gate_accepts_a_correct_answer():
    assert check_chain(1.0, [float(s) for s in SIGNATURE], 0.0, 3e-33) is None


def test_pinned_signature_is_the_library_reference():
    probe = ("import sys, json, ionchain; "
             f"json.dump(ionchain.reference_signature({worker.CHAIN_IONS}), sys.stdout)")
    out = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                         env=ENV, check=True, timeout=120).stdout
    assert json.loads(out) == SIGNATURE


@pytest.mark.parametrize("fidelity, flip, eprime, mode", [
    (1.0 - 1e-9, None, 0.0, 0.0),
    (float("nan"), None, 0.0, 0.0),
    (1.0, 5, 0.0, 0.0),
    (1.0, None, 1e-9, 0.0),
    (1.0, None, 0.0, 1e-9),
    (1.0, None, float("nan"), 0.0),
])
def test_chain_gate_rejects_a_corrupted_answer(fidelity, flip, eprime, mode):
    stabilizers = [float(s) for s in SIGNATURE]
    if flip is not None:
        stabilizers[flip] = -stabilizers[flip]
    assert check_chain(fidelity, stabilizers, eprime, mode) is not None


@pytest.fixture(scope="module")
def cli_report() -> bytes:
    proc = subprocess.run([sys.executable, "-m", "ionchain.cli", *worker.CLI_ARGS],
                          stdout=subprocess.PIPE, env=ENV, check=True, timeout=120)
    return proc.stdout


def _edited(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return json.dumps(doc, indent=2).encode()


def test_cli_gate_accepts_the_real_report(cli_report):
    assert check_cli(0, cli_report) is None


@pytest.mark.parametrize("edit", [
    lambda d: d["verification"].__setitem__("fidelity", float("nan")),
    lambda d: d["verification"].__setitem__("fidelity", float("inf")),
    lambda d: d["verification"].__setitem__("fidelity", 1.0 - 1e-9),
    lambda d: d["snapshots"][3]["amplitudes"][0].__setitem__(1, float("nan")),
    lambda d: d["snapshots"].pop(),
    lambda d: d.pop("verification"),
])
def test_cli_gate_rejects_a_corrupted_report(cli_report, edit):
    assert check_cli(0, _edited(cli_report, edit)) is not None


def test_cli_gate_rejects_a_failed_process_and_truncated_output(cli_report):
    assert check_cli(3, cli_report) is not None
    assert check_cli(0, cli_report[: len(cli_report) // 2]) is not None


class _Fixed:
    """A workload whose op returns a given answer, checked by a real gate."""

    def __init__(self, answer, gate):
        self.answer, self.check = answer, gate

    def op(self, traced):
        if isinstance(self.answer, Exception):
            raise self.answer
        return self.answer, None

    def checksum(self, answer):
        return "x"


@pytest.mark.parametrize("answer", [(0, b"{"), RuntimeError("boom")])
def test_a_corrupted_or_raising_op_counts_as_failed(answer):
    record = worker.measure(_Fixed(answer, lambda a: check_cli(*a)), traced=False)
    assert record["error"] and record["checksum"] is None


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


EXACT = ("pulse.apply_pulse.calls", "pulse.amps_touched", "noise.draws",
         "register.new_register.calls")
PINNED = {
    "mc-cluster6": (11011, 11011 * 3645, 10000, 1001),
    "chain12-ideal": (23, 23 * 3**12 * 3, 0, 1),
    "cli-chain10-snapshots": (19, 19 * 3**10 * 3, 0, 1),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_counts_repeat_exactly(workload):
    runs = [_result(_bench(workload, trace=1))["metrics"] for _ in range(2)]
    for metrics in runs:
        assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    counts = [tuple(m[name]["value"] for name in EXACT) for m in runs]
    assert counts[0] == counts[1] == PINNED[workload]


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _result(_bench("mc-cluster6", trace=0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mc-cluster6", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
