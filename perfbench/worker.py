"""One benchmark process: set up a workload, then time and check its ops.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The worker prints ``ready`` once ``ionchain`` is imported and the
workload's inputs are built (the parent times spawn-to-ready as set-up),
computes the expected answers untimed, runs one cold op and then, unless it
is a set-up probe, warm ops until ``--seconds`` have passed.  With
``--trace 1`` warm ops alternate between untraced and traced.  Every op's
answer goes through its workload's gate; the last stdout line is one JSON
record of all ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import LAYER_PREFIX, Tracer

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12

MC_SIGMA = 0.02
MC_TRIALS = 1000
MC_N_MAX = 4
MC_RECHECKED_TRIALS = 4
CHAIN_IONS = 12
CHAIN_N_MAX = 2
# reference_signature(12), pinned so that no process spends a second
# recomputing it; test_gates.py checks the pin against the library.
CHAIN_SIGNATURE = [1] + [-1] * (CHAIN_IONS - 1)
CLI_IONS = 10
CLI_N_MAX = 2
CLI_ARGS = ["run", "--protocol", f"chain:{CLI_IONS}", "--n-max", str(CLI_N_MAX), "--snapshots"]
CLI_SNAPSHOTS = 19


def dense_bytes(n_ions: int, n_max: int) -> int:
    """Size of one dense complex128 state vector."""
    return 3**n_ions * (n_max + 1) * 16


# ---------------------------------------------------------------------------
# Gates: each returns None for a correct answer, else the reason it is wrong.
# ---------------------------------------------------------------------------


def check_mc(samples, mean: float, expected_first) -> str | None:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (MC_TRIALS,):
        return f"expected {MC_TRIALS} samples, got shape {samples.shape}"
    if not np.all(np.isfinite(samples)) or not math.isfinite(mean):
        return "non-finite fidelity sample or mean"
    if np.any(samples < 0.0) or np.any(samples > 1.0):
        return "fidelity sample outside [0, 1]"
    got = samples[: len(expected_first)]
    diff = float(np.max(np.abs(got - np.asarray(expected_first))))
    if not diff <= TOL:
        return f"first {len(expected_first)} trials differ from the recomputation by {diff!r}"
    return None


def check_chain(fidelity: float, stabilizers, leakage_eprime: float,
                leakage_mode: float) -> str | None:
    if not abs(fidelity - 1.0) <= TOL:
        return f"fidelity {fidelity!r} is not within {TOL} of 1"
    signs = [1 if v > 0 else -1 for v in stabilizers]
    if signs != CHAIN_SIGNATURE:
        return f"stabilizer signs {signs} differ from the reference {CHAIN_SIGNATURE}"
    if not (leakage_eprime <= TOL and leakage_mode <= TOL):
        return f"leakage e'={leakage_eprime!r} mode={leakage_mode!r} exceeds {TOL}"
    return None


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check_cli(returncode: int, stdout: bytes) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
        snapshots = len(doc["snapshots"])
        fidelity = doc["verification"]["fidelity"]
    except (ValueError, KeyError, TypeError) as err:
        return f"report is not the expected strict JSON: {err}"
    if snapshots != CLI_SNAPSHOTS:
        return f"{snapshots} snapshots, expected {CLI_SNAPSHOTS}"
    if not isinstance(fidelity, float) or not abs(fidelity - 1.0) <= TOL:
        return f"fidelity {fidelity!r} is not within {TOL} of 1"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class _LibraryWorkload:
    """An op that calls ionchain in this process; traced in-process."""

    def op(self, traced: bool):
        if not traced:
            return self.call(), None
        tracer = Tracer()
        with tracer.installed():
            answer = self.call()
        return answer, tracer.layer_metrics()


class McCluster6(_LibraryWorkload):
    """Jitter sweep: monte_carlo on the six-ion program, seeded by --seed."""

    vector_bytes = dense_bytes(6, MC_N_MAX)

    def __init__(self, seed: int):
        from ionchain import noise, protocol

        self.noise = noise
        self.seq = protocol.cluster6_sequence()
        self.cfg = noise.NoiseConfig(jitter_sigma=MC_SIGMA, trials=MC_TRIALS, seed=seed)

    def prepare(self) -> None:
        """Recompute the first trials from public API alone."""
        from ionchain import Pulse, PulseKind, PulseSequence, fidelity, run

        ideal, _ = run(self.seq, n_max=MC_N_MAX)
        sidebands = [i for i, s in enumerate(self.seq.steps) if s.kind != PulseKind.CARRIER]
        eps = np.random.default_rng(self.cfg.seed).normal(
            0.0, MC_SIGMA, size=(MC_TRIALS, len(sidebands))
        )
        self.expected_first = []
        for trial in range(MC_RECHECKED_TRIALS):
            steps = list(self.seq.steps)
            for col, i in enumerate(sidebands):
                s = steps[i]
                steps[i] = Pulse(s.kind, s.ion, s.phi, s.theta * (1.0 + eps[trial, col]))
            final, _ = run(PulseSequence(self.seq.preps, tuple(steps), self.seq.labels),
                           n_max=MC_N_MAX)
            self.expected_first.append(fidelity(final, ideal))

    def call(self):
        return self.noise.monte_carlo(self.seq, self.cfg, n_max=MC_N_MAX)

    def check(self, result) -> str | None:
        return check_mc(result.samples, result.mean_fidelity, self.expected_first)

    def checksum(self, result) -> str:
        return repr(result.mean_fidelity)


class Chain12Ideal(_LibraryWorkload):
    """Long chain: one ideal run of chain:12, then verify_run."""

    vector_bytes = dense_bytes(CHAIN_IONS, CHAIN_N_MAX)

    def __init__(self, seed: int):
        from ionchain import protocol, verify

        self.protocol = protocol
        self.verify = verify
        self.seq = protocol.chain_sequence(CHAIN_IONS)

    def prepare(self) -> None:
        pass

    def call(self):
        state, _ = self.protocol.run(self.seq, n_max=CHAIN_N_MAX)
        return self.verify.verify_run(state, CHAIN_IONS)

    def check(self, report) -> str | None:
        return check_chain(report.fidelity, report.stabilizer_expectations,
                           report.leakage_eprime, report.leakage_mode)

    def checksum(self, report) -> str:
        return repr(report.fidelity)


class CliChain10Snapshots:
    """One fresh ``ionchain run`` process whose stdout is read through a pipe."""

    vector_bytes = dense_bytes(CLI_IONS, CLI_N_MAX)

    def __init__(self, seed: int):
        import ionchain.cli  # noqa: F401  (the import every CLI process pays)

        here = Path(__file__).resolve().parent
        self.argv = [sys.executable, "-m", "ionchain.cli", *CLI_ARGS]
        self.traced_argv = [sys.executable, str(here / "tracing.py"), *CLI_ARGS]

    def prepare(self) -> None:
        pass

    def op(self, traced: bool):
        proc = subprocess.run(
            self.traced_argv if traced else self.argv,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        layers = None
        if traced:
            for line in proc.stderr.decode(errors="replace").splitlines():
                if line.startswith(LAYER_PREFIX):
                    layers = json.loads(line[len(LAYER_PREFIX):])
            if layers is None:
                raise RuntimeError("traced CLI process printed no layer metrics")
            layers["cli.report_bytes"] = len(proc.stdout)
        return (proc.returncode, proc.stdout), layers

    def check(self, answer) -> str | None:
        return check_cli(*answer)

    def checksum(self, answer) -> str:
        return hashlib.sha256(answer[1]).hexdigest()


WORKLOADS = {
    "mc-cluster6": McCluster6,
    "chain12-ideal": Chain12Ideal,
    "cli-chain10-snapshots": CliChain10Snapshots,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(workload, traced: bool) -> dict:
    """Time one op and gate its answer; an op that raises counts as failed."""
    start = time.perf_counter()
    try:
        answer, layers = workload.op(traced)
    except Exception as err:  # noqa: BLE001 - a failed op is data, not a crash
        return {"s": time.perf_counter() - start, "traced": traced,
                "error": f"{type(err).__name__}: {err}", "checksum": None, "layers": None}
    elapsed = time.perf_counter() - start
    error = workload.check(answer)
    return {"s": elapsed, "traced": traced, "error": error,
            "checksum": None if error else workload.checksum(answer), "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up and the first op")
    args = parser.parse_args()

    import ionchain

    src = ROOT / "src"
    if src not in Path(ionchain.__file__).resolve().parents:
        print(f"ionchain was imported from {ionchain.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)

    workload.prepare()
    ops = [measure(workload, traced=False)]
    if not args.probe:
        deadline = time.perf_counter() + args.seconds
        traced = False
        while time.perf_counter() < deadline or (args.trace and len(ops) < 3):
            traced = bool(args.trace) and not traced
            ops.append(measure(workload, traced))

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(workload, CliChain10Snapshots)
        else resource.RUSAGE_SELF
    )
    print(json.dumps({
        "ops": ops,
        "rss_peak_kb": usage.ru_maxrss,
        "vector_bytes": workload.vector_bytes,
        "backend": getattr(ionchain, "BACKEND", None),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
