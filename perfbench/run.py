"""Layered benchmark for ionchain: one workload per call, every answer gated.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``mc-cluster6`` -- ``monte_carlo`` on the six-ion program, sigma 0.02,
  1000 trials, n_max 4, seeded by ``--seed``;
* ``chain12-ideal`` -- ``run(chain_sequence(12), n_max=2)`` then
  ``verify_run``;
* ``cli-chain10-snapshots`` -- one fresh
  ``ionchain run --protocol chain:10 --n-max 2 --snapshots`` process
  (started as ``python -m ionchain.cli``), stdout read through a pipe.

With ``--trace 0`` the run spawns seven set-up probes and then the main
worker, each a fresh interpreter with ``PYTHONPATH`` set to the checkout's
``src`` and BLAS capped at one thread.  It reports

* ``setup_s`` -- spawn until ``import ionchain`` returned and the inputs are
  built, median over the eight processes;
* ``first_op_s`` -- the cold first op of each process, median of eight;
* ``op_s`` -- median warm op of the main worker over ``--seconds``;
* ``rss_peak_mb`` -- ``ru_maxrss`` of the main worker (of its CLI children
  for the CLI workload).

With ``--trace 1`` the main worker alone alternates untraced and traced warm
ops and reports per-layer calls, self times and counts (see ``tracing.py``)
as medians over the traced ops, plus ``trace.overhead_s``, the median traced
op minus the median untraced op.

Every op is checked by its workload's gate; ``fail_ratio`` (failed over
attempted ops) is printed with the metrics.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds provenance and answer checksums.  The run exits 1 if a worker
fails and 2 if the checkout holds no ``src/ionchain`` to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 7
# One BLAS thread: on a 2-CPU host a second thread made the chain12 op time
# swing by 1.6x within a minute, against about 10% with one.
BLAS_THREADS = 1
DEADLINE_S = 170.0
WORKLOADS = ("mc-cluster6", "chain12-ideal", "cli-chain10-snapshots")
_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name; answered from cpuid


class WorkerError(RuntimeError):
    pass


def l3_bytes() -> int | None:
    """Last-level cache size as the C library reports it, if it does."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def commit() -> str | None:
    """The checked-out commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, env: dict, deadline: float, probe: bool) -> tuple[float, dict]:
    """Start one worker; return its spawn-to-ready seconds and its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    # A session of its own, so that killing the group also ends CLI children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise WorkerError(f"worker exited with {proc.returncode} before set-up finished")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not rest.strip():
        raise WorkerError(f"worker exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that run_worker's cleanup still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    src = ROOT / "src"
    if not (src / "ionchain" / "__init__.py").is_file():
        print(f"error: no ionchain package under {src}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    setups, firsts, ops = [], [], []
    try:
        for _ in range(0 if args.trace else PROBES):
            setup_s, record = run_worker(args, env, deadline, probe=True)
            setups.append(setup_s)
            firsts.append(record["ops"][0]["s"])
            ops += record["ops"]
        setup_s, main_record = run_worker(args, env, deadline, probe=False)
    except WorkerError as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    firsts.append(main_record["ops"][0]["s"])
    ops += main_record["ops"]
    warm = main_record["ops"][1:]

    failed = [op for op in ops if op["error"]]
    for op in failed[:5]:
        print(f"gate failed: {op['error']}", file=sys.stderr)
    untraced = [op["s"] for op in warm if not op["traced"]]
    traced = [op for op in warm if op["traced"]]

    if args.trace:
        names = traced[0]["layers"].keys() if traced and traced[0]["layers"] else ()
        metrics = {
            name: {"value": median([op["layers"][name] for op in traced if op["layers"]]),
                   "unit": unit_of(name)}
            for name in names
        }
        metrics["trace.overhead_s"] = {
            "value": median([op["s"] for op in traced]) - median(untraced), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "first_op_s": {"value": median(firsts), "unit": "s"},
            "op_s": {"value": median(untraced), "unit": "s"},
            "rss_peak_mb": {"value": main_record["rss_peak_kb"] / 1024.0, "unit": "MB"},
        }

    fail_ratio = len(failed) / len(ops)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<34} {fail_ratio:.6g} ({len(failed)} of {len(ops)} ops)")
    print(f"  samples: setup {len(setups)}, first_op {len(firsts)}, "
          f"op {len(untraced)} untraced, {len(traced)} traced")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "fail_ratio": fail_ratio,
        "samples": {"setup_s": len(setups), "first_op_s": len(firsts),
                    "op_s": len(untraced), "traced_ops": len(traced)},
        "checksums": sorted({op["checksum"] for op in ops if op["checksum"]}),
        "provenance": {
            "python": platform.python_version(),
            "numpy": main_record["numpy"],
            "ionchain_backend": main_record["backend"],
            "nproc": nproc,
            "blas_threads": BLAS_THREADS,
            "commit": commit(),
            "vector_bytes": main_record["vector_bytes"],
            "l3_bytes": l3_bytes(),
            "pulse.ns_per_amp": "computed rate, not a roofline",
        },
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_amp"):
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
