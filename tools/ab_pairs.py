"""Alternate two checkouts' perfbench workers and compare their warm op times.

Usage::

    python3 tools/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --seconds S

Each root is a checkout holding ``perfbench/worker.py`` and ``src/ionchain``.
A pair starts one fresh worker process from each checkout, its own
unedited ``perfbench/worker.py`` with ``PYTHONPATH=ROOT/src`` and one BLAS
thread, as ``perfbench/run.py`` starts its main worker (no answer needs
that pin; it keeps the timings comparable with perfbench's); both sides
of pair ``i`` (from 0) use seed ``i``, and the side that starts first
alternates from pair to pair.  Every op of every worker must pass its workload's
gate: the tool exits 1 at the first worker that fails, or whose op fails
a gate.
A side's reading for one pair is the median of its worker's warm untraced
ops (the cold first op is left out).  The tool prints one line a pair,
then each side's median and quartiles over the pairs and the number of
pairs the change was faster in::

    parent  op_s 0.02040 [0.02010-0.02080] s over 10 pairs
    change  op_s 0.01620 [0.01600-0.01650] s over 10 pairs
    change faster in 10 of 10 pairs

It exits 0 once the summary is printed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 600.0


def warm_op_s(root: Path, workload: str, seed: int, seconds: float) -> float:
    """Median warm op seconds of one worker of ``root``; exits 1 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            stdout=subprocess.PIPE, env=env, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {root}: worker ran past {TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {root}: worker exited with {proc.returncode}")
    ops = json.loads(lines[-1])["ops"]
    for op in ops:
        if op["error"]:
            sys.exit(f"error: {root}: gate failed: {op['error']}")
    warm = [op["s"] for op in ops[1:] if not op["traced"]]
    if not warm:
        sys.exit(f"error: {root}: no warm op in {seconds} s")
    return statistics.median(warm)


def summary(values: list[float]) -> str:
    """Median [first-third quartile] of ``values``."""
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return f"{quartiles[1]:.5f} [{quartiles[0]:.5f}-{quartiles[2]:.5f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "worker.py").is_file():
            parser.error(f"{root} holds no perfbench/worker.py")

    times = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            times[side].append(
                warm_op_s(roots[side], args.workload, pair, args.seconds))
        print(f"pair {pair + 1}  parent {times['parent'][-1]:.5f} s  "
              f"change {times['change'][-1]:.5f} s  ({order[0]} first)", flush=True)
    for side, values in times.items():
        print(f"{side}  op_s {summary(values)} s over {args.pairs} pairs")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
