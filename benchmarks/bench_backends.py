"""Compare the numba and numpy pulse-kernel backends.

Runs repeated ideal runs of the six-ion program, where the pulse kernels
dominate, under each backend in a child interpreter (the backend is chosen
at import time from IONCHAIN_BACKEND).  Each child reports the backend it
actually imported; when numba is missing both children run numpy, and the
script says so and exits 1 instead of printing a ratio of numpy to itself.
The jitter Monte Carlo is not timed here: it runs its batched trials through
the shared numpy rotation whichever backend is selected.

Usage:
    python benchmarks/bench_backends.py [--repeats 300]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time


def worker(repeats: int) -> dict:
    import ionchain as ic

    seq = ic.cluster6_sequence()

    # Warm up: first call pays any jit compilation.
    ic.run(seq, n_max=2)

    start = time.perf_counter()
    for _ in range(repeats):
        ic.run(seq, n_max=2)
    ideal_seconds = time.perf_counter() - start

    return {"backend": ic.BACKEND, "ideal_seconds": ideal_seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=300)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(worker(args.repeats)))
        return 0

    results = []
    for backend in ("numba", "numpy"):
        env = dict(os.environ, IONCHAIN_BACKEND=backend)
        out = subprocess.run(
            [sys.executable, __file__, "--worker", "--repeats", str(args.repeats)],
            env=env, capture_output=True, text=True, check=True,
        )
        results.append(json.loads(out.stdout.splitlines()[-1]))

    numba_res, numpy_res = results
    if numba_res["backend"] != "numba" or numpy_res["backend"] != "numpy":
        print(
            f"the children ran the {numba_res['backend']} and "
            f"{numpy_res['backend']} backends (is numba installed?); "
            "no numba vs numpy ratio to report",
            file=sys.stderr,
        )
        return 1

    steps = 11
    print(f"{'workload':<34}{'numba':>12}{'numpy':>12}{'speedup':>10}")
    print("-" * 68)
    ideal_nb = numba_res["ideal_seconds"] / args.repeats * 1e6
    ideal_np = numpy_res["ideal_seconds"] / args.repeats * 1e6
    print(
        f"{'ideal run (us/run, 11 pulses)':<34}{ideal_nb:>12.1f}{ideal_np:>12.1f}"
        f"{ideal_np / ideal_nb:>9.2f}x"
    )
    pulse_nb = ideal_nb / steps
    pulse_np = ideal_np / steps
    print(
        f"{'single pulse (us/pulse)':<34}{pulse_nb:>12.2f}{pulse_np:>12.2f}"
        f"{pulse_np / pulse_nb:>9.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
