"""Print the peak resident memory, wall time and exit code of one CLI process.

Usage::

    python3 tools/peak_rss.py SRC_DIR ARGV...

``SRC_DIR`` is the directory that holds the ``ionchain`` package (``src`` in
a checkout).  The tool runs ``python -m ionchain.cli ARGV...`` once with
``PYTHONPATH=SRC_DIR`` and ``OPENBLAS_NUM_THREADS=1`` (no answer needs that
pin; it sizes and times the run as perfbench, which pins one BLAS thread,
does), sends its stdout to the null device and passes its stderr through,
then prints one line::

    peak_rss_mib 249.0  wall_s 1.234  exit 0

The peak is the child's ``ru_maxrss`` as ``os.wait4`` reports it (KiB on
Linux, printed in MiB).  A child started with ``posix_spawn`` inherits the
high-water mark of the process that starts it, so this tool imports
nothing beyond the standard library and its own few MiB are the floor of
what it can report.  The tool itself exits 0 once it has printed the line,
whatever the child's exit code; it exits 2 on a usage error.
"""

from __future__ import annotations

import os
import sys
import time


def measure(src_dir: str, args: list[str]) -> tuple[float, float, int]:
    """(peak RSS in MiB, wall seconds, exit code) of one ``ionchain.cli`` run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "ionchain.cli", *args]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return usage.ru_maxrss / 1024, wall, os.waitstatus_to_exitcode(status)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python3 tools/peak_rss.py SRC_DIR ARGV...", file=sys.stderr)
        return 2
    peak, wall, code = measure(argv[0], argv[1:])
    print(f"peak_rss_mib {peak:.1f}  wall_s {wall:.3f}  exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
