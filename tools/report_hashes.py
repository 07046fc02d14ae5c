"""Print the sha256 of the stdout of each contract command, for one source tree.

Usage::

    python3 tools/report_hashes.py SRC_DIR

``SRC_DIR`` is the directory that holds the ``ionchain`` package (``src`` in
a checkout).  Each command runs as ``python -m ionchain.cli ARGV`` with
``PYTHONPATH=SRC_DIR`` in a fresh temporary working directory, and one line
``sha256[:16]  argv`` is printed per command.  The sequence file is emitted
to the fixed relative name ``cluster6.json`` in that directory, so the
``run --sequence`` report (which names its file) hashes the same for every
tree.  Comparing two trees is then one ``diff`` of two outputs.  A command
that exits non-zero stops the tool with its exit code and stderr.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

COMMANDS = [
    ["run", "--protocol", "cluster6", "--full", "--snapshots"],
    ["run", "--protocol", "chain:10", "--n-max", "2", "--snapshots"],
    ["run", "--protocol", "chain:12", "--n-max", "2", "--full"],
    ["noise", "--protocol", "cluster6", "--jitter-sigma", "0.02", "--trials", "1000",
     "--seed", "1", "--n-max", "4"],
    ["noise", "--protocol", "chain:6", "--jitter-sigma", "0.3", "--trials", "50",
     "--seed", "2", "--n-max", "3"],
    ["run", "--protocol", "chain:4", "--n-max", "3", "--full", "--snapshots"],
    ["emit", "--protocol", "cluster6"],
    ["emit", "--protocol", "cluster6", "--out", "cluster6.json"],
    ["run", "--sequence", "cluster6.json", "--full"],
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/report_hashes.py SRC_DIR", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.abspath(argv[0]))
    with tempfile.TemporaryDirectory() as cwd:
        for args in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "ionchain.cli", *args],
                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"exit {proc.returncode}: {' '.join(args)}", file=sys.stderr)
                return proc.returncode
            digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
            print(f"{digest}  {' '.join(args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
