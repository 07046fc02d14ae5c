"""Print the sha256 of the output of each contract command, for one source tree.

Usage::

    python3 tools/report_hashes.py SRC_DIR

``SRC_DIR`` is the directory that holds the ``ionchain`` package (``src`` in
a checkout).  Each command runs as ``python -m ionchain.cli ARGV`` with
``PYTHONPATH=SRC_DIR`` in a fresh temporary working directory, under the
caller's own environment: ionchain runs its BLAS reductions on one thread
whatever the BLAS thread count, so the lines are the same on hosts with any
number of CPUs.  A command
that must succeed prints ``sha256(stdout)[:16]  argv``; one that must fail
prints ``sha256(stderr)[:16]  exit N  argv``, pinning its one-line reason;
if its stderr is not exactly one line or its stdout is not empty, the tool
stops with exit 1 and names the command (every pinned refusal passes).
The sequence file is emitted to the fixed relative name ``cluster6.json`` in
that directory, so the ``run --sequence`` report (which names its file)
hashes the same for every tree; ``hot.json`` is a one-ion program whose
third step leaks past ``--n-max 1``, ``carriers.json`` a two-ion program
that interleaves jittered sidebands with carriers of other than the
default areas and phases, ``split.json`` an eleven-ion program that puts
every pulse kind on ions 1, 5 and 10 (a vector large enough that the dense
passes split along both cut axes onto worker threads; the small programs
above run inline),
``one.json`` one whose only area overflows its rotation angle at
``--n-max 5``, ``twice.json`` one that repeats its ``steps`` field, and
``theta.json`` one whose step repeats its ``theta`` field.  Comparing two
trees is then one ``diff`` of two outputs.  A command that exits with
another code stops the tool with its exit code and stderr.
``hash_lines(SRC_DIR)`` yields the same lines to a caller, and
``tests/test_contract.py`` pins them for this checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

COMMANDS = [
    ["run", "--protocol", "cluster6", "--full", "--snapshots"],
    ["run", "--protocol", "chain:10", "--n-max", "2", "--snapshots"],
    ["run", "--protocol", "chain:12", "--n-max", "2", "--full"],
    ["run", "--protocol", "chain:12", "--n-max", "2", "--snapshots"],
    ["noise", "--protocol", "cluster6", "--jitter-sigma", "0.02", "--trials", "1000",
     "--seed", "1", "--n-max", "4"],
    ["noise", "--protocol", "chain:6", "--jitter-sigma", "0.3", "--trials", "50",
     "--seed", "2", "--n-max", "3"],
    ["run", "--protocol", "chain:4", "--n-max", "3", "--full", "--snapshots"],
    ["emit", "--protocol", "cluster6"],
    ["emit", "--protocol", "cluster6", "--out", "cluster6.json"],
    ["run", "--sequence", "cluster6.json", "--full"],
    ["noise", "--sequence", "carriers.json", "--jitter-sigma", "0.05", "--trials", "200",
     "--seed", "3", "--n-max", "3"],
    ["run", "--sequence", "split.json", "--n-max", "2", "--snapshots"],
    # 10,886 reachable states, so a Monte Carlo batch holds few trials, and a
    # 354,294-amplitude scoring row.
    ["noise", "--protocol", "chain:10", "--jitter-sigma", "0.02", "--trials", "20",
     "--seed", "1", "--n-max", "5"],
    # 70,000 samples: the report writes them in two slabs of text.
    ["noise", "--protocol", "chain:2", "--jitter-sigma", "0.05", "--trials", "70000",
     "--seed", "4", "--n-max", "1"],
]

#: (exit code, argv) of commands that must fail.
FAILURES = [
    (3, ["noise", "--protocol", "cluster6", "--jitter-sigma", "0.02", "--trials", "1000",
         "--seed", "1", "--n-max", "2"]),
    (3, ["noise", "--protocol", "chain:10", "--jitter-sigma", "0.02", "--trials", "5",
         "--seed", "0", "--n-max", "4"]),
    (3, ["noise", "--protocol", "cluster6", "--jitter-sigma", "2e-6", "--trials", "100",
         "--seed", "1", "--n-max", "2"]),
    (3, ["run", "--sequence", "hot.json", "--n-max", "1"]),
    (3, ["noise", "--sequence", "hot.json", "--n-max", "1", "--jitter-sigma", "0.1"]),
    (2, ["run", "--sequence", "one.json", "--n-max", "5"]),
    (2, ["noise", "--protocol", "cluster6", "--jitter-sigma", "1e308", "--trials", "3",
         "--n-max", "4"]),
    (2, ["run", "--sequence", "twice.json"]),
    (2, ["run", "--sequence", "theta.json"]),
]

HOT_SEQUENCE = {
    "version": "1",
    "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
    "steps": [
        {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi},
        {"kind": "carrier", "ion": 1, "phi": 0.0, "theta": math.pi},
        {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": 0.5},
    ],
}

CARRIER_SEQUENCE = {
    "version": "1",
    "ions": [
        [{"level": "e", "re": 1.0, "im": 0.0}],
        [{"level": "g", "re": 0.6, "im": 0.0}, {"level": "e", "re": 0.0, "im": 0.8}],
    ],
    "steps": [
        {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi / 2},
        {"kind": "carrier", "ion": 2, "phi": 0.2, "theta": 1.1},
        {"kind": "sideband_geprime", "ion": 2, "phi": 0.0, "theta": 2 * math.pi},
        {"kind": "carrier", "ion": 1, "phi": 2.5, "theta": -0.4},
        {"kind": "sideband_ge", "ion": 2, "phi": 0.0, "theta": math.pi},
        {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi},
    ],
}

_HALF = [{"level": "g", "re": 0.6, "im": 0.0}, {"level": "e", "re": 0.0, "im": 0.8}]

# Every pulse kind on ions 1, 5 and 10 of an 8.5 MB vector (11 ions at
# --n-max 2: 9 blocks, enough for two worker threads); each g-e' loop and
# each sideband that lifts the mode to two phonons is undone by its inverse,
# so no guard fires and no e' population is left for the stabilizers.
SPLIT_SEQUENCE = {
    "version": "1",
    "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]] + [_HALF] * 10,
    "steps": [
        {"kind": "carrier", "ion": 5, "phi": 0.2, "theta": 1.1},
        {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi / 2},
        {"kind": "sideband_geprime", "ion": 10, "phi": 0.4, "theta": 2 * math.pi},
        {"kind": "carrier", "ion": 10, "phi": 2.5, "theta": -0.4},
        {"kind": "sideband_ge", "ion": 5, "phi": 1.1, "theta": 0.9},
        {"kind": "sideband_geprime", "ion": 1, "phi": 0.0, "theta": 2 * math.pi},
        {"kind": "sideband_geprime", "ion": 1, "phi": 0.0, "theta": -2 * math.pi},
        {"kind": "sideband_ge", "ion": 5, "phi": 1.1, "theta": -0.9},
        {"kind": "carrier", "ion": 1, "phi": 0.3, "theta": 0.7},
        {"kind": "carrier", "ion": 10, "phi": -1.0, "theta": 2.2},
        {"kind": "sideband_ge", "ion": 10, "phi": 0.6, "theta": 1.3},
        {"kind": "sideband_geprime", "ion": 5, "phi": 1.7, "theta": math.pi},
        {"kind": "sideband_geprime", "ion": 5, "phi": 1.7, "theta": -math.pi},
        {"kind": "sideband_ge", "ion": 10, "phi": 0.6, "theta": -1.3},
    ],
}

ONE_SEQUENCE = {
    "version": "1",
    "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
    "steps": [{"kind": "sideband_ge", "ion": 1, "phi": 0.0, "theta": 1.7e308}],
}

# Raw texts: ``json.dump`` cannot write a repeated key.
RAW_TEXTS = {
    "twice.json": (
        '{"version": "1", "ions": [[{"level": "g", "re": 1.0, "im": 0.0}]], '
        '"steps": [{"kind": "carrier", "ion": 1, "phi": 0.0, "theta": 1.0}], "steps": []}'
    ),
    "theta.json": (
        '{"version": "1", "ions": [[{"level": "g", "re": 1.0, "im": 0.0}]], '
        '"steps": [{"kind": "carrier", "ion": 1, "phi": 0.0, "theta": 1.0, "theta": 2.0}]}'
    ),
}


def hash_lines(src_dir: str):
    """Run every command against the ``ionchain`` in ``src_dir``; yield its line in turn.

    Stops with ``SystemExit`` at the first command that breaks its pinned outcome.
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir))
    with tempfile.TemporaryDirectory() as cwd:
        for name, doc in (("hot.json", HOT_SEQUENCE), ("carriers.json", CARRIER_SEQUENCE),
                          ("one.json", ONE_SEQUENCE), ("split.json", SPLIT_SEQUENCE)):
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for name, text in RAW_TEXTS.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for code, args in [(0, args) for args in COMMANDS] + FAILURES:
            proc = subprocess.run(
                [sys.executable, "-m", "ionchain.cli", *args],
                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            if proc.returncode != code:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"exit {proc.returncode}: {' '.join(args)}", file=sys.stderr)
                raise SystemExit(proc.returncode or 1)
            if code == 0:
                digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
                yield f"{digest}  {' '.join(args)}"
            else:
                if proc.stdout or proc.stderr.count(b"\n") != 1 or not proc.stderr.endswith(b"\n"):
                    print(f"refusal is not one stderr line with empty stdout: {' '.join(args)}",
                          file=sys.stderr)
                    raise SystemExit(1)
                digest = hashlib.sha256(proc.stderr).hexdigest()[:16]
                yield f"{digest}  exit {code}  {' '.join(args)}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/report_hashes.py SRC_DIR", file=sys.stderr)
        return 2
    for line in hash_lines(argv[0]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
