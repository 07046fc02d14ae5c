"""Every report byte and refusal line of the CLI contract, pinned.

Runs the command table of ``tools/report_hashes.py`` against this checkout's
``src`` and compares each printed line with the line pinned below: the
sha256 prefix of a report's stdout, or of a refusal's one stderr line
together with its exit code.  The child processes inherit the test's
environment, BLAS thread count included: ionchain runs its own BLAS
reductions on one thread, so the same lines hold under any count.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED = """\
fed3694797056f3b  run --protocol cluster6 --full --snapshots
63ec39433fe1f60d  run --protocol chain:10 --n-max 2 --snapshots
3361fb4cafcfb823  run --protocol chain:12 --n-max 2 --full
237354df184094d9  run --protocol chain:12 --n-max 2 --snapshots
c0977aa3ae799438  noise --protocol cluster6 --jitter-sigma 0.02 --trials 1000 --seed 1 --n-max 4
176db972113eedaa  noise --protocol chain:6 --jitter-sigma 0.3 --trials 50 --seed 2 --n-max 3
204642f665597fbe  run --protocol chain:4 --n-max 3 --full --snapshots
f54deb30f7055744  emit --protocol cluster6
e3b0c44298fc1c14  emit --protocol cluster6 --out cluster6.json
bab342cbd29f5e40  run --sequence cluster6.json --full
21087417cdc36668  noise --sequence carriers.json --jitter-sigma 0.05 --trials 200 --seed 3 --n-max 3
3c8bf1e5403fc1a4  run --sequence split.json --n-max 2 --snapshots
e4db2e29f357ad8d  noise --protocol chain:10 --jitter-sigma 0.02 --trials 20 --seed 1 --n-max 5
9b54de33879aef51  noise --protocol chain:2 --jitter-sigma 0.05 --trials 70000 --seed 4 --n-max 1
394bd994310f5336  exit 3  noise --protocol cluster6 --jitter-sigma 0.02 --trials 1000 --seed 1 --n-max 2
f5a3fedfbf670f76  exit 3  noise --protocol chain:10 --jitter-sigma 0.02 --trials 5 --seed 0 --n-max 4
5b6a1259d6dc2040  exit 3  noise --protocol cluster6 --jitter-sigma 2e-6 --trials 100 --seed 1 --n-max 2
0fe788f81573efb4  exit 3  run --sequence hot.json --n-max 1
0fe788f81573efb4  exit 3  noise --sequence hot.json --n-max 1 --jitter-sigma 0.1
1a54851e8bd3bc22  exit 2  run --sequence one.json --n-max 5
1c46f22438d1c93c  exit 2  noise --protocol cluster6 --jitter-sigma 1e308 --trials 3 --n-max 4
ee883e74cdd50108  exit 2  run --sequence twice.json
fcc7b09ca059d44a  exit 2  run --sequence theta.json
""".splitlines()


def _report_hashes():
    path = ROOT / "tools" / "report_hashes.py"
    spec = importlib.util.spec_from_file_location("report_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_report_and_refusal_line_is_pinned():
    tool = _report_hashes()
    assert len(PINNED) == len(tool.COMMANDS) + len(tool.FAILURES) == 23
    assert list(tool.hash_lines(str(ROOT / "src"))) == PINNED


def test_threaded_blas_moves_no_report_byte(monkeypatch):
    """The two reports that a threaded reduction would change keep their lines on two threads.

    Past about 10,000 amplitudes OpenBLAS splits ``np.vdot`` and
    ``np.linalg.norm`` across its threads, and the split rounds differently;
    these two commands were the ones whose bytes moved.  OpenBLAS caps its
    thread count at the number of CPUs, so on one CPU this passes trivially.
    """
    tool = _report_hashes()
    wanted = [line for line in PINNED
              if line.endswith(("split.json --n-max 2 --snapshots", "--seed 1 --n-max 5"))]
    assert len(wanted) == 2
    monkeypatch.setattr(tool, "COMMANDS", [line.split("  ")[-1].split() for line in wanted])
    monkeypatch.setattr(tool, "FAILURES", [])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert list(tool.hash_lines(str(ROOT / "src"))) == wanted
