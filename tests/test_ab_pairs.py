"""Smoke test of ``tools/ab_pairs.py``: one pair of this tree against itself."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pair_of_the_same_tree_on_the_jitter_sweep():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "mc-cluster6", "--pairs", "1", "--seconds", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    number = r"(\d+\.\d{5})"
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    pair = re.fullmatch(rf"pair 1  parent {number} s  change {number} s  \(parent first\)", lines[0])
    assert pair, lines[0]
    for side, line, value in zip(("parent", "change"), lines[1:3], pair.groups()):
        # With one pair, the median and both quartiles are that pair's reading.
        assert line == f"{side}  op_s {value} [{value}-{value}] s over 1 pairs"
        assert 0.0 < float(value) < 60.0
    assert re.fullmatch(r"change faster in [01] of 1 pairs", lines[3])


def test_refuses_a_root_without_a_worker(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), str(tmp_path), str(ROOT),
         "--workload", "mc-cluster6", "--pairs", "1", "--seconds", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "holds no perfbench/worker.py" in proc.stderr
