"""Smoke test of ``tools/peak_rss.py`` on one small CLI command."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_peak_wall_time_and_exit_code_of_one_cli_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), str(ROOT / "src"),
         "emit", "--protocol", "cluster6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    line = re.fullmatch(r"peak_rss_mib (\d+\.\d)  wall_s (\d+\.\d{3})  exit (-?\d+)\n", proc.stdout)
    assert line, proc.stdout
    peak, wall, code = float(line[1]), float(line[2]), int(line[3])
    assert code == 0
    assert 1.0 < peak < 1024.0  # numpy alone takes more than 1 MiB
    assert wall > 0.0
