"""The in-process A/B tool of the lib-series ops: a short run on one tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "lib_ab.py"
OPS = ("power_sums", "psi", "inverse", "grad", "cov", "derived")


def test_same_tree_twice():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(TOOL), src, src, "--seconds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("lib_ab: seed 1, 32 matrices, ")
    rounds = int(lines[0].split(", ")[2].split()[0])
    assert lines[1].split() == ["op", "parent_ms", "change_ms", "ratio", "faster"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert list(rows) == [*OPS, "total"]
    for name, (parent, change, ratio, faster) in rows.items():
        assert float(parent) > 0 and float(change) > 0 and float(ratio) > 0, name
        assert 0 <= int(faster) <= rounds, name
    assert lines[-1].startswith("ratio change/parent = ")
    assert float(lines[-1].rpartition("=")[2]) > 0
