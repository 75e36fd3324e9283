"""The fresh-process A/B tool of the CLI workloads: schedule, outputs, power."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from test_lib_ab import assert_entry

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_ab.py"


def copy_src(dest):
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_tool(parent, change, results):
    # With writing bytecode off, only the tool's own compiling gives the
    # children bytecode.
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(TOOL), str(parent), str(change),
         "--workload", "cli-verify", "--seconds", "0", "--json", str(results),
         "--labels", "before", "after"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""
    entry = json.loads(results.read_text())["cli-verify"]
    assert_entry("cli-verify", entry)
    assert entry["rounds"] == 2
    assert entry["env"]["bytecode"] == "compiled copy of each tree"
    assert entry["env"]["labels"] == {"parent": "before", "change": "after"}
    assert all("child_maxrss_kb" in row for row in entry["ops"].values())
    for tree in {parent, change} - {ROOT / "src"}:
        assert not list(tree.rglob("__pycache__")), tree
    return proc.stdout.splitlines(), entry


def test_schedule_is_abba(monkeypatch):
    # Importing the tool pins BLAS threads in os.environ; setenv restores them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    cli_ab = importlib.import_module("cli_ab")
    for n_ops in (1, 3, 4):
        for rounds in (2, 4, 10):
            first = [[0, 0] for _ in range(n_ops)]
            for r in range(rounds):
                runs = cli_ab.schedule(r, n_ops)
                assert sorted(runs) == [(k, t) for k in range(n_ops) for t in (0, 1)]
                assert [k for k, _ in runs] == sorted(k for k, _ in runs)
                for k in range(n_ops):
                    first[k][runs[2 * k][1]] += 1
                    # Neighbouring ops swap the order: A B B A within a round.
                    if k:
                        assert runs[2 * k][1] == runs[2 * k - 1][1]
            assert first == [[rounds // 2] * 2] * n_ops, (n_ops, rounds)


def test_same_tree_twice(tmp_path):
    src = copy_src(tmp_path / "src")
    lines, entry = run_tool(src, src, tmp_path / "bench.json")
    assert lines[0].startswith("cli_ab: cli-verify, seed 1, 3 ops, 2 rounds in ")
    assert lines[1].split() == ["op", "parent_ms", "change_ms", "ratio", "faster",
                                "parent_kb", "change_kb", "p_child_kb", "c_child_kb", "stdout"]
    assert len(entry["ops"]) == 3
    for name, row in entry["ops"].items():
        assert row["stdout_sha256"]["parent"] == row["stdout_sha256"]["change"], name
        assert row["vmhwm_kb"]["parent"] > 0 and row["vmhwm_kb"]["change"] > 0, name
    table = {line.split()[0]: line.split()[1:] for line in lines[2:5]}
    assert list(table) == list(entry["ops"])
    for name, (*_, parent_kb, change_kb, parent_child, change_child, stdout) in table.items():
        kb, child = entry["ops"][name]["vmhwm_kb"], entry["ops"][name]["child_maxrss_kb"]
        assert (int(parent_kb), int(change_kb), stdout) == (kb["parent"], kb["change"], "same")
        assert (int(parent_child), int(change_child)) == (child["parent"], child["change"])


def test_a_slower_tree_reads_slower_in_every_round(tmp_path):
    # The copy's cli.run sleeps 0.25 s first, 0.75 s per round of three
    # verify calls: several times the spread between fresh processes, so
    # the copy loses every round.  Its output is unchanged.  Its cli
    # refuses to run from anywhere but a compiled copy outside the tree.
    # It also forks a child that fills 128 MiB and exits: that peak shows in
    # its child_maxrss_kb, not in its own VmHWM.
    slow = copy_src(tmp_path / "slow" / "src")
    with open(slow / "binghamx" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nimport os\n\n"
                 f"if not os.path.isfile(__cached__) or __file__.startswith({str(slow)!r}):\n"
                 "    raise ImportError(f'binghamx.cli is not a compiled copy: {__file__}')\n"
                 "\n_run = run\n\n\ndef run(argv=None, out=None):\n"
                 "    import time\n    time.sleep(0.25)\n"
                 "    pid = os.fork()\n"
                 "    if pid == 0:\n        b'x' * (128 << 20)\n        os._exit(0)\n"
                 "    os.waitpid(pid, 0)\n"
                 "    return _run(argv, out)\n")
    _, entry = run_tool(ROOT / "src", slow, tmp_path / "bench.json")
    assert entry["total"]["faster"] == 0
    assert entry["total"]["ratio"] > 1
    for row in entry["ops"].values():
        assert row["stdout_sha256"]["parent"] == row["stdout_sha256"]["change"]
        assert row["child_maxrss_kb"]["parent"] == 0
        assert row["child_maxrss_kb"]["change"] > 128 << 10
        assert row["vmhwm_kb"]["change"] < row["child_maxrss_kb"]["change"]
