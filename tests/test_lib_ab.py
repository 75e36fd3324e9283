"""The in-process A/B tool of the lib-series ops, and the A/B results files.

``tools/lib_ab.py`` and ``tools/cli_ab.py`` write one schema, checked here
by ``assert_entry`` on a short run and on every committed ``BENCH_*.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "lib_ab.py"
OPS = ("power_sums", "psi", "inverse", "grad", "cov", "derived")
TREES = ("parent", "change")


def assert_entry(workload: str, entry: dict) -> None:
    """``entry`` has the keys of an A/B result of ``workload``, consistently filled."""
    assert entry["tool"] == ("tools/cli_ab.py" if workload.startswith("cli-")
                             else "tools/lib_ab.py")
    env = {"machine", "cpus", "blas_threads", "python", "numpy"}
    # A CLI entry names how its children got binghamx's bytecode; older ones do not.
    # An entry may name the trees it compared (--labels).
    labels = env | {"labels"}
    assert set(entry["env"]) in ((env, env | {"bytecode"}, labels | {"bytecode"})
                                 if workload.startswith("cli-") else (env, labels))
    if "labels" in entry["env"]:
        assert list(entry["env"]["labels"]) == list(TREES)
        assert all(isinstance(name, str) and name for name in entry["env"]["labels"].values())
    assert entry["env"]["blas_threads"] == 1 and entry["env"]["cpus"] >= 1
    assert isinstance(entry["seed"], int) and entry["seconds"] >= 0 and entry["rounds"] >= 1
    assert entry["ops"]
    if workload.startswith("cli-"):
        assert entry["failed"] == []
    first_row = next(iter(entry["ops"].values()))
    for name, row in [*entry["ops"].items(), ("total", entry["total"])]:
        for tree in ("parent_ms", "change_ms"):
            q = row[tree]
            assert list(q) == ["q1", "median", "q3"], name
            assert 0 < q["q1"] <= q["median"] <= q["q3"], name
        assert row["ratio"] == pytest.approx(row["change_ms"]["median"] / row["parent_ms"]["median"])
        assert 0 <= row["faster"] <= entry["rounds"], name
        if workload.startswith("cli-") and name != "total":
            assert set(row["vmhwm_kb"]) == set(TREES) and min(row["vmhwm_kb"].values()) > 0
            # The largest peak of a CLI process's forked children, 0 when it
            # forked none; results from before the tool recorded it lack it.
            assert ("child_maxrss_kb" in row) == ("child_maxrss_kb" in first_row), name
            if "child_maxrss_kb" in row:
                assert set(row["child_maxrss_kb"]) == set(TREES), name
                assert all(isinstance(kb, int) and kb >= 0
                           for kb in row["child_maxrss_kb"].values()), name
            assert set(row["stdout_sha256"]) == set(TREES)
            assert all(len(sha) == 64 for sha in row["stdout_sha256"].values())
    assert sum(row["parent_ms"]["median"] for row in entry["ops"].values()) == \
        pytest.approx(entry["total"]["parent_ms"]["median"])


def test_same_tree_twice(tmp_path):
    src = str(ROOT / "src")
    results = tmp_path / "bench.json"
    results.write_text(json.dumps({"cli-dense": {"kept": True}}))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(TOOL), src, src, "--seconds", "1",
         "--json", str(results)],
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
    # The results file keeps the other entry and holds the table's numbers.
    written = json.loads(results.read_text())
    assert list(written) == ["cli-dense", "lib-series"]
    assert written["cli-dense"] == {"kept": True}
    entry = written["lib-series"]
    assert_entry("lib-series", entry)
    assert "labels" not in entry["env"]
    assert (entry["seed"], entry["seconds"], entry["rounds"]) == (1, 1.0, rounds)
    assert list(entry["ops"]) == list(OPS)
    for name, (parent, change, ratio, faster) in rows.items():
        row = entry["total"] if name == "total" else entry["ops"][name]
        assert f"{row['parent_ms']['median']:.3f}" == parent, name
        assert f"{row['change_ms']['median']:.3f}" == change, name
        assert f"{row['ratio']:.3f}" == ratio and row["faster"] == int(faster), name


def test_labels_name_the_trees(tmp_path):
    src = str(ROOT / "src")
    results = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(TOOL), src, src, "--seconds", "0",
         "--json", str(results), "--labels", "38fe322", "work tree"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(results.read_text())["lib-series"]
    assert_entry("lib-series", entry)
    assert entry["env"]["labels"] == {"parent": "38fe322", "change": "work tree"}


def test_committed_results_files():
    # Each BENCH_*.json at the repository root holds one entry per workload
    # of BENCHMARK.json it covers, in the tools' schema.
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        results = json.loads(path.read_text())
        assert results and set(results) <= workloads, path.name
        for workload, entry in results.items():
            assert_entry(workload, entry)
