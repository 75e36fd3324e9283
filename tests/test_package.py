"""The package namespace: its public names, lazy submodules and no-caching rule."""

import ast
import re
import sys
from pathlib import Path

import pytest
from conftest import fresh_python

import binghamx

LAZY = ("symmat", "zonal", "series", "oracle")
ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_to_their_definitions():
    listed = dir(binghamx)
    for name in binghamx.__all__:
        source = binghamx._SOURCE[name]
        value = getattr(binghamx, name)
        assert value is getattr(sys.modules[f"binghamx.{source}"], name), name
        # Functions and classes name the module that defines them.
        assert getattr(value, "__module__", f"binghamx.{source}") == f"binghamx.{source}", name
        assert name in listed


def test_public_names_are_used_by_program_code():
    # A public name only tests call is test-only library code.  Program
    # code is the package outside __init__.py, the benchmark, the tools
    # and the acceptance tests; a name's own def or class line is no use.
    files = [p for p in (ROOT / "src" / "binghamx").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    lines = [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in binghamx.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def test_private_names_are_used_by_program_code():
    # A module-level private name of the package that only tests use is
    # test-only library code.  Program code is the package, the benchmark
    # and the tools.  A use is a name, an attribute or an import alias
    # outside the module-level statement that defines the name, so neither
    # a docstring nor the name's own body or assignment counts.
    package = ROOT / "src" / "binghamx"
    files = [*package.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
             *(ROOT / "tools").rglob("*.py")]
    defined, used = set(), set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            if package in path.parents:
                defined |= {name for name in own if re.fullmatch(r"_[^_]\w*", name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                if name not in own:
                    used.add(name)
    assert sorted(defined - used) == []


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        binghamx.no_such_name
    with pytest.raises(ImportError):
        from binghamx import no_such_name  # noqa: F401


def test_names_are_looked_up_on_every_access(monkeypatch):
    def replacement(sigma, k):
        return None

    monkeypatch.setattr(binghamx.symmat, "power_sums", replacement)
    assert binghamx.power_sums is replacement
    monkeypatch.undo()
    assert binghamx.power_sums is not replacement
    assert binghamx.power_sums is binghamx.symmat.power_sums


def test_import_registers_every_submodule_without_numpy():
    proc = fresh_python(
        "import sys, binghamx\n"
        "names = ('symmat', 'series', 'zonal', 'partitions', 'bounds', 'oracle')\n"
        "print(all(f'binghamx.{n}' in sys.modules for n in names), 'numpy' in sys.modules)\n"
        "print(binghamx.symmat is sys.modules['binghamx.symmat'])\n"
        "binghamx.power_sums\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # Every submodule is registered at import; numpy loads on first use of one.
    assert proc.stdout.splitlines() == ["True False", "True", "True"]
