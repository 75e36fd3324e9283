"""The package namespace: its public names, lazy submodules and no-caching rule."""

import sys

import pytest
from conftest import fresh_python

import binghamx

LAZY = ("symmat", "zonal", "series", "oracle")


def test_public_names_resolve_to_their_definitions():
    listed = dir(binghamx)
    for name in binghamx.__all__:
        source = binghamx._SOURCE[name]
        value = getattr(binghamx, name)
        assert value is getattr(sys.modules[f"binghamx.{source}"], name), name
        # Functions and classes name the module that defines them.
        assert getattr(value, "__module__", f"binghamx.{source}") == f"binghamx.{source}", name
        assert name in listed


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
