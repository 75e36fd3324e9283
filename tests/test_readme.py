"""README.md states what the package computes and guarantees; these tests hold it to the code.

* The quick tour runs as written, in development mode with warnings as errors.
* The prose quotes no timings: measurements live in the BENCH_*.json files
  and CHANGES.md, where they carry their machine and setup.
* The usage block lists exactly the CLI's subcommands.
* The verify thresholds it quotes are those ``family_threshold`` gives
  (tests/test_oracle.py checks the rounding).
"""

import argparse
import re
from pathlib import Path

import pytest
from conftest import fresh_python

from binghamx import cli

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.M | re.S)
#: A number followed by a unit of time.
TIMING = re.compile(r"\d\s*(?:ns|[µμ]s|ms|s)\b")


@pytest.fixture(scope="module")
def text() -> str:
    return README.read_text(encoding="utf-8")


def fenced_blocks(text: str, info: str | None = None) -> list[str]:
    """The bodies of the fenced blocks, those with info string ``info`` if given."""
    return [body for lang, body in FENCE.findall(text) if info is None or lang == info]


def section(text: str, heading: str) -> str:
    """The text from the line ``heading`` to the next heading of its level."""
    level = heading.split(" ", 1)[0]
    start = text.index(f"\n{heading}\n")
    end = text.find(f"\n{level} ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_quick_tour_runs(text):
    [tour] = fenced_blocks(section(text, "## Library quick tour"), "python")
    assert "\nassert " in f"\n{tour}"
    done = fresh_python(tour + "print('tour done')\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "tour done\n" and done.stderr == ""


def test_no_timings_outside_fenced_blocks(text):
    prose = FENCE.sub("", text)
    assert TIMING.findall(prose) == []
    for phrase in ("best of", "median of", "medians of"):
        assert phrase not in prose.lower(), phrase


def test_usage_block_lists_the_subcommands(text):
    usage = fenced_blocks(section(text, "## CLI"))[0]
    listed = [line.split()[1] for line in usage.splitlines()]
    assert all(line.startswith("binghamx ") for line in usage.splitlines())
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)


def test_verify_thresholds_are_stated(text):
    report = section(text, "### The `verify` report")
    for t in ("3.86", "5.13", "5.59"):
        assert t in report, t
