"""Exact demo outputs, checked against a committed file.

Each case runs one script under ``demos/`` in a fresh interpreter from the
repository root with ``PYTHONPATH=src``: the four Python demos, and the CLI
tour through ``sh``.  The golden file records the exit code and the exact
stdout text.

Regenerate the golden file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_demos.json"

CASES = {
    **{p.name: [sys.executable, str(p.relative_to(ROOT))]
       for p in sorted(ROOT.glob("demos/0[1-4]_*.py"))},
    "05_cli_tour.sh": ["sh", "demos/05_cli_tour.sh"],
}


def run(argv: list[str]) -> dict:
    """Exit code and stdout of one demo, run from the repository root."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    return {"code": done.returncode, "stdout": done.stdout}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_demo(golden):
    assert len(CASES) == 5
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_demo_output_matches_golden(golden, name):
    assert run(CASES[name]) == golden[name]


def _regenerate():
    golden = {name: run(argv) for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
