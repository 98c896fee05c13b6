"""Byte-exact CLI outputs on every fixture, checked against a committed file.

Each case is one ``cli.main`` call, run in-process: every plain subcommand
on every fixture, every subgroup subcommand (``hchow``, ``hpic``,
``hpic --integral``, ``complete``) on every subgroup, each in both output
formats.  The golden file records the exit code and the exact stdout bytes.

Regenerate the golden file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

import helpers as z
from chevalley_chow import cli, descriptors, lattice

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

PLAIN = (("validate",), ("picard",), ("ns",), ("chow",), ("chow", "--rational"),
         ("structure",), ("cover",))
PER_SUBGROUP = (("hchow",), ("hpic",), ("hpic", "--integral"), ("complete",))


def cases() -> list[tuple[str, list[str]]]:
    """(case id, argv) pairs; a case id names fixture, command and format."""
    out = []
    for name in z.FIXTURE_NAMES:
        path = str(z.FIXTURE_DIR / f"{name}.json")
        subs = json.loads(z.fixture_bytes(name)).get("subgroups", {})
        for fmt in ("json", "text"):
            for cmd in PLAIN:
                argv = [cmd[0], path, *cmd[1:], "--format", fmt]
                out.append((":".join([name, *cmd, fmt]), argv))
            for sub in subs:
                for cmd in PER_SUBGROUP:
                    argv = [cmd[0], sub, path, *cmd[1:], "--format", fmt]
                    out.append((":".join([name, cmd[0], sub, *cmd[1:], fmt]), argv))
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert len(CASES) == 250
    assert sorted(golden) == sorted(case_id for case_id, _ in CASES)


@pytest.mark.parametrize("case_id,argv", CASES, ids=[c for c, _ in CASES])
def test_cli_output_matches_golden(capsysbinary, golden, case_id, argv):
    want = golden[case_id]
    code = cli.main(argv)
    out = capsysbinary.readouterr().out
    assert code == want["code"]
    assert out == want["stdout"].encode("utf-8")


def test_every_solve_has_a_unique_solution(monkeypatch, capsysbinary):
    """Every integer system the CLI solves on the golden cases has a zero
    kernel, so any solution is the solution and output cannot depend on
    which one the elimination picks."""
    seen = []
    real = lattice.solve_integer

    def recording(m, b):
        seen.append(m)
        return real(m, b)

    for mod in (lattice, descriptors):
        monkeypatch.setattr(mod, "solve_integer", recording)
    for _, argv in CASES:
        cli.main(argv)
    capsysbinary.readouterr()
    assert seen
    assert all(lattice.integer_kernel(m).nrows == 0 for m in set(seen))


def _regenerate():
    golden = {}
    for case_id, argv in CASES:
        buf = io.BytesIO()
        wrapper = io.TextIOWrapper(buf, encoding="utf-8")
        with redirect_stdout(wrapper), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        wrapper.detach()
        golden[case_id] = {"code": code, "stdout": buf.getvalue().decode("utf-8")}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
