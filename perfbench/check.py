"""Judging answers against expected values.

A request fails when its answer is wrong, when the program crashes, when
it refuses a request it should answer, or when it times out.  Only a wrong
answer makes a run incorrect; every failure counts in ``failed``.  A
refusal the request expects (``GroupTooLarge`` under a small cap,
``ModeUnsupported``, CLI exit code 2 or 3) is a correct answer.
"""

from __future__ import annotations

import json

WRONG, CRASH, REFUSED, TIMEOUT = "wrong", "crash", "refused", "timeout"


def render(value) -> str:
    """A scalar or a list of scalars the way the CLI's text format prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return "[" + ", ".join(render(x) for x in value) + "]"
    return str(value)


def parse_text_tree(text: str) -> dict:
    """Read the CLI's text format back into nested dicts of strings."""
    root: dict = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        if not line.strip():
            continue
        indent = (len(line) - len(line.lstrip(" "))) // 2
        key, _, rest = line.strip().partition(":")
        while stack[-1][0] >= indent:
            stack.pop()
        node = stack[-1][1]
        if rest.strip() or rest.startswith(" "):
            node[key] = rest[1:]
        else:
            node[key] = {}
            stack.append((indent, node[key]))
    return root


def _get(tree, path):
    for part in path.split("."):
        if not isinstance(tree, dict) or part not in tree:
            return KeyError(path)
        tree = tree[part]
    return tree


def _same(got, expected, text: bool) -> bool:
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            _same(got.get(k), v, text) for k, v in expected.items())
    return got == render(expected) if text else got == expected


def check_fields(report, fields: dict, text: bool) -> str | None:
    """First mismatch between a report tree and the expected fields."""
    for path, expected in fields.items():
        got = _get(report, path)
        if isinstance(got, KeyError) or not _same(got, expected, text):
            return f"{path}: expected {expected!r}, got {got!r}"
    return None


def judge_call(out: dict, expect: dict):
    """(failure kind, detail) for one library call, or None when correct.

    ``expect`` is ``{"exc": name}`` for a refusal or ``{"ans": fields}``.
    """
    if "crash" in out:
        return CRASH, out["crash"]
    if "timeout" in out:
        return TIMEOUT, out["timeout"]
    exc = out.get("exc")
    if "exc" in expect:
        if exc == expect["exc"]:
            return None
        return WRONG, f"expected {expect['exc']}, got {exc or 'an answer'}"
    if exc is not None:
        return REFUSED, f"unexpected {exc}"
    for key, value in expect["ans"].items():
        got = out["ans"].get(key)
        if key == "report":
            bad = check_report(got, value)
            if bad:
                return WRONG, bad
        elif got != value:
            return WRONG, f"{key}: expected {value!r}, got {got!r}"
    return None


def check_report(emitted: dict, expect: dict) -> str | None:
    """An ``emit_report`` output, read back in its own format."""
    if not isinstance(emitted, str):
        return f"no report, got {emitted!r}"
    text = expect["format"] == "text"
    try:
        tree = parse_text_tree(emitted) if text else json.loads(emitted)
    except ValueError as e:
        return f"unreadable report: {e}"
    return check_fields(tree, expect["fields"], text)


def judge_cli(req: dict, code, stdout: bytes, stderr: bytes, expect_code: int, fields: dict):
    """(failure kind, detail) for one CLI call, or None when correct."""
    if code is None:
        return TIMEOUT, "no exit within the time limit"
    err = stderr.decode(errors="replace")
    if code not in (0, 2, 3) or "Traceback" in err:
        return CRASH, f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    if code != expect_code:
        kind = REFUSED if expect_code == 0 else WRONG
        return kind, f"exit {code}, expected {expect_code}: {err.strip()[:200]}"
    if code != 0:
        if stdout or not err.startswith("error:"):
            return WRONG, "a refusal must print only an error line on stderr"
        return None
    text = req["fmt"] == "text"
    try:
        tree = parse_text_tree(stdout.decode()) if text else json.loads(stdout)
    except ValueError as e:
        return WRONG, f"unreadable output: {e}"
    bad = check_fields(tree, fields, text)
    return (WRONG, bad) if bad else None


def self_check() -> list[str]:
    """The judge must fail a wrong expected value and pass an expected refusal."""
    problems = []
    answer = {"ans": {"dims": [1, 1, 0]}}
    if judge_call(answer, {"ans": {"dims": [1, 2, 0]}}) is None:
        problems.append("a wrong expected value was not flagged")
    if judge_call({"exc": "GroupTooLarge"}, {"exc": "GroupTooLarge"}) is not None:
        problems.append("an expected refusal was not counted as correct")
    if judge_call({"exc": "GroupTooLarge"}, {"ans": {"dims": [1]}}) is None:
        problems.append("an unexpected refusal was not flagged")
    text = b"type: ns\nns:\n  rank: 1\n  torsion: [2]\n"
    req = {"fmt": "text"}
    if judge_cli(req, 0, text, b"", 0, {"ns": {"rank": 1, "torsion": [2]}}) is not None:
        problems.append("a correct text report was flagged")
    if judge_cli(req, 0, text, b"", 0, {"ns": {"rank": 1, "torsion": []}}) is None:
        problems.append("a wrong text report was not flagged")
    if judge_cli(req, 3, b"", b"error: line 1, column 1: x\n", 3, {}) is not None:
        problems.append("an expected exit code 3 was not counted as correct")
    if judge_cli(req, 1, b"", b"Traceback (most recent call last):\n", 3, {})[0] != CRASH:
        problems.append("a crash was not flagged")
    return problems
