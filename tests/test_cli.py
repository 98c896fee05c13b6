"""Command line interface: subcommands, formats, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import helpers as z
from chevalley_chow import chow, cli, invariants, lattice, rootdata
from chevalley_chow.formats import parse_descriptor
from chevalley_chow.rootdata import simple_reflection


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(name):
    return str(z.FIXTURE_DIR / f"{name}.json")


SL2 = None
SEMIAB = None


def setup_module():
    global SL2, SEMIAB
    SL2 = fixture_path("product_sl2")
    SEMIAB = fixture_path("semiabelian")


COMMANDS = [
    ("validate",),
    ("picard",),
    ("ns",),
    ("chow", "--max-degree", "2"),
    ("chow", "--max-degree", "2", "--rational"),
    ("hchow", "borel", "--max-degree", "2"),
    ("hpic", "borel"),
    ("hpic", "borel", "--integral"),
    ("complete", "borel"),
    ("structure",),
    ("cover",),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: "-".join(c))
def test_every_subcommand_succeeds(capsys, cmd, fmt):
    head, tail = cmd[0], list(cmd[1:])
    sub = []
    if head in ("hchow", "hpic", "complete"):
        sub = [tail.pop(0)]
    code, out, err = run_cli(capsys, head, *sub, SL2, *tail, "--format", fmt)
    assert code == 0, err
    assert out
    if fmt == "json":
        data = json.loads(out)
        assert data.get("schema", "chevalley-chow/1") == "chevalley-chow/1"


def test_validate_reports_all_subgroups(capsys):
    code, out, _ = run_cli(capsys, "validate", SL2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "validation_batch" and data["ok"] is True
    names = {r["subject"] for r in data["reports"]}
    assert "product_sl2" in names and "nlt" in names


def test_picard_json_values(capsys):
    code, out, _ = run_cli(capsys, "picard", fixture_path("product_pgl2"),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ns"] == {"rank": 1, "torsion": [2]}
    assert data["sequence"]["pic_gaff"] == {"rank": 0, "torsion": [2]}


def test_nlt_example_through_cli(capsys):
    code, out, _ = run_cli(capsys, "hchow", "nlt", SL2, "--max-degree", "1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["concrete_factor"]["dims"] == [1, 0]
    assert data["j_rank"] == 0
    code, out, _ = run_cli(capsys, "hpic", "nlt", SL2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["picard"]["mode"] == "rational"
    assert data["picard"]["ns"] == {"rank": 1, "torsion": []}
    assert data["picard"]["x_part"] == {"rank": 0, "torsion": []}


def test_complete_text_contains_witness(capsys):
    code, out, _ = run_cli(capsys, "complete", "neg_borel", SL2)
    assert code == 0
    assert "weyl_word" in out and "[0]" in out
    code, out, _ = run_cli(capsys, "complete", "torus", SL2)
    assert code == 0
    assert "answer: no" in out


def test_structure_batch(capsys):
    code, out, _ = run_cli(capsys, "structure", SEMIAB, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["albanese_split"]["answer"] == "no"
    assert data["affinization"]["trivial"]["answer"] == "yes"
    assert "gaff" in data["subgroups"]
    assert data["subgroups"]["gaff"]["fibration"]["translation_index_bound"] == 1


def test_cover_output_reparses(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cover", fixture_path("product_pgl2"),
                           "--format", "json")
    assert code == 0
    doc = parse_descriptor(out)
    assert doc.group.rd.simple_roots.rows == ((2,),)
    p = tmp_path / "cover.json"
    p.write_text(out)
    code, _, _ = run_cli(capsys, "validate", str(p))
    assert code == 0


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "chow", SL2, "--max-degree", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "chow", SL2, "--max-degree", "3", "--format", "json")
    assert out1 == out2


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, "picard", "/no/such/file.json")
    assert code == 3
    assert "error" in err


def test_empty_file_exits_3(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_bytes(b"")
    code, _, err = run_cli(capsys, "validate", str(p))
    assert code == 3
    assert "line 1, column 1" in err


def test_schema_error_exits_3(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"group": {"root_datum": {"rank": 1}}}')
    code, _, err = run_cli(capsys, "validate", str(p))
    assert code == 3
    assert "abelian" in err


def test_characteristic_not_prime_exits_3(tmp_path, capsys):
    # a torus glued to an elliptic curve, in the meaningless characteristic 4
    doc = {"group": {"root_datum": {"rank": 1, "simple_roots": [], "simple_coroots": []},
                     "abelian": {"g": 1, "ns_rank": 1},
                     "gluing": {"xd_rank": 1, "v": [[1]], "xd_relations": [[4]], "char": 4}}}
    p = tmp_path / "char4.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 3
    assert out == ""
    assert "group.gluing: characteristic 4 is neither 0 nor a prime" in err


@pytest.mark.parametrize("blob", [
    b'{"group": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"group": {"abelian": {"g": "' + b"1" * 5000 + b'"}}}',
], ids=["deep-nesting", "huge-decimal"])
def test_pathological_input_exits_3(tmp_path, capsys, blob):
    p = tmp_path / "bad.json"
    p.write_bytes(blob)
    code, out, err = run_cli(capsys, "picard", str(p))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_invalid_group_exits_2(tmp_path, capsys):
    bad = {
        "group": {
            "root_datum": {"rank": 1, "simple_roots": [[1]],
                           "simple_coroots": [[1]]},
            "abelian": {"g": 0, "ns_rank": 0},
            "gluing": {"xd_rank": 0, "v": []},
        }
    }
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(bad))
    for cmd in (("validate",), ("picard",)):
        code, out, err = run_cli(capsys, *cmd, str(p))
        assert code == 2
        assert "cartan" in (out + err).lower()


SL2_GROUP = {
    "root_datum": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    "abelian": {"g": 0, "ns_rank": 0},
    "gluing": {"xd_rank": 0, "v": []},
}
BAD_SUBGROUPS = {
    "root_out_of_range": {"q": [[1]], "roots": [[5, 1], [5, -1]]},
    "q_not_onto": {"q": [[2]], "roots": [[0, 1], [0, -1]],
                   "component_group": {"generators": [[[-1]]]}},
}


@pytest.mark.parametrize("sub", sorted(BAD_SUBGROUPS))
def test_invalid_subgroup_exits_2(tmp_path, capsys, sub):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"group": SL2_GROUP, "subgroups": {sub: BAD_SUBGROUPS[sub]}}))
    for cmd in (("validate",), ("hpic", sub), ("hchow", sub), ("complete", sub)):
        code, out, err = run_cli(capsys, cmd[0], *cmd[1:], str(p))
        assert code == 2, err
        assert "passed: false" in out


def test_large_torsion_order_exits_2_fast(tmp_path, capsys):
    big = "1000000000000000000000007"
    doc = {"group": {**SL2_GROUP, "abelian": {"g": 1, "ns_rank": 1},
                     "gluing": {"xd_rank": 1, "v": [[0]], "xd_relations": [[big]]}},
           "subgroups": {"t": {"q": [[1]]}}}
    p = tmp_path / "torsion.json"
    p.write_text(json.dumps(doc))
    for cmd in (("validate",), ("picard",), ("chow",), ("structure",), ("cover",), ("hpic", "t")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, cmd[0], *cmd[1:], str(p))
        assert code == 2, err
        assert time.perf_counter() - start < 1.0, cmd


def test_unknown_subgroup_exits_2(capsys):
    code, out, err = run_cli(capsys, "hpic", "nosuch", SL2)
    assert code == 2
    assert out == ""
    assert err == ("error: no subgroup named 'nosuch'; descriptor defines ['trivial', 'torus', "
                   "'borel', 'neg_borel', 'torus_ant', 'full_aff', 'full_aff_ant', 'nlt', 'ant']\n")


def test_integral_mode_refusal_exits_2(capsys):
    code, _, err = run_cli(capsys, "hpic", "nlt", SL2, "--integral")
    assert code == 2
    assert "integral" in err


@pytest.mark.parametrize("head, tail", [
    (("chow",), ("--max-degree", "-1")),
    (("chow",), ("--max-degree", "-1", "--rational")),
    (("hchow", "borel"), ("--max-degree", "-2")),
])
def test_negative_max_degree_exits_2(capsys, head, tail):
    with pytest.raises(SystemExit) as ei:
        cli.main([*head, SL2, *tail])
    captured = capsys.readouterr()
    assert ei.value.code == 2
    assert captured.out == ""
    assert "--max-degree" in captured.err and "nonnegative" in captured.err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_exits_2(capsys, cap):
    with pytest.raises(SystemExit) as ei:
        cli.main(["chow", fixture_path("semiabelian"), "--cap", cap])
    captured = capsys.readouterr()
    assert ei.value.code == 2
    assert captured.out == ""
    assert "--cap" in captured.err and "positive" in captured.err


@pytest.mark.parametrize("option, text", [
    ("--max-degree", "x"), ("--max-degree", "2.5"), ("--cap", "1e3"), ("--cap", ""),
])
def test_non_integer_option_exits_2_without_parser_names(capsys, option, text):
    with pytest.raises(SystemExit) as ei:
        cli.main(["chow", fixture_path("semiabelian"), option, text])
    captured = capsys.readouterr()
    assert ei.value.code == 2
    assert captured.out == ""
    assert f"{option}: expected an integer, got {text!r}" in captured.err
    assert "_max_degree" not in captured.err and "_cap" not in captured.err


def test_cap_exceeded_exits_2(capsys):
    code, _, err = run_cli(capsys, "chow", SL2, "--max-degree", "1", "--cap", "1")
    assert code == 2
    assert "cap" in err or "large" in err


@pytest.mark.parametrize("argv", [
    ("chow", "cover_torsion", "--max-degree", "65"),
    ("chow", "cover_torsion", "--max-degree", "65", "--rational"),
    ("hchow", "trivial", "cover_torsion", "--max-degree", "65"),
    ("hchow", "borel", "product_sl2", "--max-degree", "100"),
])
def test_degree_past_budget_exits_2(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("the degree budget must be checked before any work")

    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(chow, "truncated_quotient", no_work)
    monkeypatch.setattr(chow, "codegree_histogram", no_work)
    argv = [fixture_path(a) if a in z.FIXTURE_NAMES else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "exceeds budget 64" in err


def test_slice_past_budget_exits_2(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the slice budget must be checked before any slice")

    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(chow, "truncated_quotient", no_work)
    code, out, err = run_cli(capsys, "hchow", "trivial", fixture_path("cover_torsion"), "--max-degree", "64")
    assert code == 2
    assert out == ""
    assert "dimension 2145, which exceeds budget 21" in err


@pytest.mark.parametrize("sub, top, dims", [
    ("torus", 21, [1, 1] + [0] * 20),  # K = 1: 1/(1 - t)^2 times (1 - t)(1 - t^2)
    ("swap_component", 30, [1] + [0] * 30),  # K = W: S^K = S^W
])
def test_full_rank_past_the_slice_budget_answers(capsys, monkeypatch, sub, top, dims):
    def no_work(*args):
        raise AssertionError("the closed series builds no slice")

    # the slice budget binds the elimination route only, so a full-rank H
    # with a trivial or recognized K answers past it
    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(chow, "truncated_quotient", no_work)
    code, out, err = run_cli(capsys, "hchow", sub, fixture_path("gl2_center"), "--max-degree", str(top),
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["concrete_factor"]["dims"] == dims


@pytest.mark.parametrize("tail", [(), ("--rational",)])
def test_chow_at_budget_computes_no_slice(capsys, monkeypatch, tail):
    def no_work(*args):
        raise AssertionError("chow reads its dims off W, not off invariant slices")

    monkeypatch.setattr(invariants, "invariant_slice", no_work)
    monkeypatch.setattr(invariants, "ideal_slice", no_work)
    monkeypatch.setattr(chow, "truncated_quotient", no_work)
    code, out, _ = run_cli(capsys, "chow", fixture_path("cover_torsion"), "--max-degree", "64", *tail)
    assert code == 0
    assert "max_degree: 64" in out


def test_component_group_closed_once_per_request(tmp_path, capsys, monkeypatch):
    calls = []
    closure = lattice.group_closure
    monkeypatch.setattr(lattice, "group_closure",
                        lambda gens, n, cap: calls.append(tuple(gens)) or closure(gens, n, cap))
    rootdata._matrix_group_order.cache_clear()
    # validation, X(H) and the invariant ring all need the order of the
    # component group; the rotation s0 s1 of order 3 is no reflection group,
    # so it is closed as a matrix group, once for all three
    rot3 = simple_reflection(z.sl3, 0) @ simple_reflection(z.sl3, 1)
    doc = {"group": {"root_datum": {"rank": 2, "simple_roots": [[2, -1], [-1, 2]],
                                    "simple_coroots": [[1, 0], [0, 1]]},
                     "abelian": {"g": 0, "ns_rank": 0}, "gluing": {"xd_rank": 0, "v": []}},
           "subgroups": {"rot3": {"q": [[1, 0], [0, 1]],
                                  "component_group": {"generators": [[list(r) for r in rot3.rows]],
                                                      "translations": [False]}}}}
    p = tmp_path / "rot3.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "hchow", "rot3", str(p), "--max-degree", "2")
    assert code == 0
    assert calls == [(rot3,)]
    # the component group {1, -1} is the Weyl group of A1: its order is read
    # off the Cartan type, and no request closes it
    calls.clear()
    code, _, _ = run_cli(capsys, "hchow", "nlt", SL2, "--max-degree", "2")
    assert code == 0
    assert calls == []


def test_version_matches_pyproject():
    import re

    import chevalley_chow

    pyproject = (z.FIXTURE_DIR.parent / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert chevalley_chow.__version__ == declared.group(1)


def test_console_script_end_to_end():
    # the child must import the same package as this process, installed or not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "chevalley_chow.cli", "ns", SL2, "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ns"] == {"rank": 1, "torsion": []}


def test_hpic_builds_one_picard_report(capsys, monkeypatch):
    calls = []
    restrict = chow.restriction_to_subgroup
    monkeypatch.setattr(chow, "restriction_to_subgroup", lambda *a: calls.append(a) or restrict(*a))
    for argv in (("borel", SL2), ("borel", SL2, "--integral"), ("nlt", SL2)):
        calls.clear()
        code, _, _ = run_cli(capsys, "hpic", *argv)
        assert code == 0 and len(calls) == 1, argv
