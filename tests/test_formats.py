"""Descriptor parsing (strict schema) and report serialization."""

import json
from fractions import Fraction

import pytest

import helpers as z
from chevalley_chow import formats
from chevalley_chow._record import Record
from chevalley_chow.chow import picard_group, chow_presentation, homogeneous_picard
from chevalley_chow.descriptors import validate_group, validate_subgroup
from chevalley_chow.errors import DescriptorSyntaxError, SchemaError
from chevalley_chow.formats import (
    DescriptorDocument,
    emit_report,
    jsonable,
    parse_descriptor,
)
from chevalley_chow.lattice import IntMatrix
from chevalley_chow.structure import completeness_test, fibration_report


def test_fixtures_parse_and_validate(fixture_doc):
    assert validate_group(fixture_doc.group).ok
    for name, hd in fixture_doc.subgroups:
        assert validate_subgroup(fixture_doc.group, hd).ok, name


def test_round_trip_is_identity(fixture_doc):
    blob = emit_report(fixture_doc, "json")
    again = parse_descriptor(blob)
    assert again == fixture_doc
    assert emit_report(again, "json") == blob


def test_fixture_matches_zoo():
    doc = parse_descriptor(z.fixture_bytes("product_sl2"))
    assert doc.group == z.product_sl2
    assert doc.subgroup("borel") == z.borel
    assert doc.subgroup("nlt") == z.nlt
    assert doc.subgroup("trivial") == z.trivial1
    with pytest.raises(KeyError):
        doc.subgroup("nope")
    doc = parse_descriptor(z.fixture_bytes("semiabelian"))
    assert doc.group == z.semiab
    doc = parse_descriptor(z.fixture_bytes("cover_torsion"))
    assert doc.group == z.cover_torsion


def test_syntax_error_positions():
    with pytest.raises(DescriptorSyntaxError) as ei:
        parse_descriptor(b"")
    assert ei.value.line == 1 and ei.value.col == 1
    with pytest.raises(DescriptorSyntaxError) as ei:
        parse_descriptor(b'{"group": }')
    assert ei.value.line == 1 and ei.value.col == 11
    with pytest.raises(DescriptorSyntaxError) as ei:
        parse_descriptor(b'{\n "group": {,}\n}')
    assert ei.value.line == 2
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor(b"\xff\xfe garbage")


def test_parser_is_total_on_pathological_input():
    # nesting past the recursion limit of the JSON decoder
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor(b'{"group": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
    # an integer literal past CPython's int/str digit limit
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor(b'{"group": ' + b"1" * 5000 + b"}")
    # a decimal string past the same limit
    expect_schema_error(mutate(lambda d: d["group"]["abelian"].update(g="1" * 5000)),
                        "abelian.g")
    # a string str.isdigit accepts but int() does not
    expect_schema_error(mutate(lambda d: d["group"]["abelian"].update(g="\u00b2")),
                        "abelian.g")
    # non-ASCII decimal digits int() would accept (Arabic-Indic three)
    expect_schema_error(mutate(lambda d: d["group"]["abelian"].update(g="-\u0663")),
                        "abelian.g")


MINIMAL = {
    "group": {
        "root_datum": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
        "abelian": {"g": 1, "ns_rank": 1},
        "gluing": {"xd_rank": 0, "v": []},
    }
}


def mutate(path_edit):
    doc = json.loads(json.dumps(MINIMAL))
    path_edit(doc)
    return json.dumps(doc).encode()


def expect_schema_error(blob, path_fragment):
    with pytest.raises(SchemaError) as ei:
        parse_descriptor(blob)
    assert path_fragment in ei.value.path, (ei.value.path, ei.value.reason)


BYTES_LIKE = (bytes, bytearray, memoryview)


def test_equal_input_returns_one_shared_document():
    blobs = [z.fixture_bytes(name) for name in z.FIXTURE_NAMES]
    docs = [parse_descriptor(blob) for blob in blobs]
    # equal input in another object and of each bytes-like type, after
    # every other fixture has been parsed in between
    for blob, doc in zip(blobs, docs):
        assert all(parse_descriptor(kind(bytearray(blob))) is doc for kind in BYTES_LIKE)


@pytest.mark.parametrize("encode", [
    lambda text: text.encode("utf-16"),
    lambda text: text.encode("utf-8-sig"),
    lambda text: text.encode("utf-8")[:-2] + b"\xff}",
], ids=["utf-16", "utf-8-bom", "invalid-utf-8"])
def test_bytes_like_inputs_decode_as_utf8_alike(encode):
    blob = encode(z.fixture_bytes("product_sl2").decode())
    refusals = set()
    for kind in BYTES_LIKE:
        with pytest.raises(DescriptorSyntaxError) as ei:
            parse_descriptor(kind(blob))
        refusals.add(str(ei.value))
    assert len(refusals) == 1


@pytest.mark.parametrize("blob", [
    b'{"group": }', b"\xff\xfe garbage", b"{}",
    mutate(lambda d: d["group"]["abelian"].update(g=True)),
], ids=["syntax", "utf-8", "schema", "schema-bool"])
def test_malformed_input_is_refused_alike_on_every_call_and_never_cached(blob):
    formats._parsed.cache_clear()
    refusals = set()
    for kind in (*BYTES_LIKE, bytes):
        with pytest.raises((DescriptorSyntaxError, SchemaError)) as ei:
            parse_descriptor(kind(blob))
        refusals.add((type(ei.value), str(ei.value)))
    assert len(refusals) == 1
    assert formats._parsed.cache_info().currsize == 0


def test_parsed_documents_hold_only_immutable_values(fixture_doc):
    stack, checked = [fixture_doc], 0
    while stack:
        obj = stack.pop()
        checked += 1
        if isinstance(obj, (Record, IntMatrix)):
            field = next(iter(obj._fields)) if isinstance(obj, Record) else "rows"
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
            stack.extend(vars(obj).values() if isinstance(obj, Record) else (obj.rows,))
        else:
            assert type(obj) in (tuple, int, str, bool, Fraction), type(obj)
            if type(obj) is tuple:
                stack.extend(obj)
    assert checked > 10


def test_schema_unknown_keys_fatal():
    expect_schema_error(b"{}", "")
    expect_schema_error(mutate(lambda d: d["group"]["gluing"].update(xd_rnk=0)),
                        "gluing.xd_rnk")
    expect_schema_error(mutate(lambda d: d.update(extra=1)), "extra")
    expect_schema_error(mutate(lambda d: d["group"]["root_datum"].update(rk=1)),
                        "root_datum.rk")


def test_schema_type_and_shape_errors():
    expect_schema_error(mutate(lambda d: d["group"]["abelian"].update(g=-1)),
                        "group.abelian")
    expect_schema_error(mutate(lambda d: d["group"]["abelian"].update(g=True)),
                        "abelian.g")
    expect_schema_error(
        mutate(lambda d: d["group"]["root_datum"].update(simple_roots=[[2, 0]])),
        "simple_roots")
    expect_schema_error(
        mutate(lambda d: d["group"]["root_datum"].update(simple_roots=[[2], [1]])),
        "root_datum")  # two roots, one coroot
    expect_schema_error(mutate(lambda d: d["group"]["gluing"].update(v=[[1]])),
                        "gluing.v")
    expect_schema_error(
        mutate(lambda d: d.update(subgroups={"b": {"q": [[1]], "roots": [[0, 2]]}})),
        "subgroups.b.roots")
    expect_schema_error(
        mutate(lambda d: d.update(subgroups={"b": {"q": [[1, 0]]}})),
        "subgroups.b.q")
    expect_schema_error(
        mutate(lambda d: d["group"]["abelian"].update(ns_torsion=[0])),
        "ns_torsion")
    # a bad matrix entry is named by its own path, whatever its type
    for bad, reason in ((True, "expected an integer, got a boolean"),
                        (1.0, "expected an integer (or a decimal string)"),
                        ([1], "expected an integer (or a decimal string)"),
                        ("x", "not an integer string: 'x'")):
        with pytest.raises(SchemaError) as ei:
            parse_descriptor(mutate(lambda d: d["group"]["root_datum"].update(simple_roots=[[bad]])))
        assert (ei.value.path, ei.value.reason) == ("group.root_datum.simple_roots[0][0]", reason)
    # a ragged row, against the known width and against the first row's
    with pytest.raises(SchemaError) as ei:
        parse_descriptor(mutate(lambda d: d.update(subgroups={"b": {"q": [[1], [1, 0]]}})))
    assert (ei.value.path, ei.value.reason) == ("subgroups.b.q[1]", "row has 2 entries, expected 1")
    with pytest.raises(SchemaError) as ei:
        formats._matrix([[1, 2], [3]], "m")
    assert (ei.value.path, ei.value.reason) == ("m[1]", "row has 1 entries, expected 2")
    # an empty matrix takes its known width; with none known it is refused
    assert parse_descriptor(mutate(lambda d: None)).group.gluing.v_matrix.shape == (0, 1)
    assert formats._matrix([], "m", ncols=3).shape == (0, 3)
    with pytest.raises(SchemaError) as ei:
        formats._matrix([], "m")
    assert (ei.value.path, ei.value.reason) == ("m", "cannot infer the width of an empty matrix here")
    # a decimal string among plain ints parses to the same matrix
    def relations(rows):
        return mutate(lambda d: d["group"]["gluing"].update(xd_rank=2, v=[[1], [0]], xd_relations=rows))

    doc = parse_descriptor(relations([[2, "-4"], [0, 6]]))
    assert doc == parse_descriptor(relations([[2, -4], [0, 6]]))
    assert doc.group.gluing.xd.relations.rows == ((2, -4), (0, 6))
    assert all(type(x) is int for row in doc.group.gluing.xd.relations.rows for x in row)


def test_ns_torsion_canonicalized():
    blob = mutate(lambda d: d["group"]["abelian"].update(ns_torsion=[2, 3, 1]))
    doc = parse_descriptor(blob)
    assert doc.group.av.ns.torsion == (6,)


def test_big_integers_as_strings_both_ways():
    big = 2**80
    blob = json.dumps({
        "group": {
            "root_datum": {"rank": 1, "simple_roots": [], "simple_coroots": []},
            "abelian": {"g": 1, "ns_rank": 1},
            "gluing": {"xd_rank": 1, "v": [[str(big)]]},
        }
    }).encode()
    doc = parse_descriptor(blob)
    assert doc.group.gluing.v_matrix.rows[0][0] == big
    out = emit_report(doc, "json")
    assert f'"{big}"'.encode() in out
    assert parse_descriptor(out) == doc
    # non-numeric strings are rejected with a path
    expect_schema_error(
        mutate(lambda d: d["group"]["root_datum"].update(rank="two")),
        "root_datum.rank")


def test_report_json_schema_tag_and_shape():
    p = picard_group(z.product_pgl2)
    data = json.loads(emit_report(p, "json"))
    assert data["schema"] == "chevalley-chow/1"
    assert data["type"] == "picard"
    assert data["ns"] == {"rank": 1, "torsion": [2]}
    assert data["pic0"] == {"formal": "Pic0", "g": 1,
                            "mod": {"rank": 0, "torsion": []}}
    c = chow_presentation(z.product_sl2, 2)
    data = json.loads(emit_report(c, "json"))
    assert data["concrete_factor"]["dims"] == [1, 1, 0]
    assert data["abelian_factor"] == "A*(A_1)"
    assert data["ideal_degree1"][0]["schubert"]["terms"] == {"1": 1}


def test_report_bytes_deterministic():
    p = picard_group(z.cover_torsion)
    assert emit_report(p, "json") == emit_report(picard_group(z.cover_torsion), "json")
    assert emit_report(p, "text") == emit_report(picard_group(z.cover_torsion), "text")


def test_verdict_text_contains_witness():
    v = completeness_test(z.product_sl2, z.neg_borel)
    text = emit_report(v, "text").decode()
    assert "answer: yes" in text
    assert "weyl_word" in text and "[0]" in text


def test_fibration_none_serializes():
    f = fibration_report(z.semiab, z.g_ant_sub)
    data = json.loads(emit_report(f, "json"))
    assert data["translation_index_bound"] is None
    text = emit_report(f, "text").decode()
    assert "none" in text


def test_homogeneous_picard_jsonable():
    hp = homogeneous_picard(z.product_sl2, z.borel)
    data = jsonable(hp)
    assert data["mode"] == "integral"
    assert data["ns"] == {"rank": 2, "torsion": []}
    assert data["tail_pic_gaff"] == {"rank": 0, "torsion": []}


def test_emit_rejects_unknown_objects():
    with pytest.raises(TypeError):
        jsonable(object())
    with pytest.raises(TypeError):
        jsonable({1, 2})
    with pytest.raises(ValueError):
        emit_report({"a": 1}, "yaml")


def test_group_descriptor_writes_its_descriptor_object(fixture_doc):
    gd = fixture_doc.group
    assert jsonable(gd) == jsonable(DescriptorDocument(gd))["group"]
    data = json.loads(emit_report(gd, "json"))
    assert "schema" not in data and data == jsonable(gd)


def test_records_default_to_their_fields():
    assert jsonable(z.sl2) == {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]], "u_rad": 0}


def test_document_without_subgroups_round_trips():
    doc = DescriptorDocument(z.semiab)
    blob = emit_report(doc, "json")
    again = parse_descriptor(blob)
    assert again.group == z.semiab and again.subgroups == ()
