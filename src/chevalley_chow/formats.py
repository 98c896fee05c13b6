"""Strict JSON descriptor parsing and deterministic report serialization.

The descriptor document is the package's file-format contract: a strict
JSON schema (unknown keys are fatal, all matrices rectangular, integers
beyond 64 bits carried as decimal strings).  Reports say their own JSON
shape through ``to_json()``; one generic walk turns that into either
machine JSON (schema-tagged, byte-stable for a fixed result) or a plain
text tree.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from ._record import Record
from .descriptors import AbelianVarietyData, AntiAffineGluing, GroupDescriptor, SubgroupDescriptor
from .errors import DescriptorSyntaxError, SchemaError
from .lattice import FGAbelianGroup, IntMatrix, Presentation, Vec
from .rootdata import RootDatum

SCHEMA_TAG = "chevalley-chow/1"
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class DescriptorDocument(Record):
    group: GroupDescriptor
    subgroups: tuple[tuple[str, SubgroupDescriptor], ...] = ()

    def subgroup(self, name: str) -> SubgroupDescriptor:
        for key, hd in self.subgroups:
            if key == name:
                return hd
        raise KeyError(name)

    def subgroup_names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.subgroups)

    def to_json(self) -> dict:
        out = {"group": self.group}
        if self.subgroups:
            out["subgroups"] = {k: _subgroup_doc(v) for k, v in self.subgroups}
        return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _object(value, path, required, optional):
    if not isinstance(value, dict):
        raise SchemaError(path, "expected a JSON object")
    for key in value:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in value:
            raise SchemaError(path, f"missing required key '{key}'")
    return value


def _int(value, path) -> int:
    if type(value) is int:
        return value
    # bool is an int subclass in Python; reject it explicitly
    if isinstance(value, bool):
        raise SchemaError(path, "expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        body = value[1:] if value[:1] in "+-" else value
        if body.isascii() and body.isdigit():
            try:
                return int(value)
            except ValueError as e:  # past the int/str digit limit
                raise SchemaError(path, f"not an integer string: {e}")
        raise SchemaError(path, f"not an integer string: {value!r}")
    raise SchemaError(path, "expected an integer (or a decimal string)")


def _bool(value, path) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, "expected true or false")
    return value


def _str(value, path) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "expected a string")
    return value


def _int_rows(value, width) -> tuple[Vec, ...] | None:
    """``value`` as int tuples when it is a list of lists of ``width`` plain
    ints each (a bool is not one), checked at C speed; None otherwise."""
    if type(value) is list and (not value or {*map(type, value)} <= {list} and {*map(len, value)} <= {width}
                                and {*map(type, chain.from_iterable(value))} <= {int}):
        return tuple(map(tuple, value))
    return None


def _matrix(value, path, ncols=None) -> IntMatrix:
    width = ncols
    if width is None and type(value) is list and value and type(value[0]) is list:
        width = len(value[0])
    if width is not None and (rows := _int_rows(value, width)) is not None:
        return IntMatrix._from_int_rows(rows, width)
    # anything else is walked entry by entry, to name the first bad one
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of rows")
    rows = []
    width = ncols
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected a row (list of integers)")
        parsed = tuple(x if type(x) is int else _int(x, f"{path}[{i}][{j}]") for j, x in enumerate(row))
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise SchemaError(f"{path}[{i}]", f"row has {len(parsed)} entries, expected {width}")
        rows.append(parsed)
    if width is None:
        raise SchemaError(path, "cannot infer the width of an empty matrix here")
    return IntMatrix._from_int_rows(tuple(rows), width)


def _int_list(value, path) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of integers")
    return tuple(x if type(x) is int else _int(x, f"{path}[{i}]") for i, x in enumerate(value))


def _canonical_group(rank: int, torsion, path) -> FGAbelianGroup:
    if rank < 0:
        raise SchemaError(path, "rank must be nonnegative")
    for i, t in enumerate(torsion):
        if t < 1:
            raise SchemaError(f"{path}[{i}]", "torsion orders must be positive")
    return FGAbelianGroup.from_cyclic(rank, torsion)


def _parse_root_datum(value, path) -> RootDatum:
    obj = _object(value, path, ("rank", "simple_roots", "simple_coroots"), ("u_rad",))
    rank = _int(obj["rank"], f"{path}.rank")
    if rank < 0:
        raise SchemaError(f"{path}.rank", "rank must be nonnegative")
    roots = _matrix(obj["simple_roots"], f"{path}.simple_roots", ncols=rank)
    coroots = _matrix(obj["simple_coroots"], f"{path}.simple_coroots", ncols=rank)
    u_rad = _int(obj.get("u_rad", 0), f"{path}.u_rad")
    try:
        return RootDatum(rank, roots, coroots, u_rad)
    except ValueError as e:
        raise SchemaError(path, str(e))


def _parse_abelian(value, path) -> AbelianVarietyData:
    obj = _object(value, path, ("g", "ns_rank"), ("ns_torsion",))
    g = _int(obj["g"], f"{path}.g")
    ns_rank = _int(obj["ns_rank"], f"{path}.ns_rank")
    torsion = _int_list(obj.get("ns_torsion", []), f"{path}.ns_torsion")
    ns = _canonical_group(ns_rank, torsion, f"{path}.ns_torsion")
    try:
        return AbelianVarietyData(g, ns)
    except ValueError as e:
        raise SchemaError(path, str(e))


def _parse_gluing(value, path, rank) -> AntiAffineGluing:
    obj = _object(value, path, ("xd_rank", "v"),
                  ("xd_relations", "sigma_kernel", "unipotent_dim", "char"))
    xd_rank = _int(obj["xd_rank"], f"{path}.xd_rank")
    if xd_rank < 0:
        raise SchemaError(f"{path}.xd_rank", "xd_rank must be nonnegative")
    relations = _matrix(obj.get("xd_relations", []), f"{path}.xd_relations", ncols=xd_rank)
    v = _matrix(obj["v"], f"{path}.v", ncols=rank)
    if v.nrows != xd_rank:
        raise SchemaError(f"{path}.v", f"v has {v.nrows} rows, expected xd_rank = {xd_rank}")
    sigma = _matrix(obj.get("sigma_kernel", []), f"{path}.sigma_kernel", ncols=xd_rank)
    unip = _int(obj.get("unipotent_dim", 0), f"{path}.unipotent_dim")
    char = _int(obj.get("char", 0), f"{path}.char")
    try:
        return AntiAffineGluing(Presentation(xd_rank, relations), v, sigma, unip, char)
    except ValueError as e:
        raise SchemaError(path, str(e))


def _root_pairs(value, path) -> tuple[tuple[int, int], ...]:
    """A ``roots`` list walked pair by pair, to name the first bad one."""
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of [index, sign] pairs")
    roots = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}[{i}]", "expected [index, sign]")
        idx = _int(pair[0], f"{path}[{i}][0]")
        sign = _int(pair[1], f"{path}[{i}][1]")
        if sign not in (1, -1):
            raise SchemaError(f"{path}[{i}][1]", "sign must be 1 or -1")
        if idx < 0:
            raise SchemaError(f"{path}[{i}][0]", "root index must be nonnegative")
        roots.append((idx, sign))
    return tuple(roots)


def _parse_subgroup(name, value, path, rank) -> SubgroupDescriptor:
    obj = _object(value, path, ("q",),
                  ("roots", "extra_unipotent_dim", "component_group",
                   "contains_G_ant", "ant_contains_gantaff"))
    q = _matrix(obj["q"], f"{path}.q", ncols=rank)
    rlist = obj.get("roots", [])
    roots = _int_rows(rlist, 2)
    if roots is None or not ({*map(itemgetter(1), roots)} <= {1, -1}
                             and min(map(itemgetter(0), roots), default=0) >= 0):
        roots = _root_pairs(rlist, f"{path}.roots")
    gens: tuple[IntMatrix, ...] = ()
    flags: tuple[bool, ...] = ()
    if "component_group" in obj:
        cg = _object(obj["component_group"], f"{path}.component_group",
                     ("generators",), ("translations",))
        glist = cg["generators"]
        if not isinstance(glist, list):
            raise SchemaError(f"{path}.component_group.generators", "expected a list of matrices")
        gens = tuple(
            _matrix(m, f"{path}.component_group.generators[{i}]", ncols=q.nrows)
            for i, m in enumerate(glist)
        )
        traw = cg.get("translations", [False] * len(gens))
        if not isinstance(traw, list):
            raise SchemaError(f"{path}.component_group.translations", "expected a list of booleans")
        flags = tuple(t if type(t) is bool else _bool(t, f"{path}.component_group.translations[{i}]")
                      for i, t in enumerate(traw))
    try:
        return SubgroupDescriptor(
            name, q, roots,
            _int(obj.get("extra_unipotent_dim", 0), f"{path}.extra_unipotent_dim"),
            gens, flags,
            _bool(obj.get("contains_G_ant", False), f"{path}.contains_G_ant"),
            _bool(obj.get("ant_contains_gantaff", False), f"{path}.ant_contains_gantaff"),
        )
    except ValueError as e:
        raise SchemaError(path, str(e))


def parse_descriptor(data: bytes | str) -> DescriptorDocument:
    """Parse and schema-check a descriptor document.

    Total: any malformed input becomes DescriptorSyntaxError (position) or
    SchemaError (JSON path); nothing else escapes.

    >>> parse_descriptor(b'')
    Traceback (most recent call last):
        ...
    chevalley_chow.errors.DescriptorSyntaxError: line 1, column 1: Expecting value
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DescriptorSyntaxError(1, 1, f"not valid UTF-8: {e.reason}")
    else:
        text = data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DescriptorSyntaxError(e.lineno, e.colno, e.msg)
    except RecursionError:
        raise DescriptorSyntaxError(1, 1, "nesting is too deep to parse")
    except ValueError as e:  # an integer literal past the int/str digit limit
        raise DescriptorSyntaxError(1, 1, str(e))
    top = _object(doc, "", ("group",), ("subgroups",))
    gobj = _object(top["group"], "group",
                   ("root_datum", "abelian", "gluing"), ("name",))
    rd = _parse_root_datum(gobj["root_datum"], "group.root_datum")
    av = _parse_abelian(gobj["abelian"], "group.abelian")
    gluing = _parse_gluing(gobj["gluing"], "group.gluing", rd.rank)
    name = _str(gobj.get("name", "group"), "group.name")
    try:
        group = GroupDescriptor(name, rd, av, gluing)
    except ValueError as e:
        raise SchemaError("group", str(e))
    subs = []
    if "subgroups" in top:
        if not isinstance(top["subgroups"], dict):
            raise SchemaError("subgroups", "expected an object of named subgroups")
        for sname, sval in top["subgroups"].items():
            subs.append((sname, _parse_subgroup(sname, sval, f"subgroups.{sname}", rd.rank)))
    return DescriptorDocument(group, tuple(subs))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _emit_int(n: int):
    return n if _I64_MIN <= n <= _I64_MAX else str(n)


def jsonable(obj):
    """Recursively convert a report object into JSON-ready data.

    A record becomes whatever its ``to_json()`` returns, walked in turn; a
    group descriptor becomes the ``"group"`` object of its descriptor file.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return _emit_int(obj)
    if isinstance(obj, Fraction):
        return _emit_int(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, IntMatrix):
        return [[_emit_int(x) for x in row] for row in obj.rows]
    if isinstance(obj, GroupDescriptor):
        obj = _group_doc(obj)
    elif isinstance(obj, Record):
        obj = obj.to_json()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _group_doc(gd: GroupDescriptor):
    rd, av, gluing = gd.rd, gd.av, gd.gluing
    return {
        "name": gd.name,
        "root_datum": {"rank": rd.rank, "simple_roots": rd.simple_roots,
                       "simple_coroots": rd.simple_coroots, "u_rad": rd.u_rad},
        "abelian": {"g": av.g, "ns_rank": av.ns.rank, "ns_torsion": av.ns.torsion},
        "gluing": {
            "xd_rank": gluing.xd.ngens,
            "xd_relations": gluing.xd.relations,
            "v": gluing.v_matrix,
            "sigma_kernel": gluing.sigma_kernel_gens,
            "unipotent_dim": gluing.unipotent_dim,
            "char": gluing.char,
        },
    }


def _subgroup_doc(hd: SubgroupDescriptor):
    out = {"q": hd.q_matrix}
    if hd.roots:
        out["roots"] = hd.roots
    if hd.extra_unipotent_dim:
        out["extra_unipotent_dim"] = hd.extra_unipotent_dim
    if hd.component_generators:
        out["component_group"] = {
            "generators": hd.component_generators,
            "translations": hd.translations,
        }
    if hd.contains_G_ant:
        out["contains_G_ant"] = True
    if hd.ant_contains_gantaff:
        out["ant_contains_gantaff"] = True
    return out


def _text_lines(value, indent: int, label) -> list[str]:
    pad = "  " * indent
    head = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, dict):
        lines = [f"{pad}{label}:"] if label is not None else []
        for k, v in value.items():
            lines.extend(_text_lines(v, indent + (label is not None), k))
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [head + "[" + ", ".join(str(x) for x in value) + "]"]
        if all(isinstance(x, list) and all(not isinstance(y, (dict, list)) for y in x)
               for x in value):
            rows = "; ".join("[" + ", ".join(str(y) for y in x) + "]" for x in value)
            return [head + "[" + rows + "]"]
        lines = [f"{pad}{label}:"] if label is not None else []
        for i, x in enumerate(value):
            lines.extend(_text_lines(x, indent + (label is not None), f"[{i}]"))
        return lines
    if value is None:
        return [head + "none"]
    if isinstance(value, bool):
        return [head + ("true" if value else "false")]
    return [head + str(value)]


def emit_report(result, format: str = "text") -> bytes:
    """Serialize a report (or descriptor) deterministically.

    ``json`` wraps the data with the schema tag; ``text`` renders the same
    tree as indented ``key: value`` lines.
    """
    data = jsonable(result)
    if isinstance(data, dict) and not isinstance(result, (DescriptorDocument, GroupDescriptor)):
        data = {"schema": SCHEMA_TAG, **data}
    if format == "json":
        return (json.dumps(data, indent=2) + "\n").encode("utf-8")
    if format == "text":
        lines = []
        for k, v in (data.items() if isinstance(data, dict) else [(None, data)]):
            if k == "schema":
                continue
            lines.extend(_text_lines(v, 0, k))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format: {format}")
