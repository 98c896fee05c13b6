"""Records behave exactly like the frozen dataclasses they replace.

Every :class:`Record` subclass is checked against a
``dataclasses.make_dataclass(..., frozen=True)`` twin with the same fields,
defaults, ``__post_init__`` and any ``__eq__`` and ``__hash__`` of the
class's own, on instances the CLI builds for every
fixture: same repr, equality and hash, the same refusal to assign, and the
same accepted and refused constructor calls.
"""

import contextlib
import dataclasses
import functools
import io

import pytest

import helpers as z
import test_golden_cli
from chevalley_chow import cli
from chevalley_chow._record import Record
from chevalley_chow.formats import parse_descriptor
from chevalley_chow.rootdata import root_system, validate_root_datum
from chevalley_chow.schubert import schubert_basis

PER_CLASS = 12  # instances checked per record class


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(_subclasses(Record), key=lambda c: (c.__module__, c.__qualname__))


@pytest.fixture(scope="module")
def instances():
    """Records built while the CLI answers every JSON golden case."""
    z.clear_package_caches()  # a cached document or result would build no record
    seen = {cls: [] for cls in RECORDS}
    init = Record.__init__

    def collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if len(seen[type(self)]) < PER_CLASS:
            seen[type(self)].append(self)

    mp = pytest.MonkeyPatch()
    mp.setattr(Record, "__init__", collect)
    try:
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            for case_id, argv in test_golden_cli.CASES:
                if case_id.endswith(":json"):
                    cli.main(argv)
        for name in z.FIXTURE_NAMES:
            rd = parse_descriptor(z.fixture_bytes(name)).group.rd
            schubert_basis(rd)
            root_system.__wrapped__(rd)  # the cached roots and types may predate the hook
            validate_root_datum.__wrapped__(rd)
    finally:
        mp.undo()
    return seen


def twin(cls):
    """The frozen dataclass a record class stands for."""
    own = vars(cls)
    spec = [(f, object, dataclasses.field(default=own[f])) if f in own else (f, object)
            for f in own["__annotations__"]]
    # a class that keys its equality and hash on its own carries them over,
    # with the cached values they read
    namespace = {k: v for k, v in own.items()
                 if k in ("__post_init__", "__eq__", "__hash__") or isinstance(v, functools.cached_property)}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def outcome(build):
    try:
        value = build()
    except Exception as e:  # both sides must fail alike
        return type(e) if isinstance(e, TypeError) else repr(e)
    return repr(value), _hash(value)


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return "unhashable"


def test_every_record_class_is_covered(instances):
    assert len(RECORDS) >= 27
    assert [cls.__qualname__ for cls, found in instances.items() if not found] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_matches_frozen_dataclass(cls, instances):
    dc = twin(cls)
    fields = [f.name for f in dataclasses.fields(dc)]
    required = [f.name for f in dataclasses.fields(dc) if f.default is dataclasses.MISSING]
    for rec in instances[cls]:
        values = tuple(getattr(rec, f) for f in fields)
        kw = dict(zip(fields, values))
        same = dc(*values)
        assert repr(rec) == repr(same)
        assert _hash(rec) == _hash(same)
        assert rec == cls(*values) and not rec != cls(*values)
        assert rec != same and not rec == same  # equal fields, other class
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        calls = [
            ((), kw),
            (values[:1], dict(list(kw.items())[1:])),
            (values[:len(required)], {}),
            ((), {f: kw[f] for f in required}),
            (values + values[:1], {}),
            (values[:len(required) - 1], {}),
            (values, {fields[0]: values[0]}),
            (values, {"extra": 1}),
            ((), {f: kw[f] for f in required[1:]}),
        ]
        for args, kwargs in calls:
            assert outcome(lambda: cls(*args, **kwargs)) == outcome(lambda: dc(*args, **kwargs)), \
                (args, kwargs)
