"""Frozen value records whose methods are shared, not generated per class.

A subclass of :class:`Record` lists its fields as class annotations, in
order, with class-attribute defaults after the fields without one.
Instances are frozen; they compare and hash by their field tuples (only
within one class) and print as ``Name(field=value, ...)``.  Defining a
record class compiles no code, so importing the package stays cheap.

``to_json()`` returns the JSON shape of a record as a shallow dict: by
default ``{field: value}`` in field order.  A class whose report reads
differently (a ``"type"`` tag, a renamed, derived or left-out key)
overrides it; :func:`chevalley_chow.formats.jsonable` converts the values.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__annotations__", {}).keys()  # ordered and set-like
        if len(fields) < 2:  # attrgetter of one name returns no tuple
            raise TypeError(f"record {cls.__qualname__} needs at least two fields")
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        cls._tail = tuple(cls._defaults.values())  # the defaults of the last fields
        cls._values = attrgetter(*fields)
        cls._post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        omitted = len(cls._fields) - len(args)
        if kwargs or not 0 <= omitted <= len(cls._tail):
            values = cls._bind(args, kwargs)
        else:
            if omitted:
                args += cls._tail[-omitted:]
            values = dict(zip(cls._fields, args))
        object.__setattr__(self, "__dict__", values)
        if cls._post_init is not None:
            cls._post_init(self)

    @classmethod
    def _bind(cls, args, kwargs):
        """The fields of a call that names some of them or leaves defaults out."""
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(given) < len(args) or not given.keys().isdisjoint(kwargs) or values.keys() != cls._fields:
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(cls._fields)}; "
                            f"got {len(args)} positional and the keywords {', '.join(kwargs) or 'none'}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {self.__class__.__qualname__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__qualname__} is frozen")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._values(self)))

    def __repr__(self):
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({pairs})"
