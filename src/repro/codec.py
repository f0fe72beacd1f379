"""One typed codec for every spec at the JSON boundary.

:func:`decode` builds a dataclass from parsed JSON and :func:`encode` turns
one back into JSON-safe data.  Both read the class's annotations once, on
first use, into a table, so this is the one module that knows each spec's
field types.  Scalars match exactly (a ``bool`` is no ``int``, a number no
string), except that a ``float`` field takes an ``int``; it stores and
writes a ``float``, so equal specs have equal JSON.  A nested dataclass is an object; ``Optional[X]`` is ``X``, a
missing key or ``null``, and ``encode`` leaves a ``None`` out; a tuple is a
list; a ``Dict`` is an opaque object.  An unknown or missing key and a
mistyped value are each a ``ValueError`` naming the path of the enclosing
object, then ``Class.field``: ``TimeModelSpec.default_link:
LinkTiming.capacity must be int, got float 2.5``.  A validator's
``ValueError`` gets the path of the object it checked.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, is_dataclass
from operator import attrgetter
from typing import Any, Dict, Union, get_args, get_origin, get_type_hints

#: The JSON value types each scalar annotation takes.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def decode(cls: type, data: object, path: str = "") -> Any:
    """The ``cls`` instance ``data`` describes; ``path`` is where ``data``
    sits in an enclosing document, empty at the top."""
    table = _TABLES[cls]
    prefix = f"{path}: " if path else ""
    if type(data) is not dict:
        raise ValueError(f"{prefix}{cls.__name__} must be an object, got {_shown(data)}")
    here = path or cls.__name__
    # Every key is known before any value is decoded: a stray key is named
    # even when a nested value it belongs in would fail first.
    for name in data:
        if name not in table.fields and name not in table.derived:
            unknown = sorted(set(data) - set(table.fields) - set(table.derived))
            raise ValueError(
                f"{prefix}unknown {cls.__name__} key(s) {unknown}; "
                f"expected a subset of {sorted(table.fields)}"
            )
    kwargs: Dict[str, object] = {}
    try:
        for name, value in data.items():
            if name not in table.fields:  # a derived key
                continue
            # ``_item`` inlined: a warm sweep decodes one CellResult per cell.
            expected, allowed, load, _ = table.fields[name]
            if type(value) not in allowed:
                raise ValueError(
                    f"{prefix}{cls.__name__}.{name} must be {expected}, got {_shown(value)}"
                )
            if load is not None:
                value = load(value) if load is float else load(
                    value, prefix, f"{cls.__name__}.{name}", f"{here}.{name}"
                )
            kwargs[name] = value
    except OverflowError:  # an int too large for its float field
        raise ValueError(f"{prefix}{cls.__name__}.{name} is out of float range") from None
    for name in table.required:
        if name not in kwargs:
            raise ValueError(f"{prefix}{cls.__name__}.{name} is missing")
    try:
        return cls(**kwargs)
    except ValueError as error:
        raise ValueError(f"{here}: {error}") from error


def encode(obj: Any) -> Dict[str, object]:
    """``obj``'s fields as a JSON-safe dict in declaration order."""
    table = _TABLES[type(obj)]
    data = dict(zip(table.names, table.values(obj)))
    for name, dump in table.dumps:
        value = data[name]
        if value is None:
            del data[name]
        elif dump is not None:
            data[name] = dump(value)
    return data


def require_finite(spec: object) -> None:
    """Reject NaN and infinities in the float fields of dataclass ``spec``.

    Every spec validator calls this first: ``nan <= 0`` is false, so a
    range check alone lets NaN through, and the run then reports successes
    at ``time = nan``.  The ``ValueError`` names the offending field.
    """
    for name in _TABLES[type(spec)].floats:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(spec).__name__}.{name} must be finite, got {value!r}")


class _Table:
    """One dataclass's fields: each field's :func:`_compiled` entry, the
    required ones, the float ones, and the ones ``encode`` converts."""

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        specs = fields(cls)
        self.names = tuple(spec.name for spec in specs)
        self.values = attrgetter(*self.names)
        self.fields = {name: _compiled(hints[name]) for name in self.names}
        self.required = tuple(
            spec.name for spec in specs
            if spec.default is MISSING and spec.default_factory is MISSING
        )
        #: Keys a hand-written ``to_dict`` adds for readers; decode skips them.
        self.derived = getattr(cls, "DERIVED_KEYS", ())
        self.floats = tuple(name for name in self.names if hints[name] is float)
        # An optional field's ``None`` is left out here, so it dumps as ``X``.
        self.dumps = tuple(
            (name, _compiled(_optional(hints[name]) or hints[name])[3])
            for name in self.names
            if _optional(hints[name]) or self.fields[name][3] is not None
        )


class _Tables(dict):
    """Class -> :class:`_Table`, each built on its first lookup."""

    def __missing__(self, cls: type) -> _Table:
        table = self[cls] = _Table(cls)
        return table


_TABLES = _Tables()


def _optional(annotation: Any) -> Any:
    """``X`` for ``Optional[X]``, else ``None``."""
    args = get_args(annotation)
    if get_origin(annotation) is Union and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return inner
    return None


def _compiled(annotation: Any) -> tuple:
    """``(expected, allowed, load, dump)`` for one annotation: how errors
    word it, the exact JSON types it takes, how to load a value (``None``:
    as is, ``float``: widen an int, or ``f(value, prefix, label, path)``)
    and how to dump one (``None``: as is, or ``f(value)``, ``float`` too)."""
    if annotation in _JSON_TYPES:
        widen = float if annotation is float else None
        return annotation.__name__, _JSON_TYPES[annotation], widen, widen
    if is_dataclass(annotation):
        return "an object", (dict,), (
            lambda value, prefix, label, path: decode(annotation, value, path)
        ), encode
    inner = _optional(annotation)
    if inner is not None:
        expected, allowed, load, dump = _compiled(inner)
        return f"{expected} or null", (*allowed, type(None)), load and (
            lambda value, *where: None if value is None else _loaded(load, value, *where)
        ), dump and (lambda value: None if value is None else dump(value))
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is dict:
        return "an object", (dict,), None, dict
    if origin is not tuple:
        raise TypeError(f"no JSON form for annotation {annotation!r}")
    repeated = args[-1] is Ellipsis  # Tuple[X, ...]; else fixed, like (str, X)
    items = [_compiled(arg) for arg in args if arg is not Ellipsis]

    def load_items(values, prefix, label, path):
        if not repeated and len(values) != len(items):
            raise ValueError(f"{prefix}{label} must have {len(items)} items, got {len(values)}")
        return tuple(
            _item(items[0 if repeated else index], value, prefix,
                  f"{label}[{index}]", f"{path}[{index}]")
            for index, value in enumerate(values)
        )

    dumps = [item[3] for item in items]
    if repeated:
        dump = dumps[0]
        return "a list", (list,), load_items, list if dump is None else (
            lambda values: [dump(value) for value in values]
        )
    return "a list", (list,), load_items, lambda values: [
        value if dump is None else dump(value) for dump, value in zip(dumps, values)
    ]


def _item(compiled: tuple, value: object, prefix: str, label: str, path: str) -> object:
    """One tuple item, checked and loaded."""
    expected, allowed, load, _ = compiled
    if type(value) not in allowed:
        raise ValueError(f"{prefix}{label} must be {expected}, got {_shown(value)}")
    return value if load is None else _loaded(load, value, prefix, label, path)


def _loaded(load: Any, value: object, prefix: str, label: str, path: str) -> object:
    return load(value) if load is float else load(value, prefix, label, path)


def _shown(value: object) -> str:
    return f"{type(value).__name__} {value!r}"
