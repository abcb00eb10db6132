"""The one JSON codec of the dataclass configs: a config is written with
sorted keys, and read back only from an object whose every field the
config knows and whose every value has its field's declared type."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing

__all__ = ["JsonConfig"]


def _fits(value, hint) -> bool:
    """Whether a decoded JSON value has the declared type ``hint``. An
    int that a float can hold is a valid float; a bool is neither an int
    nor a float."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(hint))
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, float) or (_fits(value, int) and abs(value) <= sys.float_info.max)
    if hint is type(None):
        return value is None
    return isinstance(value, hint)


class JsonConfig:
    """Mixin for a dataclass config; every reader raises ``ValueError``
    for input that does not make a valid config."""

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for name, value in raw.items():
            if not _fits(value, hints[name]):
                kind = getattr(hints[name], "__name__", hints[name])
                raise ValueError(f"{cls.__name__}.{name} must be {kind}, got {value!r}")
        try:
            return cls(**raw)
        except TypeError as exc:
            # a missing required field
            raise ValueError(f"{cls.__name__}: {exc}") from None

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)

    def _require(self, names, ok, rule: str) -> None:
        """Range check for ``__post_init__``: ``ValueError`` naming the
        first field in ``names`` whose value fails ``ok``."""
        for name in names:
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")
