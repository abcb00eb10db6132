"""The one JSON codec of the dataclass configs: a config is written with
sorted keys, and read back only from an object whose every field the
config knows."""

from __future__ import annotations

import dataclasses
import json

__all__ = ["JsonConfig"]


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
        try:
            return cls(**raw)
        except TypeError as exc:
            # a missing required field, or a value of the wrong type
            raise ValueError(f"{cls.__name__}: {exc}") from None

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
