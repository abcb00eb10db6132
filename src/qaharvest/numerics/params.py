"""Named trainable parameters, SGD with gradient clipping, and checkpoints.

Checkpoint layout: an 8-byte little-endian unsigned length, a UTF-8 JSON
manifest of that length, then all parameter values as one flat
little-endian float64 blob. The manifest lists entries sorted by name,
each with its shape and byte offset into the blob, so a file can be
inspected without loading the arrays.
"""

from __future__ import annotations

import json
import struct
import sys
from typing import Iterable

import numpy as np

from .rng import RngState
from .tensor import Tensor

__all__ = ["Parameter", "ParameterStore", "sgd_step"]

_MAGIC = struct.Struct("<Q")
_FORMAT = "qaharvest-checkpoint-v1"


class Parameter(Tensor):
    """A leaf tensor with a stable name, always tracked for gradients."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class ParameterStore:
    """Ordered collection of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, shape: tuple[int, ...], rng: RngState | None = None, scale: float = 0.1) -> Parameter:
        """New parameter, U(-scale, scale) if an rng is given, else zeros."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if rng is None:
            data = np.zeros(shape, dtype=np.float64)
        else:
            data = rng.uniform(-scale, scale, shape)
        p = Parameter(name, data)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state(self) -> dict[str, np.ndarray]:
        """Detached copies of all values, for best-model snapshots."""
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            if name not in state:
                raise KeyError(f"missing parameter in state: {name}")
            if state[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data = state[name].astype(np.float64).copy()

    def save(self, path, meta: dict | None = None) -> None:
        entries = []
        blobs = []
        offset = 0
        for name in sorted(self._params):
            p = self._params[name]
            raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
            entries.append({"name": name, "shape": list(p.data.shape), "offset": offset})
            blobs.append(raw)
            offset += len(raw)
        manifest = {"format": _FORMAT, "params": entries}
        if meta is not None:
            manifest["meta"] = meta
        header = json.dumps(manifest, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_MAGIC.pack(len(header)))
            fh.write(header)
            for raw in blobs:
                fh.write(raw)

    @staticmethod
    def read_manifest(path) -> dict:
        """Checkpoint manifest alone (shapes, offsets, meta), no arrays."""
        with open(path, "rb") as fh:
            return _read_manifest(fh, path)

    def load(self, path) -> dict:
        """Load values in place; names and shapes must match exactly.

        Every name and shape is checked before any array is written. Each
        entry is then read from the file straight into its parameter's
        own array, in offset order, so loading holds no second copy of
        the weights. A file that ends early raises ``ValueError`` naming
        the entry it cut short.
        """
        with open(path, "rb") as fh:
            manifest = _read_manifest(fh, path)
            base = fh.tell()
            entries = sorted(manifest["params"], key=lambda e: e["offset"])
            for entry in entries:
                name = entry["name"]
                if name not in self._params:
                    raise ValueError(f"checkpoint has unknown parameter: {name}")
                shape, model = tuple(entry["shape"]), self._params[name].data.shape
                if shape != model:
                    raise ValueError(f"shape mismatch for {name}: file {shape}, model {model}")
            missing = set(self._params) - {entry["name"] for entry in entries}
            if missing:
                raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
            for entry in entries:
                data = self._params[entry["name"]].data
                fh.seek(base + entry["offset"])
                if fh.readinto(memoryview(data).cast("B")) != data.nbytes:
                    raise ValueError(f"checkpoint {path} is truncated in parameter {entry['name']}")
                if sys.byteorder == "big":
                    data.byteswap(inplace=True)
        return manifest.get("meta", {})


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _valid_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(_is_count(dim) for dim in entry["shape"])
        and _is_count(entry.get("offset"))
    )


def _read_manifest(fh, path) -> dict:
    """The manifest at the start of an open checkpoint, leaving ``fh`` at
    the first parameter byte. Anything but a JSON object of this format
    with a ``params`` list raises ``ValueError``, as does an entry that
    is not an object with a string ``name``, a ``shape`` list of ints and
    an int ``offset`` >= 0."""
    raw = fh.read(_MAGIC.size)
    if len(raw) == _MAGIC.size:
        (hlen,) = _MAGIC.unpack(raw)
        raw = fh.read(hlen)
        if len(raw) == hlen:
            manifest = json.loads(raw.decode("utf-8"))
            ours = isinstance(manifest, dict) and manifest.get("format") == _FORMAT
            if not ours or not isinstance(manifest.get("params"), list):
                raise ValueError(f"checkpoint {path} has no {_FORMAT} manifest")
            for number, entry in enumerate(manifest["params"]):
                if not _valid_entry(entry):
                    raise ValueError(
                        f"checkpoint {path} manifest entry {number} is not a name, a shape of ints "
                        f"and an offset >= 0: {entry!r}"
                    )
            return manifest
    raise ValueError(f"checkpoint {path} is truncated in its manifest")


def sgd_step(params: Iterable[Parameter], lr: float, clip_lo: float = -5.0, clip_hi: float = 5.0) -> None:
    """One SGD update; each gradient coordinate is clamped into
    [clip_lo, clip_hi] before the step, so no single update moves a
    value by more than lr * max(|clip_lo|, clip_hi)."""
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    for p in params:
        if p.grad is None:
            continue
        p.data -= lr * np.clip(p.grad, clip_lo, clip_hi)
