"""Frequency-ranked token/id mapping with reserved special tokens.

Ids 0..3 are always <pad>, <unk>, <sos>, <eos>. Content tokens get ids
from 4 upward in (descending frequency, ascending token) order, so ties
break lexicographically and the map is reproducible from any stream
with the same counts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

__all__ = ["Vocabulary", "build_vocab", "PAD", "UNK", "SOS", "EOS"]

PAD = "<pad>"
UNK = "<unk>"
SOS = "<sos>"
EOS = "<eos>"
_SPECIALS = (PAD, UNK, SOS, EOS)
_FORMAT = "qaharvest-vocab-v1"

PAD_ID = 0
UNK_ID = 1
SOS_ID = 2
EOS_ID = 3


class Vocabulary:
    def __init__(self, kept_tokens: list[str], frequencies: Counter | None = None):
        for sp in _SPECIALS:
            if sp in kept_tokens:
                raise ValueError(f"reserved token in content list: {sp}")
        if len(set(kept_tokens)) != len(kept_tokens):
            raise ValueError("duplicate tokens")
        self._id_to_token = list(_SPECIALS) + list(kept_tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        self.frequencies = frequencies

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self._id_to_token[i] for i in ids]

    def content_tokens(self) -> list[str]:
        return self._id_to_token[len(_SPECIALS) :]

    def save(self, path) -> None:
        payload = {"format": _FORMAT, "tokens": self.content_tokens()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """A saved vocabulary; anything but a JSON object of this format
        with a list of token strings raises ``ValueError``."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        ours = isinstance(payload, dict) and payload.get("format") == _FORMAT
        tokens = payload.get("tokens") if ours else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError(f"{path} is not a {_FORMAT} file with a list of token strings")
        return cls(tokens)


def build_vocab(tokens: Iterable[str], limit: int = 50000) -> Vocabulary:
    """Keep the `limit` most frequent tokens; ties break lexicographically."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    counts = Counter(tokens)
    for sp in _SPECIALS:
        counts.pop(sp, None)
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary(ranked[:limit], frequencies=counts)
