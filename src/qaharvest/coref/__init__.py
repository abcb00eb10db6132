"""Coreference transformation: mention detection, stand-in resolution
with a pluggable mention-pair scorer, representative-antecedent
selection, and the sentence rewrite that appends antecedents after
pronouns with BIO tags and scores."""

from .mentions import PRONOUNS, Mention, find_mentions
from .resolve import (
    CorefCluster,
    NoAntecedentError,
    distance_scorer,
    resolve,
    select_representative,
)
from .transform import COREF_TAGS, TransformedSentence, transform

__all__ = [
    "Mention",
    "PRONOUNS",
    "find_mentions",
    "CorefCluster",
    "NoAntecedentError",
    "distance_scorer",
    "resolve",
    "select_representative",
    "COREF_TAGS",
    "TransformedSentence",
    "transform",
]
