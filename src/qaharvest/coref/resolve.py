"""Stand-in coreference resolution and the pluggable scorer interface.

A scorer is any callable (mention_a, mention_b, sentences) -> float in
[0, 1], deterministic in its inputs. The bundled distance scorer decays
with sentence distance.
"""

from __future__ import annotations

from typing import Callable

from ..corpus.tokens import Paragraph
from .mentions import NOMINAL, PRONOMINAL, PROPER, Mention, find_mentions

__all__ = [
    "CorefCluster",
    "NoAntecedentError",
    "distance_scorer",
    "resolve",
    "select_representative",
]

MentionScorer = Callable[[Mention, Mention, list[list[str]]], float]


class NoAntecedentError(ValueError):
    pass


class CorefCluster:
    """Mentions of one entity plus the chosen-antecedent score per pronoun."""

    def __init__(self, mentions: list[Mention]):
        self.mentions = sorted(set(mentions), key=lambda m: (m.sentence_index, m.token_start, m.token_end))
        self.pronoun_scores: dict[Mention, float] = {}

    def add(self, mention: Mention) -> None:
        if mention not in self.mentions:
            self.mentions.append(mention)
            self.mentions.sort(key=lambda m: (m.sentence_index, m.token_start, m.token_end))

    def pronouns(self) -> list[Mention]:
        return [m for m in self.mentions if m.kind == PRONOMINAL]


def distance_scorer(a: Mention, b: Mention, sentences: list[list[str]]) -> float:
    """1 / (1 + sentence distance); same sentence scores 1."""
    return 1.0 / (1.0 + abs(a.sentence_index - b.sentence_index))


def resolve(paragraph: Paragraph, sentence_index: int, scorer: MentionScorer = distance_scorer) -> list[CorefCluster]:
    """Clusters over the context sentences plus the target sentence.

    Two linking rules: non-pronominal mentions with identical surfaces
    cluster together, and each pronoun in the target sentence joins the
    cluster of its nearest preceding proper mention (scored by the
    scorer at link time). Pronouns with no preceding proper mention stay
    unclustered.
    """
    if not 0 <= sentence_index < len(paragraph.sentences):
        raise ValueError("sentence index out of range")
    sentences = [[t.surface for t in s] for s in paragraph.sentences[: sentence_index + 1]]
    mentions = [m for m in find_mentions(paragraph) if m.sentence_index <= sentence_index]

    cluster_of: dict[Mention, CorefCluster] = {}
    clusters: list[CorefCluster] = []

    by_surface: dict[str, list[Mention]] = {}
    for m in mentions:
        if m.kind != PRONOMINAL:
            by_surface.setdefault(m.surface(sentences), []).append(m)
    for group in by_surface.values():
        if len(group) < 2:
            continue
        cluster = CorefCluster(group)
        clusters.append(cluster)
        for m in group:
            cluster_of[m] = cluster

    propers = [m for m in mentions if m.kind == PROPER]
    for pron in mentions:
        if pron.kind != PRONOMINAL or pron.sentence_index != sentence_index:
            continue
        preceding = [m for m in propers if m.position() < pron.position()]
        if not preceding:
            continue
        antecedent = max(preceding, key=lambda m: m.position())
        score = float(scorer(pron, antecedent, sentences))
        cluster = cluster_of.get(antecedent)
        if cluster is None:
            cluster = CorefCluster([antecedent])
            clusters.append(cluster)
            cluster_of[antecedent] = cluster
        cluster.add(pron)
        cluster_of[pron] = cluster
        cluster.pronoun_scores[pron] = score

    return [c for c in clusters if len(c.mentions) >= 2]


def select_representative(cluster: CorefCluster) -> Mention:
    """Earliest proper mention, else earliest nominal; ties go to the
    longer span. All-pronoun clusters have nothing to append."""
    for kind in (PROPER, NOMINAL):
        candidates = [m for m in cluster.mentions if m.kind == kind]
        if candidates:
            return min(candidates, key=lambda m: (m.sentence_index, m.token_start, -(m.token_end - m.token_start)))
    raise NoAntecedentError("no antecedent available")
