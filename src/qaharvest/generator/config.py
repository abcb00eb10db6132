"""Question-generator hyperparameters: full-scale defaults plus a
desk-scale preset for laptop experiments."""

from __future__ import annotations

from dataclasses import dataclass

from ..jsonconfig import JsonConfig

__all__ = ["GeneratorConfig"]


@dataclass
class GeneratorConfig(JsonConfig):
    word_dim: int = 128
    hidden_dim: int = 256
    coref_feat_dim: int = 16
    answer_feat_dim: int = 16
    vocab_limit: int = 50000
    dropout: float = 0.3
    batch_size: int = 64
    lr: float = 0.5
    epochs: int = 15
    init_scale: float = 0.1
    # ablation switches: no-gating passes the coref embedding through raw,
    # zero-scores feeds the gate a zero mention-pair score everywhere
    use_gating: bool = True
    use_mention_scores: bool = True
    stop_below_ppl: float | None = None
    seed: int = 0

    def __post_init__(self):
        counts = ("word_dim", "hidden_dim", "coref_feat_dim", "answer_feat_dim", "vocab_limit", "batch_size", "epochs")
        self._require(counts, lambda v: v >= 1, ">= 1")
        self._require(("lr",), lambda v: v > 0, "> 0")
        self._require(("dropout",), lambda v: 0 <= v < 1, "in [0, 1)")

    @classmethod
    def desk(cls, **overrides) -> "GeneratorConfig":
        """Small dims for laptop-speed experiments and the overfit checks.

        Dropout is off here: the desk preset exists to memorize tiny
        corpora, which regularization directly fights.  Batch size is 1
        so a handful of examples still yields several updates per epoch;
        with batch size near the corpus size an epoch collapses to a
        single SGD step and memorization stalls.
        """
        base = dict(
            word_dim=32,
            hidden_dim=64,
            coref_feat_dim=8,
            answer_feat_dim=8,
            vocab_limit=200,
            dropout=0.0,
            batch_size=1,
            lr=0.5,
            epochs=300,
        )
        base.update(overrides)
        return cls(**base)
