"""Answer-span extractor hyperparameters: full-scale defaults plus a
desk-scale preset for laptop experiments."""

from __future__ import annotations

from dataclasses import dataclass

from ..jsonconfig import JsonConfig

__all__ = ["ExtractorConfig"]


@dataclass
class ExtractorConfig(JsonConfig):
    word_dim: int = 128
    char_dim: int = 32
    char_hidden: int = 32
    ner_dim: int = 16
    hidden_dim: int = 256
    depth: int = 2
    vocab_limit: int = 50000
    char_vocab_limit: int = 200
    dropout: float = 0.3
    batch_size: int = 64
    lr: float = 0.5
    epochs: int = 15
    init_scale: float = 0.1
    # the emission rows feed the CRF as per-token probability vectors;
    # turning this off feeds raw logits instead (the conventional setup)
    normalize_emissions: bool = True
    stop_at_f1: float | None = None
    seed: int = 0

    def __post_init__(self):
        counts = ("word_dim", "char_dim", "char_hidden", "ner_dim", "hidden_dim", "depth")
        counts += ("vocab_limit", "char_vocab_limit", "batch_size", "epochs")
        self._require(counts, lambda v: v >= 1, ">= 1")
        self._require(("lr",), lambda v: v > 0, "> 0")
        self._require(("dropout",), lambda v: 0 <= v < 1, "in [0, 1)")

    @classmethod
    def desk(cls, **overrides) -> "ExtractorConfig":
        """Small dims for laptop-speed experiments and the overfit checks.

        Tiny corpora need per-paragraph updates, a gentler learning
        rate, and a larger init than the full-scale defaults:
        probability-row emissions squash gradients, so small-init
        features start nearly indistinguishable and large steps just
        make the transition matrix oscillate.
        """
        base = dict(
            word_dim=32,
            char_dim=8,
            char_hidden=16,
            ner_dim=8,
            hidden_dim=32,
            vocab_limit=200,
            char_vocab_limit=100,
            dropout=0.0,
            batch_size=1,
            lr=0.2,
            epochs=300,
            init_scale=0.3,
        )
        base.update(overrides)
        return cls(**base)
