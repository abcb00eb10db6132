"""Coreference-aware question generation: gated feature embeddings,
BiLSTM encoder, attention-and-copy LSTM decoder, training with
dev-perplexity selection, and protected beam search, run in lockstep
over many sentences with a tape-free batched decoder step."""

from .beam import BeamResult, beam_search, beam_search_many
from .config import GeneratorConfig
from .data import DynamicVocab, GeneratorExample
from .model import DecodeStep, EncoderOutput, QGModel, gate_coref_features
from .train import TrainReport, train_qg

__all__ = [
    "GeneratorConfig",
    "GeneratorExample",
    "DynamicVocab",
    "QGModel",
    "EncoderOutput",
    "DecodeStep",
    "gate_coref_features",
    "BeamResult",
    "beam_search",
    "beam_search_many",
    "TrainReport",
    "train_qg",
]
