"""SGD training for the extractor with exact-match-F1 model selection."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from ..metrics import overlap_metrics
from ..numerics import RngState, sgd_step
from .data import ExtractorExample
from .model import ExtractorModel

__all__ = ["ExtractorLogEntry", "ExtractorTrainReport", "dev_exact_f1", "train_extractor"]

logger = logging.getLogger("qaharvest.extractor")


@dataclass
class ExtractorLogEntry:
    epoch: int
    train_nll: float
    dev_f1: float


@dataclass
class ExtractorTrainReport:
    curve: list[ExtractorLogEntry] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_f1: float = -1.0
    aborted: bool = False

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_nll,dev_f1\n")
            for e in self.curve:
                fh.write(f"{e.epoch},{e.train_nll:.6f},{e.dev_f1:.6f}\n")


def dev_exact_f1(model: ExtractorModel, dev_set: list[ExtractorExample]) -> float:
    """Exact-match span F1 of Viterbi decoding against gold spans."""
    predicted = {}
    gold = {}
    for ex in dev_set:
        key = ex.paragraph.key()
        predicted[key] = list(model.predict(ex.paragraph).spans)
        gold[key] = list(ex.gold_spans)
    return overlap_metrics(predicted, gold).exact.f1


def train_extractor(
    model: ExtractorModel,
    train_set: list[ExtractorExample],
    dev_set: list[ExtractorExample],
    rng: RngState | None = None,
) -> ExtractorTrainReport:
    """Epochs of shuffled mini-batch SGD on the CRF loss, every
    hyperparameter from ``model.config``; keeps the parameters of the
    epoch with the highest dev exact-match F1. A non-finite training loss
    aborts the run and restores the best parameters seen so far. Write
    the curve with ``report.write_csv``."""
    config = model.config
    rng = rng or RngState(config.seed)
    if not train_set:
        raise ValueError("empty training set")
    if not dev_set:
        raise ValueError("empty dev set")

    report = ExtractorTrainReport()
    best_state = model.store.state()
    order = list(range(len(train_set)))

    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        total_nll = 0.0
        total_tokens = 0
        diverged = False
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            model.store.zero_grad()
            batch_loss = None
            for idx in batch:
                loss = model.nll(train_set[idx], train=True, rng=rng)
                total_nll += loss.item()
                total_tokens += len(train_set[idx].tags)
                batch_loss = loss if batch_loss is None else batch_loss + loss
            mean_loss = batch_loss * (1.0 / len(batch))
            if not math.isfinite(mean_loss.item()):
                diverged = True
                break
            mean_loss.backward()
            sgd_step(model.store, config.lr)
        if diverged:
            logger.warning("training diverged at epoch %d; restoring best checkpoint", epoch)
            report.aborted = True
            break
        f1 = dev_exact_f1(model, dev_set)
        report.curve.append(ExtractorLogEntry(epoch, total_nll / max(total_tokens, 1), f1))
        if f1 > report.best_dev_f1:
            report.best_dev_f1 = f1
            report.best_epoch = epoch
            best_state = model.store.state()
        if config.stop_at_f1 is not None and f1 >= config.stop_at_f1:
            break

    model.store.load_state(best_state)
    return report
