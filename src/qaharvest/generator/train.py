"""SGD training for the question generator with dev-perplexity model
selection and a divergence guard."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from ..numerics import RngState, sgd_step
from .data import GeneratorExample
from .model import QGModel

__all__ = ["TrainLogEntry", "TrainReport", "train_qg"]

logger = logging.getLogger("qaharvest.generator")


@dataclass
class TrainLogEntry:
    epoch: int
    train_nll: float
    dev_ppl: float


@dataclass
class TrainReport:
    curve: list[TrainLogEntry] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_ppl: float = math.inf
    aborted: bool = False

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_nll,dev_ppl\n")
            for e in self.curve:
                fh.write(f"{e.epoch},{e.train_nll:.6f},{e.dev_ppl:.6f}\n")


def train_qg(
    model: QGModel,
    train_set: list[GeneratorExample],
    dev_set: list[GeneratorExample],
    rng: RngState | None = None,
) -> TrainReport:
    """Epochs of shuffled mini-batch SGD, every hyperparameter from
    ``model.config``; keeps the parameters of the epoch with the lowest
    dev perplexity. A non-finite training loss aborts the run and
    restores the best parameters seen so far. Write the curve with
    ``report.write_csv``."""
    config = model.config
    rng = rng or RngState(config.seed)
    if not train_set:
        raise ValueError("empty training set")
    if not dev_set:
        raise ValueError("empty dev set")

    report = TrainReport()
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
                loss, n_tok, _ = model.nll(train_set[idx], train=True, rng=rng)
                total_nll += loss.item()
                total_tokens += n_tok
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
        dev_ppl = model.perplexity(dev_set)
        entry = TrainLogEntry(epoch, total_nll / max(total_tokens, 1), dev_ppl)
        report.curve.append(entry)
        if dev_ppl < report.best_dev_ppl:
            report.best_dev_ppl = dev_ppl
            report.best_epoch = epoch
            best_state = model.store.state()
        if config.stop_below_ppl is not None and dev_ppl < config.stop_below_ppl:
            break

    model.store.load_state(best_state)
    return report
