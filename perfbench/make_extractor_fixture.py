"""Train the desk-preset extractor checkpoint the harvest workloads load.

A random-init extractor finds no usable spans on the synthetic
paragraphs, so it cannot drive the generator. This script trains one
with the program's own trainer on paragraphs from the "fixture-train"
and "fixture-dev" seed namespaces, which no workload draws from, and
writes the checkpoint, both vocabularies and the training curve to
perfbench/fixture/.

    python3 perfbench/make_extractor_fixture.py

It takes a few minutes on one core and is deterministic: the same
program commit writes the same files.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fixtures import Lexicon, extractor_examples, extractor_vocabs, make_corpus, squad_json  # noqa: E402

from qaharvest.corpus import parse_squad  # noqa: E402
from qaharvest.extractor import ExtractorConfig, ExtractorModel, train_extractor  # noqa: E402
from qaharvest.numerics import RngState  # noqa: E402

FIXTURE_SEED = 0
OUT = HERE / "fixture"
# both paragraph shapes the harvest workloads use, half each
SHAPES = (((2,), 4, (100, 140)), ((4, 5, 6), 0, (40, 60)))


def examples(lex: Lexicon, purpose: str, per_shape: int):
    paragraphs = []
    for k, (answers, fillers, tokens) in enumerate(SHAPES):
        paragraphs += make_corpus(lex, FIXTURE_SEED, f"{purpose}-{k}", per_shape, answers, fillers, tokens)
    parsed, qas, _ = parse_squad(squad_json(paragraphs, with_questions=True))
    return extractor_examples(parsed, qas)


def main() -> int:
    lex = Lexicon()
    train_set = examples(lex, "fixture-train", 12)
    dev_set = examples(lex, "fixture-dev", 4)
    # raw-logit emissions: with the default probability rows the CRF
    # stayed at dev F1 0.12 after 40 epochs; with logits it reaches 1.0
    config = ExtractorConfig.desk(epochs=20, lr=0.1, normalize_emissions=False, stop_at_f1=1.0)
    words, chars = extractor_vocabs(train_set, config)
    model = ExtractorModel(config, words, chars, RngState(config.seed))
    report = train_extractor(model, train_set, dev_set, rng=RngState(config.seed))
    if report.aborted or report.best_dev_f1 < 0.9:
        print(f"fixture training failed: best dev F1 {report.best_dev_f1:.4f}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    model.store.save(OUT / "ext.ckpt", meta={"config": dataclasses.asdict(config)})
    words.save(OUT / "ext_word_vocab.json")
    chars.save(OUT / "ext_char_vocab.json")
    curve = [dataclasses.asdict(e) for e in report.curve]
    summary = {"best_epoch": report.best_epoch, "best_dev_f1": report.best_dev_f1, "curve": curve}
    (OUT / "training.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"best epoch {report.best_epoch}: dev exact F1 {report.best_dev_f1:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
