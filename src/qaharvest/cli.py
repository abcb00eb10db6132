"""Command-line surface: train both models, harvest QA pairs, evaluate,
and audit gradients.

Subcommands and their artifacts:

    train-qg   SQuAD json -> qg.ckpt, qg_vocab.json, qg_train.csv
    train-ext  SQuAD json -> ext.ckpt, ext_word_vocab.json,
               ext_char_vocab.json, ext_train.csv
    harvest    SQuAD json + pipeline config -> QA-pair JSONL
    eval-qg    candidate/reference token files -> corpus BLEU table
    eval-ext   predicted/gold span JSONL -> overlap P/R/F table
    gradcheck  finite-difference audit of every training loss
    stats      question-type histogram of a question file or harvest run

Checkpoints embed their own hyperparameters, so harvest needs no
separate model config files and refuses a checkpoint without them.
Training and the gradient audit are deterministic given their seed;
harvest draws no random numbers. Exit codes: 0 success, 1 metric floor
or gradient failure, 2 usage errors and missing files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .corpus import Paragraph, QAExample, build_vocab, parse_squad
from .extractor import ExtractorConfig, ExtractorModel, make_extractor_example, train_extractor
from .generator import GeneratorConfig, QGModel, train_qg
from .gradsuite import gradient_suite
from .metrics import bleu, overlap_metrics, question_type_distribution
from .numerics import RngState
from .pipeline import (
    PipelineConfig,
    harvest,
    load_extractor,
    load_generator,
    qg_example_from_qa,
    read_span_records,
    write_records,
)

__all__ = ["entry"]


class UsageError(Exception):
    """Bad invocation: missing file, malformed input, empty corpus."""


def _require(path, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _read_squad(path):
    with open(_require(path, "data file"), "rb") as fh:
        raw = fh.read()
    try:
        return parse_squad(raw)
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}")


def _read_questions(path) -> list[list[str]]:
    with open(_require(path, "question file"), "r", encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines() if line.strip()]


def _config_file(cls, path):
    try:
        return cls.from_json(_require(path, "config file"))
    except ValueError as exc:
        raise UsageError(f"bad config {path}: {exc}")


def _load_config(cls, config_path, preset, seed):
    if config_path is not None:
        cfg = _config_file(cls, config_path)
    elif preset == "paper":
        cfg = cls()
    else:
        cfg = cls.desk()
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


# ------------------------------------------------------------- training


def _training_sets(args, make_examples):
    """(train, dev) examples built by ``make_examples(paragraphs, qas)``
    from ``--data`` and ``--dev``; without ``--dev`` the training set
    also selects the model."""
    paragraphs, qas, report = _read_squad(args.data)
    print(report.summary())
    train_set = make_examples(paragraphs, qas)
    if not train_set:
        raise UsageError("no usable training examples in data file")
    if not args.dev:
        print("no dev file given; selecting on the training set")
        return train_set, train_set
    dev_paragraphs, dev_qas, _ = _read_squad(args.dev)
    dev_set = make_examples(dev_paragraphs, dev_qas)
    if not dev_set:
        raise UsageError("no usable examples in dev file")
    return train_set, dev_set


def _save_run(out, name: str, model, vocabs: dict, result) -> int:
    """Write ``<name>.ckpt`` with the model's config embedded, each
    vocabulary under its file name, and ``<name>_train.csv``; exit 1 if
    training aborted."""
    os.makedirs(out, exist_ok=True)
    model.store.save(os.path.join(out, f"{name}.ckpt"), meta={"config": dataclasses.asdict(model.config)})
    for filename, vocab in vocabs.items():
        vocab.save(os.path.join(out, filename))
    result.write_csv(os.path.join(out, f"{name}_train.csv"))
    if result.aborted:
        print("training aborted on non-finite loss; best earlier snapshot kept", file=sys.stderr)
        return 1
    return 0


def _cmd_train_qg(args) -> int:
    cfg = _load_config(GeneratorConfig, args.config, args.preset, args.seed)
    train_set, dev_set = _training_sets(args, lambda paragraphs, qas: [qg_example_from_qa(qa) for qa in qas])
    tokens = [t for ex in train_set for t in ex.tokens]
    tokens += [t for ex in train_set for t in ex.question]
    vocab = build_vocab(tokens, cfg.vocab_limit)
    model = QGModel(cfg, vocab, RngState(cfg.seed))
    result = train_qg(model, train_set, dev_set)
    print(f"best epoch {result.best_epoch}: dev perplexity {result.best_dev_ppl:.4f}")
    return _save_run(args.out, "qg", model, {"qg_vocab.json": vocab}, result)


def _extractor_examples(paragraphs: list[Paragraph], qas: list[QAExample]):
    """One example per paragraph with gold answers, its deduplicated
    gold spans as targets."""
    by_key = {p.key(): p for p in paragraphs}
    spans: dict[tuple[str, int], dict] = {}
    for qa in qas:
        ident = (qa.answer.sentence_index, qa.answer.token_start, qa.answer.token_end)
        spans.setdefault(qa.paragraph.key(), {})[ident] = qa.answer
    return [make_extractor_example(by_key[key], list(group.values())) for key, group in spans.items()]


def _cmd_train_ext(args) -> int:
    cfg = _load_config(ExtractorConfig, args.config, args.preset, args.seed)
    train_set, dev_set = _training_sets(args, _extractor_examples)
    surfaces = [t.surface for ex in train_set for s in ex.paragraph.sentences for t in s]
    words = build_vocab(surfaces, cfg.vocab_limit)
    chars = build_vocab([c for w in surfaces for c in w], cfg.char_vocab_limit)
    model = ExtractorModel(cfg, words, chars, RngState(cfg.seed))
    result = train_extractor(model, train_set, dev_set)
    print(f"best epoch {result.best_epoch}: dev exact F1 {result.best_dev_f1:.4f}")
    vocabs = {"ext_word_vocab.json": words, "ext_char_vocab.json": chars}
    return _save_run(args.out, "ext", model, vocabs, result)


# -------------------------------------------------------------- harvest


def _cmd_harvest(args) -> int:
    cfg = _config_file(PipelineConfig, args.config)
    for path in cfg.paths():
        _require(path, "checkpoint or vocab file")
    paragraphs, _, report = _read_squad(args.data)
    print(report.summary())
    try:
        extractor = load_extractor(cfg.extractor_checkpoint, cfg.ext_word_vocab, cfg.ext_char_vocab)
        generator = load_generator(cfg.qg_checkpoint, cfg.qg_word_vocab)
    except ValueError as exc:
        # a truncated checkpoint, one without its config, or one that
        # does not fit its vocab or config
        raise UsageError(f"cannot load the models: {exc}")
    records, run = harvest(
        paragraphs,
        extractor,
        generator,
        span_cap=cfg.span_cap,
        beam_size=cfg.beam_size,
        max_decode_len=cfg.max_decode_len,
    )
    write_records(records, args.out)
    print(run.summary())
    print(f"wrote {len(records)} records to {args.out}")
    return 0


# ----------------------------------------------------------- evaluation


def _cmd_eval_qg(args) -> int:
    candidates = _read_questions(args.candidates)
    references = _read_questions(args.references)
    try:
        report = bleu(candidates, references, max_order=args.max_n, smooth_eps=args.smooth_eps)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.json:
        print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    else:
        print(report.summary())
        print("METEOR: not implemented")
    if args.floor is not None and report.bleu < args.floor:
        print(f"BLEU-{args.max_n} {report.bleu:.4f} below floor {args.floor}", file=sys.stderr)
        return 1
    return 0


def _span_file(path, what: str):
    try:
        return read_span_records(_require(path, what))
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_eval_ext(args) -> int:
    predicted = _span_file(args.predicted, "predicted span file")
    gold = _span_file(args.gold, "gold span file")
    report = overlap_metrics(predicted, gold)
    if args.json:
        # f1 is a derived property, so asdict alone would drop it
        payload = dataclasses.asdict(report)
        for name in ("exact", "binary", "proportional"):
            payload[name]["f1"] = getattr(report, name).f1
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.summary())
        print(f"{report.predicted_count} predicted, {report.gold_count} gold spans")
        for flag in report.flags:
            print(f"flag: {flag}")
    if args.floor is not None and report.proportional.f1 < args.floor:
        print(f"proportional F1 {report.proportional.f1:.4f} below floor {args.floor}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------ audit and stats


def _cmd_gradcheck(args) -> int:
    errors = gradient_suite(args.seed if args.seed is not None else 0)
    if args.json:
        print(json.dumps(errors, sort_keys=True))
    else:
        for name, err in errors.items():
            print(f"{name:12s} {err:.3e}")
    worst = max(errors.values())
    print(f"max relative error {worst:.3e} (threshold {args.threshold:.0e})")
    return 0 if worst < args.threshold else 1


def _cmd_stats(args) -> int:
    if args.records:
        questions = []
        with open(_require(args.records, "records file"), "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh.read().splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    questions.append(json.loads(line)["question"].split())
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise UsageError(f"{args.records}:{number}: not a harvest record ({exc!r})")
    else:
        questions = _read_questions(args.questions)
    if not questions:
        raise UsageError("no questions to classify")
    histogram = question_type_distribution(questions)
    if args.json:
        print(json.dumps(dict(histogram), sort_keys=True))
        return 0
    width = max(len(name) for name in histogram)
    for name, count in sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:{width}s} {count:6d}")
    print(f"{'total':{width}s} {sum(histogram.values()):6d}")
    return 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qaharvest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def training(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="SQuAD v1.1 json")
        p.add_argument("--dev", help="held-out SQuAD json for model selection")
        p.add_argument("--out", required=True, help="output directory")
        hyper = p.add_mutually_exclusive_group()
        hyper.add_argument("--config", help="hyperparameter json")
        hyper.add_argument("--preset", choices=("desk", "paper"), help="built-in hyperparameters (default desk)")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        return p

    training("train-qg", "train the question generator").set_defaults(run=_cmd_train_qg)
    training("train-ext", "train the answer-span extractor").set_defaults(run=_cmd_train_ext)

    p = sub.add_parser("harvest", help="extract spans and generate questions")
    p.add_argument("--config", required=True, help="pipeline config json")
    p.add_argument("--data", required=True, help="SQuAD v1.1 json (contexts only)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(run=_cmd_harvest)

    p = sub.add_parser("eval-qg", help="corpus BLEU of generated questions")
    p.add_argument("--candidates", required=True, help="one tokenized question per line")
    p.add_argument("--references", required=True, help="one tokenized question per line")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--smooth-eps", type=float, default=0.0)
    p.add_argument("--floor", type=float, help="exit 1 if BLEU falls below")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_eval_qg)

    p = sub.add_parser("eval-ext", help="span overlap P/R/F of extracted answers")
    p.add_argument("--predicted", required=True, help="span JSONL")
    p.add_argument("--gold", required=True, help="span JSONL")
    p.add_argument("--floor", type=float, help="exit 1 if proportional F1 falls below")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_eval_ext)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_gradcheck)

    p = sub.add_parser("stats", help="question-type histogram")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--records", help="harvest output JSONL")
    source.add_argument("--questions", help="one tokenized question per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_stats)
    return parser


def entry(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage or help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(entry())
