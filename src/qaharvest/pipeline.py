"""End-to-end question-answer harvesting.

For each paragraph: predict answer spans, cap them, and for every
surviving span rewrite the span's sentence with coreference antecedents
(context = the preceding sentences of the same paragraph) and tag the
answer position. Then the beam searches of all of the paragraph's spans
decode in lockstep (``QGModel.generate_many``): each decoder step scores
every live hypothesis of every span in one batch. One record per (span,
question); a paragraph with no spans is skipped and counted.

The same sentence-rewriting path builds generator training examples
from gold QA pairs, so training inputs and harvest-time inputs match
token for token.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field

from .coref.resolve import MentionScorer, distance_scorer, resolve
from .coref.transform import transform
from .corpus.squad import QAExample
from .corpus.tagging import AnswerSpan, bio_tag_answer
from .corpus.tokens import Paragraph
from .corpus.vocab import Vocabulary
from .extractor.config import ExtractorConfig
from .extractor.model import ExtractorModel
from .generator.config import GeneratorConfig
from .generator.data import GeneratorExample
from .generator.model import QGModel
from .jsonconfig import JsonConfig
from .numerics import ParameterStore

__all__ = [
    "transform_for_generation",
    "qg_example_from_qa",
    "HarvestRecord",
    "HarvestReport",
    "harvest",
    "write_records",
    "span_record",
    "write_span_records",
    "read_span_records",
    "PipelineConfig",
    "load_generator",
    "load_extractor",
]

logger = logging.getLogger("qaharvest.pipeline")


# ------------------------------------------------------- example building


def transform_for_generation(
    paragraph: Paragraph,
    answer: AnswerSpan,
    scorer: MentionScorer = distance_scorer,
    question: list[str] | tuple = (),
) -> GeneratorExample:
    """Generator input for one answer span: the span's sentence with
    antecedents appended after its pronouns and the answer BIO tags
    re-projected through the rewrite."""
    sentences = [[t.surface for t in s] for s in paragraph.sentences[: answer.sentence_index + 1]]
    clusters = resolve(paragraph, answer.sentence_index, scorer)
    rewritten = transform(sentences, answer.sentence_index, clusters)
    bio = bio_tag_answer(len(sentences[answer.sentence_index]), answer)
    return GeneratorExample(
        tokens=rewritten.tokens,
        coref_tags=rewritten.coref_tags,
        scores=rewritten.scores,
        answer_tags=rewritten.project_answer_tags(bio),
        question=list(question),
    )


def qg_example_from_qa(qa: QAExample, scorer: MentionScorer = distance_scorer) -> GeneratorExample:
    return transform_for_generation(qa.paragraph, qa.answer, scorer, qa.gold_question)


# --------------------------------------------------------------- records


@dataclass
class HarvestRecord:
    """One harvested QA pair, locatable in its source paragraph."""

    article_id: str
    paragraph_index: int
    sentence_index: int
    question: str
    answer_text: str
    token_start: int
    token_end: int
    char_start: int
    char_end: int
    score: float
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, ensure_ascii=False)


@dataclass
class HarvestReport:
    paragraphs: int = 0
    skipped_no_spans: int = 0
    records: int = 0
    spans_capped: int = 0
    cross_sentence_dropped: int = 0
    unterminated: int = 0
    question_marks_appended: int = 0
    decode_steps: int = 0  # batched decoder steps, one per paragraph and token position
    decode_rows: int = 0  # hypotheses scored over those steps

    def summary(self) -> str:
        rows_per_step = self.decode_rows / self.decode_steps if self.decode_steps else 0.0
        return (
            f"harvested {self.records} records from {self.paragraphs} paragraphs "
            f"({self.skipped_no_spans} without spans); capped {self.spans_capped} spans, "
            f"dropped {self.cross_sentence_dropped} cross-sentence; "
            f"{self.unterminated} unterminated, {self.question_marks_appended} question marks appended; "
            f"{self.decode_steps} decode steps, {rows_per_step:.1f} hypotheses per step"
        )


def harvest(
    paragraphs: list[Paragraph],
    extractor: ExtractorModel,
    generator: QGModel,
    span_cap: int = 10,
    beam_size: int = 3,
    max_decode_len: int = 30,
    scorer: MentionScorer = distance_scorer,
) -> tuple[list[HarvestRecord], HarvestReport]:
    """Records for every paragraph's first ``span_cap`` predicted spans,
    one question each, decoded with beam width ``beam_size`` for at most
    ``max_decode_len`` tokens. The two decode settings come from the
    caller only; the generator's config holds none."""
    records: list[HarvestRecord] = []
    report = HarvestReport()
    for paragraph in paragraphs:
        report.paragraphs += 1
        extraction = extractor.predict(paragraph)
        report.cross_sentence_dropped += extraction.dropped_cross_sentence
        spans = list(extraction.spans)
        if len(spans) > span_cap:
            report.spans_capped += len(spans) - span_cap
            spans = spans[:span_cap]
        if not spans:
            report.skipped_no_spans += 1
            continue
        examples = [transform_for_generation(paragraph, span, scorer) for span in spans]
        generated = generator.generate_many(examples, beam_size, max_decode_len)
        # the searches start together, so the longest one counts the steps
        report.decode_steps += max(beam.steps for _, beam in generated)
        report.decode_rows += sum(beam.rows for _, beam in generated)
        for span, (tokens, beam) in zip(spans, generated):
            flags = list(beam.flags)
            if "unterminated" in flags:
                report.unterminated += 1
            if not tokens or tokens[-1] != "?":
                tokens = list(tokens) + ["?"]
                flags.append("question-mark-appended")
                report.question_marks_appended += 1
            records.append(
                HarvestRecord(
                    article_id=paragraph.article_id,
                    paragraph_index=paragraph.paragraph_index,
                    sentence_index=span.sentence_index,
                    question=" ".join(tokens),
                    answer_text=paragraph.text[span.char_start : span.char_end],
                    token_start=span.token_start,
                    token_end=span.token_end,
                    char_start=span.char_start,
                    char_end=span.char_end,
                    score=beam.logp,
                    flags=flags,
                )
            )
            report.records += 1
    logger.info("%s", report.summary())
    return records, report


def write_records(records: list[HarvestRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


# ------------------------------------------------------------ span files


def span_record(paragraph: Paragraph, span: AnswerSpan) -> dict:
    return {
        "article_id": paragraph.article_id,
        "paragraph_index": paragraph.paragraph_index,
        "sentence_index": span.sentence_index,
        "token_start": span.token_start,
        "token_end": span.token_end,
        "char_start": span.char_start,
        "char_end": span.char_end,
        "text": paragraph.text[span.char_start : span.char_end],
    }


def write_span_records(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_span_records(path) -> dict[tuple[str, int], list[tuple[int, int, int]]]:
    """Span JSONL grouped per paragraph for the overlap metrics. A line
    that is not a JSON object with the span fields raises ValueError
    naming the file and line."""
    grouped: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                key = (row["article_id"], row["paragraph_index"])
                span = (row["sentence_index"], row["token_start"], row["token_end"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{number}: not a span record ({exc!r})") from None
            grouped.setdefault(key, []).append(span)
    return grouped


# -------------------------------------------------------- config / loading


@dataclass
class PipelineConfig(JsonConfig):
    """Paths and knobs for a harvest run. Vocabularies are per model:
    the generator's word list includes question-side tokens, so the two
    models do not share one file. Each model's hyperparameters come from
    its checkpoint."""

    extractor_checkpoint: str
    qg_checkpoint: str
    qg_word_vocab: str
    ext_word_vocab: str
    ext_char_vocab: str
    beam_size: int = 3
    max_decode_len: int = 30
    span_cap: int = 10

    def __post_init__(self):
        self._require(("beam_size", "max_decode_len", "span_cap"), lambda v: v >= 1, ">= 1")

    def paths(self) -> list[str]:
        return [
            self.extractor_checkpoint,
            self.qg_checkpoint,
            self.qg_word_vocab,
            self.ext_word_vocab,
            self.ext_char_vocab,
        ]


def _embedded_config(checkpoint_path, cls):
    """The config a checkpoint was saved with; a checkpoint without one
    raises ``ValueError``, since a model's shapes do not determine its
    hyperparameters."""
    meta = ParameterStore.read_manifest(checkpoint_path).get("meta")
    if not isinstance(meta, dict) or "config" not in meta:
        raise ValueError(f"checkpoint {checkpoint_path} has no embedded {cls.__name__}")
    try:
        return cls.from_dict(meta["config"])
    except ValueError as exc:
        raise ValueError(f"checkpoint {checkpoint_path} config does not fit {cls.__name__}: {exc}") from None


def load_generator(checkpoint_path, word_vocab_path) -> QGModel:
    """Rebuild a generator from its checkpoint and the config embedded in
    it. Shapes are verified against the checkpoint. The model is built
    with zero weights, since the checkpoint overwrites every one of
    them."""
    config = _embedded_config(checkpoint_path, GeneratorConfig)
    vocab = Vocabulary.load(word_vocab_path)
    model = QGModel(config, vocab, None)
    model.store.load(checkpoint_path)
    return model


def load_extractor(checkpoint_path, word_vocab_path, char_vocab_path) -> ExtractorModel:
    config = _embedded_config(checkpoint_path, ExtractorConfig)
    words = Vocabulary.load(word_vocab_path)
    chars = Vocabulary.load(char_vocab_path)
    model = ExtractorModel(config, words, chars, None)
    model.store.load(checkpoint_path)
    return model
