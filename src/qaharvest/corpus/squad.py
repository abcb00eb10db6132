"""SQuAD v1.1 ingestion.

Expected JSON shape (v1.1):

    {"data": [{"title": str,
               "paragraphs": [{"context": str,
                               "qas": [{"id": str,
                                        "question": str,
                                        "answers": [{"text": str,
                                                     "answer_start": int}]}]}]}]}

Every malformed entry is skipped with a counted, logged reason rather
than dropped silently; the counts come back in a ParseReport.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .tagging import AnswerSpan, CrossSentenceAnswerError, bio_tag_answer, char_to_token_span
from .tokens import Paragraph, paragraph_from_text, tokenize

__all__ = ["QAExample", "ParseReport", "parse_squad"]

log = logging.getLogger("qaharvest.corpus")


@dataclass
class QAExample:
    """A gold answer span paired with a question.

    answer_bio tags the original sentence; the coreference transform
    re-projects the tags when it rewrites the token sequence.
    """

    paragraph: Paragraph
    answer: AnswerSpan
    gold_question: list[str]
    answer_bio: list[str]
    snapped: bool = False

    @property
    def sentence(self) -> list[str]:
        return self.paragraph.sentence_surfaces(self.answer.sentence_index)


@dataclass
class ParseReport:
    paragraphs: int = 0
    examples: int = 0
    snapped: int = 0
    skipped_no_answers: int = 0
    skipped_mismatch: int = 0
    skipped_cross_sentence: int = 0
    skipped_empty: int = 0

    def skipped_total(self) -> int:
        return self.skipped_no_answers + self.skipped_mismatch + self.skipped_cross_sentence + self.skipped_empty

    def summary(self) -> str:
        return (
            f"parsed {self.paragraphs} paragraphs, {self.examples} examples "
            f"({self.snapped} boundary-snapped); skipped {self.skipped_total()} "
            f"(no answers {self.skipped_no_answers}, text mismatch {self.skipped_mismatch}, "
            f"cross-sentence {self.skipped_cross_sentence}, empty {self.skipped_empty})"
        )


def parse_squad(raw: bytes | str) -> tuple[list[Paragraph], list[QAExample], ParseReport]:
    doc = json.loads(raw)
    if "data" not in doc:
        raise ValueError("missing top-level 'data' field")
    paragraphs: list[Paragraph] = []
    examples: list[QAExample] = []
    report = ParseReport()
    for article in doc["data"]:
        article_id = article.get("title", f"article-{len(paragraphs)}")
        for p_idx, para_doc in enumerate(article["paragraphs"]):
            paragraph = paragraph_from_text(article_id, p_idx, para_doc["context"])
            if not paragraph.sentences:
                continue
            paragraphs.append(paragraph)
            report.paragraphs += 1
            for qa in para_doc.get("qas", []):
                _ingest_qa(paragraph, qa, examples, report)
    log.info("%s", report.summary())
    return paragraphs, examples, report


def _ingest_qa(paragraph: Paragraph, qa: dict, examples: list[QAExample], report: ParseReport) -> None:
    qa_id = qa.get("id", "?")
    answers = qa.get("answers", [])
    if not answers:
        report.skipped_no_answers += 1
        log.info("skipping qa %s: no answers", qa_id)
        return
    question = [t.surface for t in tokenize(qa.get("question", ""))]
    if not question:
        report.skipped_empty += 1
        log.info("skipping qa %s: empty question", qa_id)
        return
    # first answer candidate that checks out wins; dev-set qas repeat answers
    seen: set[tuple[int, str]] = set()
    first_failure: str | None = None
    for ans in answers:
        text = ans["text"]
        start = ans["answer_start"]
        if (start, text) in seen:
            continue
        seen.add((start, text))
        if not 0 <= start < len(paragraph.text) or paragraph.text[start : start + len(text)].lower() != text.lower():
            first_failure = first_failure or "mismatch"
            log.info("qa %s: answer text not found at offset %d", qa_id, start)
            continue
        try:
            span, snapped = char_to_token_span(paragraph, start, text)
        except CrossSentenceAnswerError:
            first_failure = first_failure or "cross_sentence"
            log.info("qa %s: cross-sentence answer", qa_id)
            continue
        except ValueError:
            first_failure = first_failure or "mismatch"
            log.info("qa %s: answer overlaps no token", qa_id)
            continue
        sentence_len = len(paragraph.sentences[span.sentence_index])
        examples.append(
            QAExample(
                paragraph=paragraph,
                answer=span,
                gold_question=question,
                answer_bio=bio_tag_answer(sentence_len, span),
                snapped=snapped,
            )
        )
        report.examples += 1
        if snapped:
            report.snapped += 1
        return
    if first_failure == "cross_sentence":
        report.skipped_cross_sentence += 1
    else:
        report.skipped_mismatch += 1
    log.info("skipping qa %s: no usable answer", qa_id)
