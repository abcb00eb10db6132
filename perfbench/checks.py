"""Output checks the benchmark runs before it reports a metric.

Each check returns a list of problems; an empty list means the output
passed. The digests let two commits be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math


def check_records(paragraph, records, span_cap: int) -> list[str]:
    """Harvest records of one paragraph: located in that paragraph, token
    and char bounds consistent with its tokens, answer text equal to the
    text slice, a question ending in '?', a finite score <= 0, and no
    more records than the span cap allows."""
    problems = []
    if len(records) > span_cap:
        problems.append(f"{len(records)} records exceed span cap {span_cap}")
    for r in records:
        where = f"{r.article_id}/{r.paragraph_index} s{r.sentence_index} t{r.token_start}-{r.token_end}"
        if (r.article_id, r.paragraph_index) != paragraph.key():
            problems.append(f"{where}: record names another paragraph")
            continue
        if not 0 <= r.sentence_index < len(paragraph.sentences):
            problems.append(f"{where}: sentence index out of range")
            continue
        sentence = paragraph.sentences[r.sentence_index]
        if not 0 <= r.token_start <= r.token_end < len(sentence):
            problems.append(f"{where}: token bounds out of range")
            continue
        if (r.char_start, r.char_end) != (sentence[r.token_start].char_start, sentence[r.token_end].char_end):
            problems.append(f"{where}: char bounds disagree with token bounds")
        if r.answer_text != paragraph.text[r.char_start : r.char_end]:
            problems.append(f"{where}: answer_text is not text[char_start:char_end]")
        if not r.question.endswith("?"):
            problems.append(f"{where}: question does not end in '?'")
        if not (math.isfinite(r.score) and r.score <= 0.0):
            problems.append(f"{where}: score {r.score!r} is not finite and <= 0")
    return problems


def check_record_count(predicted_spans: int, records: int, span_cap: int) -> list[str]:
    """One record per predicted span that survives the cap."""
    expected = min(predicted_spans, span_cap)
    return [] if records == expected else [f"{records} records for {predicted_spans} spans under cap {span_cap}"]


def check_curve(report, metric: str) -> list[str]:
    """A training run that finished every epoch with a finite curve."""
    problems = []
    if report.aborted:
        problems.append("training aborted")
    if not report.curve:
        problems.append("empty training curve")
    for entry in report.curve:
        values = (entry.train_nll, getattr(entry, metric))
        if not all(math.isfinite(v) for v in values):
            problems.append(f"epoch {entry.epoch}: non-finite curve value {values}")
    return problems


def curve_digest(report, metric: str) -> str:
    text = "\n".join(f"{e.epoch} {e.train_nll!r} {getattr(e, metric)!r}" for e in report.curve)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def exact_f1(predicted: set, gold: set) -> float:
    """Exact-match F1 of two sets of (paragraph, char_start, char_end)."""
    hits = len(predicted & gold)
    if not hits:
        return 0.0
    precision, recall = hits / len(predicted), hits / len(gold)
    return 2 * precision * recall / (precision + recall)
