"""Spans around the program's layer functions, patched in from outside.

The benchmark edits nothing under src/: a Tracer replaces each layer's
public function (or method) with a wrapper that records a span, and
puts the original back on uninstall. A span holds its name, start, end,
parent span, and the paragraph and question it worked for. Self time is
a span's duration minus the time its child spans cover, so the self
times of all spans plus the time no span covers add up to the wall time
of the traced region.

A patch site that no longer exists (renamed or deleted in a later
commit) is recorded as absent; the metrics that need it are left out
of the result instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (span name, module, attribute path). The module is the one whose
# binding the caller looks up at call time: the pipeline imports
# resolve/transform by name, so those are patched in qaharvest.pipeline.
SITES = (
    ("corpus.parse", "qaharvest.corpus", "parse_squad"),
    ("pipeline.load_extractor", "qaharvest.pipeline", "load_extractor"),
    ("pipeline.load_generator", "qaharvest.pipeline", "load_generator"),
    ("pipeline.harvest", "qaharvest.pipeline", "harvest"),
    ("pipeline.write_records", "qaharvest.pipeline", "write_records"),
    ("extractor.predict", "qaharvest.extractor.model", "ExtractorModel.predict"),
    ("extractor.emissions", "qaharvest.extractor.model", "ExtractorModel.emissions"),
    ("extractor.token_inputs", "qaharvest.extractor.model", "ExtractorModel.token_inputs"),
    ("extractor.char_rep", "qaharvest.extractor.model", "ExtractorModel.char_rep"),
    ("extractor.viterbi", "qaharvest.extractor.model", "viterbi"),
    ("extractor.nll", "qaharvest.extractor.model", "ExtractorModel.nll"),
    ("extractor.crf_nll", "qaharvest.extractor.model", "crf_nll"),
    ("extractor.dev_f1", "qaharvest.extractor.train", "dev_exact_f1"),
    ("extractor.train", "qaharvest.extractor", "train_extractor"),
    ("coref.resolve", "qaharvest.pipeline", "resolve"),
    ("coref.transform", "qaharvest.pipeline", "transform"),
    ("generator.embed_inputs", "qaharvest.generator.model", "QGModel.embed_inputs"),
    ("generator.encode", "qaharvest.generator.model", "QGModel.encode"),
    ("generator.decode_step", "qaharvest.generator.model", "QGModel.decode_step"),
    ("generator.beam", "qaharvest.generator.beam", "beam_search"),
    ("generator.generate", "qaharvest.generator.model", "QGModel.generate"),
    ("generator.nll", "qaharvest.generator.model", "QGModel.nll"),
    ("generator.dev_ppl", "qaharvest.generator.model", "QGModel.perplexity"),
    ("generator.train", "qaharvest.generator", "train_qg"),
    ("numerics.backward", "qaharvest.numerics.tensor", "Tensor.backward"),
    ("numerics.sgd_step", "qaharvest.generator.train", "sgd_step"),
    ("numerics.sgd_step", "qaharvest.extractor.train", "sgd_step"),
)
# the NER tagger is an instance attribute fixed at model construction
INSTANCE_SITES = (("extractor.ner", "ner_tagger"),)
TENSOR_SITE = ("qaharvest.numerics.tensor", "Tensor.__init__")
# generator.nll under generator.dev_ppl is dev-set scoring, not training
RENAMED_UNDER = {("generator.nll", "generator.dev_ppl"): "generator.dev_nll"}


def _observe(name: str, result) -> dict[str, int]:
    """Counts read off a layer's return value."""
    if name == "extractor.predict":
        return {"spans": len(result.spans), "dropped": result.dropped_cross_sentence}
    if name == "coref.transform":
        return {"antecedents": sum(tag == "B_ANT" for tag in result.coref_tags)}
    if name == "generator.generate":
        return {"unterminated": int("unterminated" in result[1].flags)}
    return {}


def _resolve(module: str, path: str):
    """(owner, attribute name) of a patch site, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    paragraph: str | None
    question: int | None
    tensors: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.paragraph: str | None = None
        self.tensors = 0
        self._question: int | None = None
        self._questions = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if name == "generator.generate":
                tracer._question = tracer._questions
                tracer._questions += 1
            span = Span(name, perf_counter(), 0.0, parent, tracer.paragraph, tracer._question, tracer.tensors)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.tensors = tracer.tensors - span.tensors
                tracer._stack.pop()
                if name == "generator.generate":
                    tracer._question = None
            for key, value in _observe(name, result).items():
                tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every module- and class-level site, and count tensors."""
        for name, module, path in SITES:
            site = _resolve(module, path)
            if site is None:
                self.absent.add(name)
                continue
            owner, attr = site
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        site = _resolve(*TENSOR_SITE)
        if site is None:
            self.absent.add("numerics.tensor")
            return
        owner, attr = site
        original = getattr(owner, attr)
        tracer = self

        def counting_init(self_, *args, **kwargs):
            tracer.tensors += 1
            original(self_, *args, **kwargs)

        self._patch(owner, attr, counting_init)

    def install_on(self, model) -> None:
        """Wrap the per-instance sites of one model object."""
        for name, attr in INSTANCE_SITES:
            if hasattr(model, attr):
                self._patch(model, attr, self._wrap(name, getattr(model, attr)))
            else:
                self.absent.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                row.update(paragraph=s.paragraph, question=s.question, tensors=s.tensors)
                fh.write(json.dumps(row) + "\n")

    def aggregate(self, lo: float = float("-inf"), hi: float = float("inf")) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration, total self time and
        tensors built, over the spans that lie within [lo, hi]."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        agg: dict[str, dict[str, float]] = defaultdict(_empty)
        for i, s in enumerate(self.spans):
            if s.start < lo or s.end > hi:
                continue
            parent = self.spans[s.parent].name if s.parent >= 0 else None
            a = agg[RENAMED_UNDER.get((s.name, parent), s.name)]
            a["n"] += 1
            a["dur"] += s.end - s.start
            a["self"] += s.end - s.start - child[i]
            a["tensors"] += s.tensors
        return agg

    def top_level_seconds(self, lo: float, hi: float) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0 and s.start >= lo and s.end <= hi)


# ------------------------------------------------------------- metrics


def _empty() -> dict[str, float]:
    return {"n": 0, "dur": 0.0, "self": 0.0, "tensors": 0}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]


# name, unit, better, and the spans it needs; perfbench/README.md says
# what each one measures. Metrics that need no span come from the
# benchmark's own bookkeeping.
LAYER_METRICS = (
    LayerMetric("corpus.parse_ms", "ms/paragraph", "lower", ("corpus.parse",)),
    LayerMetric("corpus.tokens_per_paragraph", "count/paragraph", "lower", ()),
    LayerMetric("extractor.ner_ms", "ms/paragraph", "lower", ("extractor.ner",)),
    LayerMetric("extractor.token_inputs_self_ms", "ms/paragraph", "lower", ("extractor.token_inputs", "extractor.char_rep")),
    LayerMetric("extractor.char_rep_ms", "ms/paragraph", "lower", ("extractor.token_inputs", "extractor.char_rep")),
    LayerMetric("extractor.char_rep_calls", "count/paragraph", "lower", ("extractor.token_inputs", "extractor.char_rep")),
    LayerMetric("extractor.emissions_self_ms", "ms/paragraph", "lower", ("extractor.emissions", "extractor.token_inputs")),
    LayerMetric("extractor.viterbi_ms", "ms/paragraph", "lower", ("extractor.viterbi",)),
    LayerMetric("extractor.predict_ms", "ms/paragraph", "lower", ("extractor.predict",)),
    LayerMetric("extractor.spans_per_paragraph", "count/paragraph", "higher", ("extractor.predict",)),
    LayerMetric("extractor.spans_capped", "count", "lower", ()),
    LayerMetric("extractor.cross_sentence_dropped", "count", "lower", ("extractor.predict",)),
    LayerMetric("extractor.span_exact_f1", "share", "higher", ()),
    LayerMetric("coref.resolve_ms", "ms/span", "lower", ("coref.resolve",)),
    LayerMetric("coref.transform_ms", "ms/span", "lower", ("coref.transform",)),
    LayerMetric("coref.pronouns_expanded", "count", "higher", ("coref.transform",)),
    LayerMetric("generator.encode_ms", "ms/question", "lower", ("generator.embed_inputs", "generator.encode")),
    LayerMetric("generator.decode_step_ms", "ms/call", "lower", ("generator.decode_step",)),
    LayerMetric("generator.decode_steps_per_question", "count/question", "lower", ("generator.decode_step", "generator.encode")),
    LayerMetric("generator.beam_self_ms", "ms/question", "lower", ("generator.beam", "generator.decode_step")),
    LayerMetric("generator.generate_ms", "ms/question", "lower", ("generator.generate",)),
    LayerMetric("generator.unterminated_share", "share", "lower", ("generator.generate",)),
    LayerMetric("generator.out_proj_bytes_per_step", "bytes/step", "lower", ()),
    LayerMetric("numerics.tensors_per_paragraph", "count/paragraph", "lower", ("numerics.tensor", "extractor.predict")),
    LayerMetric("numerics.tensors_per_question", "count/question", "lower", ("numerics.tensor", "generator.generate")),
    LayerMetric("numerics.tensors_per_train_example", "count/example", "lower", ("numerics.tensor", "generator.nll", "extractor.nll")),
    LayerMetric("numerics.backward_ms", "ms/example", "lower", ("numerics.backward", "generator.nll", "extractor.nll")),
    LayerMetric("numerics.sgd_step_ms", "ms/example", "lower", ("numerics.sgd_step", "generator.nll", "extractor.nll")),
    LayerMetric("generator.train_nll_ms", "ms/example", "lower", ("generator.nll", "generator.dev_ppl")),
    LayerMetric("extractor.train_nll_ms", "ms/example", "lower", ("extractor.nll",)),
    LayerMetric("extractor.crf_nll_ms", "ms/example", "lower", ("extractor.crf_nll", "extractor.nll")),
    LayerMetric("generator.dev_ppl_ms", "ms/epoch", "lower", ("generator.dev_ppl",)),
    LayerMetric("extractor.dev_f1_ms", "ms/epoch", "lower", ("extractor.dev_f1",)),
    LayerMetric("pipeline.load_extractor_s", "s", "lower", ("pipeline.load_extractor",)),
    LayerMetric("pipeline.load_generator_s", "s", "lower", ("pipeline.load_generator",)),
    LayerMetric("pipeline.write_records_ms", "ms/record", "lower", ("pipeline.write_records",)),
    LayerMetric("pipeline.harvest_self_ms", "ms/paragraph", "lower", ("pipeline.harvest",)),
    LayerMetric("trace.overhead_share", "share", "lower", ()),
)


def layer_values(a, counts, facts: dict) -> dict[str, float]:
    """Every per-layer metric from span aggregates (as from
    Tracer.aggregate), observed counts and the benchmark's facts; a layer
    that did not run reads 0, and a fact the benchmark could not
    establish reads None."""
    ms = 1e3
    n_train = a["generator.nll"]["n"] + a["extractor.nll"]["n"]
    return {
        "corpus.parse_ms": _per(a["corpus.parse"]["dur"] * ms, facts["parsed_paragraphs"]),
        "corpus.tokens_per_paragraph": facts["tokens_per_paragraph"],
        "extractor.ner_ms": _per(a["extractor.ner"]["dur"] * ms, a["extractor.ner"]["n"]),
        "extractor.token_inputs_self_ms": _per(a["extractor.token_inputs"]["self"] * ms, a["extractor.token_inputs"]["n"]),
        "extractor.char_rep_ms": _per(a["extractor.char_rep"]["dur"] * ms, a["extractor.token_inputs"]["n"]),
        "extractor.char_rep_calls": _per(a["extractor.char_rep"]["n"], a["extractor.token_inputs"]["n"]),
        "extractor.emissions_self_ms": _per(a["extractor.emissions"]["self"] * ms, a["extractor.emissions"]["n"]),
        "extractor.viterbi_ms": _per(a["extractor.viterbi"]["dur"] * ms, a["extractor.viterbi"]["n"]),
        "extractor.predict_ms": _per(a["extractor.predict"]["dur"] * ms, a["extractor.predict"]["n"]),
        "extractor.spans_per_paragraph": _per(counts["extractor.predict.spans"], a["extractor.predict"]["n"]),
        "extractor.spans_capped": facts["spans_capped"],
        "extractor.cross_sentence_dropped": counts["extractor.predict.dropped"],
        "extractor.span_exact_f1": facts["span_exact_f1"],
        "coref.resolve_ms": _per(a["coref.resolve"]["dur"] * ms, a["coref.resolve"]["n"]),
        "coref.transform_ms": _per(a["coref.transform"]["dur"] * ms, a["coref.transform"]["n"]),
        "coref.pronouns_expanded": counts["coref.transform.antecedents"],
        "generator.encode_ms": _per(
            (a["generator.embed_inputs"]["dur"] + a["generator.encode"]["dur"]) * ms, a["generator.encode"]["n"]
        ),
        "generator.decode_step_ms": _per(a["generator.decode_step"]["dur"] * ms, a["generator.decode_step"]["n"]),
        "generator.decode_steps_per_question": _per(a["generator.decode_step"]["n"], a["generator.encode"]["n"]),
        "generator.beam_self_ms": _per(a["generator.beam"]["self"] * ms, a["generator.generate"]["n"]),
        "generator.generate_ms": _per(a["generator.generate"]["dur"] * ms, a["generator.generate"]["n"]),
        "generator.unterminated_share": _per(counts["generator.generate.unterminated"], a["generator.generate"]["n"]),
        "generator.out_proj_bytes_per_step": facts["out_proj_bytes"],
        "numerics.tensors_per_paragraph": _per(a["extractor.predict"]["tensors"], a["extractor.predict"]["n"]),
        "numerics.tensors_per_question": _per(a["generator.generate"]["tensors"], a["generator.generate"]["n"]),
        "numerics.tensors_per_train_example": _per(
            a["generator.nll"]["tensors"] + a["extractor.nll"]["tensors"], n_train
        ),
        "numerics.backward_ms": _per(a["numerics.backward"]["dur"] * ms, n_train),
        "numerics.sgd_step_ms": _per(a["numerics.sgd_step"]["dur"] * ms, n_train),
        "generator.train_nll_ms": _per(a["generator.nll"]["dur"] * ms, a["generator.nll"]["n"]),
        "extractor.train_nll_ms": _per(a["extractor.nll"]["dur"] * ms, a["extractor.nll"]["n"]),
        "extractor.crf_nll_ms": _per(a["extractor.crf_nll"]["dur"] * ms, a["extractor.nll"]["n"]),
        "generator.dev_ppl_ms": _per(a["generator.dev_ppl"]["dur"] * ms, a["generator.dev_ppl"]["n"]),
        "extractor.dev_f1_ms": _per(a["extractor.dev_f1"]["dur"] * ms, a["extractor.dev_f1"]["n"]),
        "pipeline.load_extractor_s": _per(a["pipeline.load_extractor"]["dur"], a["pipeline.load_extractor"]["n"]),
        "pipeline.load_generator_s": _per(a["pipeline.load_generator"]["dur"], a["pipeline.load_generator"]["n"]),
        "pipeline.write_records_ms": _per(a["pipeline.write_records"]["dur"] * ms, facts["records_written"]),
        "pipeline.harvest_self_ms": _per(a["pipeline.harvest"]["self"] * ms, a["pipeline.harvest"]["n"]),
        "trace.overhead_share": facts["overhead_share"],
    }


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, dict]:
    """Result entries for every per-layer metric whose spans exist."""
    values = layer_values(tracer.aggregate(), tracer.counts, facts)
    out = {}
    for m in LAYER_METRICS:
        if tracer.absent.intersection(m.needs) or values[m.name] is None:
            continue
        out[m.name] = {"value": values[m.name], "unit": m.unit}
    return out
