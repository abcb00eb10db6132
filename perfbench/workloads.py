"""The workloads, and the worker process that runs one of them.

    python3 perfbench/workloads.py prepare JOB.json
    python3 perfbench/workloads.py run JOB.json

run.py starts both steps as child processes with src/ on PYTHONPATH.
`prepare` writes the seeded inputs and the generator checkpoint into
the job's work directory; `run` measures in a fresh process, so its
peak RSS is the workload's own and not the fixture builder's. Each
workload is a closed loop with one caller: the next paragraph or
training run starts when the previous one returns.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture"
# records kept per paragraph; harvest()'s own default
SPAN_CAP = 10

# Every timed figure comes from the run's slowest pass or round. On a
# shared host, passes run up to 1.35x faster in spells of 10-30 s, and a
# spell can cover most of a run; the median pass then reports the spell.
# The slowest pass tracks the rate the machine keeps up between spells:
# over three sets of ten runs its worst spread across seeds was smaller
# than the median pass's (perfbench/README.md).


@dataclass(frozen=True)
class HarvestWorkload:
    name: str
    why: str
    answers: tuple[int, ...]  # planted answers per paragraph, cycled
    fillers: int  # sentences without an answer per paragraph
    # paragraph length range; each workload fixes it, so a seed changes
    # the words but not the amount of work
    tokens: tuple[int, int]
    paragraphs: int  # input file size, all parsed in setup
    # 0: desk generator with a vocabulary built from the input;
    # N > 0: paper-dims generator with N vocabulary rows
    vocab_rows: int
    trace_paragraphs: int  # fixed traced set, so its counts repeat exactly
    cycle: int  # the timed loop harvests the first `cycle` paragraphs, pass after pass
    min_passes: int  # at least 2: the passes are compared for determinism
    setups: int  # set-ups timed before each harvested paragraph, the last one used
    kind: str = "harvest"


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    answers: tuple[int, ...]
    fillers: int
    tokens: tuple[int, int]
    train_paragraphs: int
    dev_paragraphs: int
    epochs: int
    min_passes: int  # training rounds; at least 2, compared for determinism
    setups: int  # set-ups timed before each training run, the last one used
    kind: str = "train"


WORKLOADS = {
    w.name: w
    for w in (
        HarvestWorkload(
            name="harvest-desk-long",
            why=(
                "long wide-vocabulary paragraphs with 2 answers each: the extractor's char and word BiLSTMs "
                "dominate, the desk generator does little"
            ),
            answers=(2,),
            fillers=4,
            tokens=(120, 120),
            paragraphs=300,
            vocab_rows=0,
            trace_paragraphs=16,
            cycle=8,
            min_passes=5,
            setups=1,
        ),
        HarvestWorkload(
            name="harvest-paper-20k",
            why=(
                "short paragraphs with 4-6 answers and a paper-dims generator with 20k out.proj rows: "
                "decoding dominates, loading sets setup_s"
            ),
            answers=(5, 4, 6),
            fillers=0,
            tokens=(50, 50),
            paragraphs=60,
            vocab_rows=20004,
            trace_paragraphs=2,
            cycle=1,
            min_passes=3,
            # only 3 passes fit in a run, so one set-up per pass is too few samples
            setups=2,
        ),
        TrainWorkload(
            name="train-desk",
            why=(
                "train_extractor and train_qg at desk dims for fixed epochs, so tape, backward and SGD run; "
                "paragraphs_per_s and questions_per_s count training paragraphs and QG examples"
            ),
            answers=(2, 3),
            fillers=1,
            tokens=(40, 40),
            train_paragraphs=6,
            dev_paragraphs=2,
            epochs=2,
            min_passes=3,
            # a training set-up takes about 10 ms, so one alone is a noisy sample
            setups=5,
        ),
    )
}


def workload_from_dict(raw: dict):
    cls = HarvestWorkload if raw["kind"] == "harvest" else TrainWorkload
    fields = {f.name: raw[f.name] for f in dataclasses.fields(cls)}
    for key in ("answers", "tokens"):
        fields[key] = tuple(fields[key])
    return cls(**fields)


# ----------------------------------------------------------------- prepare


def prepare(job: dict) -> None:
    """Write the seeded inputs and, for harvest, the generator checkpoint."""
    from fixtures import Lexicon, make_corpus, squad_json, write_generator_checkpoint

    from qaharvest.corpus import Vocabulary, build_vocab, tokenize
    from qaharvest.generator import GeneratorConfig, QGModel
    from qaharvest.numerics import RngState

    w = workload_from_dict(job["workload"])
    seed, work = job["seed"], Path(job["workdir"])
    lex = Lexicon()
    if w.kind == "train":
        for part, count in (("train", w.train_paragraphs), ("dev", w.dev_paragraphs)):
            corpus = make_corpus(lex, seed, f"{w.name}-{part}", count, w.answers, w.fillers, w.tokens)
            (work / f"{part}.json").write_text(squad_json(corpus, with_questions=True), encoding="utf-8")
        return
    corpus = make_corpus(lex, seed, w.name, w.paragraphs, w.answers, w.fillers, w.tokens)
    (work / "contexts.json").write_text(squad_json(corpus, with_questions=False), encoding="utf-8")
    planted = {p.title: [[a.char_start, a.char_end] for a in p.answers] for p in corpus}
    (work / "planted.json").write_text(json.dumps(planted), encoding="utf-8")
    if not w.vocab_rows:
        config = GeneratorConfig.desk()
        words = [t.surface for p in corpus for t in tokenize(p.text)]
        vocab = build_vocab(words + "how many did ?".split(), config.vocab_limit)
    else:
        config = GeneratorConfig()
        vocab = Vocabulary(lex.words[: w.vocab_rows - 4])
    vocab.save(work / "qg_vocab.json")
    model = QGModel(config, vocab, RngState(0))
    write_generator_checkpoint(model, work / "qg.ckpt", seed, w.name, {"config": dataclasses.asdict(config)})


# --------------------------------------------------------------------- run


class Ops:
    """Operations attempted and failed, with the first problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def _timed(fn):
    """fn() and its seconds. The caller drops its previous result first,
    so two set-ups never live at once and peak RSS stays one set-up's."""
    gc.collect()
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


@dataclass
class Harvested:
    """One paragraph through harvest(): its output and how long it took."""

    paragraph: object
    records: list
    report: object  # None when harvest raised
    problems: list[str]
    seconds: float


def _harvest_pass(pipeline, paragraphs, ext, gen, tracer=None) -> list[Harvested]:
    """Harvest each paragraph once, in order, one harvest() call each."""
    done = []
    for p in paragraphs:
        if tracer is not None:
            tracer.paragraph = f"{p.article_id}/{p.paragraph_index}"
        t0 = perf_counter()
        try:
            records, report = pipeline.harvest([p], ext, gen, span_cap=SPAN_CAP)
            problems = []
        except Exception:
            records, report, problems = [], None, [f"{p.key()}: harvest raised\n{traceback.format_exc()}"]
        done.append(Harvested(p, records, report, problems, perf_counter() - t0))
    return done


def _check_pass(done: list[Harvested], reference: list[Harvested], ops: Ops, differ: str) -> None:
    """One operation per paragraph: the record checks, the report's
    count, and the same records as the reference pass."""
    from checks import check_records

    for h, ref in zip(done, reference):
        problems = list(h.problems)
        if h.report is not None:
            problems += check_records(h.paragraph, h.records, SPAN_CAP)
            if h.report.records != len(h.records):
                problems.append(f"{h.paragraph.key()}: report counts {h.report.records} records, got {len(h.records)}")
        if [r.to_json() for r in h.records] != [r.to_json() for r in ref.records]:
            problems.append(f"{h.paragraph.key()}: {differ}")
        ops.record(problems)


def _jsonl(pipeline, done: list[Harvested], path) -> str:
    from checks import file_digest

    pipeline.write_records([r for h in done for r in h.records], path)
    return file_digest(path)


def run_harvest(job: dict, w: HarvestWorkload) -> dict:
    import qaharvest.corpus as corpus
    import qaharvest.pipeline as pipeline
    from checks import check_record_count, exact_f1
    from tracing import Tracer, layer_metrics

    work = Path(job["workdir"])

    def setup():
        paragraphs, _, _ = corpus.parse_squad((work / "contexts.json").read_bytes())
        ext = pipeline.load_extractor(
            FIXTURE / "ext.ckpt", FIXTURE / "ext_word_vocab.json", FIXTURE / "ext_char_vocab.json"
        )
        gen = pipeline.load_generator(work / "qg.ckpt", work / "qg_vocab.json")
        return paragraphs, ext, gen

    ops = Ops()
    result: dict = {"digests": {}}
    if not job["trace"]:
        # fresh set-ups before every paragraph: the set-up times are many
        # and sample the machine across the whole run, as the passes do
        passes: list[list[Harvested]] = []
        setup_seconds: list[list[float]] = []  # per pass
        while len(passes) < w.min_passes or sum(h.seconds for done in passes for h in done) < job["seconds"]:
            done, setups = [], []
            for i in range(w.cycle):
                for _ in range(w.setups):
                    paragraphs = ext = gen = None
                    (paragraphs, ext, gen), seconds = _timed(setup)
                    setups.append(seconds)
                done += _harvest_pass(pipeline, paragraphs[i : i + 1], ext, gen)
            passes.append(done)
            setup_seconds.append(setups)
        first = passes[0]
        for h in first:
            h.problems += check_record_count(len(ext.predict(h.paragraph).spans), len(h.records), SPAN_CAP)
        for done in passes:
            _check_pass(done, first, ops, "records differ between passes")
        digest = _jsonl(pipeline, first, work / "pass1.jsonl")
        if _jsonl(pipeline, passes[1], work / "pass2.jsonl") != digest:
            ops.record(["second pass JSONL digest differs from the first"])
        result["digests"]["harvest_jsonl_sha256"] = digest
        seconds = [sum(h.seconds for h in done) for done in passes]
        questions = sum(len(h.records) for h in first)
        result["passes"] = {"paragraphs": w.cycle, "seconds": seconds, "setup_seconds": setup_seconds}
        result["metrics"] = {
            "setup_s": {"value": max(map(statistics.mean, setup_seconds)), "unit": "s"},
            "paragraphs_per_s": {"value": w.cycle / max(seconds), "unit": "1/s"},
            "questions_per_s": {"value": questions / max(seconds), "unit": "1/s"},
        }
    else:
        tracer = Tracer()
        tracer.install()
        paragraphs, ext, gen = setup()
        tracer.uninstall()
        chosen = paragraphs[: w.trace_paragraphs]
        t0 = perf_counter()
        plain = _harvest_pass(pipeline, chosen, ext, gen)
        plain_wall = perf_counter() - t0
        tracer.install()
        tracer.install_on(ext)
        lo = perf_counter()
        traced = _harvest_pass(pipeline, chosen, ext, gen, tracer)
        hi = perf_counter()
        tracer.paragraph = None
        digest = _jsonl(pipeline, traced, work / "traced.jsonl")
        tracer.uninstall()
        _check_pass(traced, plain, ops, "traced records differ from untraced ones")
        if _jsonl(pipeline, plain, work / "plain.jsonl") != digest:
            ops.record(["untraced and traced JSONL differ"])
        result["digests"]["harvest_jsonl_sha256"] = digest
        planted = json.loads((work / "planted.json").read_text(encoding="utf-8"))
        gold = {(h.paragraph.article_id, s, e) for h in traced for s, e in planted[h.paragraph.article_id]}
        found = {(r.article_id, r.char_start, r.char_end) for h in traced for r in h.records}
        store = getattr(gen, "store", None)
        facts = {
            "parsed_paragraphs": len(paragraphs),
            "tokens_per_paragraph": statistics.mean(sum(map(len, p.sentences)) for p in paragraphs),
            "spans_capped": sum(h.report.spans_capped for h in traced if h.report is not None),
            "span_exact_f1": exact_f1(found, gold),
            "out_proj_bytes": store["out.proj"].data.nbytes if store is not None and "out.proj" in store else None,
            "records_written": sum(len(h.records) for h in traced),
            "overhead_share": (hi - lo) / plain_wall - 1.0,
        }
        result.update(_trace_result(tracer, facts, lo, hi, job))
        result["metrics"] = layer_metrics(tracer, facts)
    result.update(ops=ops)
    return result


def run_train(job: dict, w: TrainWorkload) -> dict:
    import qaharvest.corpus as corpus
    import qaharvest.extractor as extractor
    import qaharvest.generator as generator
    import qaharvest.pipeline as pipeline
    from checks import check_curve, curve_digest
    from fixtures import extractor_examples, extractor_vocabs
    from tracing import Tracer, layer_metrics

    from qaharvest.numerics import RngState

    work = Path(job["workdir"])

    def setup():
        paragraphs, qas, _ = corpus.parse_squad((work / "train.json").read_bytes())
        dev_paragraphs, dev_qas, _ = corpus.parse_squad((work / "dev.json").read_bytes())
        qg_train = [pipeline.qg_example_from_qa(qa) for qa in qas]
        qg_dev = [pipeline.qg_example_from_qa(qa) for qa in dev_qas]
        ext_train = extractor_examples(paragraphs, qas)
        ext_dev = extractor_examples(dev_paragraphs, dev_qas)
        qcfg = generator.GeneratorConfig.desk(epochs=w.epochs)
        ecfg = extractor.ExtractorConfig.desk(epochs=w.epochs)
        words = [t for ex in qg_train for t in ex.tokens] + [t for ex in qg_train for t in ex.question]
        qg = generator.QGModel(qcfg, corpus.build_vocab(words, qcfg.vocab_limit), RngState(qcfg.seed))
        ext = extractor.ExtractorModel(ecfg, *extractor_vocabs(ext_train, ecfg), RngState(ecfg.seed))
        return {
            "paragraphs": paragraphs + dev_paragraphs,
            "qg": (qg, qg_train, qg_dev, generator.train_qg, "dev_ppl"),
            "ext": (ext, ext_train, ext_dev, extractor.train_extractor, "dev_f1"),
        }

    ops = Ops()
    digests: dict[str, str] = {}
    busy = {"qg": 0.0, "ext": 0.0}
    rates: dict[str, list[float]] = {"qg": [], "ext": []}

    def train_round(state, kinds=("qg", "ext")) -> dict:
        reports = {}
        for kind in kinds:
            model, train_set, dev_set, train, metric = state[kind]
            t0 = perf_counter()
            try:
                report = train(model, train_set, dev_set, rng=RngState(model.config.seed))
            except Exception:
                busy[kind] += perf_counter() - t0
                ops.record([f"{kind} training raised\n{traceback.format_exc()}"])
                continue
            seconds = perf_counter() - t0
            busy[kind] += seconds
            rates[kind].append(len(report.curve) * len(train_set) / seconds)
            problems = check_curve(report, metric)
            digest = curve_digest(report, metric)
            if digests.setdefault(f"{kind}_curve_sha256", digest) != digest:
                problems.append(f"{kind} training curve differs on repeat")
            ops.record(problems)
            reports[kind] = report
        return reports

    result: dict = {}
    if not job["trace"]:
        # fresh set-ups before every training run: the models start from
        # the same initial weights, and set-up times sample the whole run
        setup_seconds: list[list[float]] = []  # per round
        while len(setup_seconds) < w.min_passes or busy["qg"] + busy["ext"] < job["seconds"]:
            setups = []
            for kind in ("qg", "ext"):
                for _ in range(w.setups):
                    state = None
                    state, seconds = _timed(setup)
                    setups.append(seconds)
                train_round(state, (kind,))
            setup_seconds.append(setups)
        result["metrics"] = {
            "setup_s": {"value": max(map(statistics.mean, setup_seconds)), "unit": "s"},
            "paragraphs_per_s": {"value": min(rates["ext"]), "unit": "1/s"},
            "questions_per_s": {"value": min(rates["qg"]), "unit": "1/s"},
        }
        result["rounds"] = dict(rates, setup_seconds=setup_seconds)
    else:
        state = setup()
        t0 = perf_counter()
        train_round(state)
        plain_wall = perf_counter() - t0
        state = None
        tracer = Tracer()
        tracer.install()
        state = setup()
        tracer.install_on(state["ext"][0])
        lo = perf_counter()
        reports = train_round(state)
        hi = perf_counter()
        tracer.uninstall()
        ext_report = reports.get("ext")
        qg_store = state["qg"][0].store
        facts = {
            "parsed_paragraphs": len(state["paragraphs"]),
            "tokens_per_paragraph": statistics.mean(sum(map(len, p.sentences)) for p in state["paragraphs"]),
            "spans_capped": 0,
            "span_exact_f1": ext_report.curve[-1].dev_f1 if ext_report and ext_report.curve else None,
            "out_proj_bytes": qg_store["out.proj"].data.nbytes if "out.proj" in qg_store else None,
            "records_written": 0,
            "overhead_share": (hi - lo) / plain_wall - 1.0,
        }
        result.update(_trace_result(tracer, facts, lo, hi, job))
        result["metrics"] = layer_metrics(tracer, facts)
    result.update(ops=ops, digests=digests)
    return result


def _trace_result(tracer, facts: dict, lo: float, hi: float, job: dict) -> dict:
    """Where the traced wall time went: self time per span name and per
    layer, plus the remainder no span covers. Writes the spans out."""
    agg = tracer.aggregate(lo, hi)
    wall = hi - lo
    covered = tracer.top_level_seconds(lo, hi)
    self_total = sum(a["self"] for a in agg.values())
    layers: dict[str, float] = {}
    for name, a in agg.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + a["self"]
    spans_path = Path(job["spans_path"])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {
        "breakdown": {
            "traced_wall_s": wall,
            "untraced_remainder_s": wall - covered,
            "self_sum_s": self_total,
            "sum_error_s": self_total + (wall - covered) - wall,
            "layer_share": {k: v / wall for k, v in layers.items()},
            "span_self_s": {k: a["self"] for k, a in agg.items()},
        },
        "absent": sorted(tracer.absent),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }


def machine_facts() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name', '?')} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(job: dict) -> dict:
    w = workload_from_dict(job["workload"])
    result = (run_harvest if w.kind == "harvest" else run_train)(job, w)
    ops = result.pop("ops")
    if not job["trace"]:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    result.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems, machine=machine_facts())
    return result


def main(argv: list[str]) -> int:
    step, job_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if step == "prepare":
        prepare(job)
        return 0
    result = run(job)
    with open(Path(job["workdir"]) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main(sys.argv[1:]))
