"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks
that the result line names exactly the metrics BENCHMARK.json lists,
with the same units; that the output checks reject corrupted records
and training curves; that a vanished patch site leaves its metrics out
instead of failing; and that the benchmark exits non-zero, printing no
result, where the program's source is missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "harvest-desk-long": dict(paragraphs=3, trace_paragraphs=1, cycle=1, min_passes=2),
    "harvest-paper-20k": dict(paragraphs=2, vocab_rows=1004, trace_paragraphs=1, cycle=1, min_passes=2),
    "train-desk": dict(train_paragraphs=2, dev_paragraphs=1, epochs=1, min_passes=2),
}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TinyWorkloads(unittest.TestCase):
    def run_tiny(self, name: str, trace: int) -> dict:
        tiny = {n: dataclasses.replace(w, **TINY[n]) for n, w in WORKLOADS.items()}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)], tiny)
        self.assertEqual(code, 0, out.getvalue())
        line = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        return line["metrics"]

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = benchmark_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    metrics = self.run_tiny(name, trace)
                    self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected)
                    for k, v in metrics.items():
                        self.assertTrue(math.isfinite(v["value"]), k)
                        if trace == 0:
                            self.assertGreater(v["value"], 0.0, k)

    def test_layer_metric_table_matches_benchmark_json(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in benchmark_spec()["per_layer"]]
        self.assertEqual(listed, [(m.name, m.unit, m.better) for m in tracing.LAYER_METRICS])


class OutputChecks(unittest.TestCase):
    def setUp(self):
        from qaharvest.corpus import paragraph_from_text
        from qaharvest.pipeline import HarvestRecord

        text = "Mira Osk was born in Tal. She built 412 bridges in the north."
        self.paragraph = paragraph_from_text("art", 0, text)
        sentence = self.paragraph.sentences[1]
        number = next(i for i, t in enumerate(sentence) if t.surface == "412")
        self.record = HarvestRecord(
            article_id="art",
            paragraph_index=0,
            sentence_index=1,
            question="how many bridges did she build ?",
            answer_text="412",
            token_start=number,
            token_end=number,
            char_start=sentence[number].char_start,
            char_end=sentence[number].char_end,
            score=-3.5,
        )

    def test_valid_record_passes(self):
        self.assertEqual(checks.check_records(self.paragraph, [self.record], span_cap=10), [])

    def test_corrupted_records_fail(self):
        r = self.record
        corruptions = {
            "answer text": dict(answer_text="413"),
            "char bounds": dict(char_end=r.char_end + 1),
            "token bounds": dict(token_end=99),
            "sentence index": dict(sentence_index=7),
            "paragraph": dict(paragraph_index=3),
            "question mark": dict(question="how many bridges did she build"),
            "positive score": dict(score=0.25),
            "nan score": dict(score=float("nan")),
            "infinite score": dict(score=float("-inf")),
        }
        for what, change in corruptions.items():
            with self.subTest(what):
                bad = dataclasses.replace(r, **change)
                self.assertNotEqual(checks.check_records(self.paragraph, [bad], span_cap=10), [])
        self.assertNotEqual(checks.check_records(self.paragraph, [r, r], span_cap=1), [])

    def test_record_count_against_spans(self):
        self.assertEqual(checks.check_record_count(12, 10, span_cap=10), [])
        self.assertNotEqual(checks.check_record_count(3, 2, span_cap=10), [])

    def test_bad_training_curves_fail(self):
        from qaharvest.generator.train import TrainLogEntry, TrainReport

        good = TrainReport(curve=[TrainLogEntry(1, 2.0, 30.0), TrainLogEntry(2, 1.5, 20.0)])
        self.assertEqual(checks.check_curve(good, "dev_ppl"), [])
        self.assertNotEqual(checks.check_curve(TrainReport(curve=good.curve, aborted=True), "dev_ppl"), [])
        self.assertNotEqual(checks.check_curve(TrainReport(curve=[TrainLogEntry(1, math.nan, 3.0)]), "dev_ppl"), [])
        self.assertNotEqual(checks.check_curve(TrainReport(), "dev_ppl"), [])
        other = TrainReport(curve=[TrainLogEntry(1, 2.0, 30.0)])
        self.assertNotEqual(checks.curve_digest(good, "dev_ppl"), checks.curve_digest(other, "dev_ppl"))


class Tracing(unittest.TestCase):
    def test_vanished_site_is_reported_absent(self):
        sites = tuple(
            (name, module, "no_such_function" if name == "extractor.viterbi" else path)
            for name, module, path in tracing.SITES
        )
        original = tracing.SITES
        tracing.SITES = sites
        tracer = tracing.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            tracing.SITES = original
        self.assertIn("extractor.viterbi", tracer.absent)
        facts = dict(
            parsed_paragraphs=1,
            tokens_per_paragraph=1.0,
            spans_capped=0,
            span_exact_f1=None,
            out_proj_bytes=8,
            records_written=0,
            overhead_share=0.0,
        )
        metrics = tracing.layer_metrics(tracer, facts)
        self.assertNotIn("extractor.viterbi_ms", metrics)
        self.assertNotIn("extractor.span_exact_f1", metrics)
        self.assertIn("extractor.predict_ms", metrics)

    def test_uninstall_restores_the_program(self):
        from qaharvest.extractor import model
        from qaharvest.numerics import tensor

        before = (model.viterbi, model.ExtractorModel.predict, tensor.Tensor.__init__)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(model.viterbi, before[0])
        tracer.uninstall()
        self.assertEqual((model.viterbi, model.ExtractorModel.predict, tensor.Tensor.__init__), before)

    def test_self_times_partition_the_wall_time(self):
        tracer = tracing.Tracer()
        outer = tracer._wrap("outer", lambda: inner())
        inner = tracer._wrap("inner", lambda: sum(range(20000)))
        outer()
        agg = tracer.aggregate()
        span = tracer.spans[0]
        self.assertAlmostEqual(agg["outer"]["self"] + agg["inner"]["self"], span.end - span.start, places=12)
        self.assertEqual(tracer.spans[1].parent, 0)


class MissingSource(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        (HERE / "_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
            spec = benchmark_spec()
            argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"]
            done = subprocess.run(argv + ["--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
