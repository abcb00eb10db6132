"""The numerics contract of harvest: the same records, byte for byte, at
any BLAS thread count and whether or not ``matvec_rows`` splits its
products across threads.

The generator here has desk dims but a 6004-row vocabulary and random
weights, so its ``out.proj`` products are wide enough to be split once a
step scores three or more hypotheses. Run as a script, this file writes
the harvest JSONL to the path it is given; the test runs it that way
under different ``OPENBLAS_NUM_THREADS`` settings.
"""

import os
import subprocess
import sys
from pathlib import Path

from qaharvest.corpus import Vocabulary
from qaharvest.extractor.model import ExtractionResult
from qaharvest.generator import GeneratorConfig, QGModel
from qaharvest.numerics import RngState, tensor
from qaharvest.pipeline import harvest, write_records
from synth import number_paragraphs

HERE = Path(__file__).resolve().parent
PARAGRAPHS = number_paragraphs(3)


class GoldSpans:
    """Extractor stand-in that returns each paragraph's gold spans."""

    def __init__(self, spans_by_key):
        self.spans_by_key = spans_by_key

    def predict(self, paragraph):
        return ExtractionResult(self.spans_by_key[paragraph.key()], [], False, 0)


def wide_generator() -> QGModel:
    # the paragraphs' own words are in the vocabulary, spread over all of
    # out.proj's rows, so the questions depend on every part of a split
    # product and not on copying alone
    words = sorted({t.surface.lower() for p, _ in PARAGRAPHS for s in p.sentences for t in s})
    tokens = [f"word{i:04d}" for i in range(6000)]
    for k, word in enumerate(words):
        tokens[k * len(tokens) // len(words)] = word
    vocab = Vocabulary(tokens)
    cfg = GeneratorConfig.desk(init_scale=1.0)
    model = QGModel(cfg, vocab, RngState(5))
    # logits spread widely enough that vocabulary words outscore copies,
    # so a last-bit change in a logit reaches the records' scores
    model.out_proj.data *= 10.0
    return model


def harvest_jsonl(model: QGModel, path) -> bytes:
    extractor = GoldSpans({p.key(): spans for p, spans in PARAGRAPHS})
    records, _ = harvest([p for p, _ in PARAGRAPHS], extractor, model, max_decode_len=12)
    write_records(records, path)
    return Path(path).read_bytes()


def test_harvest_bytes_independent_of_threads(tmp_path, matvec_workers, monkeypatch):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    outputs = {}
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}.jsonl"
        run_env = dict(env, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
        subprocess.run([sys.executable, __file__, str(out)], env=run_env, check=True, timeout=300)
        outputs[f"OPENBLAS_NUM_THREADS={blas}"] = out.read_bytes()

    model = wide_generator()
    matvec_workers(1)
    outputs["pool bypassed"] = harvest_jsonl(model, tmp_path / "serial.jsonl")
    matvec_workers(3)
    split = []
    pool = tensor._matvec_pool()
    monkeypatch.setattr(tensor, "_matvec_pool", lambda: split.append(1) or pool)
    outputs["pool of 3"] = harvest_jsonl(model, tmp_path / "split.jsonl")
    assert split, "no product took the parallel path"

    reference = outputs["pool bypassed"]
    assert reference.count(b"\n") == 6
    for how, got in outputs.items():
        assert got == reference, how


if __name__ == "__main__":
    harvest_jsonl(wide_generator(), sys.argv[1])
