"""Command-line behavior: artifact production, metric output, exit
codes, and the usage-error paths."""

import dataclasses
import json
import os
import struct

import pytest
from qaharvest import cli
from qaharvest.cli import entry
from qaharvest.corpus import build_vocab
from qaharvest.extractor import ExtractorConfig
from qaharvest.generator import GeneratorConfig
from qaharvest.numerics import ParameterStore
from qaharvest.pipeline import PipelineConfig, load_generator, span_record, write_span_records
from synth import number_paragraphs, squad_json


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(squad_json(2), encoding="utf-8")
    return str(path)


@pytest.fixture()
def question_file(tmp_path):
    path = tmp_path / "questions.txt"
    path.write_text("who founded tesla ?\nwhat percentage of gdp fell ?\n", encoding="utf-8")
    return str(path)


TINY_CONFIGS = {
    "train-qg": GeneratorConfig.desk(word_dim=4, hidden_dim=3, coref_feat_dim=2, answer_feat_dim=2, epochs=2),
    "train-ext": ExtractorConfig.desk(word_dim=4, char_dim=2, char_hidden=2, ner_dim=2, hidden_dim=3, epochs=1),
}


def train_tiny(tmp_path, corpus_file):
    """Two fast CLI training runs; returns the artifact directory."""
    out = tmp_path / "run"
    for command, config in TINY_CONFIGS.items():
        path = tmp_path / f"{command}.json"
        config.to_json(path)
        assert entry([command, "--data", corpus_file, "--out", str(out), "--config", str(path)]) == 0
    return out


def pipeline_config(tmp_path, out):
    """A harvest config over the artifacts of ``train_tiny``; returns its path."""
    pipe = PipelineConfig(
        extractor_checkpoint=str(out / "ext.ckpt"),
        qg_checkpoint=str(out / "qg.ckpt"),
        qg_word_vocab=str(out / "qg_vocab.json"),
        ext_word_vocab=str(out / "ext_word_vocab.json"),
        ext_char_vocab=str(out / "ext_char_vocab.json"),
        max_decode_len=8,
    )
    cfg_path = tmp_path / "pipe.json"
    pipe.to_json(cfg_path)
    return cfg_path


# ------------------------------------------------------- train + harvest


def test_train_and_harvest_artifacts(tmp_path, corpus_file, capsys):
    out = train_tiny(tmp_path, corpus_file)
    for name in (
        "qg.ckpt",
        "qg_vocab.json",
        "qg_train.csv",
        "ext.ckpt",
        "ext_word_vocab.json",
        "ext_char_vocab.json",
        "ext_train.csv",
    ):
        assert (out / name).exists(), name
    assert (out / "qg_train.csv").read_text().startswith("epoch,train_nll,dev_ppl")
    assert (out / "ext_train.csv").read_text().startswith("epoch,train_nll,dev_f1")

    cfg_path = pipeline_config(tmp_path, out)
    capsys.readouterr()

    # one-epoch models may extract nothing; the point here is plumbing
    # and byte-level determinism, not harvest quality
    first = tmp_path / "records_a.jsonl"
    second = tmp_path / "records_b.jsonl"
    assert entry(["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(first)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert entry(["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    for line in first.read_text().splitlines():
        rec = json.loads(line)
        assert rec["question"].endswith("?")
        assert rec["char_start"] < rec["char_end"]


def test_train_qg_rejects_empty_data(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"data": []}))
    assert entry(["train-qg", "--data", str(empty), "--out", str(tmp_path / "o")]) == 2


def test_train_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert entry(["train-ext", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2


# -------------------------------------------------------------- eval-qg


def test_eval_qg_identical_files_scores_one(question_file, capsys):
    assert entry(["eval-qg", "--candidates", question_file, "--references", question_file]) == 0
    out = capsys.readouterr().out
    assert "BLEU-4 1.0000" in out
    assert "METEOR: not implemented" in out


def test_eval_qg_floor_gates_exit_code(question_file, capsys):
    assert entry(["eval-qg", "--candidates", question_file, "--references", question_file, "--floor", "1.01"]) == 1
    assert "below floor" in capsys.readouterr().err


def test_eval_qg_json_output(question_file, capsys):
    assert entry(["eval-qg", "--candidates", question_file, "--references", question_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[0])
    assert payload["bleu"] == 1.0


def test_eval_qg_length_mismatch_is_usage_error(tmp_path, question_file, capsys):
    short = tmp_path / "short.txt"
    short.write_text("who founded tesla ?\n")
    assert entry(["eval-qg", "--candidates", question_file, "--references", str(short)]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- eval-ext


@pytest.fixture()
def gold_span_file(tmp_path):
    paras = number_paragraphs(3)
    rows = [span_record(p, s) for p, spans in paras for s in spans]
    path = tmp_path / "gold.jsonl"
    write_span_records(rows, path)
    return str(path)


def test_eval_ext_identical_spans_all_ones(gold_span_file, capsys):
    assert entry(["eval-ext", "--predicted", gold_span_file, "--gold", gold_span_file]) == 0
    out = capsys.readouterr().out
    for regime in ("exact", "binary", "proportional"):
        assert f"{regime:>12}  P 1.0000  R 1.0000  F1 1.0000" in out


def test_eval_ext_floor_and_json(gold_span_file, capsys):
    assert entry(["eval-ext", "--predicted", gold_span_file, "--gold", gold_span_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[0])
    assert payload["proportional"]["f1"] == 1.0
    assert entry(["eval-ext", "--predicted", gold_span_file, "--gold", gold_span_file, "--floor", "1.5"]) == 1


# ---------------------------------------------------- gradcheck + stats


@pytest.fixture()
def audited_once(gradient_audit, monkeypatch):
    def suite(seed):
        assert seed == 0
        return dict(gradient_audit[0])

    monkeypatch.setattr(cli, "gradient_suite", suite)


def test_gradcheck_passes_and_reports(audited_once, capsys):
    assert entry(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    for name in ("gate", "encode", "decode_step", "nll_loss", "crf", "crf_nll"):
        assert name in out


def test_gradcheck_impossible_threshold_fails(audited_once, capsys):
    assert entry(["gradcheck", "--threshold", "1e-300"]) == 1


def test_stats_histogram(question_file, capsys):
    assert entry(["stats", "--questions", question_file]) == 0
    out = capsys.readouterr().out
    assert "who" in out and "what percentage" in out
    assert out.strip().splitlines()[-1].split()[-1] == "2"


def test_stats_reads_harvest_records(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    rows = [{"question": "who won ?"}, {"question": "where is oslo ?"}, {"question": "who lost ?"}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert entry(["stats", "--records", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["who", "2"]
    assert lines[-1].split() == ["total", "3"]


def test_stats_empty_input_is_usage_error(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert entry(["stats", "--questions", str(empty)]) == 2


# ------------------------------------------------------------ exit codes


def test_missing_files_exit_2(question_file, capsys):
    assert entry(["eval-qg", "--candidates", "/no/such/file", "--references", question_file]) == 2
    assert "not found" in capsys.readouterr().err
    assert entry(["harvest", "--config", "/no/such/config.json", "--data", question_file, "--out", "x"]) == 2


def test_harvest_missing_checkpoint_exits_2(tmp_path, corpus_file, capsys):
    cfg = PipelineConfig("gone.ckpt", "gone2.ckpt", "v.json", "w.json", "c.json")
    path = tmp_path / "pipe.json"
    cfg.to_json(path)
    assert entry(["harvest", "--config", str(path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert entry(["eval-qg", "--bogus"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert entry(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert entry(["--help"]) == 0
    assert "qaharvest" in capsys.readouterr().out


# ------------------------------------------- malformed input, one line


def assert_one_line_usage_error(argv, capsys, *needles):
    """Exit 2 with a single 'error:' line on stderr and no traceback."""
    capsys.readouterr()
    assert entry(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_stats_non_json_record_exits_2(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({"question": "who won ?"}) + "\nnot json at all\n")
    assert_one_line_usage_error(["stats", "--records", str(path)], capsys, "records.jsonl:2")


def test_eval_ext_span_row_missing_field_exits_2(tmp_path, gold_span_file, capsys):
    rows = [json.loads(line) for line in open(gold_span_file, encoding="utf-8")]
    del rows[1]["article_id"]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(json.dumps(r) + "\n" for r in rows))
    argv = ["eval-ext", "--predicted", str(broken), "--gold", gold_span_file]
    assert_one_line_usage_error(argv, capsys, "broken.jsonl:2", "article_id")


def test_harvest_config_unknown_field_exits_2(tmp_path, corpus_file, capsys):
    path = tmp_path / "pipe.json"
    PipelineConfig("e.ckpt", "q.ckpt", "qv.json", "ew.json", "ec.json").to_json(path)
    raw = json.loads(path.read_text())
    raw["surprise"] = 1
    path.write_text(json.dumps(raw))
    argv = ["harvest", "--config", str(path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, "surprise")


@pytest.mark.parametrize("command", ["train-qg", "train-ext"])
def test_training_config_unknown_field_exits_2(tmp_path, corpus_file, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"surprise": 1}))
    argv = [command, "--data", corpus_file, "--out", str(tmp_path / "out"), "--config", str(path)]
    assert_one_line_usage_error(argv, capsys, "surprise")


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("train-qg", "batch_size", 0),
        ("train-qg", "dropout", 1.0),
        ("train-ext", "lr", 0),
        pytest.param("train-qg", "lr", 10**400, id="train-qg-lr-int-beyond-float"),
        ("train-qg", "vocab_limit", 0),
        ("train-ext", "char_vocab_limit", 0),
        ("train-ext", "word_dim", "x"),
        ("train-qg", "epochs", 0),
    ],
)
def test_training_config_bad_value_exits_2(tmp_path, corpus_file, capsys, command, field, value):
    raw = dataclasses.asdict(TINY_CONFIGS[command])
    raw[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = [command, "--data", corpus_file, "--out", str(out), "--config", str(path)]
    assert_one_line_usage_error(argv, capsys, field)
    assert not out.exists()


def test_training_config_and_preset_exclude_each_other(tmp_path, corpus_file, capsys):
    path = tmp_path / "cfg.json"
    TINY_CONFIGS["train-qg"].to_json(path)
    out = tmp_path / "out"
    argv = ["train-qg", "--data", corpus_file, "--out", str(out), "--config", str(path), "--preset", "paper"]
    assert entry(argv) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["beam_size", "max_decode_len", "span_cap"])
def test_harvest_config_width_below_one_exits_2(tmp_path, corpus_file, capsys, field):
    path = tmp_path / "pipe.json"
    PipelineConfig("e.ckpt", "q.ckpt", "qv.json", "ew.json", "ec.json").to_json(path)
    raw = json.loads(path.read_text())
    raw[field] = 0
    path.write_text(json.dumps(raw))
    argv = ["harvest", "--config", str(path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, field)


def test_harvest_checkpoint_not_fitting_vocab_exits_2(tmp_path, corpus_file, capsys):
    out = train_tiny(tmp_path, corpus_file)
    cfg_path = pipeline_config(tmp_path, out)
    build_vocab(["just", "these"], 10).save(out / "qg_vocab.json")
    argv = ["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, "shape mismatch for")


def cut_last_value(raw: bytes) -> bytes:
    return raw[:-8]


def list_manifest(raw: bytes) -> bytes:
    return struct.pack("<Q", 2) + b"[]"


def entry_without_offset(raw: bytes) -> bytes:
    (hlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + hlen])
    del manifest["params"][0]["offset"]
    header = json.dumps(manifest).encode("utf-8")
    return struct.pack("<Q", len(header)) + header + raw[8 + hlen :]


def json_file(payload):
    return lambda raw: json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize(
    "name, corrupt, needle",
    [
        pytest.param("qg.ckpt", cut_last_value, "truncated", id="qg.ckpt"),
        pytest.param("ext.ckpt", cut_last_value, "truncated", id="ext.ckpt"),
        pytest.param("ext.ckpt", list_manifest, "manifest", id="ext.ckpt-list-manifest"),
        pytest.param("qg.ckpt", entry_without_offset, "manifest entry 0", id="qg.ckpt-entry-without-offset"),
        pytest.param("qg_vocab.json", json_file([]), "qaharvest-vocab-v1", id="qg_vocab.json-list"),
        pytest.param(
            "qg_vocab.json",
            json_file({"format": "qaharvest-vocab-v1"}),
            "qaharvest-vocab-v1",
            id="qg_vocab.json-no-tokens",
        ),
        pytest.param(
            "qg_vocab.json",
            json_file({"format": "qaharvest-vocab-v1", "tokens": 5}),
            "qaharvest-vocab-v1",
            id="qg_vocab.json-int-tokens",
        ),
    ],
)
def test_harvest_truncated_checkpoint_exits_2(tmp_path, corpus_file, capsys, name, corrupt, needle):
    out = train_tiny(tmp_path, corpus_file)
    cfg_path = pipeline_config(tmp_path, out)
    path = out / name
    path.write_bytes(corrupt(path.read_bytes()))
    argv = ["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, needle, name)


def resave_qg_config(out, **changes):
    """Save the trained generator again with ``changes`` in its embedded config."""
    meta = ParameterStore.read_manifest(out / "qg.ckpt")["meta"]
    meta["config"].update(changes)
    model = load_generator(out / "qg.ckpt", out / "qg_vocab.json")
    model.store.save(out / "qg.ckpt", meta=meta)


def test_harvest_checkpoint_config_unknown_field_exits_2(tmp_path, corpus_file, capsys):
    out = train_tiny(tmp_path, corpus_file)
    cfg_path = pipeline_config(tmp_path, out)
    resave_qg_config(out, surprise=1)
    argv = ["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, "surprise")


@pytest.mark.parametrize(
    "changes, needle",
    [
        pytest.param({"hidden_dim": "3"}, "hidden_dim", id="string-dim"),
        # a generator saved while the decode settings were config fields
        pytest.param({"beam_size": 3, "max_decode_len": 30}, "['beam_size', 'max_decode_len']", id="decode-settings"),
    ],
)
def test_harvest_checkpoint_config_bad_field_exits_2(tmp_path, corpus_file, capsys, changes, needle):
    out = train_tiny(tmp_path, corpus_file)
    cfg_path = pipeline_config(tmp_path, out)
    resave_qg_config(out, **changes)
    argv = ["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, "qg.ckpt", needle)


def test_harvest_checkpoint_without_config_exits_2(tmp_path, corpus_file, capsys):
    out = train_tiny(tmp_path, corpus_file)
    cfg_path = pipeline_config(tmp_path, out)
    model = load_generator(out / "qg.ckpt", out / "qg_vocab.json")
    model.store.save(out / "qg.ckpt")
    argv = ["harvest", "--config", str(cfg_path), "--data", corpus_file, "--out", str(tmp_path / "r.jsonl")]
    assert_one_line_usage_error(argv, capsys, "qg.ckpt", "no embedded GeneratorConfig")
