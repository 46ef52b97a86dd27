"""CLI runs, in subprocesses or through cli.main: exit codes, artifacts, reproducibility."""
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blendcnn import cli

CLI = [sys.executable, "-m", "blendcnn.cli"]

# small enough that a 2-epoch run is instant, big enough to exercise all paths
TINY = [
    "--set", "model.seq_len=12", "--set", "model.embed_dim=8",
    "--set", "model.n_layers=2", "--set", "model.n_channels=6",
    "--set", "model.dense_width=5", "--set", "model.n_classes=3",
]


def run_cli(args, cwd, out_root=None):
    env = dict(os.environ)
    env["BLENDCNN_OUT_ROOT"] = str(out_root if out_root is not None else cwd / "runs")
    # the child runs from cwd, where a relative PYTHONPATH no longer resolves;
    # lead with the absolute root of the package this process imported
    import blendcnn
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(blendcnn.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [pkg_root, env.get("PYTHONPATH", "")] if p)
    return subprocess.run(CLI + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True)


def _with_header(blob, edit):
    """Checkpoint bytes ``blob`` with their JSON header replaced by ``edit(header)``."""
    n = int.from_bytes(blob[12:16], "little")
    raw = json.dumps(edit(json.loads(blob[16:16 + n]))).encode()
    return blob[:12] + len(raw).to_bytes(4, "little") + raw + blob[16 + n:]


_CKPT_DAMAGE = {
    "cut_to_8_bytes": lambda blob: blob[:8],
    "no_config": lambda blob: _with_header(
        blob, lambda h: {k: v for k, v in h.items() if k != "config"}),
    "trailing_junk": lambda blob: blob + b"junk",
    "float_n_classes": lambda blob: _with_header(
        blob, lambda h: {**h, "config": {**h["config"], "n_classes": 3.0}}),
    "seed_not_an_int": lambda blob: _with_header(blob, lambda h: {**h, "seed": "abc"}),
}


def ok(proc):
    assert proc.returncode == 0, f"stderr:\n{proc.stderr}\nstdout:\n{proc.stdout}"
    return proc


def write_rows(path, n, n_classes=3, seed=0):
    # class-marked tokens keep the toy task separable
    marks = {0: "market stocks profit", 1: "coach team score", 2: "rocket software chip"}
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for i in range(n):
            lab = i % n_classes
            filler = " ".join(rng.choice(["the", "a", "on", "of", "day"], size=3))
            w.writerow([lab + 1, f"{marks[lab]} {filler}", f"update {marks[lab]} item {i}"])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once: vocab -> train -> logits -> train on logits -> eval."""
    root = tmp_path_factory.mktemp("cli")
    write_rows(root / "pool.csv", 36)
    write_rows(root / "test.csv", 18, seed=1)

    ok(run_cli(["build-vocab", "--set", "data.train_csv=pool.csv",
                "--out", "vocab_out"], root))
    vocab_args = ["--set", "data.vocab=vocab_out/vocab.tsv"]

    ok(run_cli(["train", *TINY, *vocab_args,
                "--set", "data.train_csv=pool.csv",
                "--set", "data.eval_csv=test.csv",
                "--set", "train.epochs=2",
                "--out", "teacher"], root))

    ok(run_cli(["infer-logits", *vocab_args,
                "--set", "data.checkpoint=teacher/model.ckpt",
                "--set", "data.input_csv=pool.csv",
                "--out", "logits_out"], root))

    # labeled = stratified 3/class from the pool, unlabeled = the whole pool
    ok(run_cli(["train", *TINY, *vocab_args,
                "--set", "data.train_csv=pool.csv",
                "--set", "data.labeled_per_class=3",
                "--set", "data.unlabeled_csv=pool.csv",
                "--set", "data.logits=logits_out/logits.jsonl",
                "--set", "train.epochs=2",
                "--out", "student"], root))

    ok(run_cli(["eval", *vocab_args,
                "--set", "data.checkpoint=student/model.ckpt",
                "--set", "data.test_csv=test.csv",
                "--out", "eval_out"], root))
    return root


class TestPipeline:
    def test_vocab_artifact(self, pipeline):
        lines = (pipeline / "vocab_out" / "vocab.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["<pad>", "0"]
        assert len(lines) > 12

    def test_train_artifacts(self, pipeline):
        assert (pipeline / "teacher" / "model.ckpt").exists()
        ledger = json.loads((pipeline / "teacher" / "ledger.json").read_text())
        assert [e["epoch"] for e in ledger["epochs"]] == [1, 2]
        for entry in ledger["epochs"]:
            assert 0.0 <= entry["eval_accuracy"] <= 1.0
        # per-epoch snapshots for resuming / inspection
        assert (pipeline / "teacher" / "checkpoints" / "epoch_002.ckpt").exists()

    def test_config_echo(self, pipeline):
        cfg = json.loads((pipeline / "teacher" / "config.json").read_text())
        assert cfg["model.n_layers"] == 2
        assert cfg["train.epochs"] == 2
        assert cfg["data.train_csv"] == "pool.csv"

    def test_logit_records_cover_the_pool(self, pipeline):
        lines = (pipeline / "logits_out" / "logits.jsonl").read_text().splitlines()
        assert len(lines) == 36
        recs = [json.loads(ln) for ln in lines]
        assert {r["id"] for r in recs} == {f"pool.csv:{i}" for i in range(36)}
        assert all(len(r["logits"]) == 3 for r in recs)

    def test_distill_artifacts(self, pipeline):
        assert (pipeline / "student" / "model.ckpt").exists()
        ledger = json.loads((pipeline / "student" / "ledger.json").read_text())
        assert len(ledger["epochs"]) == 2

    def test_train_on_logits_is_library_distillation(self, pipeline, tmp_path):
        from blendcnn import cli
        from blendcnn.distill import (DISTILL_MAE, TrainConfig, attach_teacher_logits,
                                      read_logit_records, train_distill)
        from blendcnn.models import ModelConfig, init_model, save_checkpoint
        from blendcnn.text import (CsvSchema, Vocabulary, encode_dataset, load_csv_dataset,
                                   stratified_sample)
        code = cli.main(["train", *TINY,
                         "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                         "--set", f"data.train_csv={pipeline}/pool.csv",
                         "--set", "data.labeled_per_class=3",
                         "--set", f"data.unlabeled_csv={pipeline}/pool.csv",
                         "--set", f"data.logits={pipeline}/logits_out/logits.jsonl",
                         "--set", "train.epochs=2", "--out", str(tmp_path / "cli")])
        assert code == 0

        vocab = Vocabulary.load(pipeline / "vocab_out" / "vocab.tsv")
        model = ModelConfig(kind="blendcnn", n_classes=3, seq_len=12, vocab_size=len(vocab),
                            embed_dim=8, n_layers=2, n_channels=6, dense_width=5)
        logits = read_logit_records(pipeline / "logits_out" / "logits.jsonl", 3)
        rows = load_csv_dataset(pipeline / "pool.csv", CsvSchema())
        labeled, _ = stratified_sample(rows, 3, seed=17)
        sets = [attach_teacher_logits(encode_dataset(r, vocab, model.seq_len), logits)
                for r in (labeled, rows)]
        state, _ = train_distill(init_model(model, 0), *sets,
                                 TrainConfig(mode=DISTILL_MAE, epochs=2))
        save_checkpoint(state, tmp_path / "library.ckpt")
        assert ((tmp_path / "cli" / "model.ckpt").read_bytes()
                == (tmp_path / "library.ckpt").read_bytes())
        assert "train.mode" not in json.loads((tmp_path / "cli" / "config.json").read_text())

    def test_eval_artifacts(self, pipeline):
        result = json.loads((pipeline / "eval_out" / "eval.json").read_text())
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["n_examples"] == 18
        confusion = np.array(result["confusion"])
        assert confusion.shape == (3, 3) and confusion.sum() == 18

        rows = (pipeline / "eval_out" / "predictions.csv").read_text().splitlines()
        assert rows[0] == "id,predicted,gold"
        assert len(rows) == 19


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        proc = run_cli(["build-vocab", "--set", "data.train_csv=absent.csv"], tmp_path)
        assert proc.returncode == 3
        assert "io error: missing input" in proc.stderr
        assert "absent.csv" in proc.stderr

    def test_unknown_set_key_is_config_error(self, tmp_path):
        proc = run_cli(["param-count", "--set", "model.depth=9"], tmp_path)
        assert proc.returncode == 4
        assert "unknown config key" in proc.stderr

    def test_split_seed_is_no_key(self, tmp_path, capsys):
        # a labeled_per_class draw always takes the distillation protocol's split seed
        code = cli.main(["param-count", "--set", "model.vocab_size=100",
                         "--set", "data.split_seed=17", "--out", str(tmp_path / "run")])
        assert code == 4
        assert "unknown config key 'data.split_seed'" in capsys.readouterr().err

    def test_set_without_value_is_config_error(self, tmp_path):
        proc = run_cli(["param-count", "--set", "model.n_layers"], tmp_path)
        assert proc.returncode == 4
        assert "KEY=VALUE" in proc.stderr

    def test_malformed_config_file_is_config_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        proc = run_cli(["param-count", "--config", "bad.json"], tmp_path)
        assert proc.returncode == 4
        assert "not valid JSON" in proc.stderr

    def test_unknown_config_file_key_is_config_error(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"model.depth": 9}\n')
        proc = run_cli(["param-count", "--config", "cfg.json"], tmp_path)
        assert proc.returncode == 4

    # a valid vocab_size, so that its own check cannot stand in for the bad value
    @pytest.mark.parametrize("args", [
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.n_layers=null"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.kernel_widths=5"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "data.text_cols=3"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.n_layers=abc"],
        # a bool or a fraction is not an int; it is not rounded into one
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.n_layers=3.7"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.n_layers=true"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.kernel_widths=[3, 5.5]"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "data.text_cols=[1, 2.5]"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.dropout=false"],
        ["bench", "--set", "bench.n_samples=null"],
        ["bench", "--set", "model.n_classes=5"],  # more classes than the synthetic corpus
        ["build-vocab", "--set", "data.train_csv=5"],
        # a float key takes only finite numbers, so config.json stays strict JSON
        ["param-count", "--set", "model.vocab_size=100", "--set", "train.lr=NaN"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "train.lr=nan"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "model.dropout=Infinity"],
        ["param-count", "--set", "model.vocab_size=100", "--set", "train.alpha=-Infinity"],
        # the objective follows from data.logits and train.alpha; it is no key
        ["param-count", "--set", "model.vocab_size=100", "--set", "train.mode=mixed"],
        # an int too large for a float overflows on the way to one
        ["param-count", "--set", "model.vocab_size=100", "--set", "train.lr=" + "9" * 400],
    ])
    def test_malformed_value_is_config_error(self, tmp_path, args):
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_no_subcommand_is_usage_error(self, tmp_path):
        assert run_cli([], tmp_path).returncode == 2

    def test_unknown_subcommand_is_usage_error(self, tmp_path):
        assert run_cli(["explode"], tmp_path).returncode == 2
        assert run_cli(["distill"], tmp_path).returncode == 2  # train --set data.logits=...

    def test_vocab_size_zero_without_vocab_is_config_error(self, tmp_path):
        proc = run_cli(["param-count"], tmp_path)  # default vocab_size = 0
        assert proc.returncode == 4
        assert "vocab_size" in proc.stderr

    def test_checkpoint_vocab_mismatch_is_config_error(self, pipeline, tmp_path):
        ok(run_cli(["build-vocab", "--set", f"data.train_csv={pipeline}/pool.csv",
                    "--set", "data.vocab_cap=10", "--out", "smallvocab"], tmp_path))
        proc = run_cli(["eval",
                        "--set", "data.vocab=smallvocab/vocab.tsv",
                        "--set", f"data.checkpoint={pipeline}/teacher/model.ckpt",
                        "--set", f"data.test_csv={pipeline}/test.csv"], tmp_path)
        assert proc.returncode == 4
        assert "vocab_size" in proc.stderr

    def test_checkpoint_missing_a_parameter_is_config_error(self, pipeline, tmp_path):
        (tmp_path / "broken.ckpt").write_bytes(_with_header(
            (pipeline / "teacher" / "model.ckpt").read_bytes(),
            lambda h: {**h, "params": [e for e in h["params"] if e["name"] != "blend.w"]}))
        proc = run_cli(["eval",
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", "data.checkpoint=broken.ckpt",
                        "--set", f"data.test_csv={pipeline}/test.csv"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "missing blend.w" in proc.stderr

    @pytest.mark.parametrize("damage", sorted(_CKPT_DAMAGE))
    def test_damaged_checkpoint_is_config_error(self, pipeline, tmp_path, damage):
        blob = _CKPT_DAMAGE[damage]((pipeline / "student" / "model.ckpt").read_bytes())
        (tmp_path / "damaged.ckpt").write_bytes(blob)
        proc = run_cli(["eval",
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", "data.checkpoint=damaged.ckpt",
                        "--set", f"data.test_csv={pipeline}/test.csv"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "config error" in proc.stderr and "damaged.ckpt" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("distill_input", ["train.alpha=0.5", "data.unlabeled_csv={pool}"])
    def test_distill_input_without_logits_is_config_error(self, pipeline, tmp_path,
                                                          distill_input):
        # without data.logits the run is direct CE, which reads neither input
        pool = pipeline / "pool.csv"
        proc = run_cli(["train", *TINY,
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", f"data.train_csv={pool}",
                        "--set", distill_input.format(pool=pool), "--out", "run"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_label_outside_the_model_is_config_error(self, pipeline, tmp_path):
        # the pipeline's models have 3 classes; a 1-based label of 4 is class 3
        (tmp_path / "test.csv").write_text('"4","market stocks","update market"\n')
        proc = run_cli(["eval",
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", f"data.checkpoint={pipeline}/student/model.ckpt",
                        "--set", "data.test_csv=test.csv"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "test.csv:0" in proc.stderr and "0..2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_training_label_outside_the_model_is_named_before_any_step(self, pipeline,
                                                                          tmp_path):
        # pool.csv has 36 rows; row 36 carries class 3 of a 3-class model
        rows = (pipeline / "pool.csv").read_text()
        (tmp_path / "bad.csv").write_text(rows + '"4","market stocks","update market"\n')
        proc = run_cli(["train", *TINY,
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", "data.train_csv=bad.csv",
                        "--set", "train.epochs=1", "--out", "run"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "bad.csv:36" in proc.stderr and "0..2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run" / "checkpoints").exists()

    def test_training_row_without_tokens_is_named_before_any_step(self, pipeline, tmp_path,
                                                                  capsys):
        # pool.csv has 36 rows; row 36 is punctuation only, so it has no tokens
        rows = (pipeline / "pool.csv").read_text()
        (tmp_path / "bad.csv").write_text(rows + '"1","?!","--"\n')
        code = cli.main(["train", *TINY,
                         "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                         "--set", f"data.train_csv={tmp_path}/bad.csv",
                         "--set", "train.epochs=1", "--out", str(tmp_path / "run")])
        assert code == 4
        assert "bad.csv:36" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoints").exists()

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_embedding_value_names_its_line(self, pipeline, tmp_path, capsys,
                                                       value):
        # the pipeline's models embed in 8 dimensions; "market" is in the vocabulary
        vector = " ".join(["0.1"] * 7)
        (tmp_path / "glove.txt").write_text(f"market {vector} 0.1\nteam {vector} {value}\n")
        code = cli.main(["train", *TINY,
                         "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                         "--set", f"data.train_csv={pipeline}/pool.csv",
                         "--set", f"data.embeddings={tmp_path}/glove.txt",
                         "--set", "train.epochs=1", "--out", str(tmp_path / "run")])
        assert code == 4
        assert "glove.txt:2" in capsys.readouterr().err

    # a token or value with a byte that is not UTF-8, in each text file a reader takes
    @pytest.mark.parametrize("name, blob, line, args", [
        ("vocab.tsv", b"<pad>\t0\n<unk>\t1\ncaf\xe9\t2\n", 3, lambda pipeline, path: [
            "train", *TINY, "--set", f"data.vocab={path}",
            "--set", f"data.train_csv={pipeline}/pool.csv"]),
        ("glove.txt", b"market" + b" 0.1" * 8 + b"\ncaf\xe9" + b" 0.1" * 8 + b"\n", 2,
         lambda pipeline, path: [
             "train", *TINY, "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
             "--set", f"data.train_csv={pipeline}/pool.csv", "--set", f"data.embeddings={path}"]),
        ("config.json", b'{"model.vocab_size": 100,\n "model.kind": "caf\xe9"}\n', 2,
         lambda pipeline, path: ["param-count", "--config", path]),
    ], ids=["vocab", "embeddings", "config"])
    def test_bytes_that_are_not_utf8_name_their_line(self, pipeline, tmp_path, capsys, name,
                                                     blob, line, args):
        path = tmp_path / name
        path.write_bytes(blob)
        code = cli.main([*args(pipeline, str(path)), "--set", "train.epochs=1",
                         "--out", str(tmp_path / "run")])
        assert code == 4
        assert f"{path}:{line}: bytes that are not UTF-8" in capsys.readouterr().err

    def test_duplicate_logit_id_is_config_error(self, pipeline, tmp_path):
        lines = (pipeline / "logits_out" / "logits.jsonl").read_text().splitlines()
        (tmp_path / "logits.jsonl").write_text("\n".join(lines + lines[:1]) + "\n")
        proc = run_cli(["train", *TINY,
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", f"data.train_csv={pipeline}/pool.csv",
                        "--set", "data.logits=logits.jsonl",
                        "--set", "train.epochs=1"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert f"logits.jsonl:{len(lines) + 1}: " in proc.stderr
        assert "duplicate teacher logits" in proc.stderr
        assert json.loads(lines[0])["id"] in proc.stderr

    def test_csv_row_without_a_logit_record_names_the_logits_file(self, pipeline, tmp_path,
                                                                  capsys):
        lines = (pipeline / "logits_out" / "logits.jsonl").read_text().splitlines()
        (tmp_path / "short.jsonl").write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        code = cli.main(["train", *TINY,
                         "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                         "--set", f"data.train_csv={pipeline}/pool.csv",
                         "--set", f"data.logits={tmp_path}/short.jsonl",
                         "--set", "train.epochs=1", "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"{tmp_path}/short.jsonl: missing teacher logits" in err
        assert json.loads(lines[3])["id"] in err

    # in-process, so a traceback fails the test rather than only its exit code
    @pytest.mark.parametrize("record", ['{"id": ["x"], "logits": [0.0, 1.0, 2.0]}',
                                        '{"id": "x", "logits": "abcd"}',
                                        '{"id": "x", "logits": [[0.0, 1.0, 2.0]]}',
                                        '{"id": "x", "logits": []}',
                                        '{"id": "x", "logits": [0.0, 1.0, 2.0, 3.0]}'],
                             ids=["list_id", "string_logits", "matrix_logits", "empty_logits",
                                  "four_logits_for_three_classes"])
    def test_malformed_logit_record_names_its_line(self, pipeline, tmp_path, capsys, record):
        good = (pipeline / "logits_out" / "logits.jsonl").read_text().splitlines()[0]
        (tmp_path / "bad.jsonl").write_text(f"{good}\n{record}\n")
        code = cli.main(["train", *TINY,
                         "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                         "--set", f"data.train_csv={pipeline}/pool.csv",
                         "--set", f"data.logits={tmp_path}/bad.jsonl",
                         "--set", "train.epochs=1", "--out", str(tmp_path / "run")])
        assert code == 4
        assert "bad.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("text_cols", "[-1]"), ("label_col", "-1"),
                                            ("text_cols", "[]"), ("labeled_per_class", "-3")],
                             ids=["text_cols", "label_col", "empty_text_cols",
                                  "labeled_per_class"])
    def test_negative_csv_column_is_config_error(self, pipeline, tmp_path, capsys, key, value):
        code = cli.main(["build-vocab", "--set", f"data.train_csv={pipeline}/pool.csv",
                         "--set", f"data.{key}={value}", "--out", str(tmp_path / "run")])
        assert code == 4
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run" / "vocab.tsv").exists()

    @pytest.mark.parametrize("objective", ["train", "distill"])
    def test_missing_embeddings_file_is_io_error(self, pipeline, tmp_path, objective):
        logits = ["--set", f"data.logits={pipeline}/logits_out/logits.jsonl"]
        proc = run_cli(["train", *TINY, *(logits if objective == "distill" else []),
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", f"data.train_csv={pipeline}/pool.csv",
                        "--set", "data.embeddings=absent.glove.txt",
                        "--set", "train.epochs=1"], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "absent.glove.txt" in proc.stderr

    def test_exploding_training_is_numeric_error(self, pipeline, tmp_path):
        # one enormous step overflows the forward pass; the next gradient
        # is non-finite and training must abort, not save garbage
        proc = run_cli(["train", *TINY,
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", f"data.train_csv={pipeline}/pool.csv",
                        "--set", "train.epochs=3", "--set", "train.lr=1e308"],
                       tmp_path)
        assert proc.returncode == 5
        assert "numeric error" in proc.stderr
        assert "non-finite gradient" in proc.stderr

    def test_gradient_whose_square_overflows_is_numeric_error(self, pipeline, tmp_path):
        # finite but absurd GloVe values give finite gradients whose squares
        # overflow Adam's v; the step must refuse them, not train on inf
        (tmp_path / "glove.txt").write_text("market " + " ".join(["1e200"] * 8) + "\n")
        proc = run_cli(["train", *TINY,
                        "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                        "--set", f"data.train_csv={pipeline}/pool.csv",
                        "--set", "data.embeddings=glove.txt",
                        "--set", "train.epochs=1", "--out", "run"], tmp_path)
        assert proc.returncode == 5, proc.stderr
        assert re.search(r"numeric error: non-finite gradient for parameter '[a-z0-9.]+'",
                         proc.stderr), proc.stderr
        assert "RuntimeWarning" not in proc.stderr + proc.stdout
        written = [name for _, _, files in os.walk(tmp_path / "run") for name in files]
        assert written == ["config.json"]


class TestHelp:
    def test_every_subcommand_has_a_description(self, tmp_path, monkeypatch):
        from blendcnn import cli
        monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
        out = ok(run_cli(["-h"], tmp_path)).stdout
        names = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
        assert len(names) == 6
        for name in names:
            line = re.search(rf"^ +{name} +(\S.*)$", out, re.MULTILINE)
            assert line, f"{name}: no description in -h output"
            # the module docstring lists the same line
            assert re.search(rf"^ +{name} +{re.escape(line.group(1))}$", cli.__doc__,
                             re.MULTILINE), name


class TestEval:
    def test_eval_runs_the_model_once(self, pipeline, tmp_path, monkeypatch):
        from blendcnn import cli, distill
        calls = []
        forward = distill.forward

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(distill, "forward", counting_forward)
        code = cli.main(["eval", "--set", "train.batch_size=4",
                         "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                         "--set", f"data.checkpoint={pipeline}/student/model.ckpt",
                         "--set", f"data.test_csv={pipeline}/test.csv",
                         "--out", str(tmp_path / "eval_out")])
        assert code == 0
        # one forward per eval batch of the 18 test rows; train.batch_size is not read
        assert len(calls) == -(-18 // distill.EVAL_BATCH)

    # fresh processes: eval once wrote unfilled np.empty logits here, and in-process that
    # memory can still hold an earlier run's correct logits
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_train_batch_size_leaves_eval_outputs_alone(self, pipeline, tmp_path, value):
        flags = ["--set", "data.vocab=vocab_out/vocab.tsv", "--set", f"train.batch_size={value}"]
        ok(run_cli(["infer-logits", *flags, "--set", "data.checkpoint=teacher/model.ckpt",
                    "--set", "data.input_csv=pool.csv", "--out", str(tmp_path / "logits")],
                   pipeline))
        ok(run_cli(["eval", *flags, "--set", "data.checkpoint=student/model.ckpt",
                    "--set", "data.test_csv=test.csv", "--out", str(tmp_path / "eval")],
                   pipeline))
        assert ((tmp_path / "logits" / "logits.jsonl").read_bytes()
                == (pipeline / "logits_out" / "logits.jsonl").read_bytes())
        assert ((tmp_path / "eval" / "predictions.csv").read_bytes()
                == (pipeline / "eval_out" / "predictions.csv").read_bytes())


class TestParamCount:
    def test_breakdown_and_reference(self, tmp_path):
        proc = ok(run_cli(["param-count", "--set", "model.vocab_size=20000",
                           "--set", "model.n_classes=4", "--out", "pc"], tmp_path))
        # defaults: 3-layer BlendCNN, vocab 20000, embed/channels/dense 100
        assert "total: 2,180,804" in proc.stdout
        assert "2,975,236" in proc.stdout  # published total shown for context
        data = json.loads((tmp_path / "pc" / "param_count.json").read_text())
        assert data["model"] == "3-layer BlendCNN"
        assert data["total"] == 2_180_804
        assert sum(data["breakdown"].values()) == data["total"]
        assert data["paper_reported_total"] == 2_975_236

    def test_kimcnn_breakdown(self, tmp_path):
        proc = ok(run_cli(["param-count", "--set", "model.kind=kimcnn",
                           "--set", "model.vocab_size=100", *TINY[2:],
                           "--out", "pc"], tmp_path))
        data = json.loads((tmp_path / "pc" / "param_count.json").read_text())
        assert data["model"] == "KimCNN"
        assert data["paper_reported_total"] == 2_124_824
        assert sum(data["breakdown"].values()) == data["total"]


class TestBench:
    def test_bench_on_synthetic_fallback(self, tmp_path):
        proc = ok(run_cli(["bench", *TINY,
                           "--set", "bench.n_samples=64",
                           "--set", "bench.repetitions=2",
                           "--set", "bench.warmup_batches=1",
                           "--out", "bench_out"], tmp_path))
        assert "paper-reported" in proc.stdout
        text = (tmp_path / "bench_out" / "bench.txt").read_text()
        assert "3-layer BlendCNN" in text and "8-layer BlendCNN" in text
        with open(tmp_path / "bench_out" / "bench.csv", newline="") as fh:
            by_name = {rec["model"]: rec for rec in csv.DictReader(fh)}
        assert float(by_name["KimCNN"]["sentences_per_second"]) > 0
        # reference-only context row: published numbers, no measurement
        transformer = by_name["OpenAI Transformer"]
        assert transformer["total_parameters"] == transformer["sentences_per_second"] == ""
        assert int(transformer["paper_reported_parameters"]) == 116_534_790


class TestReproducibility:
    def test_same_seed_trains_byte_identical_checkpoints(self, pipeline, tmp_path):
        args = ["train", *TINY,
                "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
                "--set", f"data.train_csv={pipeline}/pool.csv",
                "--set", "train.epochs=2", "--set", "train.seed=11"]
        ok(run_cli(args + ["--out", "a"], tmp_path))
        ok(run_cli(args + ["--out", "b"], tmp_path))
        a = (tmp_path / "a" / "model.ckpt").read_bytes()
        b = (tmp_path / "b" / "model.ckpt").read_bytes()
        assert a == b
        la = json.loads((tmp_path / "a" / "ledger.json").read_text())
        lb = json.loads((tmp_path / "b" / "ledger.json").read_text())
        assert [e["train_loss"] for e in la["epochs"]] == \
               [e["train_loss"] for e in lb["epochs"]]


class TestOutDirs:
    def test_env_root_is_the_default_destination(self, tmp_path):
        write_rows(tmp_path / "pool.csv", 9)
        ok(run_cli(["build-vocab", "--set", "data.train_csv=pool.csv"],
                   tmp_path, out_root=tmp_path / "envruns"))
        assert (tmp_path / "envruns" / "build-vocab" / "vocab.tsv").exists()
        assert (tmp_path / "envruns" / "build-vocab" / "config.json").exists()


# one edit of a file's bytes: (kind, position seed, payload)
_BYTE_EDIT = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 8)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.one_of(
        st.binary(min_size=1, max_size=4),
        st.sampled_from([b'"', b",", b"]", b"{", b"\n", b"-", b"e999", b"NaN", b"null",
                         b"\xff", b"1" * 400]))),
    st.tuples(st.just("digit"), st.integers(0, 10**6), st.sampled_from(b"0123456789")),
    st.tuples(st.sampled_from(["drop_line", "repeat_line"]), st.integers(0, 10**6), st.none()),
)
# a CSV edit may also grow a field past csv.field_size_limit() (131,072 characters)
_CSV_EDIT = st.one_of(_BYTE_EDIT, st.tuples(st.just("insert"), st.integers(0, 10**6),
                                            st.just(b"x" * 131_073)))


def _edit_bytes(blob, edits):
    for kind, at, payload in edits:
        if kind in ("drop_line", "repeat_line"):
            lines = blob.splitlines(keepends=True)
            i = at % len(lines) if lines else 0
            lines[i:i + 1] = lines[i:i + 1] * (0 if kind == "drop_line" else 2)
            blob = b"".join(lines)
        elif kind == "digit":  # another digit in place of one: a number or an id changes
            digits = [i for i, c in enumerate(blob) if chr(c).isdigit()]
            if digits:
                i = digits[at % len(digits)]
                blob = blob[:i] + bytes([payload]) + blob[i + 1:]
        elif kind == "delete":
            i = at % (len(blob) + 1)
            blob = blob[:i] + blob[i + payload:]
        else:
            i = at % (len(blob) + 1)
            blob = blob[:i] + payload + blob[i:]
    return blob


def _exits_cleanly_on(blob, name, args):
    """cli.main(args(path)) with ``blob`` saved at path exits 0, 3, 4 or 5, and 3-5 name it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*args(path), "--out", os.path.join(tmp, "run")])
    assert code in (0, 3, 4, 5), err.getvalue()
    if code:
        assert path in err.getvalue()


class TestLogitsFileProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
    def test_a_damaged_logits_file_exits_cleanly_and_is_named(self, pipeline, edits):
        blob = (pipeline / "logits_out" / "logits.jsonl").read_bytes()
        _exits_cleanly_on(_edit_bytes(blob, edits), "damaged.jsonl", lambda path: [
            "train", *TINY, "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
            "--set", f"data.train_csv={pipeline}/pool.csv", "--set", f"data.logits={path}",
            "--set", "train.epochs=1"])


class TestCsvFileProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_CSV_EDIT, min_size=1, max_size=3))
    def test_a_damaged_csv_exits_cleanly_and_is_named(self, pipeline, edits):
        blob = (pipeline / "pool.csv").read_bytes()
        _exits_cleanly_on(_edit_bytes(blob, edits), "damaged.csv",
                          lambda path: ["build-vocab", "--set", f"data.train_csv={path}"])


class TestVocabFileProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
    def test_a_damaged_vocabulary_exits_cleanly_and_is_named(self, pipeline, edits):
        blob = (pipeline / "vocab_out" / "vocab.tsv").read_bytes()
        _exits_cleanly_on(_edit_bytes(blob, edits), "damaged.tsv", lambda path: [
            "train", *TINY, "--set", f"data.vocab={path}",
            "--set", f"data.train_csv={pipeline}/pool.csv", "--set", "train.epochs=1"])


class TestGloveFileProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
    def test_a_damaged_glove_file_exits_cleanly_and_is_named(self, pipeline, edits):
        # one 8-value vector (TINY's model.embed_dim) per token of the pipeline's vocabulary
        tokens = (pipeline / "vocab_out" / "vocab.tsv").read_text().split()[::2]
        blob = "".join(f"{token} " + " ".join(f"{(i * 8 + j) % 19 / 50 - 0.2:.2f}"
                                              for j in range(8)) + "\n"
                       for i, token in enumerate(tokens)).encode()
        _exits_cleanly_on(_edit_bytes(blob, edits), "damaged.txt", lambda path: [
            "train", *TINY, "--set", f"data.vocab={pipeline}/vocab_out/vocab.tsv",
            "--set", f"data.train_csv={pipeline}/pool.csv", "--set", f"data.embeddings={path}",
            "--set", "train.epochs=1"])


class TestConfigFileProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
    def test_a_damaged_config_exits_cleanly_and_is_named(self, edits):
        blob = json.dumps({"model.kind": "blendcnn", "model.vocab_size": 100,
                           "model.n_layers": 2, "model.kernel_widths": [3, 5, 7],
                           "model.dropout": 0.5, "train.lr": 0.001}, indent=1).encode()
        _exits_cleanly_on(_edit_bytes(blob, edits), "damaged.json",
                          lambda path: ["param-count", "--config", path])
