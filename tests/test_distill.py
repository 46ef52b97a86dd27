"""Training loops, the logit exchange, evaluation, and run ledgers."""
import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blendcnn import distill
from blendcnn.models import ModelConfig, init_model, load_checkpoint
from blendcnn.numerics import Parameter, adam_step
from blendcnn.synthetic import docs_to_rows, generate_docs
from blendcnn.text import Example
from blendcnn.distill import (
    DIRECT_CE,
    DISTILL_MAE,
    MIXED,
    ProtocolConfig,
    TrainConfig,
    attach_teacher_logits,
    config_hash,
    dump_predictions,
    evaluate,
    infer_logits,
    make_surrogate_teacher,
    read_logit_records,
    run_distillation_protocol,
    train_direct,
    train_distill,
    write_logit_records,
)


def tiny_model(seed=0, **kw):
    base = dict(kind="blendcnn", n_classes=3, seq_len=10, vocab_size=20,
                embed_dim=6, n_layers=2, n_channels=5, dense_width=4)
    base.update(kw)
    return init_model(ModelConfig(**base), seed)


def make_examples(n, seed, n_classes=3, vocab_size=20, seq_len=10, labeled=True):
    """Separable toy set: class c leans on token ids near 2 + c."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % n_classes
        valid = int(rng.integers(3, seq_len + 1))
        ids = np.zeros(seq_len, dtype=np.int64)
        ids[:valid] = rng.integers(2, vocab_size, size=valid)
        ids[: max(1, valid // 2)] = 2 + label  # class giveaway tokens
        out.append(Example(id=f"ex{i}", token_ids=ids, valid_len=valid,
                           label=label if labeled else None))
    return out


def recount_predictions(path):
    """Accuracy recomputed from a dump_predictions file, by a separate reader."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["id", "predicted", "gold"]
        hits = [rec["predicted"] == rec["gold"] for rec in reader]
    assert hits, f"{path}: no prediction rows"
    return sum(hits) / len(hits)


def with_logits(examples, state):
    return attach_teacher_logits(examples, infer_logits(state, examples))


class TestTrainConfig:
    def test_distill_mae_requires_alpha_zero(self):
        # a CE share is blended in only by mode='mixed', which needs one; no other mode
        # reads alpha
        for mode, alpha in ((DISTILL_MAE, 0.5), (DIRECT_CE, 0.5), (MIXED, 0.0)):
            with pytest.raises(ValueError, match="alpha"):
                TrainConfig(mode=mode, alpha=alpha)
        assert TrainConfig(mode=MIXED, alpha=0.5).alpha == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="contrastive")

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan")])
    def test_lr_must_be_positive(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)
        with pytest.raises(ValueError, match="lr"):
            adam_step(Parameter("w", np.zeros(1)), lr)

    def test_config_hash_tracks_content(self):
        model = tiny_model().config
        a = config_hash(model, TrainConfig(epochs=3))
        b = config_hash(model, TrainConfig(epochs=3))
        c = config_hash(model, TrainConfig(epochs=4))
        assert a == b != c


class TestLogitExchange:
    def test_records_round_trip_exactly(self, tmp_path):
        state = tiny_model(seed=1)
        examples = make_examples(7, seed=2)
        logits = infer_logits(state, examples)
        assert list(logits) == [ex.id for ex in examples]
        path = tmp_path / "logits.jsonl"
        write_logit_records(path, logits)
        again = read_logit_records(path, 3)
        assert list(again) == list(logits)
        for example_id, row in logits.items():
            assert again[example_id].dtype == np.float64
            np.testing.assert_array_equal(again[example_id], row)

    @pytest.mark.parametrize("line, message", [
        (b"not json", "Expecting value"),
        (b'{"id": "a", "logits": [3, 4]}', "duplicate teacher logits for example id='a'"),
        (b'{"id": "b", "logits": [1, 2, 3]}', r"'b' have shape \(3,\), expected \(2,\)"),
        (b'{"id": "b", "logits": [1e999, 2]}', "non-finite"),
        (b'{"id": "b", "logits": [1' + b"0" * 400 + b', 2]}', "too large"),
        (b'{"id": "\xff", "logits": [1, 2]}', "utf-8"),
        (b'{"id": "b", "logits": ["1.5", true, "-2e3"]}', "'b' are not a list of numbers"),
    ], ids=["not_json", "repeated_id", "wrong_length", "infinite", "huge_int", "bad_utf8",
            "strings_and_bools"])
    def test_malformed_line_reports_number(self, tmp_path, line, message):
        path = tmp_path / "logits.jsonl"
        path.write_bytes(b'{"id": "a", "logits": [1, 2]}\n' + line + b"\n")
        with pytest.raises(ValueError, match=f"logits.jsonl:2: .*{message}"):
            read_logit_records(path, 2)

    def test_nonfinite_logits_rejected(self):
        state = tiny_model(seed=1)
        state.param("logits.b").value[0] = np.nan  # every row turns NaN
        with pytest.raises(ValueError, match="non-finite teacher logits for example id='ex0'"):
            infer_logits(state, make_examples(3, seed=2))

    def test_infer_rejects_a_repeated_id(self):
        examples = make_examples(3, seed=2)
        examples[2] = replace(examples[2], id="ex0")
        with pytest.raises(ValueError, match="duplicate teacher logits for example id='ex0'"):
            infer_logits(tiny_model(seed=1), examples)

    @pytest.mark.parametrize("logits, message", [
        ("[[1.0, 2.0, 3.0, 4.0]]", "not a list of numbers"),
        ("[]", r"shape \(0,\), expected \(3,\)"),
        ("1.0", "not a list of numbers")], ids=["matrix", "empty", "scalar"])
    def test_logits_must_be_one_nonempty_row(self, tmp_path, logits, message):
        path = tmp_path / "logits.jsonl"
        path.write_text(f'{{"id": "x", "logits": {logits}}}\n')
        with pytest.raises(ValueError, match=f"logits.jsonl:1: .*{message}"):
            read_logit_records(path, 3)

    def test_attach_requires_every_id(self):
        examples = make_examples(3, seed=3)
        with pytest.raises(ValueError, match="ex1"):
            attach_teacher_logits(examples, {"ex0": np.zeros(3)})

    def test_attach_leaves_originals_alone(self):
        examples = make_examples(2, seed=4)
        logits = {ex.id: np.array([1.0, 2.0, 3.0]) for ex in examples}
        out = attach_teacher_logits(examples, logits)
        assert examples[0].teacher_logits is None
        np.testing.assert_array_equal(out[0].teacher_logits, [1.0, 2.0, 3.0])


class TestTrainDirect:
    def test_loss_falls_and_fits_separable_data(self):
        state = tiny_model(seed=5)
        examples = make_examples(30, seed=6)
        state, ledger = train_direct(state, examples,
                                     TrainConfig(epochs=60, batch_size=8, lr=5e-3, seed=7))
        losses = ledger.train_losses
        assert losses[-1] < losses[0] * 0.2
        assert evaluate(state, examples).accuracy >= 0.99

    def test_same_seed_reproduces_weights_bitwise(self):
        examples = make_examples(12, seed=8)
        cfg = TrainConfig(epochs=3, seed=9)
        a, _ = train_direct(tiny_model(seed=10), examples, cfg)
        b, _ = train_direct(tiny_model(seed=10), examples, cfg)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_unlabeled_example_rejected(self):
        examples = make_examples(4, seed=11, labeled=False)
        with pytest.raises(ValueError, match="unlabeled"):
            train_direct(tiny_model(), examples, TrainConfig(epochs=1))

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError, match="direct_ce"):
            train_direct(tiny_model(), make_examples(4, seed=0),
                         TrainConfig(mode=DISTILL_MAE, epochs=1))

    def test_ledger_and_checkpoints_per_epoch(self, tmp_path):
        state = tiny_model(seed=12)
        examples = make_examples(10, seed=13)
        test_set = make_examples(6, seed=14)
        state, ledger = train_direct(state, examples,
                                     TrainConfig(epochs=3, seed=15),
                                     eval_set=test_set, checkpoint_dir=tmp_path)
        assert [e.epoch for e in ledger.entries] == [1, 2, 3]
        assert all(e.eval_accuracy is not None for e in ledger.entries)
        assert all(e.wall_seconds > 0 for e in ledger.entries)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["epoch_001.ckpt", "epoch_002.ckpt", "epoch_003.ckpt"]
        final = load_checkpoint(tmp_path / "epoch_003.ckpt")
        for a, b in zip(state.parameters(), final.parameters()):
            assert np.array_equal(a.value, b.value)

    @pytest.mark.parametrize("where", ["labeled", "mixed", "eval_set"])
    def test_out_of_range_label_is_named_before_any_step(self, tmp_path, where):
        # wherever training reads labels, a label outside the classes is
        # refused at entry, naming the example, before checkpoint_dir exists
        examples = with_logits(make_examples(8, seed=52), tiny_model(seed=51))
        eval_set = make_examples(4, seed=53) if where == "eval_set" else None
        (eval_set or examples)[2].label = 3
        ckpt = tmp_path / "checkpoints"
        with pytest.raises(ValueError, match=r"ex2.*3.*0\.\.2"):
            if where == "mixed":
                train_distill(tiny_model(), examples, [],
                              TrainConfig(mode=MIXED, alpha=0.5, epochs=1), checkpoint_dir=ckpt)
            else:
                train_direct(tiny_model(), examples, TrainConfig(epochs=1),
                             eval_set=eval_set, checkpoint_dir=ckpt)
        assert not ckpt.exists()

    def test_ledger_serializes(self, tmp_path):
        state = tiny_model(seed=16)
        _, ledger = train_direct(state, make_examples(8, seed=17),
                                 TrainConfig(epochs=2, seed=18))
        path = tmp_path / "ledger.json"
        ledger.save(path)
        data = json.loads(path.read_text())
        assert data["seed"] == 18
        assert len(data["epochs"]) == 2
        assert data["config_hash"] == ledger.config_hash


class TestTrainDistill:
    def test_student_absorbs_teacher_logits(self):
        teacher = tiny_model(seed=20)
        pool = make_examples(40, seed=21)
        teacher, _ = train_direct(teacher, pool,
                                  TrainConfig(epochs=40, batch_size=8, lr=5e-3, seed=22))
        labeled = with_logits(pool[:4], teacher)
        unlabeled = [Example(ex.id, ex.token_ids, ex.valid_len, None, ex.teacher_logits)
                     for ex in with_logits(pool[4:], teacher)]
        student = tiny_model(seed=23)
        student, ledger = train_distill(
            student, labeled, unlabeled,
            TrainConfig(mode=DISTILL_MAE, epochs=60, batch_size=8, lr=5e-3, seed=24))
        assert ledger.train_losses[-1] < ledger.train_losses[0] * 0.5
        agree = evaluate(student, pool).accuracy
        assert agree >= 0.9  # student tracks the teacher it was fit to

    def test_labels_never_read_when_alpha_zero(self):
        # bitwise-identical weights with true, shuffled, or missing labels
        teacher = tiny_model(seed=25)
        pool = make_examples(16, seed=26)
        records = infer_logits(teacher, pool)
        cfg = TrainConfig(mode=DISTILL_MAE, epochs=2, seed=27)

        def run(labels):
            exs = [Example(ex.id, ex.token_ids, ex.valid_len, lab, None)
                   for ex, lab in zip(pool, labels)]
            exs = attach_teacher_logits(exs, records)
            state, _ = train_distill(tiny_model(seed=28), exs[:8], exs[8:], cfg)
            return state

        rng = np.random.default_rng(29)
        true_labels = [ex.label for ex in pool]
        shuffled = list(rng.permutation(true_labels))
        none_at_all = [None] * len(pool)
        base = run(true_labels)
        for variant in (shuffled, none_at_all):
            other = run(variant)
            for pa, pb in zip(base.parameters(), other.parameters()):
                assert np.array_equal(pa.value, pb.value)

    def test_mixed_mode_uses_labels(self):
        teacher = tiny_model(seed=30)
        pool = make_examples(16, seed=31)
        labeled = with_logits(pool, teacher)
        cfg = TrainConfig(mode=MIXED, alpha=0.5, epochs=2, seed=32)
        a, _ = train_distill(tiny_model(seed=33), labeled, [], cfg)
        flipped = [Example(ex.id, ex.token_ids, ex.valid_len,
                           (ex.label + 1) % 3, ex.teacher_logits) for ex in labeled]
        b, _ = train_distill(tiny_model(seed=33), flipped, [], cfg)
        diffs = [not np.array_equal(pa.value, pb.value)
                 for pa, pb in zip(a.parameters(), b.parameters())]
        assert any(diffs)

    def test_mixed_mode_never_reads_unlabeled_labels(self):
        # CE covers the labeled argument alone: labels on the unlabeled rows change nothing
        pool = with_logits(make_examples(16, seed=35), tiny_model(seed=36))
        cfg = TrainConfig(mode=MIXED, alpha=0.5, epochs=2, seed=37)
        blank = [replace(ex, label=None) for ex in pool[6:]]
        a, _ = train_distill(tiny_model(seed=38), pool[:6], pool[6:], cfg)
        b, _ = train_distill(tiny_model(seed=38), pool[:6], blank, cfg)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_mixed_mode_names_a_labeled_example_without_label(self, tmp_path):
        pool = with_logits(make_examples(8, seed=39), tiny_model(seed=40))
        pool[3] = replace(pool[3], label=None)
        ckpt = tmp_path / "checkpoints"
        with pytest.raises(ValueError, match="id='ex3'"):
            train_distill(tiny_model(), pool[:5], pool[5:],
                          TrainConfig(mode=MIXED, alpha=0.5, epochs=1), checkpoint_dir=ckpt)
        assert not ckpt.exists()  # refused before any step

    def test_missing_teacher_logits_named(self):
        pool = make_examples(4, seed=34)
        with pytest.raises(ValueError, match="ex0"):
            train_distill(tiny_model(), pool, [],
                          TrainConfig(mode=DISTILL_MAE, epochs=1))


class TestEvaluate:
    def test_argmax_tie_goes_to_lowest_class(self):
        state = tiny_model(seed=43)
        state.param("logits.w").value[:] = 0.0
        state.param("logits.b").value[:] = 0.0
        examples = make_examples(9, seed=44)
        result = evaluate(state, examples)
        np.testing.assert_array_equal(result.confusion.sum(axis=0)[1:], [0, 0])

    def test_confusion_diagonal_matches_accuracy(self):
        state = tiny_model(seed=45)
        examples = make_examples(20, seed=46)
        state, _ = train_direct(state, examples,
                                TrainConfig(epochs=10, batch_size=8, seed=47))
        result = evaluate(state, examples)
        assert result.confusion.sum() == 20
        assert np.trace(result.confusion) == round(result.accuracy * 20)

    def test_eval_runs_fixed_batches_in_example_order(self, monkeypatch):
        # infer_logits and evaluate both run EVAL_BATCH-example forwards, whatever
        # batch size the model was trained at
        state = tiny_model(seed=45)
        examples = make_examples(2 * distill.EVAL_BATCH + 6, seed=46)
        rows = []
        forward = distill.forward

        def recording_forward(state, ids, lens, **kwargs):
            rows.append(len(lens))
            return forward(state, ids, lens, **kwargs)

        monkeypatch.setattr(distill, "forward", recording_forward)
        logits = np.stack(list(infer_logits(state, examples).values()))
        preds = evaluate(state, examples).predictions
        assert rows == [distill.EVAL_BATCH, distill.EVAL_BATCH, 6] * 2
        np.testing.assert_array_equal(logits.argmax(axis=1), preds)
        last = examples[-6:]
        np.testing.assert_array_equal(logits[-6:], forward(
            state, np.stack([ex.token_ids for ex in last]), [ex.valid_len for ex in last])[0])

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(tiny_model(), [])

    @pytest.mark.parametrize("label", [3, -1])
    def test_label_outside_the_classes_is_named(self, label):
        # 3 classes: label 3 has no confusion row, and -1 must not wrap into row 2
        examples = make_examples(4, seed=44)
        examples[2].label = label
        with pytest.raises(ValueError, match=rf"ex2.*{label}.*0\.\.2"):
            evaluate(tiny_model(), examples)

    def test_predictions_file_recounts_to_same_accuracy(self, tmp_path):
        state = tiny_model(seed=48)
        examples = make_examples(15, seed=49)
        state, _ = train_direct(state, examples,
                                TrainConfig(epochs=5, batch_size=8, seed=50))
        want = evaluate(state, examples).accuracy
        path = tmp_path / "predictions.csv"
        result = dump_predictions(path, state, examples)
        assert result.accuracy == want
        assert recount_predictions(path) == pytest.approx(want)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,predicted,gold"
        assert [int(ln.split(",")[1]) for ln in lines[1:]] == result.predictions.tolist()


class TestSurrogateTeacher:
    def test_returns_trained_state_and_ledger(self):
        pool = make_examples(24, seed=53)
        cfg = TrainConfig(epochs=30, batch_size=8, seed=54)
        state, ledger = make_surrogate_teacher(pool, tiny_model().config, cfg)
        assert len(ledger.entries) == 30
        assert evaluate(state, pool).accuracy > 0.5


class TestProtocol:
    def test_recipe_runs_each_arm_per_seed_without_warnings(self, monkeypatch):
        config = ProtocolConfig(seq_len=12, labeled_per_class=2, unlabeled_ratio=3,
                                teacher_layers=2, teacher_epochs=1, student_layers=1,
                                student_epochs=2, direct_epochs=3, student_seeds=(4, 5))
        calls = []

        def recorded(fn):
            def call(state, *sets_then_config, **kwargs):
                *sets, cfg = sets_then_config
                calls.append((fn.__name__, state.config.n_layers, cfg.epochs, cfg.seed,
                              [len(examples) for examples in sets]))
                return fn(state, *sets_then_config, **kwargs)
            return call

        for name in ("train_direct", "train_distill"):
            monkeypatch.setattr(distill, name, recorded(getattr(distill, name)))
        train_rows = docs_to_rows(generate_docs(10, seed=60))
        test_rows = docs_to_rows(generate_docs(3, seed=61), source="test")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_distillation_protocol(train_rows, test_rows, config)

        # 40-row pool; 2 labeled per class x 4 classes; 3 unlabeled per labeled row
        per_seed = lambda seed: [
            ("train_direct", 1, 3, seed, [8]),
            ("train_distill", 1, 2, seed, [8, 24]),
            ("train_distill", 1, 3, seed, [8, 0]),
        ]
        assert calls == [("train_direct", 2, 1, 1000, [40])] + per_seed(4) + per_seed(5)
        for accuracies in (result.direct_accuracies, result.distill_accuracies,
                           result.distill_labeled_only_accuracies):
            assert len(accuracies) == 2
