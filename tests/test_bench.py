"""Throughput harness and report formatting."""
import csv
import io
import time
from types import SimpleNamespace

import numpy as np
import pytest

from blendcnn import bench
from blendcnn.bench import (
    PAPER_REPORTED,
    ThroughputConfig,
    ThroughputResult,
    measure_throughput,
    model_display_name,
    report,
)
from blendcnn.distill import EVAL_BATCH
from blendcnn.models import ModelConfig, init_model
from blendcnn.text import Example


def busy_wait(seconds):
    # time.sleep overshoots by the kernel timer slack, which at 1 ms is a
    # several-percent error; spinning keeps the stub honest under a 5% bound
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def delay_stub(seconds, n_classes=4):
    def predict(ids, lens):
        busy_wait(seconds)
        return np.zeros((ids.shape[0], n_classes))
    return predict


def recorder_stub(record):
    def predict(ids, lens):
        record.append(np.array(ids, copy=True))
        return np.zeros((ids.shape[0], 4))
    return predict


def encoded_examples(n, seq_len=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        valid = int(rng.integers(1, seq_len + 1))
        ids = np.zeros(seq_len, dtype=np.int64)
        ids[:valid] = rng.integers(2, 30, size=valid)
        out.append(Example(id=f"x:{i}", token_ids=ids, valid_len=valid, label=0))
    return out


class TestThroughputConfig:
    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError, match="n_samples"):
            ThroughputConfig(n_samples=0)
        with pytest.raises(ValueError, match="repetitions"):
            ThroughputConfig(repetitions=0)
        with pytest.raises(ValueError, match="warmup"):
            ThroughputConfig(warmup_batches=-1)


class TestMeasureThroughput:
    def test_fixed_delay_stub_matches_analytic_rate(self):
        """A 1 ms per-batch stub must measure at EVAL_BATCH/0.001 sentences/s."""
        cfg = ThroughputConfig(n_samples=64, repetitions=5, warmup_batches=2, seed=3)
        # 64/32 divides evenly, so n_samples/(n_batches*0.001) == EVAL_BATCH/0.001
        res = measure_throughput(delay_stub(0.001), encoded_examples(80), cfg)
        expected = EVAL_BATCH / 0.001
        assert abs(res.sentences_per_second - expected) <= 0.05 * expected
        assert res.model_name == "stub"

    def test_wall_is_median_and_rate_is_consistent(self):
        cfg = ThroughputConfig(n_samples=32, repetitions=5, warmup_batches=1)
        res = measure_throughput(delay_stub(0.0005), encoded_examples(40), cfg)
        assert len(res.rep_seconds) == 5
        assert res.wall_seconds == float(np.median(res.rep_seconds))
        assert res.sentences_per_second == cfg.n_samples / res.wall_seconds

    def test_median_discards_a_slow_repetition(self, monkeypatch):
        """One rep stalled 12x longer must not move the reported rate."""
        # a fake clock that only the stub advances: no scheduler jitter
        clock = {"now": 0.0}
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
        calls = {"i": 0}
        delays = [0.001, 0.012, 0.001]  # per batch, per repetition

        def predict(ids, lens):
            clock["now"] += delays[calls["i"] // 2]  # 2 batches per repetition
            calls["i"] += 1
            return np.zeros((ids.shape[0], 4))

        cfg = ThroughputConfig(n_samples=64, repetitions=3, warmup_batches=0)
        res = measure_throughput(predict, encoded_examples(70), cfg)
        expected = EVAL_BATCH / 0.001
        assert abs(res.sentences_per_second - expected) <= 0.05 * expected
        assert max(res.rep_seconds) > 5 * res.wall_seconds

    def test_dataset_too_small_raises(self):
        with pytest.raises(ValueError, match="dataset too small"):
            measure_throughput(delay_stub(0.0), encoded_examples(10),
                               ThroughputConfig(n_samples=11, repetitions=1))

    def test_sample_selection_is_seeded(self):
        data = encoded_examples(50)
        cfg = ThroughputConfig(n_samples=32, repetitions=1, warmup_batches=0, seed=9)
        seen_a, seen_b = [], []
        measure_throughput(recorder_stub(seen_a), data, cfg)
        measure_throughput(recorder_stub(seen_b), data, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(seen_a, seen_b))

        seen_c = []
        cfg2 = ThroughputConfig(n_samples=32, repetitions=1, warmup_batches=0, seed=10)
        measure_throughput(recorder_stub(seen_c), data, cfg2)
        assert any(not np.array_equal(a, c) for a, c in zip(seen_a, seen_c))

    def test_times_the_eval_batches_of_its_sample(self):
        data = encoded_examples(80)
        seen = []
        measure_throughput(recorder_stub(seen), data,
                           ThroughputConfig(n_samples=70, repetitions=1, warmup_batches=0))
        assert [len(b) for b in seen] == [EVAL_BATCH, EVAL_BATCH, 6]
        picked = np.random.default_rng(0).permutation(80)[:70]
        np.testing.assert_array_equal(np.concatenate(seen),
                                      np.stack([data[i].token_ids for i in picked]))

    def test_rejects_non_model(self):
        with pytest.raises(TypeError, match="ModelState or callable"):
            measure_throughput(42, encoded_examples(5),
                               ThroughputConfig(n_samples=4, repetitions=1))

    def test_doubling_n_samples_keeps_rate_steady(self):
        """Sentences/s is a rate: independent of how long we run (within 10%)."""
        config = ModelConfig(kind="kimcnn", n_classes=4, seq_len=24, vocab_size=80,
                             embed_dim=64, n_channels=64, kernel_widths=(3, 5, 7),
                             dense_width=16)
        state = init_model(config, seed=0)
        data = encoded_examples(512, seq_len=24, seed=2)
        measure_throughput(state, data, ThroughputConfig(n_samples=256, repetitions=1,
                                                         warmup_batches=2))
        # on a shared host the speed shifts by 15-20% for half a second at a
        # time, longer than an 11-repetition run; so the two sizes alternate
        # one pass at a time (ABAB..., warmed once above) and the median of 65
        # passes a side holds both sides to the same mix of fast and slow spells
        rates = {128: [], 256: []}
        for _ in range(65):
            for n_samples, side in rates.items():
                cfg = ThroughputConfig(n_samples=n_samples, repetitions=1,
                                       warmup_batches=0, seed=0)
                side.append(measure_throughput(state, data, cfg).sentences_per_second)
        r1, r2 = (float(np.median(side)) for side in rates.values())
        assert abs(r1 - r2) <= 0.10 * max(r1, r2)

    def test_warmup_waits_out_a_slow_start(self):
        """A stub 5x slower for its first 20 calls is timed at its steady rate."""
        calls = {"n": 0}

        def predict(ids, lens):
            busy_wait(0.005 if calls["n"] < 20 else 0.001)
            calls["n"] += 1
            return np.zeros((ids.shape[0], 4))

        cfg = ThroughputConfig(n_samples=64, repetitions=5, warmup_batches=1)
        res = measure_throughput(predict, encoded_examples(70), cfg)
        expected = EVAL_BATCH / 0.001
        assert abs(res.sentences_per_second - expected) <= 0.05 * expected
        assert calls["n"] > 20 + 5 * 2

    def test_warmup_stops_at_its_time_budget(self, monkeypatch):
        monkeypatch.setattr(bench, "_blas_warm", True)
        monkeypatch.setattr(bench, "_SETTLE_SECONDS", 60.0)
        monkeypatch.setattr(bench, "_WARMUP_BUDGET_SECONDS", 0.05)
        cfg = ThroughputConfig(n_samples=32, repetitions=1, warmup_batches=1)
        start = time.perf_counter()
        measure_throughput(delay_stub(0.001), encoded_examples(40), cfg)
        assert time.perf_counter() - start < 2.0


class TestDisplayName:
    def test_names_follow_architecture(self):
        kim = ModelConfig(kind="kimcnn", n_classes=4, seq_len=16, vocab_size=50)
        assert model_display_name(kim) == "KimCNN"
        for n in (3, 8):
            blend = ModelConfig(kind="blendcnn", n_classes=4, seq_len=16,
                                vocab_size=50, n_layers=n)
            assert model_display_name(blend) == f"{n}-layer BlendCNN"


class TestPaperReported:
    def test_reference_table_is_frozen(self):
        assert PAPER_REPORTED["KimCNN"] == (2_124_824, 3154.57)
        assert PAPER_REPORTED["3-layer BlendCNN"] == (2_975_236, 3676.47)
        assert PAPER_REPORTED["8-layer BlendCNN"] == (3_617_426, 2392.34)
        assert PAPER_REPORTED["OpenAI Transformer"] == (116_534_790, 11.76)
        assert len(PAPER_REPORTED) == 4


def fake_result(name, sps):
    return ThroughputResult(model_name=name, wall_seconds=100 / sps,
                            sentences_per_second=sps, hardware_note="test")


class TestReport:
    def test_measured_beside_reference(self):
        rep = report([fake_result("3-layer BlendCNN", 512.0)],
                     {"3-layer BlendCNN": 2_975_236})
        assert rep.rows == [("3-layer BlendCNN", 2_975_236, 512.0, 2_975_236, 3676.47),
                            ("KimCNN", None, None, 2_124_824, 3154.57),
                            ("8-layer BlendCNN", None, None, 3_617_426, 2392.34),
                            ("OpenAI Transformer", None, None, 116_534_790, 11.76)]
        lines = rep.text.splitlines()
        assert "Total parameters (paper-reported)" in lines[0]
        assert "Sentences per second (paper-reported)" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "2,975,236" in lines[2] and "3676.47" in lines[2]

    def test_unknown_model_has_empty_reference_cells(self):
        rep = report([fake_result("tiny stub", 10.0)], {"tiny stub": 123})
        assert rep.rows[0] == ("tiny stub", 123, 10.0, None, None)
        assert [r[0] for r in rep.rows[1:]] == list(PAPER_REPORTED)
        # empty CSV cells, not literal "None"
        assert rep.csv.splitlines()[1] == "tiny stub,123,10.0,,"

    def test_reference_only_rows_follow_the_measured_ones(self):
        rep = report([fake_result("KimCNN", 900.0)], {"KimCNN": 2_124_824})
        names = [r[0] for r in rep.rows]
        assert names[0] == "KimCNN"
        assert set(names) == set(PAPER_REPORTED)
        transformer = dict((r[0], r) for r in rep.rows)["OpenAI Transformer"]
        assert transformer == ("OpenAI Transformer", None, None,
                               116_534_790, 11.76)
        assert "116,534,790" in rep.text

    def test_counts_only_leaves_rate_blank(self):
        rep = report([], {"8-layer BlendCNN": 3_617_426})
        assert rep.rows[0] == ("8-layer BlendCNN", 3_617_426, None, 3_617_426, 2392.34)
        assert all(r[2] is None for r in rep.rows)

    def test_csv_round_trips_exactly(self):
        # repr() floats in the CSV so a reader recovers bit-identical values
        rep = report([fake_result("KimCNN", 1234.5678901234567)], {"KimCNN": 2_124_824})
        parsed = [
            (rec["model"],
             int(rec["total_parameters"]) if rec["total_parameters"] else None,
             float(rec["sentences_per_second"]) if rec["sentences_per_second"] else None,
             int(rec["paper_reported_parameters"]),
             float(rec["paper_reported_sentences_per_second"]))
            for rec in csv.DictReader(io.StringIO(rep.csv))
        ]
        assert parsed == rep.rows
        assert parsed[0][2] == 1234.5678901234567

    def test_csv_header_is_validated(self):
        rep = report([], {"KimCNN": 2_124_824})
        assert csv.DictReader(io.StringIO(rep.csv)).fieldnames == [
            "model", "total_parameters", "sentences_per_second",
            "paper_reported_parameters", "paper_reported_sentences_per_second"]

    def test_empty_report_raises(self):
        with pytest.raises(ValueError):
            report([], {})

    def test_save_writes_both_files(self, tmp_path):
        rep = report([], {"KimCNN": 2_124_824})
        rep.save(tmp_path / "b.txt", tmp_path / "b.csv")
        assert (tmp_path / "b.txt").read_text() == rep.text
        assert (tmp_path / "b.csv").read_text() == rep.csv
