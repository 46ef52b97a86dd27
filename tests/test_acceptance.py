"""The eight acceptance gates, one test per gate, tolerances pinned.

Each test prints a single "criterion N (...): PASS/FAIL [detail]" line so a
plain `pytest -v -s` run reads as a checklist.  The distillation-protocol
gates (5 and 6) share one module-scoped run of the full protocol; everything
else is self-contained and fast.
"""
import math
import time

import numpy as np
import pytest

from blendcnn.bench import ThroughputConfig, measure_throughput, report
from blendcnn.distill import (
    DISTILL_MAE,
    EVAL_BATCH,
    ProtocolConfig,
    TrainConfig,
    attach_teacher_logits,
    evaluate,
    infer_logits,
    run_distillation_protocol,
    train_direct,
    train_distill,
)
from blendcnn.models import ModelConfig, backward, forward, init_model, param_count, save_checkpoint
from blendcnn.numerics import (
    Parameter,
    adam_step,
    affine,
    conv1d,
    cross_entropy,
    cross_entropy_backward,
    grad_check,
    mae_loss,
    softmax,
)
from blendcnn.synthetic import docs_to_rows, generate_docs
from blendcnn.text import build_vocab, encode_dataset, stratified_sample, tokenize


def _verdict(n, label, passed, detail):
    print(f"criterion {n} ({label}): {'PASS' if passed else 'FAIL'} [{detail}]")
    assert passed, f"criterion {n} ({label}) failed: {detail}"


def rel_err(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def _ce_loss(state, ids, lens, labels):
    def loss():
        fwd_rng = np.random.default_rng(99)  # frozen dropout mask
        logits, cache = forward(state, ids, lens, train=True, rng=fwd_rng)
        value = cross_entropy(logits, labels)
        backward(state, cache, cross_entropy_backward(logits, labels))
        return value
    return loss


def test_01_gradient_fidelity():
    start = time.perf_counter()
    worst = {}
    for kind in ("blendcnn", "kimcnn"):
        cfg = ModelConfig(kind=kind, n_classes=3, seq_len=12, vocab_size=40,
                          embed_dim=12, n_layers=3, n_channels=10,
                          kernel_widths=(3, 5, 7), dense_width=10)
        state = init_model(cfg, seed=11)
        rng = np.random.default_rng(12)
        # full-length batch: every row of the embedding is a live parameter
        ids = rng.integers(2, cfg.vocab_size, size=(2, cfg.seq_len))
        lens = np.full(2, cfg.seq_len)
        labels = rng.integers(0, 3, size=2)
        rep = grad_check(_ce_loss(state, ids, lens, labels), state.parameters())
        worst[kind] = rep.max_rel_err
    elapsed = time.perf_counter() - start
    detail = (f"max rel err blendcnn {worst['blendcnn']:.2e}, "
              f"kimcnn {worst['kimcnn']:.2e}, {elapsed:.1f}s")
    _verdict(1, "gradient fidelity", max(worst.values()) < 1e-4 and elapsed < 60,
             detail)


# ---------------------------------------------------------------------------
# 2. oracle equivalence, >= 100 random instances per op


def _conv_oracle(x, k, b):
    length, c_in = x.shape
    width, _, c_out = k.shape
    pad = (width - 1) // 2
    out = np.zeros((length, c_out))
    for t in range(length):
        for o in range(c_out):
            acc = b[o]
            for kk in range(width):
                src = t + kk - pad
                if 0 <= src < length:
                    for c in range(c_in):
                        acc += x[src, c] * k[kk, c, o]
            out[t, o] = acc
    return out


def test_02_oracle_equivalence():
    rng = np.random.default_rng(20)
    n = 100
    errs = {}

    worst = 0.0
    for _ in range(n):
        length, c_in, c_out = rng.integers(1, 8), rng.integers(1, 5), rng.integers(1, 5)
        width = int(rng.choice([1, 3, 5]))
        x = rng.normal(size=(length, c_in))
        k = rng.normal(size=(width, c_in, c_out))
        b = rng.normal(size=c_out)
        worst = max(worst, rel_err(conv1d(x[None], k, b)[0], _conv_oracle(x, k, b)))
    errs["conv1d"] = worst

    worst = 0.0
    for _ in range(n):
        batch, d_in, d_out = rng.integers(1, 6), rng.integers(1, 7), rng.integers(1, 7)
        x = rng.normal(size=(batch, d_in))
        w = rng.normal(size=(d_in, d_out))
        b = rng.normal(size=d_out)
        want = np.array([[b[o] + sum(x[i, j] * w[j, o] for j in range(d_in))
                          for o in range(d_out)] for i in range(batch)])
        worst = max(worst, rel_err(affine(x, w, b), want))
    errs["affine"] = worst

    worst = 0.0
    for _ in range(n):
        z = rng.normal(scale=rng.choice([0.1, 1.0, 10.0, 50.0]),
                       size=(rng.integers(1, 6), rng.integers(2, 8)))
        want = np.array([[math.exp(v) for v in row] for row in z])
        want /= want.sum(axis=1, keepdims=True)
        worst = max(worst, rel_err(softmax(z), want))
    errs["softmax"] = worst

    worst = 0.0
    for _ in range(n):
        batch, n_classes = rng.integers(1, 6), rng.integers(2, 8)
        z = rng.normal(scale=3.0, size=(batch, n_classes))
        labels = rng.integers(0, n_classes, size=batch)
        per_row = [-math.log(math.exp(z[i, labels[i]])
                             / sum(math.exp(v) for v in z[i]))
                   for i in range(batch)]
        worst = max(worst, rel_err(cross_entropy(z, labels),
                                   sum(per_row) / batch))
    errs["cross_entropy"] = worst

    worst = 0.0
    for _ in range(n):
        shape = (rng.integers(1, 6), rng.integers(1, 6))
        s, t = rng.normal(size=shape), rng.normal(size=shape)
        want = sum(abs(s[i, j] - t[i, j]) for i in range(shape[0])
                   for j in range(shape[1])) / s.size
        worst = max(worst, rel_err(mae_loss(s, t), want))
    errs["mae_loss"] = worst

    worst = 0.0
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
    for _ in range(n):
        shape = (rng.integers(1, 4), rng.integers(1, 4))
        p = Parameter("p", rng.normal(size=shape))
        p.m = rng.normal(size=shape) * 0.1
        p.v = np.abs(rng.normal(size=shape)) * 0.1
        p.step = int(rng.integers(0, 10))
        p.grad = rng.normal(size=shape)
        value, m, v, g, t = (p.value.copy(), p.m.copy(), p.v.copy(),
                             p.grad.copy(), p.step + 1)
        adam_step(p, lr)
        for i in range(shape[0]):
            for j in range(shape[1]):
                em = beta1 * m[i, j] + (1 - beta1) * g[i, j]
                ev = beta2 * v[i, j] + (1 - beta2) * g[i, j] ** 2
                m_hat = em / (1 - beta1 ** t)
                v_hat = ev / (1 - beta2 ** t)
                want = value[i, j] - lr * m_hat / (math.sqrt(v_hat) + eps)
                worst = max(worst, rel_err(p.value[i, j], want))
                worst = max(worst, rel_err(p.m[i, j], em))
                worst = max(worst, rel_err(p.v[i, j], ev))
        assert p.step == t and not p.grad.any()
    errs["adam_step"] = worst

    detail = ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
    _verdict(2, "oracle equivalence", max(errs.values()) < 1e-12, detail)


# ---------------------------------------------------------------------------
# 3. pad invariance


def test_03_pad_invariance():
    cfg = ModelConfig(kind="blendcnn", n_classes=4, seq_len=24, vocab_size=60,
                      embed_dim=16, n_layers=3, n_channels=12, dense_width=10)
    state = init_model(cfg, seed=31)
    rng = np.random.default_rng(32)
    n = 100
    lens = rng.integers(1, 11, size=n)
    short = np.zeros((n, 10), dtype=np.int64)
    for i, v in enumerate(lens):
        short[i, :v] = rng.integers(2, cfg.vocab_size, size=v)
    padded = np.zeros((n, cfg.seq_len), dtype=np.int64)
    padded[:, :10] = short

    a, _ = forward(state, short, lens)
    b, _ = forward(state, padded, lens)
    identical = np.array_equal(a, b)
    _verdict(3, "pad invariance",
             identical, f"{n} examples, appended PAD shifts logits by "
             f"{np.max(np.abs(a - b)):.1e} (must be exactly 0)")


# ---------------------------------------------------------------------------
# 4. parameter-count self-consistency


def test_04_param_count_self_consistency():
    checked = 0
    for n_layers in range(1, 9):
        for n_classes in (2, 4, 10, 14):
            cfg = ModelConfig(kind="blendcnn", n_classes=n_classes, seq_len=16,
                              vocab_size=50, embed_dim=8, n_layers=n_layers,
                              n_channels=6, dense_width=7)
            total, breakdown = param_count(cfg)
            live = sum(p.value.size for p in init_model(cfg, seed=0).parameters())
            assert total == live == sum(breakdown.values()), cfg
            checked += 1
    for n_classes in (2, 4, 10, 14):
        cfg = ModelConfig(kind="kimcnn", n_classes=n_classes, seq_len=16,
                          vocab_size=50, embed_dim=8, n_channels=6,
                          kernel_widths=(3, 5, 7), dense_width=7)
        total, breakdown = param_count(cfg)
        live = sum(p.value.size for p in init_model(cfg, seed=0).parameters())
        assert total == live == sum(breakdown.values()), cfg
        checked += 1

    # published totals appear in the report's paper-reported column
    rep = report([], {"3-layer BlendCNN": 1, "8-layer BlendCNN": 1, "KimCNN": 1})
    ref = {name: row[3] for name, row in ((r[0], r) for r in rep.rows)}
    published_ok = (ref["3-layer BlendCNN"] == 2_975_236
                    and ref["8-layer BlendCNN"] == 3_617_426
                    and ref["KimCNN"] == 2_124_824
                    and all(s in rep.text
                            for s in ("2,975,236", "3,617,426", "2,124,824")))
    _verdict(4, "parameter-count self-consistency", published_ok,
             f"{checked} configs enumerate exactly; published totals shown")


# ---------------------------------------------------------------------------
# 5 + 6. the distillation protocol (one shared run)


@pytest.fixture(scope="module")
def protocol():
    train_rows = docs_to_rows(generate_docs(10_000, seed=101))
    test_rows = docs_to_rows(generate_docs(500, seed=102))
    start = time.perf_counter()
    result = run_distillation_protocol(train_rows, test_rows, ProtocolConfig())
    wall = time.perf_counter() - start
    return result, wall


def test_05_distillation_trend(protocol):
    result, wall = protocol
    gap = 100.0 * (result.distill_median - result.direct_median)
    detail = (f"direct {100 * result.direct_median:.2f}, "
              f"distilled {100 * result.distill_median:.2f}, "
              f"gap {gap:.2f} pts, {wall / 60:.1f} min")
    _verdict(5, "distillation trend", gap >= 2.0 and wall < 1800.0, detail)


def test_06_unlabeled_data_benefit(protocol):
    result, _ = protocol
    gap = 100.0 * (result.distill_median - result.distill_labeled_only_median)
    detail = (f"labeled-only {100 * result.distill_labeled_only_median:.2f}, "
              f"with unlabeled {100 * result.distill_median:.2f}, "
              f"gap {gap:.2f} pts")
    _verdict(6, "unlabeled-data benefit", gap >= 1.0, detail)


# ---------------------------------------------------------------------------
# 7. throughput ordering


def _busy_stub(seconds, n_classes=4):
    def predict(ids, lens):
        end = time.perf_counter() + seconds  # sleep() overshoots; spinning doesn't
        while time.perf_counter() < end:
            pass
        return np.zeros((ids.shape[0], n_classes))
    return predict


def _timing_examples(n, seq_len, vocab_size, seed=70):
    from blendcnn.text import Example
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        valid = int(rng.integers(4, seq_len + 1))
        ids = np.zeros(seq_len, dtype=np.int64)
        ids[:valid] = rng.integers(2, vocab_size, size=valid)
        out.append(Example(id=f"t:{i}", token_ids=ids, valid_len=valid, label=0))
    return out


def test_07_throughput_ordering():
    base = dict(kind="blendcnn", n_classes=4, seq_len=32, vocab_size=2000,
                embed_dim=100, n_channels=100, dense_width=100)
    data = _timing_examples(512, seq_len=32, vocab_size=2000)
    timing = ThroughputConfig(n_samples=256, repetitions=5, warmup_batches=2, seed=0)
    r3 = measure_throughput(init_model(ModelConfig(n_layers=3, **base), 0), data, timing)
    r8 = measure_throughput(init_model(ModelConfig(n_layers=8, **base), 0), data, timing)

    stub_cfg = ThroughputConfig(n_samples=64, repetitions=5, warmup_batches=1, seed=0)
    stub = measure_throughput(_busy_stub(0.001), data, stub_cfg)
    expected = EVAL_BATCH / 0.001  # 1 ms per batch, batches divide evenly
    stub_err = abs(stub.sentences_per_second - expected) / expected

    passed = (r3.sentences_per_second > r8.sentences_per_second
              and stub_err <= 0.05)
    detail = (f"3-layer {r3.sentences_per_second:.0f}/s > "
              f"8-layer {r8.sentences_per_second:.0f}/s, "
              f"stub off by {100 * stub_err:.2f}%")
    _verdict(7, "throughput ordering", passed, detail)


# ---------------------------------------------------------------------------
# 8. determinism


def _full_pipeline(tmp_path, tag):
    rows = docs_to_rows(generate_docs(40, seed=7))
    test_rows = docs_to_rows(generate_docs(10, seed=8))
    vocab = build_vocab((tokenize(t) for _, t, _ in rows), cap=5000)
    cfg = ModelConfig(kind="blendcnn", n_classes=4, seq_len=16,
                      vocab_size=len(vocab), embed_dim=12, n_layers=2,
                      n_channels=8, dense_width=8)
    pool = encode_dataset(rows, vocab, cfg.seq_len)
    test = encode_dataset(test_rows, vocab, cfg.seq_len)

    teacher = init_model(cfg, seed=3)
    teacher, t_ledger = train_direct(teacher, pool, TrainConfig(epochs=2, seed=3))
    records = infer_logits(teacher, pool)

    labeled_rows, _ = stratified_sample(rows, 5, seed=17)
    labeled = attach_teacher_logits(
        encode_dataset(labeled_rows, vocab, cfg.seq_len), records)
    unlabeled = attach_teacher_logits(
        encode_dataset([(i, t, None) for i, t, _ in rows], vocab, cfg.seq_len),
        records)

    student = init_model(cfg, seed=5)
    student, s_ledger = train_distill(
        student, labeled, unlabeled,
        TrainConfig(mode=DISTILL_MAE, epochs=2, batch_size=16, seed=5))
    accuracy = evaluate(student, test).accuracy

    t_path, s_path = tmp_path / f"{tag}_teacher.ckpt", tmp_path / f"{tag}_student.ckpt"
    save_checkpoint(teacher, t_path)
    save_checkpoint(student, s_path)
    return {
        "teacher_losses": [e.train_loss for e in t_ledger.entries],
        "student_losses": [e.train_loss for e in s_ledger.entries],
        "accuracy": accuracy,
        "teacher_bytes": t_path.read_bytes(),
        "student_bytes": s_path.read_bytes(),
    }


def test_08_determinism(tmp_path):
    a = _full_pipeline(tmp_path, "a")
    b = _full_pipeline(tmp_path, "b")
    same = (a["teacher_losses"] == b["teacher_losses"]
            and a["student_losses"] == b["student_losses"]
            and a["accuracy"] == b["accuracy"]
            and a["teacher_bytes"] == b["teacher_bytes"]
            and a["student_bytes"] == b["student_bytes"])
    _verdict(8, "determinism", same,
             "two runs: losses, accuracy, and checkpoint bytes all identical"
             if same else "runs diverged")
