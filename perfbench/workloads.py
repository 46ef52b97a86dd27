"""The three benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs and models and
warms them up, and a ``unit(ctx, tally)`` that does one fixed piece of timed
work and checks its outputs.  The runner repeats units until the time budget
is spent, so every unit of one seed does identical work and must produce
bitwise-identical outputs.

Why these three:

eval-desk      eval-mode forward of 3-layer BlendCNN, 8-layer BlendCNN and
               KimCNN at the desk shape (V~234, L=32, B=32): the paper's
               throughput table.  No backward, no Adam, no writes.
train-paper    ``train_distill`` at the paper shape (V=20000, L=128, B=32) on
               Zipf-distributed ids: the only workload with a large, sparsely
               touched embedding table, per-epoch checkpoints and the KimCNN
               dropout backward.
protocol-desk  ``run_distillation_protocol`` scaled down: vocab, encoding,
               8-layer teacher, logit exchange, three student arms, evaluate.
               Backward and the small-parameter half of Adam dominate.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import shutil
import statistics
import tempfile
import time
import warnings

import numpy as np

from blendcnn import distill, models, synthetic, text

from reference import matches
from tracing import ArmRecorder, StepClock, model_tag, patched

BATCH = 32
N_CLASSES = 4


class Tally:
    """What the timed units of one run produced."""

    def __init__(self):
        self.unit_sps = []       # examples per second, one per unit
        self.batch_s = []        # seconds per 3-layer BlendCNN batch or step
        self.model_sps = {}      # model tag -> [examples per second per unit]
        self.attempted = 0
        self.failed = 0
        self.digests = []        # one output digest per unit
        self.notes = {}

    def add_model(self, tag, examples, seconds):
        if seconds:
            self.model_sps.setdefault(tag, []).append(examples / seconds)

    def counts(self):
        """(attempted, failed), with at least one attempt and no more failures."""
        attempted = max(self.attempted, 1)
        return attempted, min(self.failed, attempted)

    def fail(self, count=1, why=None):
        self.failed += count
        if why:
            self.notes.setdefault("failures", []).append(why)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _settle(step, min_steps=4, max_steps=40, window=3, tolerance=0.1):
    """Call ``step`` until the median of the last ``window`` timings moves
    by less than ``tolerance`` from the window before it."""
    times = []
    for _ in range(max_steps):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
        if len(times) >= max(min_steps, 2 * window):
            last = statistics.median(times[-window:])
            before = statistics.median(times[-2 * window:-window])
            if abs(last - before) <= tolerance * before:
                break
    return len(times)


def _stack(examples):
    ids = np.stack([ex.token_ids for ex in examples])
    lens = np.array([ex.valid_len for ex in examples], dtype=np.int64)
    return ids, lens


# ---------------------------------------------------------------------------
# eval-desk

DESK_LEN = 32
EVAL_SENTENCES = 1024      # per model per unit: 32 batches
EVAL_CHECK_BATCHES = 3     # per model, against the reference forward


def _desk_corpus(seed, n_per_class):
    rows = synthetic.docs_to_rows(synthetic.generate_docs(n_per_class, seed=seed))
    vocab = text.build_vocab((text.tokenize(t) for _, t, _ in rows), cap=20000)
    return rows, vocab


def _desk_models(vocab, seed):
    base = dict(n_classes=N_CLASSES, seq_len=DESK_LEN, vocab_size=len(vocab))
    configs = [models.ModelConfig(kind="blendcnn", n_layers=3, **base),
               models.ModelConfig(kind="blendcnn", n_layers=8, **base),
               models.ModelConfig(kind="kimcnn", **base)]
    return [models.init_model(cfg, seed) for cfg in configs]


class EvalDesk:
    name = "eval-desk"
    tail_percentile = 90

    def setup(self, seed):
        rows, vocab = _desk_corpus(seed, n_per_class=EVAL_SENTENCES // N_CLASSES)
        examples = text.encode_dataset(rows, vocab, DESK_LEN)
        pick = np.random.default_rng(seed).permutation(len(examples))[:EVAL_SENTENCES]
        ids, lens = _stack([examples[i] for i in pick])
        batches = [(ids[s:s + BATCH], lens[s:s + BATCH]) for s in range(0, len(ids), BATCH)]
        states = _desk_models(vocab, seed)
        for state in states:
            cycle = itertools.cycle(batches)
            _settle(lambda: models.forward(state, *next(cycle)))
        return {"batches": batches, "states": states, "vocab": len(vocab), "seed": seed,
                "first": None}

    def unit(self, ctx, tally):
        batches = ctx["batches"]
        outputs, total_s = [], 0.0
        for state in ctx["states"]:
            tag = model_tag(state.config)
            logits_all = []
            model_s = 0.0
            for ids, lens in batches:
                tally.attempted += 1
                start = time.perf_counter()
                try:
                    logits, _ = models.forward(state, ids, lens)
                except Exception as exc:  # a failed batch is counted, the run goes on
                    tally.fail(why=f"{tag}: {exc!r}")
                    continue
                elapsed = time.perf_counter() - start
                model_s += elapsed
                if tag == "blendcnn3":
                    tally.batch_s.append(elapsed)
                if not np.all(np.isfinite(logits)):
                    tally.fail(why=f"{tag}: non-finite logits")
                logits_all.append(logits)
            outputs.append(np.concatenate(logits_all) if logits_all else np.zeros(0))
            tally.add_model(tag, len(batches) * BATCH, model_s)
            total_s += model_s
        if total_s:
            tally.unit_sps.append(len(ctx["states"]) * len(batches) * BATCH / total_s)
        tally.digests.append(_digest(*outputs))
        if ctx["first"] is None:
            ctx["first"] = outputs

    def check(self, ctx, tally):
        """Reference forward on a few seeded batches of every model."""
        batches = ctx["batches"]
        rng = np.random.default_rng(ctx["seed"])
        for state, logits in zip(ctx["states"], ctx["first"]):
            for b in rng.choice(len(batches), EVAL_CHECK_BATCHES, replace=False):
                ids, lens = batches[b]
                rows = logits[b * BATCH:(b + 1) * BATCH]
                if not matches(state, ids, lens, rows):
                    tally.fail(why=f"{model_tag(state.config)} batch {b}: reference mismatch")
        tally.notes["vocab_size"] = ctx["vocab"]


# ---------------------------------------------------------------------------
# train-paper

PAPER_VOCAB = 20000
PAPER_LEN = 128
TRAIN_EXAMPLES = 256       # per model per unit
TRAIN_EPOCHS = 2
ZIPF_S = 1.0               # token-rank exponent of the generated ids
MIN_LEN = 20


def _paper_examples(rng, count):
    """Zipf-distributed ids over the non-reserved vocabulary, random lengths."""
    ranks = np.arange(1, PAPER_VOCAB - 1, dtype=np.float64)
    p = ranks ** -ZIPF_S
    p /= p.sum()
    lens = rng.integers(MIN_LEN, PAPER_LEN + 1, size=count)
    out = []
    for i, n in enumerate(lens):
        ids = np.zeros(PAPER_LEN, dtype=np.int64)
        ids[:n] = 2 + rng.choice(p.size, size=n, p=p)
        out.append(text.Example(id=f"paper:{i}", token_ids=ids, valid_len=int(n),
                                teacher_logits=rng.normal(0.0, 2.0, size=N_CLASSES)))
    return out


class TrainPaper:
    name = "train-paper"
    tail_percentile = 80  # ~80 steps of the 3-layer model fit in a 30 s run

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        examples = _paper_examples(rng, TRAIN_EXAMPLES + BATCH)
        train, held_out = examples[:TRAIN_EXAMPLES], examples[TRAIN_EXAMPLES:]
        base = dict(n_classes=N_CLASSES, seq_len=PAPER_LEN, vocab_size=PAPER_VOCAB)
        configs = [models.ModelConfig(kind="blendcnn", n_layers=3, **base),
                   models.ModelConfig(kind="kimcnn", **base)]
        for cfg in configs:
            state = models.init_model(cfg, seed)
            cycle = itertools.cycle(range(0, TRAIN_EXAMPLES, BATCH))

            def one_step():
                start = next(cycle)
                distill.train_distill(state, [], train[start:start + BATCH], distill.TrainConfig(
                    mode="distill_mae", epochs=1, batch_size=BATCH, seed=seed))
            _settle(one_step, min_steps=2, max_steps=6, window=1)
        return {"train": train, "held_out": _stack(held_out), "configs": configs,
                "seed": seed}

    def unit(self, ctx, tally):
        outputs, total_s = [], 0.0
        n_steps = TRAIN_EPOCHS * math.ceil(TRAIN_EXAMPLES / BATCH)
        for cfg in ctx["configs"]:
            tag = model_tag(cfg)
            state = models.init_model(cfg, ctx["seed"])
            ckpt_dir = tempfile.mkdtemp(dir=self.workdir)
            clock = StepClock()
            tally.attempted += n_steps
            start = time.perf_counter()
            try:
                with patched(clock.replacements()):
                    _, ledger = distill.train_distill(
                        state, [], ctx["train"], distill.TrainConfig(
                            mode="distill_mae", epochs=TRAIN_EPOCHS, batch_size=BATCH,
                            seed=ctx["seed"]),
                        checkpoint_dir=ckpt_dir)
            except Exception as exc:  # the whole call's steps count as failed
                tally.fail(n_steps, why=f"{tag}: {exc!r}")
                shutil.rmtree(ckpt_dir)
                continue
            elapsed = time.perf_counter() - start
            total_s += elapsed
            tally.add_model(tag, TRAIN_EPOCHS * TRAIN_EXAMPLES, elapsed)
            if tag == "blendcnn3":
                tally.batch_s += clock.steps.get(tag, [])
            if not all(math.isfinite(loss) for loss in ledger.train_losses):
                tally.fail(why=f"{tag}: non-finite loss")
            ids, lens = ctx["held_out"]
            if not matches(state, ids, lens, models.forward(state, ids, lens)[0]):
                tally.fail(why=f"{tag}: held-out batch differs from the reference")
            with open(os.path.join(ckpt_dir, f"epoch_{TRAIN_EPOCHS:03d}.ckpt"), "rb") as fh:
                outputs.append(np.frombuffer(fh.read(), dtype=np.uint8))
            shutil.rmtree(ckpt_dir)
        if total_s:
            tally.unit_sps.append(
                len(ctx["configs"]) * TRAIN_EPOCHS * TRAIN_EXAMPLES / total_s)
        tally.digests.append(_digest(*outputs))

    def check(self, ctx, tally):
        """Held-out batches are checked inside each unit; record the id spread."""
        batch_ids = np.concatenate([ex.token_ids[:ex.valid_len] for ex in ctx["train"][:BATCH]])
        tally.notes["touched_row_share"] = np.unique(batch_ids).size / PAPER_VOCAB


# ---------------------------------------------------------------------------
# protocol-desk

# One teacher epoch over 1,000 documents reaches 0.6-0.7 test accuracy only
# with a larger step than the default 1e-3, which leaves it near chance.
PROTOCOL = distill.ProtocolConfig(
    labeled_per_class=10, unlabeled_ratio=10, teacher_epochs=1, student_epochs=2,
    direct_epochs=4, student_seeds=(1,), lr=5e-3)
POOL_PER_CLASS = 250
TEST_PER_CLASS = 50


def _protocol_examples(config, pool_size):
    """Examples x epochs the protocol trains on, teacher and students."""
    labeled = config.labeled_per_class * config.n_classes
    unlabeled = config.unlabeled_ratio * labeled
    per_seed = 2 * labeled * config.direct_epochs + (labeled + unlabeled) * config.student_epochs
    return pool_size * config.teacher_epochs + per_seed * len(config.student_seeds)


class ProtocolDesk:
    name = "protocol-desk"
    tail_percentile = 90

    def setup(self, seed):
        train_rows = synthetic.docs_to_rows(synthetic.generate_docs(POOL_PER_CLASS, seed=seed))
        test_rows = synthetic.docs_to_rows(
            synthetic.generate_docs(TEST_PER_CLASS, seed=seed + 1), source="test")
        vocab = text.build_vocab((text.tokenize(t) for _, t, _ in train_rows))
        warm = text.encode_dataset(train_rows[:4 * BATCH], vocab, PROTOCOL.seq_len)
        for layers in (PROTOCOL.teacher_layers, PROTOCOL.student_layers):
            state = models.init_model(models.ModelConfig(
                kind="blendcnn", n_classes=N_CLASSES, seq_len=PROTOCOL.seq_len,
                vocab_size=len(vocab), n_layers=layers), seed)
            cycle = itertools.cycle(range(0, len(warm), BATCH))

            def one_step():
                start = next(cycle)
                distill.train_direct(state, warm[start:start + BATCH], distill.TrainConfig(
                    epochs=1, batch_size=BATCH, seed=seed))
            _settle(one_step, min_steps=2, max_steps=8, window=1)
        return {"train": train_rows, "test": test_rows}

    def unit(self, ctx, tally):
        arms = ArmRecorder()
        clock = StepClock()
        n_arms = 1 + 3 * len(PROTOCOL.student_seeds)
        tally.attempted += n_arms
        start = time.perf_counter()
        try:
            with patched(arms.replacements() + clock.replacements()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the pool-size and ratio notices
                result = distill.run_distillation_protocol(ctx["train"], ctx["test"], PROTOCOL)
        except Exception as exc:
            tally.fail(n_arms, why=f"protocol: {exc!r}")
            return
        elapsed = time.perf_counter() - start
        tally.unit_sps.append(_protocol_examples(PROTOCOL, len(ctx["train"])) / elapsed)
        tally.batch_s += clock.steps.get("blendcnn3", [])
        tally.notes.setdefault("protocol_s", []).append(elapsed)
        for name, tag, seconds, _ in arms.arms:
            tally.notes.setdefault(f"{name}.{tag}_s", []).append(seconds)

        accuracies = ([result.teacher_accuracy] + result.direct_accuracies
                      + result.distill_accuracies + result.distill_labeled_only_accuracies)
        bad = sum(not 0.0 <= a <= 1.0 for a in accuracies)
        bad += sum(not all(math.isfinite(x) for x in ledger.train_losses)
                   for *_, ledger in arms.arms)
        if result.teacher_accuracy <= 1.0 / PROTOCOL.n_classes:
            bad += 1
        if bad:
            tally.fail(min(bad, n_arms), why=f"protocol checks: {accuracies}")
        tally.digests.append(_digest(np.array(accuracies)))
        tally.notes["accuracies"] = accuracies

    def check(self, ctx, tally):
        """Every protocol output is checked inside its unit."""


def make(name, workdir):
    if name == "eval-desk":
        return EvalDesk()
    if name == "train-paper":
        return TrainPaper(workdir)
    if name == "protocol-desk":
        return ProtocolDesk()
    raise KeyError(name)


WORKLOADS = ("eval-desk", "protocol-desk", "train-paper")
