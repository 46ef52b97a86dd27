"""Training loops and the teacher/student logit exchange.

Three training modes share one minibatch Adam loop:

    direct_ce    cross-entropy on hard labels
    distill_mae  mean absolute error between student and teacher logits
                 (never reads labels)
    mixed        alpha * CE(rows of the ``labeled`` argument; the labels of
                 ``unlabeled`` go unread) + (1 - alpha) * MAE(all rows)

Teacher logits are one mapping, {example id: float64 [n_classes] row} in
example order, and travel as JSON Lines ({"id": ..., "logits": [...]}), one
line per example, so any larger model can stand in as the teacher.  The
bundled surrogate is an 8-layer BlendCNN trained on a bigger labeled pool.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .numerics import (
    adam_step,
    cross_entropy,
    cross_entropy_backward,
    mae_loss,
    mae_loss_backward,
)
from .models import ModelConfig, ModelState, backward, forward, init_model, save_checkpoint

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "RunLedger",
    "EvalResult",
    "config_hash",
    "infer_logits",
    "write_logit_records",
    "read_logit_records",
    "attach_teacher_logits",
    "train_direct",
    "train_distill",
    "evaluate",
    "dump_predictions",
    "make_surrogate_teacher",
    "ProtocolConfig",
    "ProtocolResult",
    "run_distillation_protocol",
]

DIRECT_CE = "direct_ce"
DISTILL_MAE = "distill_mae"
MIXED = "mixed"
EVAL_BATCH = 32  # examples per eval forward: evaluate, infer_logits and bench.measure_throughput


@dataclass(frozen=True)
class TrainConfig:
    mode: str = DIRECT_CE
    alpha: float = 0.0
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        if self.mode not in (DIRECT_CE, DISTILL_MAE, MIXED):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if (self.mode == MIXED) != (self.alpha > 0.0):
            raise ValueError(f"alpha = {self.alpha} does not fit mode {self.mode!r}: alpha is "
                             f"the CE share of mode='mixed', which needs alpha > 0, and "
                             f"every other mode takes alpha = 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not self.lr > 0:  # also refuses NaN
            raise ValueError(f"lr must be positive, got {self.lr}")


def config_hash(model_config: ModelConfig, train_config: TrainConfig) -> str:
    blob = json.dumps(
        {"model": asdict(model_config), "train": asdict(train_config)},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    eval_accuracy: float = None
    wall_seconds: float = 0.0


@dataclass
class RunLedger:
    """Append-only per-epoch record of one training run."""

    seed: int
    config_hash: str
    entries: list = field(default_factory=list)

    @property
    def train_losses(self) -> list:
        return [e.train_loss for e in self.entries]

    def save(self, path) -> None:
        data = {"seed": self.seed, "config_hash": self.config_hash,
                "epochs": [asdict(e) for e in self.entries]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# batching helpers


def _stack_ids(examples):
    ids = np.stack([ex.token_ids for ex in examples])
    lens = np.array([ex.valid_len for ex in examples], dtype=np.int64)
    return ids, lens


def _stack_labels(examples, n_classes):
    """Labels [N]; raises naming the first example without one or outside the classes."""
    labels = np.empty(len(examples), dtype=np.int64)
    for i, ex in enumerate(examples):
        if ex.label is None:
            raise ValueError(f"unlabeled example encountered: id={ex.id!r}")
        labels[i] = ex.label
    outside = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if outside.size:
        i = outside[0]
        raise ValueError(f"example id={examples[i].id!r} has label {labels[i]}, outside "
                         f"the model's classes 0..{n_classes - 1}")
    return labels


def _stack_teacher_logits(examples, n_classes):
    out = np.empty((len(examples), n_classes), dtype=np.float64)
    for i, ex in enumerate(examples):
        if ex.teacher_logits is None:
            raise ValueError(f"missing teacher logits for example id={ex.id!r}")
        if ex.teacher_logits.shape != (n_classes,):
            raise ValueError(
                f"teacher logits for {ex.id!r} have shape {ex.teacher_logits.shape}, "
                f"expected ({n_classes},)"
            )
        out[i] = ex.teacher_logits
    return out


def _batch_slices(n, batch_size):
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def _eval_batches(examples) -> list:
    """(ids, lens) per EVAL_BATCH examples, in example order: the input of every eval forward."""
    ids, lens = _stack_ids(examples)
    return [(ids[sl], lens[sl]) for sl in _batch_slices(len(examples), EVAL_BATCH)]


# ---------------------------------------------------------------------------
# inference and the logit exchange


def _eval_logits(state: ModelState, examples) -> np.ndarray:
    """Eval-mode logits [N, C] in example order."""
    return np.concatenate([forward(state, ids, lens)[0] for ids, lens in _eval_batches(examples)])


def infer_logits(state: ModelState, examples) -> dict:
    """Eval-mode logits {example id: [C] row} in example order; deterministic.

    A repeated example id or a non-finite row raises ValueError.
    """
    rows = _eval_logits(state, examples) if examples else []
    logits = {}
    for ex, row in zip(examples, rows):
        if ex.id in logits:
            raise ValueError(f"duplicate teacher logits for example id={ex.id!r}")
        if not np.isfinite(row).all():
            raise ValueError(f"non-finite teacher logits for example id={ex.id!r}")
        logits[ex.id] = row
    return logits


def write_logit_records(path, logits) -> None:
    """One JSON object per line, in the mapping's order: {"id": ..., "logits": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for example_id, row in logits.items():
            fh.write(json.dumps({"id": example_id, "logits": row.tolist()}))
            fh.write("\n")


def read_logit_records(path, n_classes: int) -> dict:
    """{example id: float64 [n_classes] row} from JSON Lines, in file order.

    Each line needs a string id not seen before and a list of n_classes finite
    JSON numbers (not strings or bools); any other line raises ValueError
    naming path:line.
    """
    logits = {}
    with open(path, "rb") as fh:  # json.loads decodes each line: bad UTF-8 is named like bad JSON
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                example_id, row = obj["id"], obj["logits"]
                if not isinstance(example_id, str):
                    raise TypeError(f"id {example_id!r} is not a string")
                if example_id in logits:
                    raise ValueError(f"duplicate teacher logits for example id={example_id!r}")
                if not isinstance(row, list) or any(type(v) not in (int, float) for v in row):
                    raise TypeError(f"teacher logits for {example_id!r} are not a list of numbers")
                row = np.array(row, dtype=np.float64)  # a huge int overflows
                if row.shape != (n_classes,):
                    raise ValueError(f"teacher logits for {example_id!r} have shape "
                                     f"{row.shape}, expected ({n_classes},)")
                if not np.isfinite(row).all():
                    raise ValueError(f"non-finite teacher logits for example id={example_id!r}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed logit record ({exc})") from exc
            logits[example_id] = row
    return logits


def attach_teacher_logits(examples, logits) -> list:
    """New Examples carrying their rows of ``logits``; an id with no row raises ValueError."""
    out = []
    for ex in examples:
        if ex.id not in logits:
            raise ValueError(f"missing teacher logits for example id={ex.id!r}")
        out.append(replace(ex, teacher_logits=logits[ex.id]))
    return out


# ---------------------------------------------------------------------------
# training loops


def _run_epochs(state, ids, lens, config, batch_grad_fn, eval_set, checkpoint_dir):
    """Shuffled minibatch Adam; batch_grad_fn(row indices, logits) -> (loss, dlogits)."""
    _stack_labels(eval_set or [], state.config.n_classes)  # bad eval labels fail before a step
    rng = np.random.default_rng(config.seed)
    ledger = RunLedger(seed=config.seed, config_hash=config_hash(state.config, config))
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        perm = rng.permutation(len(lens))
        total_loss = 0.0
        for sl in _batch_slices(len(perm), config.batch_size):
            idx = perm[sl]
            logits, cache = forward(state, ids[idx], lens[idx], train=True, rng=rng)
            loss, dlogits = batch_grad_fn(idx, logits)
            backward(state, cache, dlogits)
            for p in state.parameters():
                adam_step(p, config.lr)
            state.bump_version()
            total_loss += loss * len(idx)
        del logits, cache, dlogits  # the last batch's buffers: not held through eval and saves
        accuracy = None
        if eval_set is not None:
            accuracy = evaluate(state, eval_set).accuracy
        wall = time.perf_counter() - start
        ledger.entries.append(EpochRecord(epoch, total_loss / len(perm), accuracy, wall))
        if checkpoint_dir is not None:
            save_checkpoint(state, os.path.join(checkpoint_dir, f"epoch_{epoch:03d}.ckpt"))
    return state, ledger


def train_direct(state: ModelState, labeled, config: TrainConfig,
                 eval_set=None, checkpoint_dir=None):
    """Minibatch Adam on cross-entropy over a fully labeled set.

    Mutates ``state`` in place; returns (state, RunLedger).
    """
    if config.mode != DIRECT_CE:
        raise ValueError(f"train_direct needs mode='direct_ce', got {config.mode!r}")
    if not labeled:
        raise ValueError("train_direct needs at least one labeled example")
    ids, lens = _stack_ids(labeled)
    labels = _stack_labels(labeled, state.config.n_classes)

    def batch_grad(idx, logits):
        y = labels[idx]
        return cross_entropy(logits, y), cross_entropy_backward(logits, y)

    return _run_epochs(state, ids, lens, config, batch_grad, eval_set, checkpoint_dir)


def train_distill(state: ModelState, labeled, unlabeled, config: TrainConfig,
                  eval_set=None, checkpoint_dir=None):
    """Distillation over the shuffled union of ``labeled`` and ``unlabeled``.

    Every example must carry teacher logits.  The batch objective is
    alpha * CE(rows of ``labeled``) + (1 - alpha) * MAE(all rows), and every
    example of ``labeled`` needs a label when alpha > 0; the labels of
    ``unlabeled`` are never read, nor any label at the default alpha = 0.
    Mutates ``state``; returns (state, RunLedger).
    """
    if config.mode not in (DISTILL_MAE, MIXED):
        raise ValueError(f"train_distill needs a distillation mode, got {config.mode!r}")
    union = list(labeled) + list(unlabeled)
    if not union:
        raise ValueError("train_distill needs at least one example")
    ids, lens = _stack_ids(union)
    teacher = _stack_teacher_logits(union, state.config.n_classes)

    alpha = config.alpha
    if alpha > 0.0:  # union rows 0..len(labeled)-1
        labels = _stack_labels(labeled, state.config.n_classes)

    def batch_grad(idx, logits):
        t = teacher[idx]
        loss = (1.0 - alpha) * mae_loss(logits, t)
        dlogits = (1.0 - alpha) * mae_loss_backward(logits, t)
        if alpha > 0.0:
            rows = np.flatnonzero(idx < len(labels))
            if rows.size:
                sub = logits[rows]
                y = labels[idx[rows]]
                loss += alpha * cross_entropy(sub, y)
                dlogits[rows] += alpha * cross_entropy_backward(sub, y)
        return loss, dlogits

    return _run_epochs(state, ids, lens, config, batch_grad, eval_set, checkpoint_dir)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # [gold, predicted]
    predictions: np.ndarray  # predicted class per example, in test-set order


def evaluate(state: ModelState, test_set) -> EvalResult:
    """Accuracy and per-class confusion; argmax ties go to the lowest class."""
    if not test_set:
        raise ValueError("evaluate needs a non-empty labeled test set")
    n_classes = state.config.n_classes
    labels = _stack_labels(test_set, n_classes)
    preds = _eval_logits(state, test_set).argmax(axis=1)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return EvalResult(accuracy=int((preds == labels).sum()) / len(test_set),
                      confusion=confusion, predictions=preds)


def dump_predictions(path, state: ModelState, test_set) -> EvalResult:
    """Evaluate once and write "id,predicted,gold" CSV rows for an independent recount."""
    result = evaluate(state, test_set)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "predicted", "gold"])
        for ex, pred in zip(test_set, result.predictions):
            writer.writerow([ex.id, int(pred), int(ex.label)])
    return result


# ---------------------------------------------------------------------------
# surrogate teacher and the end-to-end protocol


def make_surrogate_teacher(pool, model_config: ModelConfig, train_config: TrainConfig):
    """Train a larger direct-CE model to serve distillation logits.

    Stands in for an external large teacher; by default an 8-layer BlendCNN
    trained on a labeled pool much bigger than the student's.
    """
    state = init_model(model_config, train_config.seed)
    return train_direct(state, pool, train_config)


# the protocol's fixed seeds: its labeled/unlabeled split (which the CLI's
# data.labeled_per_class draw shares) and its teacher's init
SPLIT_SEED = 17
_TEACHER_SEED = 1000


@dataclass(frozen=True)
class ProtocolConfig:
    """Desk-scale distillation experiment: sizes, splits, and budgets.

    The vocabulary cap and the batch size are the library defaults.
    """

    n_classes: int = 4
    seq_len: int = 32
    labeled_per_class: int = 100
    unlabeled_ratio: int = 10
    teacher_layers: int = 8
    teacher_epochs: int = 3
    student_layers: int = 3
    student_epochs: int = 20
    direct_epochs: int = 40
    lr: float = 1e-3
    student_seeds: tuple = (1, 2, 3)


@dataclass
class ProtocolResult:
    teacher_accuracy: float
    direct_accuracies: list
    distill_accuracies: list
    distill_labeled_only_accuracies: list

    @staticmethod
    def _median(values):
        return float(np.median(values))

    @property
    def direct_median(self) -> float:
        return self._median(self.direct_accuracies)

    @property
    def distill_median(self) -> float:
        return self._median(self.distill_accuracies)

    @property
    def distill_labeled_only_median(self) -> float:
        return self._median(self.distill_labeled_only_accuracies)

    def summary(self) -> str:
        pct = lambda x: f"{100.0 * x:.2f}"
        lines = [
            f"teacher accuracy:                 {pct(self.teacher_accuracy)}",
            f"direct student (median):          {pct(self.direct_median)}",
            f"distilled, labeled only (median): {pct(self.distill_labeled_only_median)}",
            f"distilled + unlabeled (median):   {pct(self.distill_median)}",
        ]
        return "\n".join(lines)


def run_distillation_protocol(train_rows, test_rows, config: ProtocolConfig) -> ProtocolResult:
    """Full pipeline: teacher, splits, logits, three student arms, evaluation.

    Arms (each trained per student seed, evaluated on the test rows):
      direct                CE on the small labeled split
      distill + unlabeled   MAE to teacher logits on labeled + pseudo-labeled
      distill labeled-only  MAE to teacher logits on the labeled split alone
    """
    from .text import build_vocab, encode_dataset, stratified_sample, sample_rows, tokenize

    vocab = build_vocab(tokenize(text) for _, text, _ in train_rows)

    pool = encode_dataset(train_rows, vocab, config.seq_len)
    test = encode_dataset(test_rows, vocab, config.seq_len)

    student_model = ModelConfig(
        kind="blendcnn", n_classes=config.n_classes, seq_len=config.seq_len,
        vocab_size=len(vocab), n_layers=config.student_layers,
    )
    base = TrainConfig(lr=config.lr)
    teacher, _ = make_surrogate_teacher(
        pool, replace(student_model, n_layers=config.teacher_layers),
        replace(base, epochs=config.teacher_epochs, seed=_TEACHER_SEED),
    )
    teacher_accuracy = evaluate(teacher, test).accuracy

    labeled_rows, rest_rows = stratified_sample(train_rows, config.labeled_per_class, SPLIT_SEED)
    n_labeled = config.labeled_per_class * config.n_classes
    unlabeled_rows = sample_rows(
        rest_rows, config.unlabeled_ratio * n_labeled, SPLIT_SEED + 1
    )
    labeled = encode_dataset(labeled_rows, vocab, config.seq_len)
    unlabeled = encode_dataset(unlabeled_rows, vocab, config.seq_len)

    logits = infer_logits(teacher, labeled + unlabeled)
    labeled = attach_teacher_logits(labeled, logits)
    unlabeled = attach_teacher_logits(unlabeled, logits)

    # ProtocolResult field -> (training call, example sets, mode, epochs); built per
    # call, so a wrapper put on train_direct or train_distill after import is run
    arms = {
        "direct_accuracies": (train_direct, [labeled], DIRECT_CE, config.direct_epochs),
        "distill_accuracies": (
            train_distill, [labeled, unlabeled], DISTILL_MAE, config.student_epochs),
        "distill_labeled_only_accuracies": (
            train_distill, [labeled, []], DISTILL_MAE, config.direct_epochs),
    }
    accuracies = {name: [] for name in arms}
    for seed in config.student_seeds:
        for name, (train, sets, mode, epochs) in arms.items():
            state = init_model(student_model, seed)
            train(state, *sets, replace(base, mode=mode, epochs=epochs, seed=seed))
            accuracies[name].append(evaluate(state, test).accuracy)
    return ProtocolResult(teacher_accuracy=teacher_accuracy, **accuracies)
