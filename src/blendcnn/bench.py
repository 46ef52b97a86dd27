"""Parameter-count and inference-throughput reports.

Throughput is eval-mode forward passes only: encoding, batching, and
sample selection all happen before the clock starts, and the batches are
evaluate's own: distill.EVAL_BATCH (32) examples each.  Each measurement
times the same batch sequence ``repetitions`` times and keeps the median,
after an untimed warm-up.  The warm-up runs ``warmup_batches`` batches and
then, if that count is above zero, keeps cycling through the batches until
the per-batch time settles: no batch has run more than 5% faster than the
last best for 0.2 s, or 5 s have passed.  The first such warm-up in a
process also runs 1.5 s of plain matrix products beforehand: a fresh
process's BLAS thread pool runs several times slower for about its first
second of threaded work (24 ms against 4.7 ms per batch on a 2-vCPU VM with
two OpenBLAS threads), longer than any fixed batch count covers on a fast
model, and it does not slow down again later in the process.
``warmup_batches=0`` makes no untimed call at all.

Reports place measured numbers next to the originally published reference
figures in a separate "paper-reported" column; those were taken on different
hardware against the full AG News task and are context, not targets.
"""
from __future__ import annotations

import csv
import io
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .distill import _eval_batches
from .models import ModelConfig, ModelState, forward

__all__ = [
    "PAPER_REPORTED",
    "ThroughputConfig",
    "ThroughputResult",
    "model_display_name",
    "measure_throughput",
    "BenchReport",
    "report",
]

# (total parameters, sentences per second) as published; K-80-era numbers on
# the full news task, shown for orientation only.
PAPER_REPORTED = {
    "KimCNN": (2_124_824, 3154.57),
    "3-layer BlendCNN": (2_975_236, 3676.47),
    "8-layer BlendCNN": (3_617_426, 2392.34),
    "OpenAI Transformer": (116_534_790, 11.76),
}


@dataclass(frozen=True)
class ThroughputConfig:
    n_samples: int = 1000
    repetitions: int = 5
    warmup_batches: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.warmup_batches < 0:
            raise ValueError(f"warmup_batches must be >= 0, got {self.warmup_batches}")


@dataclass
class ThroughputResult:
    model_name: str
    wall_seconds: float  # median over repetitions
    sentences_per_second: float
    hardware_note: str
    rep_seconds: list = field(default_factory=list)


def model_display_name(config: ModelConfig) -> str:
    if config.kind == "kimcnn":
        return "KimCNN"
    return f"{config.n_layers}-layer BlendCNN"


def _hardware_note() -> str:
    cpu = platform.processor() or platform.machine() or "unknown cpu"
    return f"{cpu}, {os.cpu_count()} logical cores, single worker"


def _as_predict_fn(model):
    """Accept a ModelState or any (ids, lens) -> logits callable (test stubs)."""
    if isinstance(model, ModelState):
        return lambda ids, lens: forward(model, ids, lens)[0]
    if callable(model):
        return model
    raise TypeError(f"expected ModelState or callable, got {type(model).__name__}")


# the warm-up rule described in the module docstring
_SETTLE_GAIN = 0.05
_SETTLE_SECONDS = 0.2
_WARMUP_BUDGET_SECONDS = 5.0
_BLAS_WARMUP_SECONDS = 1.5
_blas_warm = False  # the BLAS thread pool lives per process, and so does its warm-up


def _warm_blas() -> None:
    """Once per process: keep the BLAS thread pool busy past its cold start."""
    global _blas_warm
    if _blas_warm:
        return
    a = np.random.default_rng(0).random((256, 256))
    end = time.perf_counter() + _BLAS_WARMUP_SECONDS
    while time.perf_counter() < end:
        a @ a
    _blas_warm = True


def _warm_up(predict, batches, min_batches: int) -> None:
    """Untimed calls until per-batch time settles; none if min_batches is 0."""
    if min_batches == 0:
        return
    _warm_blas()
    start = last_gain = time.perf_counter()
    best = float("inf")
    i = 0
    while True:
        b_ids, b_lens = batches[i % len(batches)]
        t0 = time.perf_counter()
        predict(b_ids, b_lens)
        now = time.perf_counter()
        if now - t0 < (1.0 - _SETTLE_GAIN) * best:
            best, last_gain = now - t0, now
        i += 1
        if i >= min_batches and (now - last_gain >= _SETTLE_SECONDS
                                 or now - start >= _WARMUP_BUDGET_SECONDS):
            return


def measure_throughput(model, dataset,
                       config: ThroughputConfig = ThroughputConfig()) -> ThroughputResult:
    """Median-of-repetitions eval throughput on a seeded sample of ``dataset``.

    ``dataset`` is a list of encoded Examples.  Sample selection runs before
    any timing; the timed section is forward passes alone.  Raises if the
    dataset is smaller than ``config.n_samples``.
    """
    if len(dataset) < config.n_samples:
        raise ValueError(
            f"dataset too small: {len(dataset)} examples < n_samples={config.n_samples}"
        )
    predict = _as_predict_fn(model)

    rng = np.random.default_rng(config.seed)
    picked = rng.permutation(len(dataset))[: config.n_samples]
    batches = _eval_batches([dataset[i] for i in picked])

    _warm_up(predict, batches, config.warmup_batches)

    rep_seconds = []
    for _ in range(config.repetitions):
        start = time.perf_counter()
        for b_ids, b_lens in batches:
            predict(b_ids, b_lens)
        rep_seconds.append(time.perf_counter() - start)

    wall = float(np.median(rep_seconds))
    return ThroughputResult(
        model_name=(model_display_name(model.config)
                    if isinstance(model, ModelState) else "stub"),
        wall_seconds=wall,
        sentences_per_second=config.n_samples / wall,
        hardware_note=_hardware_note(),
        rep_seconds=rep_seconds,
    )


# ---------------------------------------------------------------------------
# reports

_CSV_COLUMNS = [
    "model",
    "total_parameters",
    "sentences_per_second",
    "paper_reported_parameters",
    "paper_reported_sentences_per_second",
]


@dataclass
class BenchReport:
    rows: list  # (model, params or None, sps or None, ref_params or None, ref_sps or None)
    text: str
    csv: str

    def save(self, text_path, csv_path) -> None:
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv)


def _fmt_params(v):
    return "" if v is None else f"{v:,}"


def _fmt_sps(v):
    return "" if v is None else f"{v:.2f}"


def report(results, counts) -> BenchReport:
    """Aligned text plus CSV: measured numbers beside paper-reported ones.

    ``results`` is a list of ThroughputResult (may be empty), ``counts`` maps
    model name to analytic total parameter count.  Cells without a value stay
    empty.  The reference table's remaining models follow as context rows
    with empty measured columns.
    """
    if not results and not counts:
        raise ValueError("report needs at least one measurement or count")
    sps = {r.model_name: r.sentences_per_second for r in results}
    names = [r.model_name for r in results]
    names += [n for n in counts if n not in sps]
    names += [n for n in PAPER_REPORTED if n not in names]

    rows = []
    for name in names:
        ref = PAPER_REPORTED.get(name, (None, None))
        rows.append((name, counts.get(name), sps.get(name), ref[0], ref[1]))

    header = ["Model", "Total parameters", "Sentences per second",
              "Total parameters (paper-reported)",
              "Sentences per second (paper-reported)"]
    cells = [header] + [
        [name, _fmt_params(p), _fmt_sps(s), _fmt_params(rp), _fmt_sps(rs)]
        for name, p, s, rp, rs in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    text = "\n".join(lines) + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for name, p, s, rp, rs in rows:
        writer.writerow([
            name,
            "" if p is None else p,
            "" if s is None else repr(s),
            "" if rp is None else rp,
            "" if rs is None else repr(rs),
        ])
    return BenchReport(rows=rows, text=text, csv=buf.getvalue())

