#!/usr/bin/env python3
"""Parameter counts and eval-mode throughput for the three architectures.

Measured numbers land next to the originally published ones, which came from
different hardware (a K-80 GPU) and the full news corpus; they are context,
not targets. The ordering is what should reproduce: fewer layers, more
sentences per second.
"""
import numpy as np

from blendcnn.bench import ThroughputConfig, measure_throughput, model_display_name, report
from blendcnn.models import ModelConfig, init_model, param_count
from blendcnn.synthetic import docs_to_rows, generate_docs
from blendcnn.text import build_vocab, encode_dataset, tokenize

rows = docs_to_rows(generate_docs(300, seed=9))
vocab = build_vocab((tokenize(t) for _, t, _ in rows), cap=20000)

base = dict(n_classes=4, seq_len=32, vocab_size=len(vocab),
            embed_dim=100, n_channels=100, dense_width=100)
configs = [
    ModelConfig(kind="blendcnn", n_layers=3, **base),
    ModelConfig(kind="blendcnn", n_layers=8, **base),
    ModelConfig(kind="kimcnn", kernel_widths=(3, 5, 7), **base),
]
states = [init_model(c, seed=0) for c in configs]

dataset = encode_dataset(rows, vocab, 32)
# batches of distill.EVAL_BATCH (32) examples, the size evaluate and infer_logits run
timing = ThroughputConfig(n_samples=512, repetitions=5, warmup_batches=2, seed=0)
results = [measure_throughput(s, dataset, timing) for s in states]

counts = {model_display_name(c): param_count(c)[0] for c in configs}
rep = report(results, counts)
print(rep.text)
for r in results:
    spread = (max(r.rep_seconds) - min(r.rep_seconds)) / r.wall_seconds
    print(f"{r.model_name}: median {r.wall_seconds * 1000:.1f} ms "
          f"over {len(r.rep_seconds)} reps (spread {100 * spread:.0f}%)")
print("\nhardware:", results[0].hardware_note)
