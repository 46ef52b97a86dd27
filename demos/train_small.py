#!/usr/bin/env python3
"""Train a small BlendCNN on synthetic news and inspect what it learned.

Takes a few seconds on one CPU core.
"""
import argparse
import tempfile

import numpy as np

from blendcnn.distill import TrainConfig, evaluate, train_direct
from blendcnn.models import ModelConfig, init_model, load_checkpoint, param_count, save_checkpoint
from blendcnn.synthetic import CLASS_NAMES, docs_to_rows, generate_docs
from blendcnn.text import build_vocab, encode_dataset, tokenize

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--epochs", type=int, default=8)
args = parser.parse_args()

train_rows = docs_to_rows(generate_docs(150, seed=40))   # 600 docs
test_rows = docs_to_rows(generate_docs(50, seed=41), source="test")

vocab = build_vocab((tokenize(t) for _, t, _ in train_rows), cap=20000)
config = ModelConfig(kind="blendcnn", n_classes=4, seq_len=32, vocab_size=len(vocab),
                     embed_dim=32, n_layers=3, n_channels=24, dense_width=24)
total, breakdown = param_count(config)
print(f"3-layer BlendCNN, {total:,} parameters:", dict(breakdown))

train = encode_dataset(train_rows, vocab, config.seq_len)
test = encode_dataset(test_rows, vocab, config.seq_len)

state = init_model(config, seed=args.seed)
state, ledger = train_direct(state, train,
                             TrainConfig(epochs=args.epochs, seed=args.seed),
                             eval_set=test)
for e in ledger.entries:
    print(f"  epoch {e.epoch:2d}  loss {e.train_loss:.4f}  "
          f"test acc {e.eval_accuracy:.3f}  ({e.wall_seconds:.1f}s)")

result = evaluate(state, test)
print(f"final accuracy {result.accuracy:.3f} on {len(result.predictions)} examples")
print("confusion (rows = gold, cols = predicted):")
for name, row in zip(CLASS_NAMES, result.confusion):
    print(f"  {name:>9}", row)

# checkpoints round-trip byte-identically; same seed + data = same file
with tempfile.TemporaryDirectory() as tmp:
    path = f"{tmp}/model.ckpt"
    save_checkpoint(state, path)
    again = load_checkpoint(path)
logits_a = evaluate(again, test).accuracy
print("reloaded checkpoint scores identically:", logits_a == result.accuracy)
