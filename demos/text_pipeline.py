#!/usr/bin/env python3
"""From raw CSV rows to padded id matrices: tokenize, build a vocab, encode, split."""
import os
import tempfile

import numpy as np

from blendcnn.synthetic import generate_docs, write_agnews_csv
from blendcnn.text import (
    CsvSchema, build_vocab, encode_dataset, load_csv_dataset,
    stratified_sample, tokenize,
)

with tempfile.TemporaryDirectory(prefix="textdemo_") as tmp:
    csv_path = os.path.join(tmp, "news.csv")
    write_agnews_csv(csv_path, generate_docs(50, seed=5))  # 200 rows, 4 classes
    print("wrote", csv_path)
    rows = load_csv_dataset(csv_path, CsvSchema(label_col=0, text_cols=(1, 2), label_base=1))

print(f"{len(rows)} rows; first id/label:", rows[0][0], rows[0][2])
print("first text:", rows[0][1][:72], "...")
print("tokenized:", tokenize(rows[0][1])[:8], "...")

vocab = build_vocab((tokenize(text) for _, text, _ in rows), cap=20000)
print(f"vocabulary: {len(vocab)} tokens (ids 0/1 reserved for <pad>/<unk>)")

examples = encode_dataset(rows, vocab, seq_len=32)
ids = np.stack([e.token_ids for e in examples])
lens = np.array([e.valid_len for e in examples])
print("encoded matrix:", ids.shape, "valid lengths", lens.min(), "..", lens.max())
print("row 0:", ids[0][:12], "... (0 = pad beyond valid_len)")

# a reproducible 10-per-class split; the remainder keeps its original order
labeled, rest = stratified_sample(rows, 10, seed=17)
counts = {}
for _, _, label in labeled:
    counts[label] = counts.get(label, 0) + 1
print("stratified split:", len(labeled), "labeled", counts, "+", len(rest), "rest")

# unknown words map to <unk>, padding stays all-zero
weird = encode_dataset([("x:0", "qwertyuiop zzzz market", None)], vocab, seq_len=8)
print("oov handling:", weird[0].token_ids, "valid", weird[0].valid_len)
