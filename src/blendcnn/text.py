"""Text pipeline: tokenization, vocabulary, encoding, GloVe and CSV loading.

Preprocessing is deliberately fixed (lowercase, split on non-alphanumeric
runs) so that vocabulary composition is reproducible; changing it changes
every downstream result.
"""
from __future__ import annotations

import csv
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "PAD_TOKEN",
    "UNK_TOKEN",
    "Vocabulary",
    "Example",
    "CsvSchema",
    "tokenize",
    "utf8_lines",
    "build_vocab",
    "encode",
    "encode_dataset",
    "load_glove",
    "load_csv_dataset",
    "stratified_sample",
    "sample_rows",
]

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# maximal runs of Unicode alphanumerics (\w minus underscore)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list:
    """Lowercase and split on any maximal run of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def utf8_lines(path):
    """A UTF-8 text file's lines, ends kept; other bytes raise ValueError naming path:line."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # a byte that is not UTF-8 was read as a surrogate
            except UnicodeEncodeError as exc:
                raise ValueError(f"{path}:{line_no}: bytes that are not UTF-8") from exc
            yield line


@dataclass
class Vocabulary:
    """Dense token<->id mapping with reserved ids 0=PAD and 1=UNK."""

    id_to_token: list

    def __post_init__(self):  # the reserved ids map no token
        self.token_to_id = {tok: idx for idx, tok in enumerate(self.id_to_token) if idx > UNK_ID}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def save(self, path) -> None:
        """Persist as one "token<TAB>id" line per token, reserved ids included."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, token in enumerate(self.id_to_token):
                fh.write(f"{token}\t{idx}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        token_to_id, id_to_token = {}, []
        for line_no, line in enumerate(utf8_lines(path), start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                token, idx = line.split("\t")
                idx = int(idx)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed vocabulary line") from exc
            if idx != len(id_to_token):
                raise ValueError(f"{path}:{line_no}: ids must be dense, got {idx}")
            if token in token_to_id:
                raise ValueError(f"{path}:{line_no}: token {token!r} repeats id "
                                 f"{token_to_id[token]}")
            token_to_id[token] = idx
            id_to_token.append(token)
        if id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError(f"{path}: reserved tokens missing or reordered")
        return cls(id_to_token)


def build_vocab(corpus, cap: int = 20000) -> Vocabulary:
    """Keep the top (cap - 2) tokens by frequency, ties broken lexicographically.

    ``corpus`` is an iterable of token lists.  Ids 2.. are assigned in
    (frequency desc, token asc) order; 0 and 1 stay reserved for PAD/UNK.
    """
    if cap < 2:
        raise ValueError(f"vocabulary cap must be >= 2, got {cap}")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    if not counts:
        warnings.warn("building vocabulary from an empty corpus; reserved tokens only")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + [token for token, _ in ranked[: cap - 2]])


def encode(tokens, vocab: Vocabulary, seq_len: int):
    """Map tokens to ids, truncate to ``seq_len`` (keep prefix), right-pad.

    Returns (token_ids int64 [seq_len], valid_len).
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    ids = np.zeros(seq_len, dtype=np.int64)
    valid = min(len(tokens), seq_len)
    for pos in range(valid):
        ids[pos] = vocab.id_for(tokens[pos])
    return ids, valid


@dataclass
class Example:
    """One encoded sample: padded token ids plus optional label and teacher logits."""

    id: str
    token_ids: np.ndarray
    valid_len: int
    label: int = None
    teacher_logits: np.ndarray = None


def encode_dataset(rows, vocab: Vocabulary, seq_len: int) -> list:
    """Encode (id, text, label) rows into Examples; label may be None, and a row needs a token."""
    out = []
    for row_id, text, label in rows:
        ids, valid = encode(tokenize(text), vocab, seq_len)
        if not valid:
            raise ValueError(f"row {row_id!r} has no tokens")
        out.append(Example(id=row_id, token_ids=ids, valid_len=valid, label=label))
    return out


# ---------------------------------------------------------------------------
# embeddings

def load_glove(path, vocab: Vocabulary, embed_dim: int = 100, seed: int = 0) -> np.ndarray:
    """The [len(vocab), embed_dim] table from GloVe-format text ("token v1 .. vN").

    In-vocab tokens take their file vectors (first occurrence wins); missing
    tokens are initialized uniform(-0.05, 0.05) from ``seed``; the PAD row is
    zero and frozen.  A dimension mismatch or bytes that are not UTF-8 on any
    line, and a non-numeric or non-finite value in a vector that is used,
    raise ValueError naming ``path:line``.
    """
    rng = np.random.default_rng(seed)
    size = len(vocab)
    matrix = rng.uniform(-0.05, 0.05, size=(size, embed_dim))
    matrix[PAD_ID] = 0.0

    seen = set()
    for line_no, line in enumerate(utf8_lines(path), start=1):
        parts = line.rstrip("\r\n").split(" ")
        if len(parts) <= 1 and not parts[0]:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != embed_dim:
            raise ValueError(
                f"{path}:{line_no}: expected {embed_dim} values, got {len(values)}"
            )
        if token not in vocab or token in seen:
            continue
        try:
            vec = np.array([float(v) for v in values])
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: non-numeric embedding value") from exc
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{line_no}: non-finite embedding value")
        idx = vocab.token_to_id[token]
        matrix[idx] = vec
        seen.add(token)
    return matrix


# ---------------------------------------------------------------------------
# CSV datasets


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a labeled CSV: which column is the label, which hold text.

    ``label_base`` is 1 for files whose classes start at 1 (AG News style);
    labels are shifted to 0-base on load.
    """

    label_col: int = 0
    text_cols: tuple = (1, 2)
    label_base: int = 1

    def __post_init__(self):
        if self.label_base not in (0, 1):
            raise ValueError(f"label_base must be 0 or 1, got {self.label_base}")
        # csv rows would take a negative index from the end, silently
        if self.label_col < 0:
            raise ValueError(f"label_col must be >= 0, got {self.label_col}")
        if not self.text_cols or any(col < 0 for col in self.text_cols):
            raise ValueError(f"text_cols must be one or more columns >= 0, got {self.text_cols}")


def load_csv_dataset(path, schema: CsvSchema = CsvSchema()) -> list:
    """Read an RFC-4180-style CSV into (id, text, label) rows.

    Text columns are joined with a single space; ids are "<filename>:<row>"
    with a 0-based row index.  A bad label, a missing column, a field over
    csv.field_size_limit() or bytes that are not UTF-8 raise ValueError
    naming path:line.
    """
    name = os.path.basename(path)
    rows = []
    reader = csv.reader(utf8_lines(path))
    try:
        for index, record in enumerate(reader):
            line_no = reader.line_num
            needed = max(schema.label_col, *schema.text_cols)
            if len(record) <= needed:
                raise ValueError(
                    f"{path}:{line_no}: row has {len(record)} columns, need >= {needed + 1}"
                )
            raw = record[schema.label_col]
            try:
                label = int(raw) - schema.label_base
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: non-integer label {raw!r}") from exc
            if label < 0:
                raise ValueError(f"{path}:{line_no}: label {raw!r} below label_base")
            text = " ".join(record[c] for c in schema.text_cols)
            rows.append((f"{name}:{index}", text, label))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def stratified_sample(rows, per_class: int, seed: int):
    """Draw exactly ``per_class`` rows per label, reproducibly.

    Returns (sample, remainder), both in original row order.
    """
    by_class = {}
    for pos, row in enumerate(rows):
        by_class.setdefault(row[2], []).append(pos)
    rng = np.random.default_rng(seed)
    chosen = set()
    for label in sorted(by_class):
        positions = by_class[label]
        if len(positions) < per_class:
            raise ValueError(
                f"class {label} has only {len(positions)} rows, need {per_class}"
            )
        picked = rng.permutation(len(positions))[:per_class]
        chosen.update(positions[i] for i in picked)
    sample = [row for pos, row in enumerate(rows) if pos in chosen]
    rest = [row for pos, row in enumerate(rows) if pos not in chosen]
    return sample, rest


def sample_rows(rows, count: int, seed: int) -> list:
    """Uniform sample without replacement, in original row order."""
    if count > len(rows):
        raise ValueError(f"asked for {count} rows from a pool of {len(rows)}")
    rng = np.random.default_rng(seed)
    keep = set(rng.permutation(len(rows))[:count].tolist())
    return [row for pos, row in enumerate(rows) if pos in keep]
