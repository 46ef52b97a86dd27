"""Command-line front end: reproducible experiment runs from JSON configs.

Six subcommands cover the pipeline:

    build-vocab   count the tokens of data.train_csv into vocab.tsv
    train         train a model on data.train_csv, distilling when data.logits is set
    infer-logits  write a checkpoint's logits for data.input_csv
    eval          score a checkpoint on data.test_csv
    bench         time eval throughput beside the paper's figures
    param-count   count the parameters of a model config

train picks its objective from its inputs.  Without data.logits it fits the
labels by cross-entropy (direct_ce), and data.unlabeled_csv or a nonzero
train.alpha is a config error.  With data.logits it fits the teacher logits
of the labeled rows and of data.unlabeled_csv: by MAE alone (distill_mae)
when train.alpha is 0, and blended with alpha * CE on the labeled rows
(mixed) when it is above 0.  data.unlabeled_csv needs a label column like
any CSV, but its labels are parsed and never trained on.  Either way it
starts from the GloVe vectors in data.embeddings when set.  train.batch_size
sizes training batches only: every eval forward runs batches of
distill.EVAL_BATCH (32) examples.

Configuration is a flat JSON object with dotted keys ("model.n_layers": 3);
repeatable --set KEY=VALUE flags override the file, and they are the one
way to set a value on the command line (seeds too: --set train.seed=N).
The model.*, train.* and bench.* keys are the fields of ModelConfig,
TrainConfig and ThroughputConfig, and data.label_col, data.text_cols and
data.label_base those of CsvSchema, with their defaults, except that
train.mode is no key (it follows from the inputs, as above), model.kind is
"blendcnn", model.n_classes is 4 and model.vocab_size is 0 (the loaded
vocabulary's size).  The other data.* keys name inputs, cap the vocabulary,
or (data.labeled_per_class) keep that many train rows per class, drawn with
the distillation protocol's split seed.  Each
value is converted to the type of its key's default when the config loads,
and a value that does not convert, or would lose part of itself on the way
(true for a number, 3.7 for an int), or is NaN or ±Infinity for a float, is
a config error.
Every run writes the merged config, as converted (--set train.lr=1 is
recorded as 1.0), into its output directory, so a run can be reproduced
from its artifacts alone.

Exit codes: 0 ok, 2 usage, 3 io, 4 config, 5 numeric (NaN/Inf abort).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace

from .numerics import NonFiniteError
from .models import (
    ModelConfig,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .text import (
    CsvSchema,
    Vocabulary,
    build_vocab,
    encode_dataset,
    load_csv_dataset,
    load_glove,
    stratified_sample,
    tokenize,
    utf8_lines,
)
from . import bench as bench_mod
from . import distill as distill_mod
from . import synthetic

__all__ = ["ConfigError", "main"]

OUT_ROOT_ENV = "BLENDCNN_OUT_ROOT"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4
EXIT_NUMERIC = 5


class ConfigError(ValueError):
    """Bad key, bad value, or config/artifact mismatch."""


_SECTIONS = {
    "model": ModelConfig,
    "train": distill_mod.TrainConfig,
    "bench": bench_mod.ThroughputConfig,
    "data": CsvSchema,
}

_DEFAULTS = {
    # train.mode is no key: _cmd_train derives it from data.logits and train.alpha
    **{f"{name}.{f.name}": f.default
       for name, cls in _SECTIONS.items() for f in fields(cls)
       if f.default is not MISSING and (name, f.name) != ("train", "mode")},
    # the library leaves kind and n_classes open; vocab_size 0 = the loaded vocabulary's size
    "model.kind": "blendcnn",
    "model.n_classes": 4,
    "model.vocab_size": 0,
    "data.train_csv": None,
    "data.test_csv": None,
    "data.eval_csv": None,
    "data.input_csv": None,
    "data.unlabeled_csv": None,
    "data.logits": None,
    "data.checkpoint": None,
    "data.vocab": None,
    "data.embeddings": None,
    "data.vocab_cap": 20000,
    "data.labeled_per_class": 0,  # 0 = keep every row, else a draw with the protocol's seed
}


def _number(value, kind):
    """``value`` as ``kind`` (int or float), refusing bools, NaN, ±Infinity and int fractions."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    number = kind(value)
    if kind is float and not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _coerce(key, value):
    """``value`` as the type of the key's default; a path (None default) is kept as is."""
    default = _DEFAULTS[key]
    if default is None:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{key}: a path must be a string, got {value!r}")
        return value
    try:
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise TypeError("not a list")
            return tuple(_number(v, int) for v in value)
        if isinstance(default, (int, float)):
            return _number(value, type(default))
        return type(default)(value)
    except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge int overflows
        want = "a list of ints" if isinstance(default, tuple) else type(default).__name__
        raise ConfigError(f"{key}: cannot read {value!r} as {want} ({exc})") from exc


def load_config(config_path, overrides) -> dict:
    """Defaults <- JSON file <- --set flags, checking every key and value."""
    cfg = dict(_DEFAULTS)
    if config_path is not None:
        try:
            loaded = json.loads("".join(utf8_lines(config_path)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: not valid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: top level must be a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"{config_path}: unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        if key not in cfg:
            raise ConfigError(f"--set: unknown config key {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings need no quotes
        cfg[key] = _coerce(key, value)
    if (n := cfg["data.labeled_per_class"]) < 0:
        raise ConfigError(f"data.labeled_per_class must be >= 0, got {n}")
    return cfg


def _require(cfg, key):
    if cfg[key] in (None, ""):
        raise ConfigError(f"{key} is required for this command")
    return cfg[key]


def _out_dir(args) -> str:
    if args.out:
        path = args.out
    else:
        root = os.environ.get(OUT_ROOT_ENV, "runs")
        path = os.path.join(root, args.command)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _section(cfg, name, **given):
    """The ``name`` section's dataclass from its dotted keys; ``given`` wins."""
    cls = _SECTIONS[name]
    values = {f.name: cfg[key] for f in fields(cls) if (key := f"{name}.{f.name}") in cfg}
    return cls(**{**values, **given})


def _model_config(cfg, vocab: Vocabulary = None) -> ModelConfig:
    vocab_size = cfg["model.vocab_size"]
    if vocab_size == 0:
        if vocab is None:
            raise ConfigError(
                "model.vocab_size is 0 (infer from vocabulary) but this command "
                "loads no vocabulary; set it explicitly"
            )
        vocab_size = len(vocab)
    elif vocab is not None and vocab_size != len(vocab):
        raise ConfigError(
            f"model.vocab_size {vocab_size} does not match the vocabulary "
            f"({len(vocab)} tokens)"
        )
    return _section(cfg, "model", vocab_size=vocab_size)


def _load_vocab(cfg) -> Vocabulary:
    return Vocabulary.load(_require(cfg, "data.vocab"))


def _checkpoint_for(cfg, vocab):
    state = load_checkpoint(_require(cfg, "data.checkpoint"))
    if state.config.vocab_size != len(vocab):
        raise ConfigError(
            f"checkpoint was trained with vocab_size {state.config.vocab_size}, "
            f"but the loaded vocabulary has {len(vocab)} tokens"
        )
    return state


def _encoded(cfg, csv_key, vocab, seq_len):
    rows = load_csv_dataset(_require(cfg, csv_key), _section(cfg, "data"))
    return encode_dataset(rows, vocab, seq_len)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build_vocab(cfg, out_dir) -> int:
    rows = load_csv_dataset(_require(cfg, "data.train_csv"), _section(cfg, "data"))
    vocab = build_vocab((tokenize(text) for _, text, _ in rows),
                        cap=cfg["data.vocab_cap"])
    path = os.path.join(out_dir, "vocab.tsv")
    vocab.save(path)
    print(f"vocabulary: {len(vocab)} tokens ({len(rows)} rows) -> {path}")
    return EXIT_OK


def _cmd_train(cfg, out_dir) -> int:
    """Train on data.train_csv: on the teacher's data.logits when set, else by cross-entropy."""
    vocab = _load_vocab(cfg)
    model_cfg = _model_config(cfg, vocab)
    distill = bool(cfg["data.logits"])
    if distill:
        mode = distill_mod.MIXED if cfg["train.alpha"] > 0 else distill_mod.DISTILL_MAE
    elif cfg["data.unlabeled_csv"]:
        raise ConfigError("data.unlabeled_csv needs data.logits: unlabeled rows train "
                          "only on teacher logits")
    else:
        mode = distill_mod.DIRECT_CE
    train_cfg = _section(cfg, "train", mode=mode)
    rows = load_csv_dataset(_require(cfg, "data.train_csv"), _section(cfg, "data"))
    if cfg["data.labeled_per_class"] > 0:
        rows, _ = stratified_sample(rows, cfg["data.labeled_per_class"], distill_mod.SPLIT_SEED)
    sets = [encode_dataset(rows, vocab, model_cfg.seq_len)]
    train = distill_mod.train_direct
    if distill:
        logits = distill_mod.read_logit_records(cfg["data.logits"], model_cfg.n_classes)
        unlabeled = []
        if cfg["data.unlabeled_csv"]:
            unlabeled = _encoded(cfg, "data.unlabeled_csv", vocab, model_cfg.seq_len)
        try:
            sets = [distill_mod.attach_teacher_logits(s, logits) for s in sets + [unlabeled]]
        except ValueError as exc:  # a CSV row with no record: name the file
            raise ConfigError(f"{cfg['data.logits']}: {exc}") from exc
        train = distill_mod.train_distill

    embeddings = None
    if cfg["data.embeddings"]:
        embeddings = load_glove(cfg["data.embeddings"], vocab,
                                embed_dim=model_cfg.embed_dim, seed=train_cfg.seed)
    state = init_model(model_cfg, train_cfg.seed, embeddings=embeddings)
    eval_set = None
    if cfg["data.eval_csv"]:
        eval_set = _encoded(cfg, "data.eval_csv", vocab, model_cfg.seq_len)
    state, ledger = train(state, *sets, train_cfg, eval_set=eval_set,
                          checkpoint_dir=os.path.join(out_dir, "checkpoints"))
    save_checkpoint(state, os.path.join(out_dir, "model.ckpt"))
    ledger.save(os.path.join(out_dir, "ledger.json"))
    last = ledger.entries[-1]
    note = f"epoch {last.epoch}: loss {last.train_loss:.6f}"
    if last.eval_accuracy is not None:
        note += f", eval accuracy {last.eval_accuracy:.4f}"
    print(f"{note} -> {out_dir}")
    return EXIT_OK


def _cmd_infer_logits(cfg, out_dir) -> int:
    vocab = _load_vocab(cfg)
    state = _checkpoint_for(cfg, vocab)
    examples = _encoded(cfg, "data.input_csv", vocab, state.config.seq_len)
    logits = distill_mod.infer_logits(state, examples)
    path = os.path.join(out_dir, "logits.jsonl")
    distill_mod.write_logit_records(path, logits)
    print(f"logits for {len(logits)} examples -> {path}")
    return EXIT_OK


def _cmd_eval(cfg, out_dir) -> int:
    vocab = _load_vocab(cfg)
    state = _checkpoint_for(cfg, vocab)
    test = _encoded(cfg, "data.test_csv", vocab, state.config.seq_len)
    result = distill_mod.dump_predictions(os.path.join(out_dir, "predictions.csv"), state, test)
    _write_json(os.path.join(out_dir, "eval.json"), {
        "accuracy": result.accuracy,
        "n_examples": len(result.predictions),
        "confusion": result.confusion.tolist(),
    })
    print(f"accuracy {result.accuracy:.4f} on {len(result.predictions)} examples -> {out_dir}")
    return EXIT_OK


def _bench_dataset(cfg, bench_cfg):
    """Rows + vocabulary for timing: supplied CSV or a synthetic stand-in."""
    if cfg["data.test_csv"]:
        vocab = _load_vocab(cfg)
        rows = load_csv_dataset(cfg["data.test_csv"], _section(cfg, "data"))
        return rows, vocab
    n_classes = cfg["model.n_classes"]
    docs = synthetic.generate_docs(-(-bench_cfg.n_samples // n_classes), bench_cfg.seed,
                                   n_classes)
    rows = synthetic.docs_to_rows(docs)
    vocab = build_vocab((tokenize(t) for _, t, _ in rows), cap=cfg["data.vocab_cap"])
    return rows, vocab


def _cmd_bench(cfg, out_dir) -> int:
    bench_cfg = _section(cfg, "bench")
    rows, vocab = _bench_dataset(cfg, bench_cfg)

    if cfg["data.checkpoint"]:
        states = [_checkpoint_for(cfg, vocab)]
    else:
        base = _model_config(cfg, vocab)
        trio = [
            replace(base, kind="blendcnn", n_layers=3),
            replace(base, kind="blendcnn", n_layers=8),
            replace(base, kind="kimcnn"),
        ]
        states = [init_model(mc, bench_cfg.seed) for mc in trio]

    dataset = encode_dataset(rows, vocab, states[0].config.seq_len)
    results = [bench_mod.measure_throughput(s, dataset, bench_cfg) for s in states]
    counts = {
        bench_mod.model_display_name(s.config): param_count(s.config)[0] for s in states
    }
    rep = bench_mod.report(results, counts)
    rep.save(os.path.join(out_dir, "bench.txt"), os.path.join(out_dir, "bench.csv"))
    print(rep.text, end="")
    print(f"reports -> {out_dir}")
    return EXIT_OK


def _cmd_param_count(cfg, out_dir) -> int:
    model_cfg = _model_config(cfg)
    total, breakdown = param_count(model_cfg)
    name = bench_mod.model_display_name(model_cfg)
    ref = bench_mod.PAPER_REPORTED.get(name)
    for block, n in breakdown.items():
        print(f"{block:>12}: {n:,}")
    print(f"{'total':>12}: {total:,}")
    if ref is not None:
        print(f"{'paper-reported total for ' + name:>12}: {ref[0]:,}")
    _write_json(os.path.join(out_dir, "param_count.json"), {
        "model": name,
        "total": total,
        "breakdown": breakdown,
        "paper_reported_total": ref[0] if ref else None,
    })
    return EXIT_OK


_COMMANDS = {  # name -> (body, one line of help, also listed in the module docstring)
    "build-vocab": (_cmd_build_vocab, "count the tokens of data.train_csv into vocab.tsv"),
    "train": (_cmd_train, "train a model on data.train_csv, distilling when data.logits is set"),
    "infer-logits": (_cmd_infer_logits, "write a checkpoint's logits for data.input_csv"),
    "eval": (_cmd_eval, "score a checkpoint on data.test_csv"),
    "bench": (_cmd_bench, "time eval throughput beside the paper's figures"),
    "param-count": (_cmd_param_count, "count the parameters of a model config"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blendcnn",
        description="Train, distill, and benchmark compact convolutional text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--config", help="JSON config file with flat dotted keys")
        p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable; wins over the file)")
        p.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV}/<command>)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        out_dir = _out_dir(args)
        _write_json(os.path.join(out_dir, "config.json"), dict(sorted(cfg.items())))
        return _COMMANDS[args.command][0](cfg, out_dir)
    except NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"io error: missing input {missing}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
