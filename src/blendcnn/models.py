"""BlendCNN and KimCNN students: init, forward, backward, counting, checkpoints.

Both are one pipeline: embed, conv stages (conv, relu, masked global max
pool), concat the pooled stages, a head, then the logits layer.  BlendCNN's
same-padded width-5 stages each read the stage before, and its head is a
relu dense blend layer.  KimCNN's stages, one per width in ``kernel_widths``
(default 3, 5, 7), all read the embeddings, and its head is dropout in train
mode only.  ``_layout`` is the one description of a model: its conv stages
in forward order and every parameter's name, shape, byte offset and byte
count, in creation, RNG-draw and checkpoint file order.  KimCNN's per-stage
embedding gradients are summed in forward stage order: float addition does
not associate, so the order fixes the trained bits.

The forward canonicalizes every batch to the model's fixed seq_len, so
logits are bitwise independent of how many PAD tokens trail an example.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass, asdict

import numpy as np

from .numerics import (
    Parameter,
    affine,
    affine_backward,
    conv1d,
    conv1d_backward,
    masked_max_pool,
    max_pool_backward,
    relu,
    relu_backward,
    set_grad_rows,
)
from .text import PAD_ID

__all__ = [
    "ModelConfig",
    "ModelState",
    "ForwardCache",
    "StaleCacheError",
    "CheckpointError",
    "init_model",
    "forward",
    "backward",
    "param_count",
    "save_checkpoint",
    "load_checkpoint",
]

BLENDCNN = "blendcnn"
KIMCNN = "kimcnn"

_CKPT_MAGIC = b"BCNNCKP1"
_CKPT_VERSION = 1


class StaleCacheError(RuntimeError):
    """The forward cache no longer matches the model state it came from."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or disagrees with the requested config."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; every extent checked positive on construction."""

    kind: str
    n_classes: int
    seq_len: int = 128
    vocab_size: int = 20000
    embed_dim: int = 100
    n_layers: int = 3
    n_channels: int = 100
    kernel_width: int = 5
    kernel_widths: tuple = (3, 5, 7)  # parallel widths; same-padding needs odd K
    dense_width: int = 100
    dropout: float = 0.5

    def __post_init__(self):
        if self.kind not in (BLENDCNN, KIMCNN):
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "kernel_widths", tuple(self.kernel_widths))
        extents = [(name, getattr(self, name)) for name in (
            "n_classes",
            "seq_len",
            "vocab_size",
            "embed_dim",
            "n_layers",
            "n_channels",
            "kernel_width",
            "dense_width",
        )]
        for name, value in extents + [("kernel_widths", k) for k in self.kernel_widths]:
            if type(value) is not int or value < 1:  # a float or bool extent breaks every reader
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved PAD/UNK ids")
        for width in (self.kernel_width, *self.kernel_widths):
            if width % 2 == 0:  # same padding
                raise ValueError(f"kernel widths must be odd, got {width}")
        if not self.kernel_widths or len(set(self.kernel_widths)) != len(self.kernel_widths):
            # each width names one parameter block, convw{K}
            raise ValueError(
                f"kernel widths must be distinct and non-empty, got {self.kernel_widths}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


class ModelState:
    """Named parameters plus the config and seed used to build them.

    ``version`` advances on every optimizer step so a stale forward cache
    can be rejected by :func:`backward`.
    """

    def __init__(self, config: ModelConfig, seed: int, params: dict):
        self.config = config
        self.seed = seed
        self.params = params
        self.version = 0

    def parameters(self) -> list:
        return list(self.params.values())

    def param(self, name: str) -> Parameter:
        return self.params[name]

    def bump_version(self) -> None:
        self.version += 1


# One conv stage: its weight and bias names, kernel width, input channels, and
# whether it reads the stage before (BlendCNN's after the first) or the embedding.
_Stage = namedtuple("_Stage", "w b width c_in reads_previous")
# One parameter, and where its '<f8' buffer sits in a checkpoint's payload.
_Block = namedtuple("_Block", "name shape offset nbytes")
_Layout = namedtuple("_Layout", "stages blocks")


def _layout(config: ModelConfig):
    """The conv stages in forward order, and every parameter's block in
    creation, RNG-draw and checkpoint file order.

    BlendCNN's ``conv1..convN`` each read the stage before, KimCNN's ``convw{K}``
    all read the embedding; BlendCNN adds its blend layer before the logits layer.
    """
    n_ch, dim = config.n_channels, config.embed_dim
    if config.kind == BLENDCNN:
        stages = [_Stage(f"conv{i}.w", f"conv{i}.b", config.kernel_width,
                         n_ch if i > 1 else dim, i > 1) for i in range(1, config.n_layers + 1)]
    else:
        stages = [_Stage(f"convw{k}.w", f"convw{k}.b", k, dim, False)
                  for k in config.kernel_widths]
    shapes = [("embedding", (config.vocab_size, dim))]
    for stage in stages:
        shapes += [(stage.w, (stage.width, stage.c_in, n_ch)), (stage.b, (n_ch,))]
    features = len(stages) * n_ch
    if config.kind == BLENDCNN:
        shapes += [("blend.w", (features, config.dense_width)), ("blend.b", (config.dense_width,))]
        features = config.dense_width
    shapes += [("logits.w", (features, config.n_classes)), ("logits.b", (config.n_classes,))]
    blocks = []
    offset = 0
    for name, shape in shapes:
        blocks.append(_Block(name, shape, offset, 8 * math.prod(shape)))
        offset += blocks[-1].nbytes
    return _Layout(stages, blocks)


def init_model(config: ModelConfig, seed: int, embeddings: np.ndarray = None) -> ModelState:
    """Build a fresh ModelState: Glorot-uniform weights, zero biases.

    Embeddings are a copy of the [vocab_size, embed_dim] ``embeddings`` when
    given, otherwise uniform(-0.05, 0.05); the PAD row is zeroed either way.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, _, _ in _layout(config).blocks:
        if name == "embedding":
            if embeddings is None:
                value = rng.uniform(-0.05, 0.05, size=shape)
            elif embeddings.shape != shape:
                raise ValueError(
                    f"embedding matrix {embeddings.shape} does not match config {shape}"
                )
            else:
                value = embeddings.astype(np.float64)
            value[PAD_ID] = 0.0
        elif name.endswith(".w"):
            # Glorot fans of a [K, in, out] conv kernel or an [in, out] matrix
            receptive = math.prod(shape[:-2])
            bound = np.sqrt(6.0 / (receptive * shape[-2] + receptive * shape[-1]))
            value = rng.uniform(-bound, bound, size=shape)
        else:
            value = np.zeros(shape)
        params[name] = Parameter(name, value)
    return ModelState(config, seed, params)


# ---------------------------------------------------------------------------
# forward


@dataclass
class ForwardCache:
    """Everything backward() needs, pinned to one (state version, batch).

    No pool winners and no valid lengths: backward finds each winner from
    ``concat``'s pooled values alone.
    """

    state_version: int
    token_ids: np.ndarray
    embedded: np.ndarray
    conv_outputs: list
    concat: np.ndarray
    features: np.ndarray  # the logits layer's input
    dropout_mask: np.ndarray = None


def _canonical_batch(config: ModelConfig, token_ids, valid_lens):
    """Right-pad ids to the model's seq_len; validates lengths and ranges."""
    ids = np.asarray(token_ids, dtype=np.int64)
    lens = np.asarray(valid_lens, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"token_ids must be [B, L], got shape {ids.shape}")
    if lens.shape != (ids.shape[0],):
        raise ValueError(f"valid_lens shape {lens.shape} vs batch {ids.shape[0]}")
    if ids.shape[1] > config.seq_len:
        raise ValueError(
            f"batch length {ids.shape[1]} exceeds model seq_len {config.seq_len}"
        )
    if np.any(lens < 1):
        raise ValueError("every example needs valid_len >= 1")
    if np.any(lens > config.seq_len):
        raise ValueError(f"valid_len exceeds model seq_len {config.seq_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError(f"token id out of range [0, {config.vocab_size})")
    if ids.shape[1] < config.seq_len:
        padded = np.zeros((ids.shape[0], config.seq_len), dtype=np.int64)
        padded[:, : ids.shape[1]] = ids
        ids = padded
    return ids, lens


def forward(state: ModelState, token_ids, valid_lens, train: bool = False,
            rng: np.random.Generator = None):
    """Embed, run the conv stages, pool and concat each, then apply the head.

    BlendCNN feeds each stage from the one before and blends the concat with
    a relu dense layer; KimCNN feeds every stage from the embedding and, in
    train mode only, applies dropout to the concat with a mask drawn from
    ``rng``.  BlendCNN draws nothing from ``rng``.

    Returns (logits [B, C], ForwardCache).
    """
    config = state.config
    ids, lens = _canonical_batch(config, token_ids, valid_lens)
    embedded = state.param("embedding").value[ids]

    conv_outputs = []
    branches = []
    for stage in _layout(config).stages:
        x = conv_outputs[-1] if stage.reads_previous else embedded
        z = conv1d(x, state.param(stage.w).value, state.param(stage.b).value)
        h = relu(z, out=z)  # z is fresh and read nowhere else
        conv_outputs.append(h)
        branches.append(masked_max_pool(h, lens))

    concat = np.concatenate(branches, axis=1)
    features = concat
    mask = None
    if config.kind == BLENDCNN:
        features = relu(affine(concat, state.param("blend.w").value,
                               state.param("blend.b").value))
    elif train and config.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode KimCNN forward needs an rng for dropout")
        keep = 1.0 - config.dropout
        mask = rng.random(concat.shape) < keep
        features = concat * mask / keep

    logits = affine(features, state.param("logits.w").value, state.param("logits.b").value)
    cache = ForwardCache(
        state_version=state.version,
        token_ids=ids,
        embedded=embedded,
        conv_outputs=conv_outputs,
        concat=concat,
        features=features,
        dropout_mask=mask,
    )
    return logits, cache


# ---------------------------------------------------------------------------
# backward


def _embedding_grad(state, ids, d_embedded):
    """Overwrite the embedding's .grad with the scatter-sum of d_embedded.

    One ``np.bincount`` over (touched row, column) keys, in token order: the
    same additions from +0.0 in the same order as ``np.add.at`` into zeros,
    so the same bits, signed zeros included.  Only the touched rows are
    written (``set_grad_rows``); the PAD row is frozen, so its sums are dropped.
    """
    dim = d_embedded.shape[-1]
    rows, slot = np.unique(ids.reshape(-1), return_inverse=True)
    keys = (slot[:, None] * dim + np.arange(dim)).reshape(-1)
    sums = np.bincount(keys, weights=d_embedded.reshape(-1), minlength=rows.size * dim)
    sums = sums.reshape(rows.size, dim)
    if rows[0] == PAD_ID:  # the smallest id, so the first row if present
        rows, sums = rows[1:], sums[1:]
    set_grad_rows(state.param("embedding"), rows, sums)


def backward(state: ModelState, cache: ForwardCache, dlogits: np.ndarray) -> None:
    """Write exact gradients for every parameter into their .grad buffers.

    Mirrors :func:`forward`: the logits layer, the head, then the conv stages
    in reverse.  Overwrites (does not accumulate) so each step starts clean.
    Raises StaleCacheError if the optimizer has stepped since the forward pass.
    """
    if cache.state_version != state.version:
        raise StaleCacheError(
            f"cache from state version {cache.state_version}, "
            f"state is now {state.version}"
        )
    config = state.config

    d_features, dw, db = affine_backward(
        cache.features, state.param("logits.w").value, dlogits
    )
    state.param("logits.w").grad[...] = dw
    state.param("logits.b").grad[...] = db
    if config.kind == BLENDCNN:
        d_blend_pre = relu_backward(cache.features, d_features)
        d_concat, dw, db = affine_backward(
            cache.concat, state.param("blend.w").value, d_blend_pre
        )
        state.param("blend.w").grad[...] = dw
        state.param("blend.b").grad[...] = db
    elif cache.dropout_mask is not None:
        d_concat = d_features * cache.dropout_mask / (1.0 - config.dropout)
    else:
        d_concat = d_features

    n_ch = config.n_channels
    d_next = None  # gradient reaching stage i's output through stage i+1
    d_embedded = []  # per stage that reads the embedding, last stage first
    for i, stage in reversed(list(enumerate(_layout(config).stages))):
        branch = slice(i * n_ch, (i + 1) * n_ch)
        d_h = max_pool_backward(cache.conv_outputs[i], cache.concat[:, branch],
                                d_concat[:, branch], d_next)
        d_z = relu_backward(cache.conv_outputs[i], d_h)
        x = cache.conv_outputs[i - 1] if stage.reads_previous else cache.embedded
        d_x, dw, db = conv1d_backward(x, state.param(stage.w).value, d_z)
        state.param(stage.w).grad[...] = dw
        state.param(stage.b).grad[...] = db
        d_next = d_x if stage.reads_previous else None
        if not stage.reads_previous:
            d_embedded.append(d_x)

    # Sum in forward stage order, (d_w3 + d_w5) + d_w7: float addition does not
    # associate, and the reverse order changes the bits of every trained model.
    total = d_embedded.pop()
    while d_embedded:
        total = total + d_embedded.pop()
    _embedding_grad(state, cache.token_ids, total)


# ---------------------------------------------------------------------------
# parameter counting


def param_count(config: ModelConfig):
    """Analytic parameter count and per-block breakdown.

    Matches the runtime enumeration of Parameter elements exactly (the PAD
    embedding row is counted even though it never updates).
    """
    breakdown = {}
    for name, shape, _, _ in _layout(config).blocks:
        block = name.split(".")[0]
        breakdown[block] = breakdown.get(block, 0) + math.prod(shape)
    return sum(breakdown.values()), breakdown


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all integers little-endian):
#   bytes 0..7    magic "BCNNCKP1"
#   bytes 8..11   uint32 format version (1)
#   bytes 12..15  uint32 header length N
#   bytes 16..16+N  UTF-8 JSON header: {"format_version", "config", "seed",
#                   "params": [{"name", "shape", "offset", "nbytes"}, ...]}, the
#                   params exactly the config's _layout blocks, in that order
#   remainder     the blocks' raw row-major '<f8' buffers, concatenated
#
# No timestamps anywhere, so identical states serialize to identical bytes.


def _shape_problems(blocks, stored) -> list:
    """What keeps the (name, shape, ...) entries ``stored`` from naming the layout's ``blocks``."""
    expected = {b.name: b.shape for b in blocks}
    names = [name for name, *_ in stored]
    problems = [f"missing {name}" for name in expected if name not in names]
    problems += [f"unexpected {name}" for name in names if name not in expected]
    problems += [f"{name} has shape {shape}, config needs {expected[name]}"
                 for name, shape, *_ in stored if name in expected and shape != expected[name]]
    return problems


def save_checkpoint(state: ModelState, path) -> None:
    """Serialize config, seed, and parameter values (not optimizer state).

    Raises CheckpointError, writing nothing, if the state's parameters are not
    the ones its config lays out.
    """
    blocks = _layout(state.config).blocks
    problems = _shape_problems(blocks, [(n, p.value.shape) for n, p in state.params.items()])
    if problems:
        raise CheckpointError(f"{path}: state does not match its config: " + "; ".join(problems))
    header = json.dumps(
        {
            "format_version": _CKPT_VERSION,
            "config": asdict(state.config),
            "seed": state.seed,
            "params": [b._asdict() for b in blocks],
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(np.uint32(_CKPT_VERSION).tobytes())
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        for b in blocks:
            fh.write(np.ascontiguousarray(state.params[b.name].value, dtype="<f8"))


def load_checkpoint(path) -> ModelState:
    """Rebuild a ModelState from :func:`save_checkpoint` output.

    Gradients and Adam moments come back zeroed; eval-mode forward output is
    bitwise identical to the saved state's.  Any file that save_checkpoint
    could not have written raises CheckpointError: the header's block table
    must be the config's layout, entry for entry, and the payload exactly as
    long as the blocks it lists.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated preamble ({len(blob)} bytes)")
    version, header_len = (int(v) for v in np.frombuffer(blob[8:16], dtype="<u4"))
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if 16 + header_len > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig(**header["config"])  # __post_init__ makes kernel_widths a tuple
        seed = header["seed"]
        if type(seed) is not int:
            raise TypeError(f"seed {seed!r} is not an int")
        stored = [_Block(str(e["name"]), tuple(e["shape"]), e["offset"], e["nbytes"])
                  for e in header["params"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc!r})") from exc
    payload = blob[16 + header_len :]

    blocks = _layout(config).blocks
    problems = _shape_problems(blocks, stored)
    if problems:
        raise CheckpointError(f"{path}: parameters do not match config: " + "; ".join(problems))
    for got, want in itertools.zip_longest(stored, blocks):
        if got != want:  # a repeated entry, another order, or an offset or nbytes off
            raise CheckpointError(f"{path}: parameter block {got} where the layout has {want}")
    end = blocks[-1].offset + blocks[-1].nbytes
    if len(payload) < end:
        raise CheckpointError(f"{path}: truncated payload ({len(payload)} of {end} bytes)")
    if len(payload) > end:
        raise CheckpointError(f"{path}: {len(payload) - end} bytes after the last parameter block")

    params = {b.name: Parameter(b.name, np.frombuffer(payload, "<f8", b.nbytes // 8, b.offset)
                                .astype(np.float64).reshape(b.shape)) for b in blocks}
    return ModelState(config, seed, params)
