"""BlendCNN and KimCNN students: init, forward, backward, counting, checkpoints.

BlendCNN chains same-padded width-5 convolutions and taps a masked global
max pool "branch" off every layer; the concatenated branches pass through a
relu dense blend layer and then the logits layer.  KimCNN runs parallel
convolutions of widths (3, 5, 7) by default over the embeddings, pools each,
concatenates, applies dropout (train mode only) and maps straight to logits.

Both forwards canonicalize every batch to the model's fixed seq_len, so
logits are bitwise independent of how many PAD tokens trail an example.
"""
from __future__ import annotations

import json
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
)
from .text import PAD_ID, EmbeddingMatrix

__all__ = [
    "ModelConfig",
    "ModelState",
    "ForwardCache",
    "StaleCacheError",
    "CheckpointError",
    "init_model",
    "forward",
    "blendcnn_forward",
    "kimcnn_forward",
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
        for name in (
            "n_classes",
            "seq_len",
            "vocab_size",
            "embed_dim",
            "n_layers",
            "n_channels",
            "kernel_width",
            "dense_width",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved PAD/UNK ids")
        if self.kernel_width % 2 == 0:
            raise ValueError(f"kernel_width must be odd, got {self.kernel_width}")
        object.__setattr__(self, "kernel_widths", tuple(self.kernel_widths))
        for width in self.kernel_widths:
            if width < 1 or width % 2 == 0:
                raise ValueError(f"kernel widths must be odd and positive, got {width}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kernel_widths"] = list(self.kernel_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "kernel_widths" in d:
            d["kernel_widths"] = tuple(d["kernel_widths"])
        return cls(**d)


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


def _glorot(rng, fan_in, fan_out, shape):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _conv_param_names(config: ModelConfig):
    if config.kind == BLENDCNN:
        return [(f"conv{i + 1}", config.kernel_width) for i in range(config.n_layers)]
    return [(f"convw{width}", width) for width in config.kernel_widths]


def init_model(config: ModelConfig, seed: int, embeddings: EmbeddingMatrix = None) -> ModelState:
    """Build a fresh ModelState: Glorot-uniform weights, zero biases.

    Embeddings come from ``embeddings`` when given (PAD row must already be
    zero), otherwise uniform(-0.05, 0.05) with a zeroed PAD row.
    """
    rng = np.random.default_rng(seed)
    params = {}

    if embeddings is not None:
        if embeddings.matrix.shape != (config.vocab_size, config.embed_dim):
            raise ValueError(
                f"embedding matrix {embeddings.matrix.shape} does not match config "
                f"({config.vocab_size}, {config.embed_dim})"
            )
        table = embeddings.matrix.astype(np.float64).copy()
    else:
        table = rng.uniform(-0.05, 0.05, size=(config.vocab_size, config.embed_dim))
    table[PAD_ID] = 0.0
    params["embedding"] = Parameter("embedding", table)

    c_in = config.embed_dim
    for name, width in _conv_param_names(config):
        fan_in = width * c_in
        fan_out = width * config.n_channels
        params[f"{name}.w"] = Parameter(
            f"{name}.w", _glorot(rng, fan_in, fan_out, (width, c_in, config.n_channels))
        )
        params[f"{name}.b"] = Parameter(f"{name}.b", np.zeros(config.n_channels))
        if config.kind == BLENDCNN:
            c_in = config.n_channels

    if config.kind == BLENDCNN:
        concat = config.n_layers * config.n_channels
        params["blend.w"] = Parameter(
            "blend.w", _glorot(rng, concat, config.dense_width, (concat, config.dense_width))
        )
        params["blend.b"] = Parameter("blend.b", np.zeros(config.dense_width))
        logits_in = config.dense_width
    else:
        logits_in = len(config.kernel_widths) * config.n_channels

    params["logits.w"] = Parameter(
        "logits.w", _glorot(rng, logits_in, config.n_classes, (logits_in, config.n_classes))
    )
    params["logits.b"] = Parameter("logits.b", np.zeros(config.n_classes))

    return ModelState(config, seed, params)


# ---------------------------------------------------------------------------
# forward


@dataclass
class ForwardCache:
    """Everything backward() needs, pinned to one (state version, batch)."""

    state_version: int
    token_ids: np.ndarray
    valid_lens: np.ndarray
    embedded: np.ndarray
    conv_outputs: list
    pool_argmax: list
    concat: np.ndarray
    logits: np.ndarray
    blend_hidden: np.ndarray = None
    dropout_mask: np.ndarray = None
    dropout_keep: float = 1.0


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


def blendcnn_forward(state: ModelState, token_ids, valid_lens):
    """Stacked convs with a pooled branch per layer, blended by a dense layer.

    Returns (logits [B, C], ForwardCache).
    """
    config = state.config
    ids, lens = _canonical_batch(config, token_ids, valid_lens)
    embedded = state.param("embedding").value[ids]

    conv_outputs = []
    branches = []
    argmaxes = []
    current = embedded
    for i in range(config.n_layers):
        z = conv1d(current, state.param(f"conv{i + 1}.w").value,
                   state.param(f"conv{i + 1}.b").value)
        h = relu(z)
        pooled, argmax = masked_max_pool(h, lens)
        conv_outputs.append(h)
        branches.append(pooled)
        argmaxes.append(argmax)
        current = h

    concat = np.concatenate(branches, axis=1)
    blend_pre = affine(concat, state.param("blend.w").value, state.param("blend.b").value)
    blend_hidden = relu(blend_pre)
    logits = affine(blend_hidden, state.param("logits.w").value, state.param("logits.b").value)

    cache = ForwardCache(
        state_version=state.version,
        token_ids=ids,
        valid_lens=lens,
        embedded=embedded,
        conv_outputs=conv_outputs,
        pool_argmax=argmaxes,
        concat=concat,
        logits=logits,
        blend_hidden=blend_hidden,
    )
    return logits, cache


def kimcnn_forward(state: ModelState, token_ids, valid_lens, train: bool = False,
                   rng: np.random.Generator = None):
    """Parallel convolutions over embeddings, pooled and concatenated.

    One convolution per width in ``config.kernel_widths`` (default 3, 5, 7).

    Dropout applies to the concatenated features in train mode only; the mask
    comes from ``rng`` so training is reproducible from the seed.
    """
    config = state.config
    ids, lens = _canonical_batch(config, token_ids, valid_lens)
    embedded = state.param("embedding").value[ids]

    conv_outputs = []
    branches = []
    argmaxes = []
    for width in config.kernel_widths:
        z = conv1d(embedded, state.param(f"convw{width}.w").value,
                   state.param(f"convw{width}.b").value)
        h = relu(z)
        pooled, argmax = masked_max_pool(h, lens)
        conv_outputs.append(h)
        branches.append(pooled)
        argmaxes.append(argmax)

    concat = np.concatenate(branches, axis=1)
    features = concat
    mask = None
    keep = 1.0
    if train and config.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode KimCNN forward needs an rng for dropout")
        keep = 1.0 - config.dropout
        mask = rng.random(concat.shape) < keep
        features = concat * mask / keep

    logits = affine(features, state.param("logits.w").value, state.param("logits.b").value)

    cache = ForwardCache(
        state_version=state.version,
        token_ids=ids,
        valid_lens=lens,
        embedded=embedded,
        conv_outputs=conv_outputs,
        pool_argmax=argmaxes,
        concat=concat,
        logits=logits,
        dropout_mask=mask,
        dropout_keep=keep,
    )
    return logits, cache


def forward(state: ModelState, token_ids, valid_lens, train: bool = False,
            rng: np.random.Generator = None):
    """Dispatch to the architecture named by the state's config."""
    if state.config.kind == BLENDCNN:
        return blendcnn_forward(state, token_ids, valid_lens)
    return kimcnn_forward(state, token_ids, valid_lens, train=train, rng=rng)


# ---------------------------------------------------------------------------
# backward


def _embedding_grad(state, ids, d_embedded):
    """Overwrite the embedding's .grad with the scatter-sum of d_embedded."""
    grad = state.param("embedding").grad
    grad.fill(0.0)
    flat = ids.reshape(-1)
    np.add.at(grad, flat, d_embedded.reshape(flat.size, -1))
    grad[PAD_ID] = 0.0  # frozen row


def backward(state: ModelState, cache: ForwardCache, dlogits: np.ndarray) -> None:
    """Write exact gradients for every parameter into their .grad buffers.

    Overwrites (does not accumulate) so each step starts clean.  Raises
    StaleCacheError if the optimizer has stepped since the forward pass.
    """
    if cache.state_version != state.version:
        raise StaleCacheError(
            f"cache from state version {cache.state_version}, "
            f"state is now {state.version}"
        )
    config = state.config
    seq_len = config.seq_len

    if config.kind == BLENDCNN:
        d_hidden, dw, db = affine_backward(
            cache.blend_hidden, state.param("logits.w").value, dlogits
        )
        state.param("logits.w").grad[...] = dw
        state.param("logits.b").grad[...] = db

        d_blend_pre = relu_backward(cache.blend_hidden, d_hidden)
        d_concat, dw, db = affine_backward(
            cache.concat, state.param("blend.w").value, d_blend_pre
        )
        state.param("blend.w").grad[...] = dw
        state.param("blend.b").grad[...] = db

        n_ch = config.n_channels
        d_next = None  # gradient flowing into layer i+1's input
        for i in reversed(range(config.n_layers)):
            d_branch = d_concat[:, i * n_ch : (i + 1) * n_ch]
            d_h = max_pool_backward(cache.pool_argmax[i], seq_len, d_branch)
            if d_next is not None:
                d_h = d_h + d_next
            d_z = relu_backward(cache.conv_outputs[i], d_h)
            layer_input = cache.embedded if i == 0 else cache.conv_outputs[i - 1]
            d_in, dw, db = conv1d_backward(
                layer_input, state.param(f"conv{i + 1}.w").value, d_z
            )
            state.param(f"conv{i + 1}.w").grad[...] = dw
            state.param(f"conv{i + 1}.b").grad[...] = db
            d_next = d_in
        d_embedded = d_next
    else:
        if cache.dropout_mask is not None:
            features = cache.concat * cache.dropout_mask / cache.dropout_keep
        else:
            features = cache.concat
        d_features, dw, db = affine_backward(
            features, state.param("logits.w").value, dlogits
        )
        state.param("logits.w").grad[...] = dw
        state.param("logits.b").grad[...] = db
        if cache.dropout_mask is not None:
            d_concat = d_features * cache.dropout_mask / cache.dropout_keep
        else:
            d_concat = d_features

        n_ch = config.n_channels
        d_embedded = np.zeros_like(cache.embedded)
        for slot, width in enumerate(config.kernel_widths):
            d_branch = d_concat[:, slot * n_ch : (slot + 1) * n_ch]
            d_h = max_pool_backward(cache.pool_argmax[slot], seq_len, d_branch)
            d_z = relu_backward(cache.conv_outputs[slot], d_h)
            d_in, dw, db = conv1d_backward(
                cache.embedded, state.param(f"convw{width}.w").value, d_z
            )
            state.param(f"convw{width}.w").grad[...] = dw
            state.param(f"convw{width}.b").grad[...] = db
            d_embedded += d_in

    _embedding_grad(state, cache.token_ids, d_embedded)


# ---------------------------------------------------------------------------
# parameter counting


def param_count(config: ModelConfig):
    """Analytic parameter count and per-block breakdown.

    Matches the runtime enumeration of Parameter elements exactly (the PAD
    embedding row is counted even though it never updates).
    """
    breakdown = {"embedding": config.vocab_size * config.embed_dim}
    c_in = config.embed_dim
    for name, width in _conv_param_names(config):
        breakdown[name] = width * c_in * config.n_channels + config.n_channels
        if config.kind == BLENDCNN:
            c_in = config.n_channels
    if config.kind == BLENDCNN:
        concat = config.n_layers * config.n_channels
        breakdown["blend"] = concat * config.dense_width + config.dense_width
        logits_in = config.dense_width
    else:
        logits_in = len(config.kernel_widths) * config.n_channels
    breakdown["logits"] = logits_in * config.n_classes + config.n_classes
    return sum(breakdown.values()), breakdown


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all integers little-endian):
#   bytes 0..7    magic "BCNNCKP1"
#   bytes 8..11   uint32 format version (1)
#   bytes 12..15  uint32 header length N
#   bytes 16..16+N  UTF-8 JSON header: {"format_version", "config", "seed",
#                   "params": [{"name", "shape", "offset", "nbytes"}, ...]}
#   remainder     concatenated raw row-major '<f8' buffers
#
# No timestamps anywhere, so identical states serialize to identical bytes.


def save_checkpoint(state: ModelState, path) -> None:
    """Serialize config, seed, and parameter values (not optimizer state)."""
    entries = []
    offset = 0
    buffers = []
    for name, p in state.params.items():
        buf = np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        entries.append(
            {"name": name, "shape": list(p.value.shape), "offset": offset, "nbytes": len(buf)}
        )
        buffers.append(buf)
        offset += len(buf)
    header = json.dumps(
        {
            "format_version": _CKPT_VERSION,
            "config": state.config.to_dict(),
            "seed": state.seed,
            "params": entries,
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(np.uint32(_CKPT_VERSION).tobytes())
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        for buf in buffers:
            fh.write(buf)


def load_checkpoint(path) -> ModelState:
    """Rebuild a ModelState from :func:`save_checkpoint` output.

    Gradients and Adam moments come back zeroed; eval-mode forward output is
    bitwise identical to the saved state's.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    header_len = int(np.frombuffer(blob[12:16], dtype="<u4")[0])
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header") from exc
    config = ModelConfig.from_dict(header["config"])
    payload = blob[16 + header_len :]

    params = {}
    for entry in header["params"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated parameter block {entry['name']}")
        arr = np.frombuffer(payload[start : start + nbytes], dtype="<f8").astype(
            np.float64
        ).reshape(entry["shape"])
        params[entry["name"]] = Parameter(entry["name"], arr)

    expected = {name for name, _ in _conv_param_names(config)}
    for block in expected:
        if f"{block}.w" not in params:
            raise CheckpointError(f"{path}: parameter block {block}.w missing for config")
    return ModelState(config, header["seed"], params)
