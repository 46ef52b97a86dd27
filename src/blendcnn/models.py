"""BlendCNN and KimCNN students: init, forward, backward, counting, checkpoints.

Both are one pipeline: embed, conv stages (conv, relu, masked global max
pool), concat the pooled stages, a head, then the logits layer.  BlendCNN's
same-padded width-5 stages each read the stage before, and its head is a
relu dense blend layer.  KimCNN's stages, one per width in ``kernel_widths``
(default 3, 5, 7), all read the embeddings, and its head is dropout in train
mode only.  ``_param_shapes`` is the one table of parameter names and shapes.
KimCNN's per-stage embedding gradients are summed in forward stage order:
float addition does not associate, so the order fixes the trained bits.

The forward canonicalizes every batch to the model's fixed seq_len, so
logits are bitwise independent of how many PAD tokens trail an example.
"""
from __future__ import annotations

import json
import math
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
        if not self.kernel_widths or len(set(self.kernel_widths)) != len(self.kernel_widths):
            # each width names one parameter block, convw{K}
            raise ValueError(
                f"kernel widths must be distinct and non-empty, got {self.kernel_widths}"
            )
        for width in self.kernel_widths:
            if width < 1 or width % 2 == 0:
                raise ValueError(f"kernel widths must be odd and positive, got {width}")
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


def _param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every parameter, in creation (and RNG draw) order.

    The one description of a model's layout: the conv stages (BlendCNN's
    ``conv1..convN`` each read the stage before, KimCNN's ``convw{K}`` all
    read the embedding), BlendCNN's blend layer, and the logits layer.
    """
    n_ch = config.n_channels
    shapes = {"embedding": (config.vocab_size, config.embed_dim)}
    if config.kind == BLENDCNN:
        stages = [(f"conv{i + 1}", config.kernel_width, n_ch if i else config.embed_dim)
                  for i in range(config.n_layers)]
    else:
        stages = [(f"convw{width}", width, config.embed_dim) for width in config.kernel_widths]
    for name, width, c_in in stages:
        shapes[f"{name}.w"] = (width, c_in, n_ch)
        shapes[f"{name}.b"] = (n_ch,)
    features = len(stages) * n_ch
    if config.kind == BLENDCNN:
        shapes["blend.w"] = (features, config.dense_width)
        shapes["blend.b"] = (config.dense_width,)
        features = config.dense_width
    shapes["logits.w"] = (features, config.n_classes)
    shapes["logits.b"] = (config.n_classes,)
    return shapes


def _conv_stages(config: ModelConfig) -> list:
    """Block names of the conv stages, in forward order."""
    return [name[:-2] for name in _param_shapes(config)
            if name.startswith("conv") and name.endswith(".w")]


def init_model(config: ModelConfig, seed: int, embeddings: np.ndarray = None) -> ModelState:
    """Build a fresh ModelState: Glorot-uniform weights, zero biases.

    Embeddings are a copy of the [vocab_size, embed_dim] ``embeddings`` when
    given, otherwise uniform(-0.05, 0.05); the PAD row is zeroed either way.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(config).items():
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
    chained = config.kind == BLENDCNN
    ids, lens = _canonical_batch(config, token_ids, valid_lens)
    embedded = state.param("embedding").value[ids]

    conv_outputs = []
    branches = []
    x = embedded
    for name in _conv_stages(config):
        z = conv1d(x, state.param(f"{name}.w").value, state.param(f"{name}.b").value)
        h = relu(z)
        conv_outputs.append(h)
        branches.append(masked_max_pool(h, lens))
        if chained:
            x = h

    concat = np.concatenate(branches, axis=1)
    features = concat
    mask = None
    if chained:
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
    """Overwrite the embedding's .grad with the scatter-sum of d_embedded."""
    grad = state.param("embedding").grad
    grad.fill(0.0)
    flat = ids.reshape(-1)
    keep = flat != PAD_ID  # the PAD row is frozen: its gradient stays zero
    np.add.at(grad, flat[keep], d_embedded.reshape(flat.size, -1)[keep])


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
    chained = config.kind == BLENDCNN

    d_features, dw, db = affine_backward(
        cache.features, state.param("logits.w").value, dlogits
    )
    state.param("logits.w").grad[...] = dw
    state.param("logits.b").grad[...] = db
    if chained:
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
    stages = _conv_stages(config)
    d_next = None  # BlendCNN: gradient reaching stage i's output through stage i+1
    d_embedded = []  # per stage that reads the embedding, last stage first
    for i in reversed(range(len(stages))):
        branch = slice(i * n_ch, (i + 1) * n_ch)
        d_h = max_pool_backward(cache.conv_outputs[i], cache.concat[:, branch],
                                d_concat[:, branch])
        if d_next is not None:
            d_h = d_h + d_next
        d_z = relu_backward(cache.conv_outputs[i], d_h)
        reads_previous = chained and i > 0
        x = cache.conv_outputs[i - 1] if reads_previous else cache.embedded
        d_x, dw, db = conv1d_backward(x, state.param(f"{stages[i]}.w").value, d_z)
        state.param(f"{stages[i]}.w").grad[...] = dw
        state.param(f"{stages[i]}.b").grad[...] = db
        if reads_previous:
            d_next = d_x
        else:
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
    for name, shape in _param_shapes(config).items():
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
            "config": asdict(state.config),
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


def _read_header(raw: bytes):
    """(config, seed, blocks) from header bytes; blocks are (name, shape, offset, nbytes).

    Raises KeyError, TypeError or ValueError on anything malformed.
    """
    header = json.loads(raw.decode("utf-8"))
    config = ModelConfig(**header["config"])  # __post_init__ makes kernel_widths a tuple
    blocks = [(e["name"], tuple(int(d) for d in e["shape"]), int(e["offset"]), int(e["nbytes"]))
              for e in header["params"]]
    return config, header["seed"], blocks


def load_checkpoint(path) -> ModelState:
    """Rebuild a ModelState from :func:`save_checkpoint` output.

    Gradients and Adam moments come back zeroed; eval-mode forward output is
    bitwise identical to the saved state's.  Any file that save_checkpoint
    could not have written raises CheckpointError: the parameter blocks must
    tile the payload from offset 0 with no gap, overlap or trailing byte.
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
        config, seed, blocks = _read_header(blob[16 : 16 + header_len])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc!r})") from exc
    payload = blob[16 + header_len :]

    expected = _param_shapes(config)
    stored = {name: shape for name, shape, _, _ in blocks}
    problems = [f"missing {name}" for name in expected if name not in stored]
    problems += [f"unexpected {name}" for name in stored if name not in expected]
    problems += [
        f"{name} has shape {shape}, config needs {expected[name]}"
        for name, shape in stored.items()
        if name in expected and shape != expected[name]
    ]
    if len(stored) != len(blocks):
        problems.append("a parameter name repeats")
    if problems:
        raise CheckpointError(f"{path}: parameters do not match config: " + "; ".join(problems))

    params = {}
    end = 0
    for name, shape, start, nbytes in blocks:
        if start != end or nbytes != 8 * math.prod(shape):
            raise CheckpointError(
                f"{path}: parameter block {name} has offset {start} and nbytes {nbytes}, "
                f"expected {end} and {8 * math.prod(shape)}"
            )
        end = start + nbytes
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated parameter block {name}")
        arr = np.frombuffer(payload[start:end], dtype="<f8").astype(np.float64).reshape(shape)
        params[name] = Parameter(name, arr)
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} bytes after the last parameter block")

    return ModelState(config, seed, params)
