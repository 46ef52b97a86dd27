"""Dense numeric core: forward ops, hand-written gradients, losses, Adam.

Tensors are plain numpy float64 arrays. There is no autodiff tape: every
forward operation here has a matching ``*_backward`` that returns exact
analytic gradients, and ``grad_check`` validates any composition of them
against central finite differences.

Every function leaves its inputs as it found them and returns fresh
arrays, except ``adam_step``, which updates its Parameter in place.  The one
piece of hidden state is a per-thread im2col buffer: ``conv1d`` and
``conv1d_backward`` copy their input into a zero-padded [B, L+2p, Cin] part
of it and read the windows into a [B*L, K*Cin] columns part, in place of
fresh arrays on every call (``conv1d_backward`` then reuses the columns for
their gradients).  It only grows.  It is read only inside the call that
filled it, so no result aliases it and threads never share one.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NonFiniteError",
    "Parameter",
    "GradCheckReport",
    "affine",
    "affine_backward",
    "conv1d",
    "conv1d_backward",
    "relu",
    "relu_backward",
    "masked_max_pool",
    "max_pool_backward",
    "softmax",
    "cross_entropy",
    "cross_entropy_backward",
    "mae_loss",
    "mae_loss_backward",
    "adam_step",
    "grad_check",
]

# Output widths below this take a fixed-order reduction instead of BLAS:
# OpenBLAS remainder kernels for narrow outputs may sum rows in different
# orders, which would break bitwise row-equality for identical batch rows.
_NARROW_OUT = 16

# adam_step works through each parameter in flat slices of this many
# elements, so its temporaries stay small however large the parameter is.
_ADAM_SLICE = 1 << 15

# Adam's decay rates and denominator offset: the defaults of Kingma & Ba,
# "Adam: A Method for Stochastic Optimization" (ICLR 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# per-thread im2col buffer shared by conv1d and conv1d_backward
_scratch = threading.local()


class NonFiniteError(ValueError):
    """A NaN or Inf appeared where finite values are required."""


@dataclass
class Parameter:
    """A trainable tensor: value plus gradient buffer and Adam moment state.

    Only ``name`` and ``value`` are given; ``value`` is stored float64 and
    C-contiguous, and ``grad``, ``m`` and ``v`` start as zeros of its shape,
    so a flat view of each is the array itself.  ``step`` counts optimizer
    updates applied to this parameter.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    step: int = field(init=False, default=0)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64, order="C")
        self.grad, self.m, self.v = (np.zeros_like(self.value) for _ in range(3))


# ---------------------------------------------------------------------------
# forward ops


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense layer: out[r, c] = sum_k x[r, k] * w[k, c] + b[c].

    x: [B, I], w: [I, O], b: [O] -> [B, O].
    """
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"affine expects 2-D operands, got x{x.shape} w{w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"affine: inner extents differ, x{x.shape} vs w{w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"affine: bias shape {b.shape} does not match w{w.shape}")
    if w.shape[1] < _NARROW_OUT:
        # per-row independent reduction, order fixed by the I axis
        return (x[:, :, None] * w[None, :, :]).sum(axis=1) + b
    return x @ w + b


def affine_backward(x, w, dout):
    """Gradients of affine: returns (dx, dw, db)."""
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def _conv_cols(x: np.ndarray, width: int) -> np.ndarray:
    """im2col for same-padded 1-D convolution, in this thread's buffer.

    x: [B, L, Cin] -> [B*L, K*Cin] float64 rows of the windows
    cols[b*L + t, k*Cin + c] = x[b, t + k - (K-1)/2, c], zero outside [0, L).
    The result is a view of the buffer and is overwritten by the next call
    on this thread.
    """
    if x.ndim != 3:
        raise ValueError(f"conv1d input must be [B, L, Cin], got x{x.shape}")
    if width % 2 == 0:  # the strided windows below read K-1 pad rows, so K must be odd
        raise ValueError(f"conv1d kernel width must be odd, got {width}")
    batch, length, c_in = x.shape
    pad = (width - 1) // 2
    n_cols, n_padded = batch * length * width * c_in, batch * (length + 2 * pad) * c_in
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < n_cols + n_padded:
        buf = _scratch.buf = np.empty(n_cols + n_padded)
    cols = buf[:n_cols].reshape(batch, length, width, c_in)
    padded = buf[n_cols : n_cols + n_padded].reshape(batch, length + 2 * pad, c_in)
    # each width lays the padded input out anew, so its pad rows are zeroed every call
    padded[:, :pad] = 0.0
    padded[:, pad + length :] = 0.0
    padded[:, pad : pad + length] = x
    # window t is rows t..t+K-1 of the padded input: K*Cin contiguous doubles
    s_b, s_l, s_c = padded.strides
    np.copyto(cols, np.lib.stride_tricks.as_strided(
        padded, shape=(batch, length, width, c_in), strides=(s_b, s_l, s_l, s_c)))
    return cols.reshape(batch * length, width * c_in)


def conv1d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded 1-D cross-correlation over the length axis.

    x: [B, L, Cin]; kernels: [K, Cin, Cout] with K odd; bias: [Cout].  For
    every row b and position t,

        out[b, t, o] = bias[o] + sum_{k, c} x[b, t + k - (K-1)/2, c] * kernels[k, c, o]

    with out-of-range positions of x treated as zero, so the output keeps
    length L.  A single sequence goes in as a batch of one, ``x[None]``.
    """
    if kernels.ndim != 3:
        raise ValueError(f"conv1d kernels must be [K, Cin, Cout], got {kernels.shape}")
    width, c_in, c_out = kernels.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ValueError(f"conv1d input must be [B, L, Cin] with the kernels' Cin, "
                         f"got x{x.shape} vs kernels{kernels.shape}")
    if bias.shape != (c_out,):
        raise ValueError(f"conv1d: bias shape {bias.shape}, expected ({c_out},)")
    batch, length = x.shape[0], x.shape[1]
    out = _conv_cols(x, width) @ kernels.reshape(width * c_in, c_out)
    out += bias
    return out.reshape(batch, length, c_out)


def conv1d_backward(x, kernels, dout):
    """Gradients of conv1d: returns (dx, dkernels, dbias).

    x: [B, L, Cin], the forward call's input; dout: [B, L, Cout].
    """
    width, c_in, c_out = kernels.shape
    batch, length = x.shape[0], x.shape[1]
    pad = (width - 1) // 2

    cols = _conv_cols(x, width)
    dflat = dout.reshape(batch * length, c_out)
    dkernels = (cols.T @ dflat).reshape(width, c_in, c_out)
    dbias = dflat.sum(axis=0)

    # the columns are not read again, so their buffer takes their gradient
    dcols = np.matmul(dflat, kernels.reshape(width * c_in, c_out).T, out=cols).reshape(
        batch, length, width, c_in
    )
    dxp = np.zeros((batch, length + 2 * pad, c_in))
    for k in range(width):
        dxp[:, k : k + length, :] += dcols[:, :, k, :]
    return dxp[:, pad : pad + length, :], dkernels, dbias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x, dout):
    """dout masked to the positions where relu(x) passed its input through."""
    return dout * (x > 0.0)


def masked_max_pool(x: np.ndarray, valid_lens: np.ndarray) -> np.ndarray:
    """Batched global max pool restricted to each row's valid prefix.

    x: [B, L, C], valid_lens: [B] -> pooled [B, C].  Positions at or beyond
    the valid length never win; a NaN in the valid prefix pools to NaN.
    Which position won is left to :func:`max_pool_backward`.
    """
    batch, length, _ = x.shape
    valid_lens = np.asarray(valid_lens)
    if valid_lens.shape != (batch,):
        raise ValueError(f"valid_lens shape {valid_lens.shape}, expected ({batch},)")
    if np.any(valid_lens < 1) or np.any(valid_lens > length):
        raise ValueError(f"valid lengths must be in [1, {length}]")
    mask = np.arange(length)[None, :] < valid_lens[:, None]
    return np.max(x, axis=1, where=mask[:, :, None], initial=-np.inf)


def max_pool_backward(x, pooled, dout):
    """Scatter dout[B, C] to each channel's winner in the pooled input x[B, L, C].

    ``pooled`` must come from :func:`masked_max_pool` over this same ``x``
    and some valid lengths.  The winner is the first position equal to
    ``pooled``: ties, relu zeros included, go to the earliest position and a
    NaN-pooled channel to its first NaN, as an argmax over the valid prefix
    picks.  No lengths are needed: some valid position attains the prefix
    max (or holds the first NaN), and every position before it is valid.
    """
    hit = x == pooled[:, None, :]
    if np.isnan(pooled).any():  # NaN == NaN is False
        hit |= np.isnan(x)
    dx = np.zeros(x.shape)
    np.put_along_axis(dx, hit.argmax(axis=1)[:, None, :], dout[:, None, :], axis=1)
    return dx


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max-shifted before exponentiation)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the batch of -log softmax(logits)[label].

    logits: [B, C], labels: integer [B] with entries in [0, C).
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(f"cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    n_classes = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"cross_entropy: label out of range [0, {n_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float((lse - picked).mean())


def cross_entropy_backward(logits, labels):
    """d(mean CE)/dlogits = (softmax - onehot) / B."""
    batch = logits.shape[0]
    d = softmax(logits)
    d[np.arange(batch), labels] -= 1.0
    return d / batch


def mae_loss(student: np.ndarray, teacher: np.ndarray) -> float:
    """Mean absolute error over all entries of two same-shape tensors."""
    if student.shape != teacher.shape:
        raise ValueError(f"mae_loss: shapes differ, {student.shape} vs {teacher.shape}")
    return float(np.abs(student - teacher).mean())


def mae_loss_backward(student, teacher):
    """Subgradient of mae_loss wrt student; defined as 0 where entries tie."""
    return np.sign(student - teacher) / student.size


def adam_step(p: Parameter, lr: float) -> Parameter:
    """One Adam update with bias correction; zeroes p.grad afterwards.

        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        value <- value - lr * m_hat / (sqrt(v_hat) + eps)

    with b1 = 0.9, b2 = 0.999 and eps = 1e-8, and a constant learning rate.
    Updates in place, over flat slices of ``_ADAM_SLICE`` elements, with
    slice-sized scratch buffers: nothing full-size is allocated, and every
    element goes through the same operations in the same order as the
    whole-array formula, so the result is bitwise the same.

    Raises ValueError on a non-positive or NaN ``lr``, and NonFiniteError
    (naming the parameter) on a NaN/Inf gradient, before anything is written.
    """
    if not lr > 0:  # also refuses NaN
        raise ValueError(f"lr must be positive, got {lr}")
    arrays = (p.value, p.grad, p.m, p.v)
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError(f"parameter '{p.name}': buffers must be C-contiguous")
    value, grad, m, v = (a.reshape(-1) for a in arrays)
    slices = [slice(i, i + _ADAM_SLICE) for i in range(0, value.size, _ADAM_SLICE)]
    n = min(value.size, _ADAM_SLICE)
    flags = np.empty(n, dtype=bool)
    for s in slices:
        g = grad[s]
        if not np.isfinite(g, out=flags[: g.size]).all():
            raise NonFiniteError(f"non-finite gradient for parameter '{p.name}'")
    p.step += 1
    b1, b2 = _BETA1, _BETA2
    c1, c2 = 1.0 - b1**p.step, 1.0 - b2**p.step
    num, den = np.empty(n), np.empty(n)
    for s in slices:
        g, ms, vs = grad[s], m[s], v[s]
        a, b = num[: g.size], den[: g.size]
        ms *= b1
        ms += np.multiply(1.0 - b1, g, out=a)
        vs *= b2
        vs += np.multiply(1.0 - b2, np.square(g, out=a), out=a)
        np.multiply(lr, np.divide(ms, c1, out=a), out=a)
        np.sqrt(np.divide(vs, c2, out=b), out=b)
        b += _EPS
        value[s] -= np.divide(a, b, out=a)
        g[...] = 0.0
    return p


@dataclass
class GradCheckReport:
    """Finite-difference comparison for a set of parameters."""

    max_rel_err: float
    worst_param: str

    def passes(self, tolerance: float) -> bool:
        return self.max_rel_err < tolerance


def grad_check(loss_fn, params) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_fn()`` must return the scalar loss and write fresh analytic
    gradients into every Parameter in ``params`` as a side effect.  Every
    entry of every parameter is perturbed by +-1e-5; the relative error is
    |a - n| / max(|a|, |n|, 1e-8).  Report-only: never raises on mismatch.
    """
    h = 1e-5
    loss_fn()
    analytic = {p.name: p.grad.copy() for p in params}

    worst = ("", 0.0)
    for p in params:
        flat = p.value.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            rel = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), 1e-8)
            if rel > worst_here:
                worst_here = rel
        if worst_here >= worst[1]:
            worst = (p.name, worst_here)
    # restore the analytic gradients the probe clobbered
    loss_fn()
    return GradCheckReport(max_rel_err=worst[1], worst_param=worst[0])
