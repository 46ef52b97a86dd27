"""Dense numeric core: forward ops, hand-written gradients, losses, Adam.

Tensors are plain numpy float64 arrays. There is no autodiff tape: every
forward operation here has a matching ``*_backward`` that returns exact
analytic gradients, and ``grad_check`` validates any composition of them
against central finite differences.

Every function leaves its inputs as it found them and returns fresh
arrays, except ``relu`` given ``out=``, ``set_grad_rows``, which writes a
Parameter's gradient, and ``adam_step``, which updates its Parameter in
place.

Row tracking.  A row (first-axis slice) of a Parameter whose gradient, m
and v are all +0.0 is a fixed point of Adam's update: m and v stay +0.0 and
the value moves by exactly +0.0.  So a Parameter whose gradient is written
through ``set_grad_rows`` from its first step on, as the embedding's is,
records every row that function has written, and ``adam_step`` runs its
unchanged operations over those rows alone, with bitwise the dense result.  Gathering
and scattering rows costs about twice the dense pass per element, so once
more than half the table has been touched the Parameter drops its record
and is updated dense from then on.  ``adam_step`` does not look for zero
rows itself: that would read the gradient and both moments in full every
step, which is most of what the record saves.  The record holds only while
the gradient is written through ``set_grad_rows`` alone.

The one piece of hidden state is a per-thread im2col buffer: ``conv1d`` and
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
    "set_grad_rows",
    "adam_step",
    "grad_check",
]

# Output widths below this take a fixed-order reduction instead of BLAS:
# OpenBLAS remainder kernels for narrow outputs may sum rows in different
# orders, which would break bitwise row-equality for identical batch rows.
_NARROW_OUT = 16

# adam_step works through each parameter in blocks of about this many
# elements, so its temporaries stay small however large the parameter is.
_ADAM_SLICE = 1 << 15

# the largest double whose square is finite (the next one up squares to inf):
# adam_step refuses a gradient entry of greater magnitude
_GRAD_MAX = float(np.sqrt(np.finfo(np.float64).max))

# Adam's decay rates and denominator offset: the defaults of Kingma & Ba,
# "Adam: A Method for Stochastic Optimization" (ICLR 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# per-thread im2col buffer shared by conv1d and conv1d_backward
_scratch = threading.local()


class NonFiniteError(ValueError):
    """A NaN or Inf appeared, or a square would overflow to one, where finite
    values are required."""


@dataclass
class Parameter:
    """A trainable tensor: value plus gradient buffer and Adam moment state.

    Only ``name`` and ``value`` are given; ``value`` is stored float64 and
    C-contiguous, and ``grad``, ``m`` and ``v`` start as zeros of its shape,
    so a flat view of each is the array itself.  ``step`` counts optimizer
    updates applied to this parameter.

    ``live_rows`` and ``grad_rows`` are the row record (module docstring):
    None for a Parameter updated dense, else the sorted rows where the
    gradient or a moment may be nonzero, and the rows ``set_grad_rows``
    wrote last.  Every other row is a fixed point of Adam, so ``adam_step``
    skips it.  Only ``set_grad_rows`` starts a record, and only before the
    first step, while m and v are still the zeros they were made as; it
    drops the record past half the rows.  While a record is kept, write the
    gradient only through ``set_grad_rows``.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    step: int = field(init=False, default=0)
    live_rows: np.ndarray = field(init=False, default=None, repr=False)
    grad_rows: np.ndarray = field(init=False, default=None, repr=False)

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


def relu(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """max(x, 0) elementwise; ``out=x`` applies it in place."""
    return np.maximum(x, 0.0, out=out)


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


def max_pool_backward(x, pooled, dout, d_x=None):
    """Gradient wrt the pooled input x[B, L, C]: dout[B, C] at each channel's winner.

    ``pooled`` must come from :func:`masked_max_pool` over this same ``x``
    and some valid lengths.  The winner is the first position equal to
    ``pooled``: ties, relu zeros included, go to the earliest position and a
    NaN-pooled channel to its first NaN, as an argmax over the valid prefix
    picks.  No lengths are needed: some valid position attains the prefix
    max (or holds the first NaN), and every position before it is valid.

    ``d_x`` [B, L, C], when given, is the gradient that already reaches x
    by another path (a chained stage's from the stage after it).  The result
    is then ``zeros-scatter + d_x`` bit for bit, built in one fresh array:
    ``d_x + 0.0`` (which turns -0.0 into +0.0, as adding to the zeros did)
    with ``dout + d_x`` at each winner.  ``d_x`` itself is left unchanged.
    """
    hit = x == pooled[:, None, :]
    if np.isnan(pooled).any():  # NaN == NaN is False
        hit |= np.isnan(x)
    win = hit.argmax(axis=1)[:, None, :]
    if d_x is None:
        out, at_win = np.zeros(x.shape), dout[:, None, :]
    else:
        out, at_win = d_x + 0.0, dout[:, None, :] + np.take_along_axis(d_x, win, axis=1)
    np.put_along_axis(out, win, at_win, axis=1)
    return out


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


def set_grad_rows(p: Parameter, rows: np.ndarray, values: np.ndarray) -> None:
    """Overwrite ``p.grad`` with ``values`` at the distinct ``rows``, zeros elsewhere.

    ``values`` is [len(rows), ...] in the shape of p's rows.  A Parameter
    with a row record zeroes only the rows this function wrote last time;
    one without zeroes its whole gradient, and starts a record if it has not
    stepped yet.  The record is dropped once it holds more than half the
    rows, and the Parameter is updated dense from then on.
    """
    grad = p.grad
    if p.live_rows is not None:
        grad[p.grad_rows] = 0.0
    else:
        grad.fill(0.0)
        if p.step == 0:  # m and v are the zeros they were made as
            p.live_rows = np.zeros(0, dtype=np.intp)
    grad[rows] = values
    if p.live_rows is not None:
        p.grad_rows = np.asarray(rows, dtype=np.intp)
        p.live_rows = np.union1d(p.live_rows, p.grad_rows)
        if 2 * p.live_rows.size > len(grad):
            p.live_rows = p.grad_rows = None


def adam_step(p: Parameter, lr: float) -> Parameter:
    """One Adam update with bias correction; zeroes p.grad afterwards.

        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        value <- value - lr * m_hat / (sqrt(v_hat) + eps)

    with b1 = 0.9, b2 = 0.999 and eps = 1e-8, and a constant learning rate.
    Updates in place, over blocks of about ``_ADAM_SLICE`` elements, with
    block-sized scratch buffers: nothing full-size is allocated, and every
    element goes through the same operations in the same order as the
    whole-array formula, so the result is bitwise the same.  The blocks are
    flat slices of the whole parameter, or, for a Parameter with a row
    record (module docstring), gathered chunks of its live rows, whose
    results are scattered back; the rows outside the record have +0.0
    gradient and moments, a fixed point of the update, and are not read.
    Past half the rows the record is gone and the update runs dense, where
    gathering would cost more than it saves.  It does not look for zero
    rows itself, which would read all three arrays in full every step.

    Raises ValueError on a non-positive or NaN ``lr``, and NonFiniteError
    (naming the parameter) on a gradient entry that is NaN, infinite or
    above ``_GRAD_MAX`` in magnitude, whose square would overflow v.  It
    checks every entry that can be nonzero before anything is written.
    """
    if not lr > 0:  # also refuses NaN
        raise ValueError(f"lr must be positive, got {lr}")
    arrays = (p.value, p.grad, p.m, p.v)
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError(f"parameter '{p.name}': buffers must be C-contiguous")
    rows = p.live_rows
    if rows is None:
        value, grad, m, v = (a.reshape(-1) for a in arrays)
        parts = checked = [slice(i, i + _ADAM_SLICE) for i in range(0, value.size, _ADAM_SLICE)]
        n = min(value.size, _ADAM_SLICE)
    else:
        value, grad, m, v = (a.reshape(len(a), -1) for a in arrays)
        per = max(1, _ADAM_SLICE // value.shape[1])
        parts = [rows[i : i + per] for i in range(0, rows.size, per)]
        # the gradient is zero off the rows set_grad_rows wrote last
        checked = [p.grad_rows[i : i + per] for i in range(0, p.grad_rows.size, per)]
        n = min(rows.size, per) * value.shape[1]
    num, den = np.empty(n), np.empty(n)
    flags = np.empty(n, dtype=bool)
    for part in checked:
        g = grad[part].reshape(-1)
        # NaN fails the comparison too
        if not np.less_equal(np.abs(g, out=num[: g.size]), _GRAD_MAX, out=flags[: g.size]).all():
            raise NonFiniteError(f"non-finite gradient for parameter '{p.name}' "
                                 f"(NaN, inf, or |g| > {_GRAD_MAX:.5g}, whose square overflows)")
    p.step += 1
    b1, b2 = _BETA1, _BETA2
    c1, c2 = 1.0 - b1**p.step, 1.0 - b2**p.step
    for part in parts:
        blocks = value[part], grad[part], m[part], v[part]
        xs, g, ms, vs = (blk.reshape(-1) for blk in blocks)
        a, b = num[: g.size], den[: g.size]
        ms *= b1
        ms += np.multiply(1.0 - b1, g, out=a)
        vs *= b2
        vs += np.multiply(1.0 - b2, np.square(g, out=a), out=a)
        np.multiply(lr, np.divide(ms, c1, out=a), out=a)
        np.sqrt(np.divide(vs, c2, out=b), out=b)
        b += _EPS
        xs -= np.divide(a, b, out=a)
        if rows is None:
            g[...] = 0.0
        else:  # the blocks are gathered copies: put them back
            value[part], m[part], v[part] = blocks[0], blocks[2], blocks[3]
    if rows is not None:
        grad[p.grad_rows] = 0.0
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
