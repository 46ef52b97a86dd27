#!/usr/bin/env python3
"""Walk through the numeric core: ops, a hand-checked conv, Adam, grad check.

Everything here is plain float64 numpy. Run from the repo root:

    python3 demos/check_numerics.py
"""
import numpy as np

from blendcnn.numerics import (
    Parameter, adam_step, conv1d, cross_entropy, grad_check,
    mae_loss, softmax,
)
from blendcnn.models import ModelConfig, forward, backward, init_model
from blendcnn.numerics import cross_entropy_backward

# ---------------------------------------------------------------------------
# a convolution you can verify on paper

x = np.array([[[1.0], [2.0], [3.0], [4.0]]])        # [1, L, C]: one row, length 4, 1 channel
k = np.array([[[1.0]], [[0.0]], [[-1.0]]])          # width 3: out = left - right
b = np.zeros(1)
print("conv1d([1,2,3,4], [1,0,-1]) ->", conv1d(x, k, b).ravel())
# position 0 sees zero padding on the left: 0 - 2 = -2, and so on

# ---------------------------------------------------------------------------
# losses at known points

two = np.log(np.array([[0.5, 0.5]]))
print("cross-entropy of a 50/50 guess:", cross_entropy(two, np.array([0])), "= ln 2")
print("softmax rows sum to", softmax(np.random.default_rng(0).normal(size=(3, 5))).sum(axis=1))
print("mae([0,2] vs [1,5]):", mae_loss(np.array([0.0, 2.0]), np.array([1.0, 5.0])))

# ---------------------------------------------------------------------------
# one Adam step: the very first update has magnitude ~= lr for any gradient

p = Parameter("w", np.zeros(4))
p.grad = np.array([1e-6, 1e-2, 1.0, 1e4])
adam_step(p, 1e-3)
print("first Adam step:", p.value, "(scale-free: ~ -lr each)")

# ---------------------------------------------------------------------------
# finite differences against the whole model, every parameter

cfg = ModelConfig(kind="blendcnn", n_classes=3, seq_len=8, vocab_size=20,
                  embed_dim=6, n_layers=2, n_channels=5, dense_width=4)
state = init_model(cfg, seed=1)
rng = np.random.default_rng(2)
ids = rng.integers(2, 20, size=(2, 8))       # full-length rows, no padding
lens = np.full(2, 8)
labels = np.array([0, 2])

def loss():
    logits, cache = forward(state, ids, lens)
    value = cross_entropy(logits, labels)
    backward(state, cache, cross_entropy_backward(logits, labels))
    return value

report = grad_check(loss, state.parameters())
print(f"grad check over {sum(p.value.size for p in state.parameters())} parameters:",
      f"max rel err {report.max_rel_err:.2e} (worst: {report.worst_param})")
assert report.passes(1e-4)
print("ok")
