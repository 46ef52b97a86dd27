"""An independent eval-mode forward pass, used to check ``models.forward``.

It reads the parameter arrays of a ``ModelState`` and nothing else from the
package: no ``blendcnn.numerics`` import, no im2col.  Convolution is an
explicit sum over kernel offsets, pooling a loop over rows, so the two
implementations share no code path and agree only up to float64 rounding.
"""
from __future__ import annotations

import numpy as np

# Summation order differs from the im2col GEMM, so results differ in the last
# bits; anything beyond this is a real disagreement.
RTOL = 1e-9
ATOL = 1e-9


def _conv(x, kernels, bias):
    """out[b, t, o] = bias[o] + sum_{k, c} x[b, t + k - (K-1)/2, c] * kernels[k, c, o]."""
    width = kernels.shape[0]
    pad = (width - 1) // 2
    batch, length, channels = x.shape
    padded = np.zeros((batch, length + 2 * pad, channels))
    padded[:, pad:pad + length] = x
    out = np.broadcast_to(bias, (batch, length, bias.shape[0])).copy()
    for k in range(width):
        out += np.einsum("blc,co->blo", padded[:, k:k + length], kernels[k])
    return out


def _pool(h, lens):
    """Max over each row's first ``lens[b]`` positions."""
    return np.stack([h[b, :n].max(axis=0) for b, n in enumerate(lens)])


def reference_logits(state, token_ids, valid_lens):
    """Eval-mode logits of a BlendCNN or KimCNN state for one batch."""
    config = state.config
    value = {name: p.value for name, p in state.params.items()}
    ids = np.zeros((len(token_ids), config.seq_len), dtype=np.int64)
    ids[:, :np.shape(token_ids)[1]] = token_ids
    lens = [int(n) for n in valid_lens]
    embedded = value["embedding"][ids]

    def stage(x, name):
        return np.maximum(_conv(x, value[f"{name}.w"], value[f"{name}.b"]), 0.0)

    if config.kind == "kimcnn":
        branches = [_pool(stage(embedded, f"convw{w}"), lens) for w in config.kernel_widths]
        features = np.concatenate(branches, axis=1)
    else:
        branches, h = [], embedded
        for i in range(config.n_layers):
            h = stage(h, f"conv{i + 1}")
            branches.append(_pool(h, lens))
        concat = np.concatenate(branches, axis=1)
        features = np.maximum(concat @ value["blend.w"] + value["blend.b"], 0.0)
    return features @ value["logits.w"] + value["logits.b"]


def matches(state, token_ids, valid_lens, logits) -> bool:
    """True when ``logits`` agree with the reference at float64 tolerance."""
    expected = reference_logits(state, token_ids, valid_lens)
    return bool(np.all(np.isfinite(logits))
                and np.allclose(logits, expected, rtol=RTOL, atol=ATOL))
