"""Numeric core against hand-rolled oracles and finite differences."""
import sys
import threading

import numpy as np
import pytest

from blendcnn import numerics
from blendcnn.numerics import (
    NonFiniteError,
    Parameter,
    adam_step,
    affine,
    affine_backward,
    conv1d,
    conv1d_backward,
    cross_entropy,
    cross_entropy_backward,
    grad_check,
    mae_loss,
    mae_loss_backward,
    masked_max_pool,
    max_pool_backward,
    relu,
    relu_backward,
    set_grad_rows,
    softmax,
)


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b),
                                                      np.full_like(a, 1e-8)]))


def global_max_pool(x: np.ndarray, valid_len: int) -> np.ndarray:
    """Oracle for masked_max_pool: max over the first valid_len rows of x[L, C]."""
    if x.ndim != 2:
        raise ValueError(f"global_max_pool expects [L, C], got {x.shape}")
    if not 1 <= valid_len <= x.shape[0]:
        raise ValueError(f"valid_len must be in [1, {x.shape[0]}], got {valid_len}")
    return x[:valid_len].max(axis=0)


def argmax_pool_oracle(x, valid_lens):
    """The masked pool as a where/argmax pair: (pooled [B, C], winner [B, C])."""
    mask = np.arange(x.shape[1])[None, :] < valid_lens[:, None]
    masked = np.where(mask[:, :, None], x, -np.inf)
    argmax = masked.argmax(axis=1)
    return np.take_along_axis(masked, argmax[:, None, :], axis=1)[:, 0, :], argmax


def fd_grad(f, x, h=1e-6):
    """Central differences on a flat view of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


class TestAffine:
    def test_hand_example(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 1.0]])
        b = np.array([0.5, 0.0, 0.0])
        np.testing.assert_allclose(affine(x, w, b), [[1.5, 4.0, 1.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n, d_in, d_out = rng.integers(1, 9), rng.integers(1, 7), rng.integers(1, 40)
            x = rng.normal(size=(n, d_in))
            w = rng.normal(size=(d_in, d_out))
            b = rng.normal(size=d_out)
            want = np.empty((n, d_out))
            for i in range(n):
                for o in range(d_out):
                    acc = b[o]
                    for j in range(d_in):
                        acc += x[i, j] * w[j, o]
                    want[i, o] = acc
            assert rel_err(affine(x, w, b), want) < 1e-12

    def test_identical_rows_stay_identical(self):
        # narrow output heads must not depend on where a row sits in the batch
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 100))
        w = rng.normal(size=(100, 4))
        b = rng.normal(size=4)
        single = affine(x, w, b)[0]
        for n in (2, 5, 7, 17, 33):
            out = affine(np.repeat(x, n, axis=0), w, b)
            for row in out:
                assert np.array_equal(row, single)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="affine"):
            affine(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        dout = rng.normal(size=(3, 5))
        dx, dw, db = affine_backward(x, w, dout)
        loss = lambda: float(np.sum(affine(x, w, b) * dout))
        assert rel_err(dx, fd_grad(loss, x)) < 1e-5
        assert rel_err(dw, fd_grad(loss, w)) < 1e-5
        assert rel_err(db, fd_grad(loss, b)) < 1e-5


class TestConv1d:
    def test_edge_padding_example(self):
        x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
        k = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
        out = conv1d(x, k, np.zeros(1))
        np.testing.assert_allclose(out, [[[-2.0], [-2.0], [-2.0], [3.0]]])

    def test_width1_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 4))
        k = np.eye(4).reshape(1, 4, 4)
        np.testing.assert_array_equal(conv1d(x, k, np.zeros(4)), x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            length = int(rng.integers(2, 9))
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            width = int(rng.choice([1, 3, 5]))
            x = rng.normal(size=(length, c_in))
            k = rng.normal(size=(width, c_in, c_out))
            b = rng.normal(size=c_out)
            half = (width - 1) // 2
            want = np.empty((length, c_out))
            for t in range(length):
                for o in range(c_out):
                    acc = b[o]
                    for kk in range(width):
                        src = t + kk - half
                        if 0 <= src < length:
                            for c in range(c_in):
                                acc += x[src, c] * k[kk, c, o]
                    want[t, o] = acc
            assert rel_err(conv1d(x[None], k, b)[0], want) < 1e-12

    def test_even_width_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv1d(np.zeros((1, 4, 1)), np.zeros((2, 1, 1)), np.zeros(1))
        # so is an unbatched [L, Cin] input: one sequence goes in as x[None]
        with pytest.raises(ValueError, match=r"\[B, L, Cin\]"):
            conv1d(np.zeros((4, 1)), np.zeros((3, 1, 1)), np.zeros(1))

    def test_even_width_rejected_by_backward(self):
        with pytest.raises(ValueError, match="odd"):
            conv1d_backward(np.zeros((2, 4, 1)), np.zeros((2, 1, 1)), np.zeros((2, 4, 1)))
        with pytest.raises(ValueError, match=r"\[B, L, Cin\]"):
            conv1d_backward(np.zeros((4, 1)), np.zeros((3, 1, 1)), np.zeros((4, 1)))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 8, 2))
        k = rng.normal(size=(5, 2, 3))
        b = rng.normal(size=3)
        batched = conv1d(x, k, b)
        for i in range(3):
            np.testing.assert_allclose(batched[i], conv1d(x[i:i + 1], k, b)[0], rtol=1e-12)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 6, 3))
        k = rng.normal(size=(3, 3, 2))
        b = rng.normal(size=2)
        dout = rng.normal(size=(2, 6, 2))
        dx, dk, db = conv1d_backward(x, k, dout)
        loss = lambda: float(np.sum(conv1d(x, k, b) * dout))
        assert rel_err(dx, fd_grad(loss, x)) < 1e-5
        assert rel_err(dk, fd_grad(loss, k)) < 1e-5
        assert rel_err(db, fd_grad(loss, b)) < 1e-5

    @staticmethod
    def cols_oracle(x, width):
        batch, length, c_in = x.shape
        half = (width - 1) // 2
        want = np.zeros((batch, length, width, c_in))
        for t in range(length):
            for k in range(width):
                if 0 <= t + k - half < length:
                    want[:, t, k] = x[:, t + k - half]
        return want.reshape(batch * length, width * c_in)

    def test_conv_cols_match_a_loop_oracle(self):
        rng = np.random.default_rng(11)
        for width in (1, 3, 5, 7, 9):  # conv1d takes odd widths only
            for length in (1, 3, 8):  # includes every K > L case
                x = rng.normal(size=(2, length, 3))
                np.testing.assert_array_equal(numerics._conv_cols(x, width),
                                              self.cols_oracle(x, width))
        # a batch of one with K > L, through conv1d
        x = rng.normal(size=(1, 4, 2))
        k = rng.normal(size=(7, 2, 3))
        np.testing.assert_array_equal(
            conv1d(x, k, np.zeros(3)),
            (self.cols_oracle(x, 7) @ k.reshape(14, 3)).reshape(1, 4, 3))

    def test_shared_pad_rows_are_rezeroed_between_widths(self):
        # widths 7 -> 3 -> 5 -> 3 lay one buffer out differently on each call,
        # so a pad row left from the call before would show up as data
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 6, 4)) + 10.0
        for width in (7, 3, 5, 3):
            np.testing.assert_array_equal(numerics._conv_cols(x, width),
                                          self.cols_oracle(x, width))

    def test_scratch_buffer_never_leaks_into_a_result(self):
        rng = np.random.default_rng(7)
        big_x = rng.normal(size=(4, 16, 6))
        big_k = rng.normal(size=(7, 6, 5))
        # grow this thread's buffer first, so every call below reuses it
        conv1d(big_x, big_k, np.zeros(5))
        x = rng.normal(size=(2, 5, 3))
        k = rng.normal(size=(3, 3, 2))
        out = conv1d(x, k, rng.normal(size=2))
        grads = conv1d_backward(x, k, np.ones_like(out))
        kept = [out.copy()] + [g.copy() for g in grads]
        big_out = conv1d(big_x, big_k, np.zeros(5))
        conv1d_backward(big_x, big_k, big_out)
        for before, now in zip(kept, [out, *grads]):
            np.testing.assert_array_equal(now, before)

    def test_threads_reproduce_single_thread_results(self):
        rng = np.random.default_rng(8)
        # big enough that each GEMM releases the GIL while another thread
        # fills its own buffer
        jobs = [
            (rng.normal(size=(4, 48, 24)), rng.normal(size=(5, 24, 16)), rng.normal(size=16)),
            (rng.normal(size=(3, 64, 20)), rng.normal(size=(3, 20, 12)), rng.normal(size=12)),
            (rng.normal(size=(2, 40, 16)), rng.normal(size=(7, 16, 8)), rng.normal(size=8)),
        ]
        want = [conv1d(*job) for job in jobs]
        start = threading.Barrier(len(jobs))
        got = [[] for _ in jobs]

        def run(slot):
            start.wait()
            for _ in range(200):
                got[slot].append(conv1d(*jobs[slot]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for slot, outs in enumerate(got):
            assert len(outs) == 200
            for out in outs:
                np.testing.assert_array_equal(out, want[slot])


class TestReluAndPool:
    def test_relu_basics(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 2.0])
        dout = np.array([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(relu_backward(x, dout), [0.0, 0.0, 5.0])

    def test_global_max_pool_masks_tail(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0], [9.0, 9.0]])
        np.testing.assert_array_equal(global_max_pool(x, 2), [3.0, 5.0])
        np.testing.assert_array_equal(global_max_pool(x, 3), [9.0, 9.0])

    def test_pool_order_invariance_full_length(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 4))
        shuffled = x[rng.permutation(9)]
        np.testing.assert_array_equal(global_max_pool(x, 9), global_max_pool(shuffled, 9))

    def test_zero_valid_len_rejected(self):
        with pytest.raises(ValueError):
            global_max_pool(np.zeros((3, 2)), 0)

    def test_masked_pool_matches_per_example(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 7, 3))
        lens = np.array([1, 3, 7, 5])
        pooled = masked_max_pool(x, lens)
        for i in range(4):
            np.testing.assert_array_equal(pooled[i], global_max_pool(x[i], lens[i]))

    def test_pool_backward_scatters_to_argmax(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 3))
        lens = np.array([4, 5])
        pooled = masked_max_pool(x, lens)
        dout = rng.normal(size=(2, 3))
        dx = max_pool_backward(x, pooled, dout)
        assert dx.shape == x.shape
        # one nonzero per channel, on the valid row that holds the max
        for b in range(2):
            rows, chans = np.nonzero(dx[b])
            np.testing.assert_array_equal(chans, np.arange(3))
            assert np.all(rows < lens[b])
            np.testing.assert_array_equal(x[b, rows, chans], pooled[b])
        fd = fd_grad(lambda: float(np.sum(masked_max_pool(x, lens) * dout)), x)
        assert rel_err(dx, fd) < 1e-5

    @pytest.mark.parametrize("case", ["relu", "repeated", "nan", "past"])
    def test_pool_pair_bitwise_equals_argmax_oracle(self, case):
        rng = np.random.default_rng(10)
        batch, length, channels = 6, 9, 5
        if case == "repeated":
            # few distinct values, so most channels hold their max more than once
            x = rng.integers(-2, 3, size=(batch, length, channels)).astype(float)
        else:
            x = relu(rng.normal(size=(batch, length, channels)))
            x[:, :, 0] = 0.0  # an all-zero channel: every position ties
            x[1] = 0.0
        if case == "nan":
            x[2, 1, 1] = x[2, 3, 1] = np.nan  # two NaNs, both valid: the first wins
            x[3, 7, 2] = np.nan  # beyond row 3's valid length: ignored
            x[4, 0, :] = np.nan
        lens = np.array([1, length, 4, 5, length, 2])
        if case == "past":
            # past each valid length: the row's pooled max, values above it and
            # +inf, which max_pool_backward sees with no lengths to mask them
            ties = argmax_pool_oracle(x, lens)[0]
            for b in range(batch):
                for t in range(lens[b], length):
                    x[b, t] = (ties[b], ties[b] + 1.0, np.inf)[(t + b) % 3]
        dout = rng.normal(size=(batch, channels))
        want_pooled, argmax = argmax_pool_oracle(x, lens)
        pooled = masked_max_pool(x, lens)
        np.testing.assert_array_equal(pooled, want_pooled)
        want_dx = np.zeros_like(x)
        np.put_along_axis(want_dx, argmax[:, None, :], dout[:, None, :], axis=1)
        np.testing.assert_array_equal(max_pool_backward(x, pooled, dout), want_dx)


    def test_relu_in_place(self):
        x = np.array([-1.0, -0.0, 0.0, 2.0, np.nan])
        want = relu(x)
        assert relu(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["relu", "repeated", "nan"])
    def test_chained_pool_backward_bitwise_equals_scatter_plus_add(self, case):
        """The gradient from the next stage, passed in, gives zeros-scatter + d_x."""
        rng = np.random.default_rng(11)
        batch, length, channels = 6, 9, 5
        if case == "repeated":  # ties: most channels hold their max more than once
            x = rng.integers(-2, 3, size=(batch, length, channels)).astype(float)
        else:
            x = relu(rng.normal(size=(batch, length, channels)))
            x[:, :, 0] = 0.0  # a relu-zero winner: every position ties at 0
        if case == "nan":
            x[2, 1, 1] = x[2, 3, 1] = np.nan
            x[4, 0, :] = np.nan
        lens = np.array([1, length, 4, 5, length, 2])
        pooled = masked_max_pool(x, lens)
        # signed zeros in both inputs: -0.0 + -0.0 stays -0.0 at a winner, and
        # 0.0 + -0.0 is +0.0 elsewhere
        dout = rng.normal(size=(batch, channels))
        dout[:, ::2] = -0.0
        d_x = np.where(rng.random(x.shape) < 0.5, -0.0, rng.normal(size=x.shape))
        d_x[:, 0, :] = -0.0  # position 0 wins every tied relu-zero channel
        kept = d_x.copy()
        want = max_pool_backward(x, pooled, dout) + d_x
        assert (np.signbit(want) & (want == 0.0)).any()  # a -0.0 survives
        got = max_pool_backward(x, pooled, dout, d_x)
        assert got.tobytes() == want.tobytes()
        assert d_x.tobytes() == kept.tobytes()


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        p = softmax(rng.normal(size=(6, 5)))
        np.testing.assert_allclose(p.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(p > 0)

    def test_softmax_handles_large_logits(self):
        p = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        np.testing.assert_allclose(p, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_softmax_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(size=(3, 4)) * rng.uniform(0.1, 30)
            shifted = z - z.max(axis=1, keepdims=True)
            want = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            assert rel_err(softmax(z), want) < 1e-12

    def test_cross_entropy_uniform_two_way(self):
        assert cross_entropy(np.array([[0.0, 0.0]]), np.array([0])) == pytest.approx(
            np.log(2.0), rel=1e-12
        )

    def test_cross_entropy_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            z = rng.normal(size=(5, 3))
            y = rng.integers(0, 3, size=5)
            per = []
            for i in range(5):
                m = z[i].max()
                per.append(np.log(np.exp(z[i] - m).sum()) + m - z[i, y[i]])
            assert rel_err(np.array([cross_entropy(z, y)]),
                           np.array([np.mean(per)])) < 1e-12

    def test_cross_entropy_label_range_checked(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_cross_entropy_backward_matches_fd(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, size=4)
        dz = cross_entropy_backward(z, y)
        fd = fd_grad(lambda: cross_entropy(z, y), z)
        assert rel_err(dz, fd) < 1e-5

    def test_mae_hand_example(self):
        s = np.array([[1.0, 2.0]])
        t = np.array([[0.0, 4.0]])
        assert mae_loss(s, t) == pytest.approx(1.5, rel=1e-12)

    def test_mae_backward_matches_fd(self):
        rng = np.random.default_rng(14)
        s = rng.normal(size=(3, 4))
        t = s + np.where(rng.normal(size=(3, 4)) > 0, 0.5, -0.5)  # stay off the kink
        ds = mae_loss_backward(s, t)
        fd = fd_grad(lambda: mae_loss(s, t), s)
        assert rel_err(ds, fd) < 1e-5

    def test_mae_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mae_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# Kingma & Ba's defaults, written out so the references below do not read the code's
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def textbook_adam(value, grad, m, v, step, lr):
    """The whole-array Adam update, on copies: (value, grad, m, v, step)."""
    value, m, v = value.copy(), m.copy(), v.copy()
    step += 1
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * np.square(grad)
    m_hat = m / (1.0 - BETA1**step)
    v_hat = v / (1.0 - BETA2**step)
    value -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    return value, np.zeros_like(grad), m, v, step


def adam_fields(p):
    return p.value, p.grad, p.m, p.v, p.step


class TestAdam:
    @pytest.mark.parametrize("size", [1, numerics._ADAM_SLICE, 3 * numerics._ADAM_SLICE + 17])
    def test_bitwise_equal_to_whole_array_update(self, size):
        rng = np.random.default_rng(30)
        p = Parameter("w", rng.normal(size=size))
        want = (p.value.copy(), p.grad.copy(), p.m.copy(), p.v.copy(), 0)
        for _ in range(5):
            # sparse gradient: most entries zero, as for embedding rows
            grad = rng.normal(size=size) * (rng.random(size) < 0.1)
            p.grad[...] = grad
            value, _, m, v, step = want
            want = textbook_adam(value, grad, m, v, step, 1e-2)
            adam_step(p, 1e-2)
            for got, expected in zip(adam_fields(p), want):
                assert np.array_equal(got, expected)

    def test_nonfinite_grad_leaves_state_unchanged(self):
        rng = np.random.default_rng(31)
        size = 3 * numerics._ADAM_SLICE + 17
        p = Parameter("w", rng.normal(size=size))
        p.grad[...] = rng.normal(size=size)
        adam_step(p, 1e-3)
        # the bad entry sits in the last slice, after three clean ones
        p.grad[...] = rng.normal(size=size)
        p.grad[-1] = np.inf
        before, step = [f.copy() for f in (p.value, p.m, p.v)], p.step
        with pytest.raises(NonFiniteError):
            adam_step(p, 1e-3)
        for got, expected in zip((p.value, p.m, p.v), before):
            assert np.array_equal(got, expected)
        assert p.step == step

    def test_non_contiguous_value_still_moves(self):
        value = np.arange(6.0).reshape(2, 3).T
        assert not value.flags.c_contiguous
        p = Parameter("w", value)
        p.grad[...] = 1.0
        want = textbook_adam(value, np.ones_like(value), np.zeros_like(value),
                             np.zeros_like(value), 0, 1e-2)
        adam_step(p, 1e-2)
        assert not np.array_equal(p.value, value)
        for got, expected in zip(adam_fields(p), want):
            assert np.array_equal(got, expected)

    def test_matches_scalar_recurrence(self):
        rng = np.random.default_rng(15)
        lr = 1e-3
        p = Parameter("w", np.array([0.3]))
        # reference: textbook update tracked step by step in plain python
        m = v = 0.0
        x = 0.3
        for t in range(1, 51):
            g = float(rng.normal())
            p.grad[:] = g
            adam_step(p, lr)
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            x -= lr * m_hat / (np.sqrt(v_hat) + EPS)
            assert rel_err(p.value, np.array([x])) < 1e-12

    def test_first_step_is_lr_sized(self):
        # bias correction makes the first update ~ -lr regardless of grad scale
        for scale in (1e-4, 1.0, 1e6):
            p = Parameter("w", np.zeros(1))
            p.grad[:] = scale
            adam_step(p, 1e-3)
            assert abs(p.value[0] + 1e-3) < 1e-6

    def test_grad_cleared_after_step(self):
        p = Parameter("w", np.ones(3))
        p.grad[:] = 1.0
        adam_step(p, 1e-3)
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_nonfinite_grad_rejected_by_name(self):
        p = Parameter("conv1.w", np.ones(2))
        p.grad[:] = [1.0, np.nan]
        with pytest.raises(NonFiniteError, match="conv1.w"):
            adam_step(p, 1e-3)

    def test_lr_must_be_positive(self):
        p = Parameter("w", np.ones(2))
        p.grad[:] = 1.0
        with pytest.raises(ValueError, match="lr"):
            adam_step(p, 0.0)
        assert p.step == 0 and np.array_equal(p.value, np.ones(2))

    def test_parameter_takes_only_name_and_value(self):
        with pytest.raises(TypeError):
            Parameter("w", np.ones(2), grad=np.zeros(2))
        p = Parameter("w", [[1, 2], [3, 4]])
        assert p.value.dtype == np.float64 and p.step == 0
        for buf in (p.grad, p.m, p.v):
            assert buf.shape == (2, 2) and not buf.any() and buf.flags.c_contiguous


    @pytest.mark.parametrize("tracked", [False, True])
    def test_gradient_whose_square_overflows_is_refused(self, tracked):
        """|g| above sqrt(float max) squares to inf: refused before anything is written."""
        def write(p, value):
            grad_rows = np.full((2, 3), 0.5)
            grad_rows[1, 2] = value
            if tracked:
                set_grad_rows(p, np.array([1, 3]), grad_rows)
            else:
                p.grad[[1, 3]] = grad_rows
            assert (p.live_rows is not None) == tracked

        p = Parameter("table", np.arange(15.0).reshape(5, 3))
        write(p, -1e155)
        before = [f.copy() for f in (p.value, p.m, p.v)]
        with pytest.raises(NonFiniteError, match="'table'"):
            adam_step(p, 1e-3)
        for got, expected in zip((p.value, p.m, p.v), before):
            assert got.tobytes() == expected.tobytes()
        assert p.step == 0

        write(p, -1e154)
        with np.errstate(all="raise"):  # no overflow anywhere in the update
            adam_step(p, 1e-3)
        assert p.step == 1 and np.isfinite(p.v).all() and p.v[3, 2] > 0

    def test_limit_is_the_largest_double_that_squares_finite(self):
        limit = numerics._GRAD_MAX
        with np.errstate(over="ignore"):
            assert np.isfinite(np.square(limit))
            assert np.isinf(np.square(np.nextafter(limit, np.inf)))


def step_with_dense_twin(p, twin, lr=1e-2):
    """Adam on ``p`` and on ``twin`` fed a copy of p's gradient; their bytes must agree."""
    twin.grad[...] = p.grad
    adam_step(twin, lr)
    adam_step(p, lr)
    for got, want in zip(adam_fields(p), adam_fields(twin)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRowRecord:
    def test_set_grad_rows_writes_rows_and_zeros_elsewhere(self):
        p = Parameter("table", np.ones((6, 2)))
        p.grad[...] = 7.0  # left over from a direct write before the first step
        set_grad_rows(p, np.array([1, 4]), np.array([[1.0, -0.0], [2.0, 3.0]]))
        want = np.zeros((6, 2))
        want[1], want[4] = [1.0, -0.0], [2.0, 3.0]
        assert p.grad.tobytes() == want.tobytes()
        np.testing.assert_array_equal(p.live_rows, [1, 4])
        # the next write zeroes the rows the last one wrote
        set_grad_rows(p, np.array([2]), np.array([[5.0, 5.0]]))
        want[:] = 0.0
        want[2] = 5.0
        assert p.grad.tobytes() == want.tobytes()
        np.testing.assert_array_equal(p.live_rows, [1, 2, 4])
        np.testing.assert_array_equal(p.grad_rows, [2])

    def test_record_starts_only_before_the_first_step(self):
        p = Parameter("table", np.ones((6, 2)))
        p.grad[2] = 1.0
        adam_step(p, 1e-3)  # m and v of row 2 are nonzero now
        set_grad_rows(p, np.array([1]), np.ones((1, 2)))
        assert p.live_rows is None
        adam_step(p, 1e-3)
        assert p.m[2].all()  # updated dense

    def test_record_is_dropped_past_half_the_rows(self):
        p = Parameter("table", np.ones((6, 2)))
        set_grad_rows(p, np.array([0, 1, 2]), np.ones((3, 2)))
        assert p.live_rows is not None  # half: kept
        set_grad_rows(p, np.array([5]), np.ones((1, 2)))
        assert p.live_rows is None and p.grad_rows is None
        want = np.zeros((6, 2))
        want[5] = 1.0
        assert p.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [40, 160])
    def test_row_path_bitwise_equals_dense(self, window):
        """Rows drawn from a sliding window: a window of 40 of 2,000 rows keeps
        the record, 160 crosses half the table mid-run and goes dense."""
        rng = np.random.default_rng(32)
        n_rows, width = 2000, 40  # 819 rows per gathered block: two blocks before half
        p = Parameter("table", rng.normal(size=(n_rows, width)))
        twin = Parameter("table", p.value.copy())
        tracked = []
        for step in range(12):
            lo = (step * window) % (n_rows - window)
            rows = np.unique(rng.integers(lo, lo + window, size=window))
            grad_rows = rng.normal(size=(rows.size, width))
            grad_rows[:, 0] = -0.0
            set_grad_rows(p, rows, grad_rows)
            tracked.append(p.live_rows is not None)
            step_with_dense_twin(p, twin)
        assert all(tracked) if window == 40 else tracked[0] and not tracked[-1]
        assert not p.grad.any()


class TestGradCheck:
    def test_correct_gradient_passes(self):
        rng = np.random.default_rng(16)
        a = Parameter("a", rng.normal(size=(3, 2)))
        target = rng.normal(size=(3, 2))

        def loss():
            diff = a.value - target
            a.grad[:] = 2 * diff
            return float(np.sum(diff**2))

        report = grad_check(loss, [a])
        assert report.passes(1e-6)
        assert report.max_rel_err < 1e-8

    def test_wrong_gradient_flagged_with_name(self):
        a = Parameter("good", np.array([1.0, 2.0]))
        b = Parameter("broken", np.array([3.0]))

        def loss():
            a.grad[:] = 2 * a.value
            b.grad[:] = 100.0  # should be 2*b
            return float(np.sum(a.value**2) + np.sum(b.value**2))

        report = grad_check(loss, [a, b])
        assert not report.passes(1e-4)
        assert report.worst_param == "broken"
