"""Model construction, forward/backward, checkpoints, and the pad contract."""
import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from blendcnn.numerics import (
    Parameter,
    adam_step,
    cross_entropy,
    cross_entropy_backward,
    grad_check,
)
from blendcnn import models
from blendcnn.models import (
    CheckpointError,
    ModelConfig,
    StaleCacheError,
    backward,
    forward,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from blendcnn.text import PAD_ID


def tiny_config(kind="blendcnn", **kw):
    base = dict(kind=kind, n_classes=3, seq_len=12, vocab_size=30, embed_dim=8,
                n_layers=3, n_channels=6, kernel_widths=(3, 5, 7), dense_width=7)
    base.update(kw)
    return ModelConfig(**base)


def random_batch(rng, config, n, max_len=None):
    max_len = max_len or config.seq_len
    lens = rng.integers(1, max_len + 1, size=n)
    ids = np.zeros((n, max_len), dtype=np.int64)
    for i, v in enumerate(lens):
        ids[i, :v] = rng.integers(2, config.vocab_size, size=v)
    return ids, lens


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            tiny_config(kind="transformer")

    def test_rejects_even_kernel_width(self):
        with pytest.raises(ValueError, match="odd"):
            tiny_config(kernel_width=4)
        with pytest.raises(ValueError, match="odd"):
            tiny_config(kernel_widths=(3, 4, 5))

    def test_rejects_repeated_or_no_kernel_widths(self):
        # each width names one parameter block, so a repeat would share weights
        with pytest.raises(ValueError, match="distinct"):
            tiny_config(kind="kimcnn", kernel_widths=(3, 5, 3))
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(kind="kimcnn", kernel_widths=())

    @pytest.mark.parametrize("field, value", [("n_classes", 4.0), ("seq_len", True),
                                              ("vocab_size", "30"), ("kernel_widths", (3, 5.0))])
    def test_rejects_an_extent_that_is_not_an_int(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive int"):
            tiny_config(**{field: value})

    def test_rejects_dropout_one(self):
        with pytest.raises(ValueError):
            tiny_config(kind="kimcnn", dropout=1.0)

    def test_round_trips_through_dict(self):
        cfg = tiny_config(kind="kimcnn", dropout=0.25)
        # through JSON, as a checkpoint header stores it: kernel_widths comes back a list
        assert ModelConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


class TestInit:
    def test_blendcnn_parameter_names(self):
        state = init_model(tiny_config(), seed=0)
        names = {p.name for p in state.parameters()}
        assert names == {
            "embedding", "conv1.w", "conv1.b", "conv2.w", "conv2.b",
            "conv3.w", "conv3.b", "blend.w", "blend.b", "logits.w", "logits.b",
        }

    def test_kimcnn_parameter_names(self):
        state = init_model(tiny_config(kind="kimcnn"), seed=0)
        names = {p.name for p in state.parameters()}
        assert names == {
            "embedding", "convw3.w", "convw3.b", "convw5.w", "convw5.b",
            "convw7.w", "convw7.b", "logits.w", "logits.b",
        }

    def test_pad_row_zero_and_embeddings_bounded(self):
        state = init_model(tiny_config(), seed=1)
        emb = state.param("embedding").value
        np.testing.assert_array_equal(emb[PAD_ID], np.zeros(8))
        assert np.all(np.abs(emb[1:]) <= 0.05)

    def test_given_embeddings_are_copied_with_pad_zeroed(self):
        cfg = tiny_config()
        table = np.arange(30 * 8, dtype=np.float64).reshape(30, 8)
        state = init_model(cfg, seed=1, embeddings=table)
        emb = state.param("embedding").value
        np.testing.assert_array_equal(emb[PAD_ID], np.zeros(8))
        np.testing.assert_array_equal(emb[1:], table[1:])
        assert table[PAD_ID, 1] == 1.0  # the caller's table is left alone
        with pytest.raises(ValueError, match="does not match"):
            init_model(cfg, seed=1, embeddings=table[:, :4])

    def test_conv_weights_within_glorot_bound(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=2)
        w = state.param("conv1.w").value
        fan_in = 5 * cfg.embed_dim
        fan_out = 5 * cfg.n_channels
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
        np.testing.assert_array_equal(state.param("conv1.b").value, np.zeros(6))

    def test_same_seed_same_weights(self):
        a = init_model(tiny_config(), seed=7)
        b = init_model(tiny_config(), seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)


class TestForward:
    def test_blendcnn_logit_shape(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=0)
        ids, lens = random_batch(np.random.default_rng(0), cfg, 4)
        logits, cache = forward(state, ids, lens)
        assert logits.shape == (4, 3)
        assert cache.concat.shape == (4, cfg.n_layers * cfg.n_channels)

    @pytest.mark.parametrize("layers", range(1, 9))
    def test_concat_width_tracks_depth(self, layers):
        cfg = tiny_config(n_layers=layers, seq_len=10)
        state = init_model(cfg, seed=0)
        ids, lens = random_batch(np.random.default_rng(layers), cfg, 2)
        _, cache = forward(state, ids, lens)
        assert cache.concat.shape[1] == layers * cfg.n_channels

    def test_kimcnn_concat_is_width_sum(self):
        cfg = tiny_config(kind="kimcnn")
        state = init_model(cfg, seed=0)
        ids, lens = random_batch(np.random.default_rng(1), cfg, 2)
        _, cache = forward(state, ids, lens)
        assert cache.concat.shape[1] == 3 * cfg.n_channels

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    def test_pad_extension_is_bitwise_invisible(self, kind):
        cfg = tiny_config(kind=kind)
        state = init_model(cfg, seed=3)
        rng = np.random.default_rng(4)
        ids, lens = random_batch(rng, cfg, 5, max_len=8)
        base, _ = forward(state, ids, lens)
        for extra in (1, 4):  # same tokens, more trailing PAD columns
            wider = np.zeros((5, 8 + extra), dtype=np.int64)
            wider[:, :8] = ids
            again, _ = forward(state, wider, lens)
            assert np.array_equal(base, again)

    def test_repeat_forward_is_bitwise_stable(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=5)
        ids, lens = random_batch(np.random.default_rng(6), cfg, 3)
        a, _ = forward(state, ids, lens)
        b, _ = forward(state, ids, lens)
        assert np.array_equal(a, b)

    def test_valid_len_zero_rejected(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=0)
        with pytest.raises(ValueError):
            forward(state, np.zeros((1, 4), dtype=np.int64), np.array([0]))

    def test_overlong_batch_rejected(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=0)
        ids = np.zeros((1, cfg.seq_len + 1), dtype=np.int64)
        ids[0, 0] = 2
        with pytest.raises(ValueError):
            forward(state, ids, np.array([1]))

    def test_out_of_vocab_id_rejected(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=0)
        ids = np.full((1, 3), cfg.vocab_size, dtype=np.int64)
        with pytest.raises(ValueError):
            forward(state, ids, np.array([3]))


class TestDropout:
    def test_train_mode_needs_rng(self):
        state = init_model(tiny_config(kind="kimcnn", dropout=0.5), seed=0)
        ids, lens = random_batch(np.random.default_rng(0), state.config, 2)
        with pytest.raises(ValueError, match="rng"):
            forward(state, ids, lens, train=True)

    def test_eval_mode_has_no_mask(self):
        state = init_model(tiny_config(kind="kimcnn", dropout=0.5), seed=0)
        ids, lens = random_batch(np.random.default_rng(0), state.config, 2)
        _, cache = forward(state, ids, lens)
        assert cache.dropout_mask is None

    def test_zero_dropout_train_equals_eval(self):
        state = init_model(tiny_config(kind="kimcnn", dropout=0.0), seed=0)
        ids, lens = random_batch(np.random.default_rng(1), state.config, 2)
        train_logits, _ = forward(state, ids, lens, train=True,
                                  rng=np.random.default_rng(0))
        eval_logits, _ = forward(state, ids, lens)
        assert np.array_equal(train_logits, eval_logits)

    def test_blendcnn_train_mode_draws_nothing(self):
        # BlendCNN has no dropout, whatever the config's dropout says
        state = init_model(tiny_config(dropout=0.5), seed=0)
        ids, lens = random_batch(np.random.default_rng(4), state.config, 3)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        train_logits, cache = forward(state, ids, lens, train=True, rng=rng)
        assert rng.bit_generator.state == before
        assert cache.dropout_mask is None
        eval_logits, _ = forward(state, ids, lens)
        assert np.array_equal(train_logits, eval_logits)

    def test_masks_differ_across_draws(self):
        state = init_model(tiny_config(kind="kimcnn", dropout=0.5), seed=0)
        ids, lens = random_batch(np.random.default_rng(2), state.config, 4)
        rng = np.random.default_rng(3)
        _, c1 = forward(state, ids, lens, train=True, rng=rng)
        _, c2 = forward(state, ids, lens, train=True, rng=rng)
        assert not np.array_equal(c1.dropout_mask, c2.dropout_mask)


class TestBackward:
    @staticmethod
    def _ce_loss(state, ids, lens, labels):
        def loss():
            # fixed dropout seed keeps the loss a deterministic function of the weights
            fwd_rng = np.random.default_rng(99)
            logits, cache = forward(state, ids, lens, train=True, rng=fwd_rng)
            value = cross_entropy(logits, labels)
            backward(state, cache, cross_entropy_backward(logits, labels))
            return value
        return loss

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    def test_grad_check_whole_model(self, kind):
        # full-length batch: no PAD positions, so even the embedding rows are
        # free parameters and every gradient must match finite differences
        cfg = tiny_config(kind=kind)
        state = init_model(cfg, seed=11)
        rng = np.random.default_rng(12)
        ids = rng.integers(2, cfg.vocab_size, size=(2, cfg.seq_len))
        lens = np.full(2, cfg.seq_len)
        labels = rng.integers(0, 3, size=2)
        report = grad_check(self._ce_loss(state, ids, lens, labels), state.parameters())
        assert report.passes(1e-4), f"worst {report.worst_param}: {report.max_rel_err}"

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    def test_grad_check_masked_pool_path(self, kind):
        # short examples exercise the valid_len mask; the embedding is excluded
        # because its PAD row is frozen by policy (conv windows that cross the
        # valid boundary make the loss genuinely sensitive to it)
        cfg = tiny_config(kind=kind)
        state = init_model(cfg, seed=11)
        rng = np.random.default_rng(12)
        params = [p for p in state.parameters() if p.name != "embedding"]
        for p in params:
            # zero-initialized biases put all-pad positions exactly on the relu
            # kink; finite differences need a generic point
            p.value += rng.normal(scale=0.05, size=p.value.shape)
        ids, lens = random_batch(rng, cfg, 2, max_len=7)
        labels = rng.integers(0, 3, size=2)
        report = grad_check(self._ce_loss(state, ids, lens, labels), params)
        assert report.passes(1e-4), f"worst {report.worst_param}: {report.max_rel_err}"

    def test_pad_embedding_grad_is_zero(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=13)
        ids, lens = random_batch(np.random.default_rng(14), cfg, 3)
        logits, cache = forward(state, ids, lens)
        backward(state, cache, np.ones_like(logits))
        np.testing.assert_array_equal(state.param("embedding").grad[PAD_ID], np.zeros(8))

    def test_pad_row_survives_training_steps(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=15)
        rng = np.random.default_rng(16)
        for _ in range(5):
            ids, lens = random_batch(rng, cfg, 4)
            logits, cache = forward(state, ids, lens)
            backward(state, cache, rng.normal(size=logits.shape))
            for p in state.parameters():
                adam_step(p, 1e-3)
            state.bump_version()
        np.testing.assert_array_equal(state.param("embedding").value[PAD_ID], np.zeros(8))

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    def test_backward_overwrites_and_does_not_accumulate(self, kind):
        cfg = tiny_config(kind=kind)
        state = init_model(cfg, seed=19)
        rng = np.random.default_rng(20)
        ids, lens = random_batch(rng, cfg, 3)
        logits, cache = forward(state, ids, lens, train=True, rng=rng)
        dlogits = rng.normal(size=logits.shape)
        backward(state, cache, dlogits)
        first = {p.name: p.grad.copy() for p in state.parameters()}
        backward(state, cache, dlogits)
        for p in state.parameters():
            assert np.any(first[p.name] != 0.0), p.name
            assert np.array_equal(p.grad, first[p.name]), p.name

    def test_kimcnn_sums_embedding_grads_in_forward_stage_order(self, monkeypatch):
        # stage inputs get gradients 1, 1e-16, 1e-16: (1 + 1e-16) + 1e-16 == 1
        # exactly, while summing in any other order rounds up past 1
        real = models.conv1d_backward

        def constant_dx(x, w, dout):
            d_x, dw, db = real(x, w, dout)
            return np.full_like(d_x, 1.0 if w.shape[0] == 3 else 1e-16), dw, db

        monkeypatch.setattr(models, "conv1d_backward", constant_dx)
        cfg = tiny_config(kind="kimcnn", kernel_widths=(3, 5, 7))
        state = init_model(cfg, seed=27)
        ids, lens = random_batch(np.random.default_rng(28), cfg, 3)
        logits, cache = forward(state, ids, lens)
        backward(state, cache, np.ones_like(logits))
        counts = np.bincount(cache.token_ids.ravel(), minlength=cfg.vocab_size)
        counts[PAD_ID] = 0
        grad = state.param("embedding").grad
        np.testing.assert_array_equal(grad, np.repeat(counts[:, None], cfg.embed_dim, axis=1))

    def test_embedding_grad_bitwise_equals_add_at(self):
        """The bincount sums are np.add.at's into zeros, signed zeros included."""
        cfg = tiny_config(vocab_size=30, embed_dim=4)
        state = init_model(cfg, seed=29)
        rng = np.random.default_rng(30)
        for _ in range(3):  # each call also zeroes the rows the call before wrote
            ids = rng.integers(0, 8, size=(3, cfg.seq_len))  # repeats, and PAD ids
            ids[0, :4] = [5, 5, 6, PAD_ID]
            d_embedded = rng.normal(size=ids.shape + (cfg.embed_dim,))
            d_embedded[ids == 7] = -0.0  # 0.0 + -0.0 is +0.0
            d_embedded[0, 1] = -d_embedded[0, 0]  # row 5 cancels to exactly zero
            want = np.zeros((cfg.vocab_size, cfg.embed_dim))
            keep = ids.reshape(-1) != PAD_ID
            np.add.at(want, ids.reshape(-1)[keep],
                      d_embedded.reshape(-1, cfg.embed_dim)[keep])
            models._embedding_grad(state, ids, d_embedded)
            assert state.param("embedding").grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    def test_repeated_backward_leaves_the_same_grad_bytes(self, kind):
        """backward run again without a step, as grad_check runs it, writes the same bytes."""
        cfg = tiny_config(kind=kind, vocab_size=1000)
        state = init_model(cfg, seed=31)
        rng = np.random.default_rng(32)
        for step in range(3):  # the last pass runs on a stepped, row-tracked embedding
            ids, lens = random_batch(rng, cfg, 4)
            other = random_batch(rng, cfg, 4)
            logits, cache = forward(state, ids, lens)
            dlogits = rng.normal(size=logits.shape)
            backward(state, cache, dlogits)
            once = [p.grad.tobytes() for p in state.parameters()]
            logits, other_cache = forward(state, *other)
            backward(state, other_cache, rng.normal(size=logits.shape))
            backward(state, cache, dlogits)
            assert [p.grad.tobytes() for p in state.parameters()] == once
            assert state.param("embedding").live_rows is not None
            for p in state.parameters():
                adam_step(p, 1e-2)
            state.bump_version()

    def test_stale_cache_rejected(self):
        cfg = tiny_config()
        state = init_model(cfg, seed=17)
        ids, lens = random_batch(np.random.default_rng(18), cfg, 2)
        logits, cache = forward(state, ids, lens)
        state.bump_version()
        with pytest.raises(StaleCacheError):
            backward(state, cache, np.ones_like(logits))


class TestEmbeddingRowPath:
    """A row-tracked embedding trains to the bytes of one updated dense."""

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    @pytest.mark.parametrize("shape", ["stays_tracked", "crosses_half"])
    def test_training_matches_a_dense_twin(self, kind, shape):
        cfg = tiny_config(kind=kind, vocab_size=2000, dropout=0.5)
        state = init_model(cfg, seed=33)
        emb = state.param("embedding")
        twin = Parameter("embedding", emb.value.copy())  # written directly: updated dense
        rng = np.random.default_rng(34)
        tracked = []
        for step in range(14):
            if shape == "stays_tracked":
                pool = np.arange(100, 140)  # 40 rows of 2,000
            else:  # 130 fresh rows a step: past half the table after about ten
                pool = np.arange(2 + 130 * step, 2 + 130 * (step + 1))
            lens = rng.integers(cfg.seq_len // 2, cfg.seq_len + 1, size=24)
            ids = np.where(np.arange(cfg.seq_len) < lens[:, None],
                           rng.choice(pool, size=(24, cfg.seq_len)), PAD_ID)
            logits, cache = forward(state, ids, lens, train=True, rng=rng)
            backward(state, cache, rng.normal(size=logits.shape))
            tracked.append(emb.live_rows is not None)
            twin.grad[...] = emb.grad
            adam_step(twin, 1e-2)
            for p in state.parameters():
                adam_step(p, 1e-2)
            state.bump_version()
            for got, want in ((emb.value, twin.value), (emb.m, twin.m), (emb.v, twin.v)):
                assert got.tobytes() == want.tobytes(), step
        if shape == "stays_tracked":
            assert all(tracked)
        else:
            assert tracked[0] and not tracked[-1]


class TestParamCount:
    def test_published_shape_formula(self):
        # 3-layer, vocab 20000, embed 100, 100 channels, width 5, 4 classes
        cfg = ModelConfig(kind="blendcnn", n_classes=4, seq_len=128, vocab_size=20000)
        total, breakdown = param_count(cfg)
        assert breakdown["embedding"] == 2_000_000
        assert breakdown["conv1"] == 50_100
        assert breakdown["blend"] == 30_100
        assert breakdown["logits"] == 404
        assert total == 2_180_804

    @pytest.mark.parametrize("kind", ["blendcnn", "kimcnn"])
    @pytest.mark.parametrize("layers,classes", [(1, 2), (4, 10), (8, 14)])
    def test_matches_enumeration(self, kind, layers, classes):
        cfg = tiny_config(kind=kind, n_layers=layers, n_classes=classes)
        total, breakdown = param_count(cfg)
        state = init_model(cfg, seed=0)
        assert total == sum(p.value.size for p in state.parameters())
        assert total == sum(breakdown.values())


def _tiny_checkpoint(tmp_path):
    """Bytes of a small real checkpoint: few enough that every cut can be tried."""
    cfg = tiny_config(n_classes=2, vocab_size=4, embed_dim=2, n_layers=1,
                      n_channels=2, dense_width=2)
    path = tmp_path / "small.ckpt"
    save_checkpoint(init_model(cfg, seed=27), path)
    return path.read_bytes()


def _with_header(blob, edit):
    """``blob`` with its JSON header replaced by ``edit(header)``."""
    n = int.from_bytes(blob[12:16], "little")
    raw = json.dumps(edit(json.loads(blob[16:16 + n]))).encode()
    return blob[:12] + len(raw).to_bytes(4, "little") + raw + blob[16 + n:]


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _entry(i, edit):
    """A header edit applying ``edit`` to parameter entry ``i``."""
    return lambda h: {**h, "params": [edit(e) if j == i else e
                                      for j, e in enumerate(h["params"])]}


def _shift(i, key, delta):
    return _entry(i, lambda e: {**e, key: e[key] + delta})


_HEADER_DAMAGE = {
    "no_config": lambda h: _without(h, "config"),
    "no_params": lambda h: _without(h, "params"),
    "no_seed": lambda h: _without(h, "seed"),
    "unknown_config_key": lambda h: {**h, "config": {**h["config"], "depth": 3}},
    "bad_config_value": lambda h: {**h, "config": {**h["config"], "n_classes": 0}},
    "not_an_object": lambda h: [h],
    "entry_without_nbytes": _entry(0, lambda e: _without(e, "nbytes")),
    "shape_not_a_list": _entry(0, lambda e: {**e, "shape": "x"}),
    "nbytes_short_of_shape": _shift(0, "nbytes", -8),
    "nbytes_past_shape": _shift(1, "nbytes", 8),
    "first_block_not_at_zero": _shift(0, "offset", 8),
    "gap_between_blocks": _shift(2, "offset", 8),
    "overlapping_blocks": _shift(2, "offset", -8),
    "repeated_entry": lambda h: {**h, "params": h["params"] + h["params"][-1:]},
    "float_extent": lambda h: {**h, "config": {**h["config"], "n_classes": 2.0}},
    "bool_extent": lambda h: {**h, "config": {**h["config"], "seq_len": True}},
    "float_kernel_width": lambda h: {**h, "config": {**h["config"], "kernel_widths": [3.0]}},
    "seed_not_an_int": lambda h: {**h, "seed": "abc"},
}


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = tiny_config(kind="kimcnn", dropout=0.3)
        state = init_model(cfg, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        again = load_checkpoint(path)
        assert again.config == cfg
        assert again.seed == 21
        for a, b in zip(state.parameters(), again.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)

    def test_write_is_deterministic(self, tmp_path):
        state = init_model(tiny_config(), seed=22)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(state, p1)
        save_checkpoint(state, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_computes_identical_logits(self, tmp_path):
        cfg = tiny_config()
        state = init_model(cfg, seed=23)
        ids, lens = random_batch(np.random.default_rng(24), cfg, 3)
        want, _ = forward(state, ids, lens)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        got, _ = forward(load_checkpoint(path), ids, lens)
        assert np.array_equal(want, got)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        blob = _tiny_checkpoint(tmp_path)
        path = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    @pytest.mark.parametrize("damage", sorted(_HEADER_DAMAGE))
    def test_header_damage_rejected(self, tmp_path, damage):
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(_with_header(_tiny_checkpoint(tmp_path), _HEADER_DAMAGE[damage]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("junk", [b"\x00", b"\x00" * 8, b"trailing junk"])
    def test_trailing_bytes_rejected(self, tmp_path, junk):
        path = tmp_path / "long.ckpt"
        path.write_bytes(_tiny_checkpoint(tmp_path) + junk)
        with pytest.raises(CheckpointError, match="after the last parameter block"):
            load_checkpoint(path)

    def test_header_length_past_the_file_rejected(self, tmp_path):
        blob = bytearray(_tiny_checkpoint(tmp_path))
        blob[12:16] = len(blob).to_bytes(4, "little")
        path = tmp_path / "long_header.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated header"):
            load_checkpoint(path)

    def test_rewritten_header_still_loads(self, tmp_path):
        path = tmp_path / "same.ckpt"
        path.write_bytes(_with_header(_tiny_checkpoint(tmp_path), lambda h: h))
        assert load_checkpoint(path).seed == 27

    @staticmethod
    def _edited(tmp_path, edit):
        """A small checkpoint whose header's block table is ``edit(params)``."""
        path = tmp_path / "model.ckpt"
        path.write_bytes(_with_header(_tiny_checkpoint(tmp_path),
                                      lambda h: {**h, "params": edit(h["params"])}))
        return path

    def test_missing_parameter_rejected(self, tmp_path):
        path = self._edited(tmp_path, lambda ps: [e for e in ps if e["name"] != "blend.w"])
        with pytest.raises(CheckpointError, match="missing blend.w"):
            load_checkpoint(path)

    def test_extra_parameter_rejected(self, tmp_path):
        path = self._edited(tmp_path, lambda ps: ps + [
            {"name": "conv9.w", "shape": [5, 6, 6], "offset": 0, "nbytes": 8 * 180}])
        with pytest.raises(CheckpointError, match="unexpected conv9.w"):
            load_checkpoint(path)

    def test_misshapen_parameter_rejected(self, tmp_path):
        path = self._edited(tmp_path, lambda ps: [
            {**e, "shape": [4]} if e["name"] == "logits.b" else e for e in ps])
        with pytest.raises(CheckpointError, match=r"logits.b has shape \(4,\)"):
            load_checkpoint(path)

    def test_reordered_blocks_that_still_tile_rejected(self, tmp_path):
        # the first two blocks swapped, offsets rewritten so they still tile the payload
        def swap(ps):
            first, second = ps[0], ps[1]
            return [{**second, "offset": 0}, {**first, "offset": second["nbytes"]}, *ps[2:]]
        path = self._edited(tmp_path, swap)
        with pytest.raises(CheckpointError, match="where the layout has"):
            load_checkpoint(path)

    def test_save_refuses_a_misshapen_parameter(self, tmp_path):
        state = init_model(tiny_config(), seed=26)
        state.params["logits.b"] = Parameter("logits.b", np.zeros(4))
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match=r"logits.b has shape \(4,\)"):
            save_checkpoint(state, path)
        assert not path.exists()

    @pytest.mark.parametrize("kind, digest", [
        ("blendcnn", "fbb32000c768b5b9b1020fb4b54f9ab265c95662f81a82c79adf6be66d334f5b"),
        ("kimcnn", "f8a6bd5fb0dfef69b8fefd3b3887671faf2a9e736c833ae8ef584b37544c6a9d"),
    ])
    def test_bytes_are_pinned(self, tmp_path, kind, digest):
        # a fixed-seed checkpoint's bytes; they change only with the format
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(tiny_config(kind=kind, kernel_widths=(5, 3)), seed=31), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
