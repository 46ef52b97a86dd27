"""Call wrapping for the benchmark: a span tracer and light probes.

Every wrapper is installed at the module attribute a caller looks the
function up by (``blendcnn.models.conv1d`` is the name ``models.forward``
calls, ``blendcnn.distill.adam_step`` the name the training loop calls), and
is removed again when the ``patched`` context ends.  Nothing under ``src/``
knows about any of this.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

import numpy as np

from blendcnn import distill, models, synthetic, text


@contextlib.contextmanager
def patched(replacements):
    """Swap ``(owner, attribute, value)`` triples in, and back out on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def model_tag(config) -> str:
    """Short architecture name: ``blendcnn3``, ``blendcnn8`` or ``kimcnn``."""
    return "kimcnn" if config.kind == "kimcnn" else f"blendcnn{config.n_layers}"


# ---------------------------------------------------------------------------
# probes for the untraced run: per-step clock and arm ledgers


class StepClock:
    """Times each train step, from the train-mode forward to ``bump_version``.

    Costs two clock reads per step, so the untraced run keeps it on.
    """

    def __init__(self):
        self.steps = {}  # model tag -> [seconds per step]
        self._open = {}

    def replacements(self):
        forward = distill.forward
        bump = models.ModelState.bump_version

        def timed_forward(state, *args, **kwargs):
            if kwargs.get("train"):
                self._open[id(state)] = time.perf_counter()
            return forward(state, *args, **kwargs)

        def timed_bump(state):
            bump(state)
            start = self._open.pop(id(state), None)
            if start is not None:
                elapsed = time.perf_counter() - start
                self.steps.setdefault(model_tag(state.config), []).append(elapsed)

        return [(distill, "forward", timed_forward),
                (models.ModelState, "bump_version", timed_bump)]


class ArmRecorder:
    """Keeps the ledger and wall time of every training call of the protocol.

    ``run_distillation_protocol`` drops the ledgers it gets back, so the
    benchmark picks them up at ``distill.train_direct`` and
    ``distill.train_distill`` to check that every loss is finite.
    """

    def __init__(self):
        self.arms = []  # (function name, model tag, seconds, ledger)

    def replacements(self):
        def recorded(name, fn):
            def call(state, *args, **kwargs):
                start = time.perf_counter()
                out = fn(state, *args, **kwargs)
                self.arms.append((name, model_tag(state.config),
                                  time.perf_counter() - start, out[1]))
                return out
            return call

        return [(distill, name, recorded(name, getattr(distill, name)))
                for name in ("train_direct", "train_distill")]


# ---------------------------------------------------------------------------
# the traced run

# (span name, [(module, attribute), ...]): every name a caller reaches the
# function by.  ``numerics.adam_step`` is split by parameter below.
TRACED = [
    ("numerics.conv1d", [(models, "conv1d")]),
    ("numerics.conv1d_backward", [(models, "conv1d_backward")]),
    ("numerics.relu", [(models, "relu")]),
    ("numerics.relu_backward", [(models, "relu_backward")]),
    ("numerics.masked_max_pool", [(models, "masked_max_pool")]),
    ("numerics.max_pool_backward", [(models, "max_pool_backward")]),
    ("numerics.affine", [(models, "affine")]),
    ("numerics.affine_backward", [(models, "affine_backward")]),
    ("numerics.mae_loss", [(distill, "mae_loss")]),
    ("numerics.mae_loss_backward", [(distill, "mae_loss_backward")]),
    ("numerics.cross_entropy", [(distill, "cross_entropy")]),
    ("numerics.cross_entropy_backward", [(distill, "cross_entropy_backward")]),
    ("numerics.adam_step", [(distill, "adam_step")]),
    ("models.forward", [(models, "forward"), (distill, "forward")]),
    ("models.backward", [(distill, "backward")]),
    ("models.init_model", [(models, "init_model"), (distill, "init_model")]),
    ("models.save_checkpoint", [(distill, "save_checkpoint")]),
    ("distill.make_surrogate_teacher", [(distill, "make_surrogate_teacher")]),
    ("distill.train_direct", [(distill, "train_direct")]),
    ("distill.train_distill", [(distill, "train_distill")]),
    ("distill.infer_logits", [(distill, "infer_logits")]),
    ("distill.evaluate", [(distill, "evaluate")]),
    ("text.build_vocab", [(text, "build_vocab")]),
    ("text.encode_dataset", [(text, "encode_dataset")]),
    ("synthetic.generate_docs", [(synthetic, "generate_docs")]),
]

# the names reported, in order: adam_step is one function split by parameter
REPORTED = [name for name, _ in TRACED if name != "numerics.adam_step"]
REPORTED[REPORTED.index("numerics.cross_entropy_backward") + 1:0] = [
    "numerics.adam_step.embedding", "numerics.adam_step.other"]


def _conv_flops(x, kernels):
    """2*B*L*K*Cin*Cout multiply-adds of one same-padded conv GEMM."""
    width, c_in, c_out = kernels.shape
    rows = x.shape[0] * x.shape[1] if x.ndim == 3 else x.shape[0]
    return 2.0 * rows * width * c_in * c_out


class Tracer:
    """In-memory spans ``(name, start, end, parent, phase)`` plus counters.

    ``phase`` labels a stretch of work: the benchmark sets it (``setup``,
    ``run``), and a training call sets it to ``<function>:<model>`` for its
    duration, so one run can be split by model afterwards.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._open = []  # indices into spans of the calls in progress
        self.counters = {}

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, name, fn, before=None, after=None, phase=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if before is not None:
                before(args)
            outer = self.phase
            if phase is not None:
                self.phase = phase(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.phase)
                self.phase = outer
                if after is not None:
                    after(args)

        return traced

    def replacements(self):
        hooks = {
            "numerics.conv1d": dict(before=lambda a: self.count(
                "conv1d.flop", _conv_flops(a[0], a[1]))),
            "numerics.conv1d_backward": dict(before=lambda a: self.count(
                "conv1d_backward.flop", 2 * _conv_flops(a[0], a[1]))),
            "models.backward": dict(before=self._count_embedding_rows),
            "models.save_checkpoint": dict(after=lambda a: self.count(
                "save_checkpoint.bytes", os.path.getsize(a[1]))),
            "numerics.adam_step": dict(name=lambda a: "numerics.adam_step." + (
                "embedding" if a[0].name == "embedding" else "other")),
        }
        # spans inside a training call carry "<function>:<model>" as their phase
        for fn in ("train_direct", "train_distill"):
            hooks[f"distill.{fn}"] = dict(
                phase=lambda a, fn=fn: f"{fn}:{model_tag(a[0].config)}")
        out = []
        for name, owners in TRACED:
            extra = dict(hooks.get(name, {}))
            span_name = extra.pop("name", name)
            # one wrapper per function, shared by every name it is reached by
            wrapper = self._wrap(span_name, getattr(*owners[0]), **extra)
            out += [(owner, attr, wrapper) for owner, attr in owners]
        return out

    def _count_embedding_rows(self, args):
        state, cache = args[0], args[1]
        vocab, dim = state.param("embedding").value.shape
        self.count("embedding.touched_share", np.unique(cache.token_ids).size / vocab)
        self.count("embedding.grad_bytes", vocab * dim * 8)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def by_name(self, phase=None):
        """name -> (calls, self seconds, [inclusive seconds per call])."""
        table = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, span_phase = span
            if phase is not None and span_phase != phase:
                continue
            calls, self_s, durations = table.get(name, (0, 0.0, []))
            durations.append(end - start)
            table[name] = (calls + 1, self_s + own, durations)
        return table

    def per_layer(self, overhead_share):
        """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
        table = self.by_name()
        out = {}
        for name in REPORTED:
            calls, self_s, durations = table.get(name, (0, 0.0, []))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.p50_ms"] = (1e3 * statistics.median(durations) if durations else 0.0,
                                     "ms")

        def rate(counter, name):
            seconds = table.get(name, (0, 0.0))[1]
            return self.counters.get(counter, 0.0) / seconds / 1e9 if seconds else 0.0

        def per_call(name):
            calls, self_s, _ = table.get(name, (0, 0.0, []))
            return self_s / calls if calls else 0.0

        def mean(counter, name):
            calls = table.get(name, (0,))[0]
            return self.counters.get(counter, 0.0) / calls if calls else 0.0

        forward_call = per_call("numerics.conv1d")
        out.update({
            "numerics.conv1d.gflop_per_s": (rate("conv1d.flop", "numerics.conv1d"), "GFLOP/s"),
            "numerics.conv1d_backward.gflop_per_s": (
                rate("conv1d_backward.flop", "numerics.conv1d_backward"), "GFLOP/s"),
            "numerics.conv1d_backward.to_forward_ratio": (
                per_call("numerics.conv1d_backward") / forward_call if forward_call else 0.0,
                "ratio"),
            "numerics.adam_step.embedding.touched_row_share": (
                mean("embedding.touched_share", "models.backward"), "share"),
            "models.backward.embedding_grad_mb": (
                mean("embedding.grad_bytes", "models.backward") / 1e6, "MB"),
            "models.save_checkpoint.mb": (
                mean("save_checkpoint.bytes", "models.save_checkpoint") / 1e6, "MB"),
            "trace.overhead_share": (overhead_share, "share"),
        })
        return out

    def step_split(self, phase):
        """Forward, backward and Adam milliseconds per train step in ``phase``."""
        table = self.by_name(phase)
        steps = table.get("models.backward", (0,))[0]
        if not steps:
            return None

        def ms(*names):
            return 1e3 * sum(sum(table.get(n, (0, 0.0, []))[2]) for n in names) / steps

        return {
            "steps": steps,
            "forward_ms": ms("models.forward"),
            "backward_ms": ms("models.backward"),
            "adam_ms": ms("numerics.adam_step.embedding", "numerics.adam_step.other"),
            "adam_embedding_ms": ms("numerics.adam_step.embedding"),
        }

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
