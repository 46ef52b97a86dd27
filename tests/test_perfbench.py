"""The benchmark under perfbench/ reaches the package by attribute name.

It wraps functions where callers look them up (``distill.train_direct``,
``models.ModelState.bump_version``, ...), so renaming or inlining one of them
breaks the benchmark without breaking any other test.  These checks keep every
wrapped name resolvable and the shortest protocol-desk and train-paper runs
passing.
"""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, imported without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_resolves(tracing):
    targets = [pair for _, owners in tracing.TRACED for pair in owners]
    for probe in (tracing.StepClock(), tracing.ArmRecorder()):
        targets += [(owner, attr) for owner, attr, _ in probe.replacements()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing


def shortest_run(workload, trace):
    """The last line of a one-second perfbench run, parsed; it must be correct."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_shortest_protocol_run_is_correct(trace):
    result = shortest_run("protocol-desk", trace)
    if trace:
        # the protocol's own calls went through the wrappers
        for name in ("distill.make_surrogate_teacher", "distill.train_distill",
                     "distill.infer_logits", "distill.evaluate"):
            assert result["metrics"][f"{name}.calls"]["value"] >= 1, name


@pytest.mark.parametrize("trace", [0, 1])
def test_shortest_train_paper_run_is_correct(trace):
    """The paper-shape training run: the only one whose embedding Adam takes tracked rows."""
    result = shortest_run("train-paper", trace)
    if trace:
        assert result["metrics"]["numerics.adam_step.embedding.calls"]["value"] >= 1
