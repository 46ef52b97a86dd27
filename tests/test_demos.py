"""The demos import only names the package still has; the quick ones also run."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "blendcnn"]
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (
                f"{demo.name}:{node.lineno} imports missing {node.module}.{alias.name}")


def test_demos_found():
    assert len(DEMOS) >= 5


def _run_demo(name, tmp_dir):
    """Run one demo in a fresh interpreter, with its temporary files under ``tmp_dir``."""
    demo = next(d for d in DEMOS if d.name == name)
    import blendcnn
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(pathlib.Path(blendcnn.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")] if p)
    env["TMPDIR"] = str(tmp_dir)
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_check_numerics_demo_runs(tmp_path):
    proc = _run_demo("check_numerics.py", tmp_path)
    assert "conv1d([1,2,3,4], [1,0,-1]) -> [-2. -2. -2.  3.]" in proc.stdout
    assert proc.stdout.rstrip().endswith("ok")


@pytest.mark.parametrize("name", ["text_pipeline.py", "train_small.py"])
def test_demo_runs_and_cleans_up_its_temporary_files(name, tmp_path):
    _run_demo(name, tmp_path)
    assert list(tmp_path.iterdir()) == []
