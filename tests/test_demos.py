"""The demos import only names the package still has; the quick numeric demo also runs."""
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


def test_check_numerics_demo_runs():
    demo = next(d for d in DEMOS if d.name == "check_numerics.py")
    import blendcnn
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(pathlib.Path(blendcnn.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")] if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "conv1d([1,2,3,4], [1,0,-1]) -> [-2. -2. -2.  3.]" in proc.stdout
    assert proc.stdout.rstrip().endswith("ok")
