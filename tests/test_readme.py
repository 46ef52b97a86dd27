"""The README's command lines and Python imports name only what the package has (not run)."""
import ast
import importlib
import pathlib
import re

from blendcnn import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def cli_blocks():
    """Fenced blocks of the README that invoke ``blendcnn``, as text."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    return [b for b in blocks if re.search(r"^blendcnn ", b, re.MULTILINE)]


def test_readme_commands_exist():
    subcommands = [m for b in cli_blocks() for m in re.findall(r"^blendcnn +(\S+)", b, re.MULTILINE)]
    assert subcommands, "README has no blendcnn command block"
    for name in subcommands:
        assert name in cli._COMMANDS, f"README runs unknown subcommand {name!r}"


def test_readme_set_keys_exist():
    # command blocks and prose alike; --set KEY=VALUE, the placeholder, is no key
    keys = re.findall(r"--set +([a-z_]+\.[a-z_]+)=", README.read_text())
    assert keys, "README sets no config key"
    for key in keys:
        assert key in cli._DEFAULTS, f"README sets unknown config key {key!r}"


def test_readme_flags_exist():
    flags = {f for b in cli_blocks() for f in re.findall(r"(?<![\w-])(--[\w-]+)", b)}
    assert flags, "README passes no flag"
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    known = {opt for p in [parser, *sub.choices.values()]
             for a in p._actions for opt in a.option_strings}
    assert flags <= known, f"README passes unknown flags {sorted(flags - known)}"


def test_readme_python_imports_resolve():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    imports = [node for b in blocks for node in ast.walk(ast.parse(b))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "blendcnn"]
    assert imports, "README imports nothing from blendcnn"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (
                f"README imports missing {node.module}.{alias.name}")
