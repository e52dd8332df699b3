import ast
import importlib
from pathlib import Path

import pytest

import irschain

MODULES = sorted(Path(irschain.__file__).parent.glob("*.py"))


def test_every_export_resolves_once():
    names = irschain.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(irschain, name)]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_is_imported_from_a_sibling_module(path):
    # a private helper lives in the one module that calls it
    imported = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "irschain")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_retired_test_only_helpers_stay_out(path):
    # tests/reference.py holds these; upa_response is the one array response
    name = "irschain" if path.stem == "__init__" else f"irschain.{path.stem}"
    module = importlib.import_module(name)
    retired = ("steering_vector", "ula_response", "optimal_reflection_phases", "chain_geometry")
    assert [attr for attr in retired if hasattr(module, attr)] == []
