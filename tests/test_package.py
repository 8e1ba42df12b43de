"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pathlib

import rggembed
from rggembed import geometry


def test_geometry_all_resolves():
    missing = [name for name in geometry.__all__ if not hasattr(geometry, name)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(rggembed.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." + node.module, "rggembed")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(rggembed, alias.asname or alias.name)
