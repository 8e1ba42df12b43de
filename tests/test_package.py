"""Every exported name resolves, so a deletion cannot leave a stale export;
importing the package stays light."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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


def test_import_leaves_scipy_stats_out():
    # scipy.stats is about half of the package's import time and no trial
    # uses it; only the curve's monotonicity test imports it, when called
    src = str(pathlib.Path(rggembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, rggembed, rggembed.harness, rggembed.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
