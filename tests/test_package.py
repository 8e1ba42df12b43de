"""Every exported name resolves, so a deletion cannot leave a stale export;
importing the package stays light."""

import ast
import importlib
import os
import pathlib
import re
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


def _run_python(*args):
    """Run a fresh interpreter that imports the package from this tree."""
    src = str(pathlib.Path(rggembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_leaves_scipy_stats_out():
    # scipy.stats is about half of the package's import time and no trial
    # uses it; only the curve's monotonicity test imports it, when called
    code = (
        "import sys, rggembed, rggembed.harness, rggembed.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = _run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_geometry_demo_runs():
    # the demo is the only caller of verify_transit_balls and in_enclosing
    # outside the tests
    demo = pathlib.Path(__file__).resolve().parents[1] / "demos" / "01_thresholds_and_tessellation.py"
    out = _run_python(str(demo))
    assert out.returncode == 0, out.stderr


def test_bfs_engines_only_in_the_primitive():
    # every walk goes through rggembed._bfs.bfs, so a new BFS engine
    # replaces one function
    pkg = pathlib.Path(rggembed.__file__).parent
    engines = re.compile(r"dijkstra|shortest_path|breadth_first_order")
    users = sorted(p.name for p in pkg.glob("*.py") if engines.search(p.read_text()))
    assert users == ["_bfs.py"]
