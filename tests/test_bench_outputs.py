"""The tier-1 run must leave the committed ``BENCH_*.json`` baselines alone.

The tier-1 command runs the ``perf_smoke`` benchmarks too.  Each one writes a
trajectory, and that write must land in a pytest temp directory unless
``$REPRO_BENCH_OUT`` opts in (``benchmarks/rebaseline.py`` and the CI perf
gates set it to ``.``).  These checks pin both halves: the output-directory
helper in ``benchmarks/conftest.py`` defaults to the temp directory, and no
benchmark module writes anywhere but through that helper or its own temp
directory.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
#: Tools that read or rewrite the committed baselines on purpose.
BASELINE_TOOLS = {"conftest.py", "rebaseline.py", "check_trajectory.py"}
#: Names a benchmark may write under: the helper's result or its temp dirs.
WRITE_ROOTS = {"trajectory_path", "tmp_path", "tmp_path_factory"}


def _load_bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_DIR / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _root_name(node: ast.AST) -> str | None:
    """The name an expression like ``a(b).c / "d"`` is rooted at (``a``)."""
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.BinOp):
            node = node.left
        else:
            return None


def test_trajectories_default_to_a_temp_dir(monkeypatch, tmp_path):
    conftest = _load_bench_conftest()
    monkeypatch.delenv(conftest.BENCH_OUT_ENV, raising=False)
    assert conftest.bench_out_dir(tmp_path) == tmp_path
    monkeypatch.setenv(conftest.BENCH_OUT_ENV, ".")
    assert conftest.bench_out_dir(tmp_path) == Path(".")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in BENCH_DIR.glob("*.py") if p.name not in BASELINE_TOOLS),
    ids=lambda p: p.name,
)
def test_benchmark_module_does_not_write_to_the_repository_root(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "__file__" not in names, "locates the repository through its own path"
    assert not {"cwd", "getcwd", "chdir"} & attrs, "resolves paths against the working dir"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        assert not (isinstance(func, ast.Name) and func.id == "open"), (
            f"line {node.lineno}: writes through open(); use trajectory_path"
        )
        if isinstance(func, ast.Attribute) and func.attr in {"write_text", "write_bytes"}:
            assert _root_name(func.value) in WRITE_ROOTS, (
                f"line {node.lineno}: writes outside trajectory_path and the temp dirs"
            )
