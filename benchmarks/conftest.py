"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper through
:mod:`repro.bench.experiments`, prints the measured rows next to the paper's
headline numbers and asserts the qualitative shape (who wins, by roughly what
factor, where crossovers fall).  Run with::

    pytest benchmarks/ --benchmark-only

The ``perf_smoke`` benchmarks also write a ``BENCH_*.json`` trajectory each.
They go to ``$REPRO_BENCH_OUT`` when that is set and to a pytest temp
directory otherwise, so an ordinary test run never rewrites the committed
baselines at the repository root.  ``benchmarks/rebaseline.py`` and the CI
perf gates set ``REPRO_BENCH_OUT=.`` to regenerate them in place.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

import pytest

from repro.bench.harness import ExperimentResult, format_table


def report(result: ExperimentResult) -> None:
    """Print an experiment's rows and notes underneath the benchmark output."""
    print()
    print(format_table(result.rows, title=f"[{result.experiment}] {result.description}"))
    for note in result.notes:
        print(f"  note: {note}")


@pytest.fixture
def show():
    return report


#: Environment variable naming the directory the trajectories are written to.
BENCH_OUT_ENV = "REPRO_BENCH_OUT"


def bench_out_dir(default: Path) -> Path:
    """``$REPRO_BENCH_OUT`` when set (relative to the working directory), else ``default``."""
    out = os.environ.get(BENCH_OUT_ENV)
    return Path(out) if out else default


@pytest.fixture
def trajectory_path(tmp_path_factory) -> Callable[[str], Path]:
    """Map a ``BENCH_*.json`` name to the path its benchmark writes it to."""
    directory = bench_out_dir(tmp_path_factory.mktemp("bench-out"))
    directory.mkdir(parents=True, exist_ok=True)
    return lambda name: directory / name
