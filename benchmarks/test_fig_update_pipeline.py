"""Update-phase pipelining benchmark: sequential vs prefetch/flush overlap.

The pipelined update phase (windowed prefetch + lazy async flush) must beat
the single-buffered Algorithm-1 baseline on a throttled-tier workload while
producing bitwise-identical results — the functional counterpart of the
paper's claim that overlapping tier I/O with the CPU Adam compute recovers
the throughput lost to storage.  The tiers serialize concurrent transfers
per direction (duplex device timelines), so the asserted speedup measures
real overlap, not bandwidth multiplication.

Marked ``perf_smoke`` so that ``pytest -m perf_smoke`` gives future PRs a
fast (<30 s) perf trajectory; each run refreshes ``BENCH_update_pipeline.json``
in the output directory with the measured per-iteration wall times.
"""

import json

import pytest

from repro.bench.experiments import update_pipeline_comparison

#: Trajectory file consumed by later PRs to compare update-phase performance.
TRAJECTORY_NAME = "BENCH_update_pipeline.json"


@pytest.mark.perf_smoke
def test_pipelined_update_beats_sequential(tmp_path, show, trajectory_path):
    result = update_pipeline_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["bitwise_identical"], "pipelined results diverged from sequential"

    mean_seq = result.row_for(series="summary", engine="sequential")["mean_update_s"]
    mean_pipe = result.row_for(series="summary", engine="pipelined")["mean_update_s"]
    speedup = result.row_for(series="summary", engine="speedup")["value"]
    assert mean_pipe < mean_seq, "pipelined update phase is not faster than sequential"
    assert speedup > 1.2, f"pipelined speedup {speedup:.2f}x below the 1.2x floor"

    pool = result.row_for(series="pool")
    # Warm buffers dominate: the I/O path recycles pooled arrays instead of
    # allocating fresh ones (the zero-copy discipline of the tentpole).
    assert pool["hit_rate"] > 0.5, f"buffer-pool hit rate {pool['hit_rate']:.2f} too low"

    trajectory = {
        "experiment": result.experiment,
        "description": result.description,
        "speedup": speedup,
        "mean_update_s": {"sequential": mean_seq, "pipelined": mean_pipe},
        "pool": {k: pool[k] for k in ("hits", "misses", "hit_rate")},
        "trajectory": [row for row in result.rows if row.get("series") == "trajectory"],
    }
    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    )
