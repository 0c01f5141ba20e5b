"""Striped multi-path reads benchmark: single-path vs striped subgroup fetches.

Striping a subgroup's fields across NVMe and PFS must beat fetching each
field whole from a single tier on a read-bound throttled-tier workload,
while producing bitwise-identical parameters and optimizer state — the
functional counterpart of the paper's claim that the *aggregate* tier
bandwidth, not any single device, bounds the offloaded update phase.  Each
throttle serializes concurrent transfers per direction on its own device
timeline, so the asserted speedup measures genuine multi-path aggregation,
not bandwidth multiplication.

Marked ``perf_smoke`` so that ``pytest -m perf_smoke`` gives future PRs a
fast perf trajectory; each run refreshes ``BENCH_striped_reads.json`` in the
output directory with the measured per-iteration wall times and the per-path
byte accounting.
"""

import json

import pytest

from repro.bench.experiments import striped_read_comparison

#: Trajectory file consumed by later PRs to compare striped-read performance.
TRAJECTORY_NAME = "BENCH_striped_reads.json"


@pytest.mark.perf_smoke
def test_striped_reads_beat_single_path(tmp_path, show, trajectory_path):
    result = striped_read_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["bitwise_identical"], "striped results diverged from single-path"

    mean_single = result.row_for(series="summary", engine="single-path")["mean_update_s"]
    mean_striped = result.row_for(series="summary", engine="striped")["mean_update_s"]
    speedup = result.row_for(series="summary", engine="speedup")["value"]
    assert mean_striped < mean_single, "striped reads are not faster than single-path"
    assert speedup > 1.15, f"striped speedup {speedup:.2f}x below the 1.15x floor"

    bandwidth = result.row_for(series="summary", engine="fetch_bandwidth")
    assert bandwidth["striped"] > bandwidth["single_path"], (
        "striped aggregate fetch bandwidth does not exceed the single-path baseline"
    )

    # Every striped fetch must engage both paths: each tier serves a
    # non-trivial share of the read bytes (bandwidth-proportional split).
    path_rows = {
        row["tier"]: row
        for row in result.rows
        if row.get("series") == "path_bytes" and row.get("engine") == "striped"
    }
    total_read = sum(row["bytes_read"] for row in path_rows.values())
    assert total_read > 0
    for tier, row in path_rows.items():
        share = row["bytes_read"] / total_read
        assert share > 0.2, f"tier {tier} served only {share:.0%} of striped read bytes"

    trajectory = {
        "experiment": result.experiment,
        "description": result.description,
        "speedup": speedup,
        "mean_update_s": {"single_path": mean_single, "striped": mean_striped},
        "fetch_bandwidth": {
            "single_path": bandwidth["single_path"],
            "striped": bandwidth["striped"],
        },
        "path_bytes": {
            f"{row['engine']}/{row['tier']}": {
                "bytes_read": row["bytes_read"],
                "bytes_written": row["bytes_written"],
            }
            for row in result.rows
            if row.get("series") == "path_bytes"
        },
        "trajectory": [row for row in result.rows if row.get("series") == "trajectory"],
    }
    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    )
