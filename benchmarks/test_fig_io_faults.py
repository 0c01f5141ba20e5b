"""I/O fault resilience benchmark: clean vs transient faults vs one dead path.

The fault-tolerance machinery must be cheap when faults are transient
(retries absorb seeded EIO/short-read bursts at ~1x clean throughput,
bitwise-identical results) and graceful when a path dies outright (the run
completes single-path at the survivor's bandwidth share, never a crash or
a wedge).  Both headline ratios are higher-is-better and gated by
``check_trajectory.py`` against ``BENCH_io_faults.json``.

Marked ``perf_smoke`` so that ``pytest -m perf_smoke`` gives future PRs a
fast perf trajectory; each run refreshes ``BENCH_io_faults.json`` in the
output directory.
"""

import json

import pytest

from repro.bench.experiments import io_fault_resilience_comparison

#: Trajectory file consumed by later PRs to compare fault-path performance.
TRAJECTORY_NAME = "BENCH_io_faults.json"


@pytest.mark.perf_smoke
def test_fault_tolerance_is_cheap_and_degrades_gracefully(tmp_path, show, trajectory_path):
    result = io_fault_resilience_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["bitwise_identical"], "faulted runs diverged from the clean run"
    assert check["transient_injected"] >= 4, "the transient fault plan never fired"
    assert check["transient_retries"] >= 1, "no retry was recorded for injected faults"
    assert check["degraded_failovers"] >= 1, "the dead path never triggered a failover"
    assert check["pfs_quarantined"], "the dead path was never quarantined"

    transparency = result.row_for(series="summary", engine="retry_transparency")["value"]
    degraded = result.row_for(series="summary", engine="degraded_throughput")["value"]
    assert transparency > 0.8, (
        f"transient retries cost {1 - transparency:.0%} of clean throughput"
    )
    # Two paths at 40+25 MB/s: losing pfs bounds the survivor at ~62% of
    # clean; well below that means the degraded path is paying for timeouts.
    assert degraded > 0.35, f"degraded run retains only {degraded:.0%} of clean throughput"

    # The quarantined path moved no payload: writes all failed over, reads
    # never touched it.
    dead_path = result.row_for(series="path_bytes", engine="degraded", tier="pfs")
    assert dead_path["bytes_written"] == 0
    assert dead_path["bytes_read"] == 0
    survivor = result.row_for(series="path_bytes", engine="degraded", tier="nvme")
    assert survivor["bytes_written"] > 0 and survivor["bytes_read"] > 0

    trajectory = {
        "experiment": result.experiment,
        "description": result.description,
        "retry_transparency_ratio": transparency,
        "degraded_throughput_ratio": degraded,
        "median_update_s": {
            label: result.row_for(series="summary", engine=label)["median_update_s"]
            for label in ("clean", "transient", "degraded")
        },
        "path_bytes": {
            f"{row['engine']}/{row['tier']}": {
                "bytes_read": row["bytes_read"],
                "bytes_written": row["bytes_written"],
            }
            for row in result.rows
            if row.get("series") == "path_bytes"
        },
        # These runs sleep for real on throttled tiers; the ratio of medians
        # still moves a few points run-to-run on a loaded machine.
        "noise_points": {
            "retry_transparency_ratio": 12.0,
            "degraded_throughput_ratio": 12.0,
        },
        "trajectory": [row for row in result.rows if row.get("series") == "trajectory"],
    }
    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    )
