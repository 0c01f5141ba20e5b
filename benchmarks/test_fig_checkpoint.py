"""Checkpoint overhead benchmark: async overlap vs synchronous stall.

The `repro.ckpt` design claim: because the authoritative FP32 optimizer
state already lives on the storage tiers, a checkpoint costs little more
than a manifest plus the dirty residue — tier-resident subgroups are
hard-linked (no payload movement) and the staged residue drains overlapped
with the next iteration.  This benchmark pins that claim against a
no-checkpoint baseline and two synchronous contrasts (the lazy snapshot with
a blocking commit, and the classic read-everything copy-out checkpoint), and
verifies that every committed version restores to bitwise-identical state.

Marked ``perf_smoke``; each run refreshes ``BENCH_checkpoint.json`` in the
output directory with the per-step trajectories and overhead percentages.
"""

import json

import pytest

from repro.bench.experiments import checkpoint_overhead_comparison
from repro.bench.harness import trajectory_payload

#: Trajectory file consumed by later PRs to compare checkpoint overhead.
TRAJECTORY_NAME = "BENCH_checkpoint.json"


@pytest.mark.perf_smoke
def test_async_checkpoint_overhead_under_ten_percent(tmp_path, show, trajectory_path):
    result = checkpoint_overhead_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["results_identical"], "checkpointing perturbed the training trajectory"
    assert check["restart_bitwise"], "a committed version failed bitwise restart"
    assert check["versions_restored"] >= 2, "expected several committed versions to restore"

    overhead = {
        row["mode"]: row["overhead_pct"]
        for row in result.rows
        if row.get("series") == "summary" and row["mode"] != "none"
    }
    assert overhead["async"] < 10.0, (
        f"async checkpointing added {overhead['async']:.1f}% per step (>10% budget)"
    )
    # The async overlap must beat the synchronous stall of the same snapshot,
    # and the classic copy-out checkpoint must cost the most.
    assert overhead["async"] < overhead["sync-lazy"]
    assert overhead["sync-full"] > overhead["sync-lazy"]

    blobs = result.row_for(series="blobs", mode="async")
    assert blobs["linked_blobs"] > 0, "no tier-resident blobs were hard-linked"
    assert blobs["staged_bytes"] > 0, "no dirty residue was staged"
    full = result.row_for(series="blobs", mode="sync-full")
    assert full["staged_bytes"] > blobs["staged_bytes"], (
        "copy-out mode should stage every subgroup, the lazy snapshot only the residue"
    )

    restore_rows = [row for row in result.rows if row.get("series") == "restore"]
    assert restore_rows, "no restore latencies were recorded"
    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(
            trajectory_payload(
                result,
                restore_latency_s={
                    f"v{row['version']}": row["restore_s"] for row in restore_rows
                },
                overhead_pct=overhead,
            ),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
