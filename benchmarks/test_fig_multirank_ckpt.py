"""Multi-rank checkpoint coordination benchmark: global commit overhead.

The `repro.ckpt.coordinator` design claim: promoting per-rank manifests to a
job-wide global version costs a rename per rank plus one small record write
per version — all on drain threads — so coordinated checkpointing stays
within a few percent of independent per-worker commits, while a torn commit
(ranks dying mid-checkpoint) always restarts from one consistent global cut.

Marked ``perf_smoke``; each run refreshes ``BENCH_multirank_ckpt.json`` in
the output directory with the two-rank step trajectories, the coordination
overhead and the torn-commit recovery latencies.
"""

import json

import pytest

from repro.bench.experiments import multirank_checkpoint_comparison
from repro.bench.harness import trajectory_payload

#: Trajectory file consumed by later PRs to compare coordination overhead.
TRAJECTORY_NAME = "BENCH_multirank_ckpt.json"


@pytest.mark.perf_smoke
def test_global_commit_overhead_under_ten_percent(tmp_path, show, trajectory_path):
    result = multirank_checkpoint_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["results_identical"], "coordination perturbed the training trajectory"
    assert check["torn_never_promoted"], "an incomplete version was promoted to global"
    assert check["restart_bitwise"], (
        "a rank failed to restart bitwise-identically from the newest global version"
    )
    assert check["global_versions"] >= 2, "expected several promoted global versions"

    summary = result.row_for(series="summary", mode="coordinated")
    assert summary["overhead_pct"] < 10.0, (
        f"global commit added {summary['overhead_pct']:.1f}% per step (>10% budget)"
    )

    restore_rows = [row for row in result.rows if row.get("series") == "restore"]
    assert len(restore_rows) == 2, "expected one restore row per rank"
    assert len({row["global_version"] for row in restore_rows}) == 1, (
        "ranks restarted from different versions — a mixed cut"
    )

    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(
            trajectory_payload(
                result,
                restore_latency_s={
                    f"rank{row['rank']}": row["restore_s"] for row in restore_rows
                },
                overhead_pct={"coordinated": summary["overhead_pct"]},
                torn_recovery_s=check["torn_recovery_s"],
            ),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
