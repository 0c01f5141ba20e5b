"""Checkpoint-registry benchmark: dedup ratio, push overhead, cold restore.

The registry's economics claim: pushing every committed checkpoint to the
shared service costs a bounded slice of step time (the drain does the HTTP
work; the step only waits for the commit), a second job with identical
state uploads almost nothing thanks to the CAS missing-set negotiation, and
a cold remote restore — empty local directory, everything over HTTP — is a
small constant factor over the local restore while staying bitwise exact.

Marked ``perf_smoke``; each run refreshes ``BENCH_registry.json`` in the
output directory with the step trajectories, the dedup ratio and both
restore latencies, gated by ``benchmarks/check_trajectory.py``.
"""

import json

import pytest

from repro.bench.experiments import registry_push_restore_comparison
from repro.bench.harness import trajectory_payload

#: Trajectory file consumed by later PRs to track registry cost regressions.
TRAJECTORY_NAME = "BENCH_registry.json"


@pytest.mark.perf_smoke
def test_registry_dedup_overhead_and_cold_restore(tmp_path, show, trajectory_path):
    result = registry_push_restore_comparison(workdir=tmp_path)
    show(result)

    summary = result.row_for(series="summary")
    assert summary["push_failures"] == 0, "a registry push failed during the benchmark"
    assert summary["cold_restore_bitwise"], "cold remote restore diverged from the pusher"
    # the dedup acceptance bound: the second identical job uploads <10% of
    # its blob bytes — the registry vouches for everything the first pushed
    assert summary["second_job_upload_pct"] < 10.0, summary
    assert summary["dedup_ratio"] > 0.9, summary

    restore = {row["mode"]: row for row in result.rows if row.get("series") == "restore"}
    assert restore["local"]["version"] == restore["remote_cold"]["version"]
    # cold restore does strictly more work (manifest + every blob over HTTP);
    # it must stay a small factor, not an order of magnitude, over local
    assert restore["remote_cold"]["seconds"] < max(
        restore["local"]["seconds"] * 50, 5.0
    ), restore

    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(
            trajectory_payload(
                result,
                registry_dedup_ratio=summary["dedup_ratio"],
                registry_upload_pct={"second_job": summary["second_job_upload_pct"]},
                restore_latency_s={
                    "local": restore["local"]["seconds"],
                    "remote_cold": restore["remote_cold"]["seconds"],
                },
            ),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
