"""Real-process checkpoint coordination benchmark: processes, kills, elastic.

The `repro.ckpt.procrank` harness claim: the global commit protocol costs
the same whether ranks are threads or real OS processes — leases, the
election lock and torn-commit discard all work across process boundaries —
and a SIGKILLed job restarts bitwise from one consistent global cut, even
when it resumes under a *different* world size.

Marked ``perf_smoke``; each run refreshes ``BENCH_multiproc_ckpt.json`` in
the output directory with the step trajectories of both worlds, the
real-process overhead and the kill-recovery / elastic-restore latencies.
"""

import json

import pytest

from repro.bench.experiments import multiproc_checkpoint_comparison
from repro.bench.harness import trajectory_payload

#: Trajectory file consumed by later PRs to track real-process coordination.
TRAJECTORY_NAME = "BENCH_multiproc_ckpt.json"


@pytest.mark.perf_smoke
def test_real_process_ranks_recover_bitwise(tmp_path, show, trajectory_path):
    result = multiproc_checkpoint_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["threaded_identical"], "threaded world diverged from the reference"
    assert check["real_identical"], "real-process world diverged from the reference"
    assert check["kill_bitwise"], (
        "the SIGKILLed job did not restart bitwise from the global cut"
    )
    assert check["elastic_bitwise"], (
        "the elastic 3->2 resume did not reproduce the reference state"
    )
    assert check["no_leaked_sentinels"], "leases or election locks leaked"

    recovery = {
        row["scenario"]: row for row in result.rows if row.get("series") == "recovery"
    }
    assert recovery["elastic"]["world_to"] < recovery["elastic"]["world_from"]

    summary = result.row_for(series="summary", mode="real_process")
    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(
            trajectory_payload(
                result,
                overhead_pct={"real_process": summary["overhead_pct"]},
                restore_latency_s={
                    "kill_recovery": recovery["kill_recovery"]["recovery_s"],
                    "elastic": recovery["elastic"]["recovery_s"],
                },
                # The threaded-vs-real comparison's measured run-to-run
                # noise (half-range of the per-wave overheads): the
                # trajectory gate widens this metric's budget by the
                # committed value instead of flapping on scheduler noise.
                noise_points={
                    "overhead_pct:real_process": summary["overhead_noise_points"],
                },
            ),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
