"""Compressed delta checkpointing + streaming hard-link restore benchmark.

The PR-4 claims, pinned: byte-shuffle + run-length DEFLATE cuts the
bytes a checkpoint writes by >= 2x on the standard (sparse-gradient,
mixed-precision) workload at <= 10% added median step time over the raw
async writer; the null codec isolates framing cost (~zero); and the
streaming restore — hard links for clean subgroups, lazy streamed residue —
restores a mostly-clean checkpoint >= 5x faster than the eager read-and-
re-flush restore, with resume bitwise-identical in both modes.

Marked ``perf_smoke``; each run refreshes ``BENCH_ckpt_compression.json`` in
the output directory with the byte accounting, per-step trajectories and
restore latencies.
"""

import json

import pytest

from repro.bench.experiments import checkpoint_compression_comparison
from repro.bench.harness import trajectory_payload

#: Trajectory file consumed by later PRs to compare checkpoint compression.
TRAJECTORY_NAME = "BENCH_ckpt_compression.json"


@pytest.mark.perf_smoke
def test_compression_halves_bytes_and_hardlink_restore_is_fast(tmp_path, show, trajectory_path):
    result = checkpoint_compression_comparison(workdir=tmp_path)
    show(result)

    check = result.row_for(series="check")
    assert check["codecs_identical"], "a codec perturbed the training trajectory"
    assert check["resume_bitwise_eager"], "eager restore diverged from the reference"
    assert check["resume_bitwise_streaming"], "streaming restore diverged from the reference"

    bytes_rows = {row["codec"]: row for row in result.rows if row.get("series") == "bytes"}
    shuffle_ratio = bytes_rows["shuffle-deflate"]["compression_ratio"]
    assert shuffle_ratio >= 2.0, (
        f"shuffle+deflate compressed checkpoint bytes only {shuffle_ratio:.2f}x (< 2x)"
    )
    # The null codec measures pure framing overhead: within a percent of raw.
    assert 0.98 <= bytes_rows["null"]["compression_ratio"] <= 1.0
    assert bytes_rows["raw"]["compression_ratio"] == 1.0
    # Identical raw payloads across codecs (only the encoding differs).
    assert bytes_rows["raw"]["staged_bytes"] == bytes_rows["shuffle-deflate"]["staged_bytes"]

    steps = {row["codec"]: row for row in result.rows if row.get("series") == "steps"}
    assert steps["shuffle-deflate"]["overhead_vs_raw_pct"] <= 10.0, (
        "compressing on the drain thread cost more than the 10% step budget: "
        f"{steps['shuffle-deflate']['overhead_vs_raw_pct']:.1f}%"
    )

    restore = {row["mode"]: row for row in result.rows if row.get("series") == "restore"}
    assert restore["streaming"]["linked_subgroups"] > 0, "no subgroup was hard-linked back"
    assert restore["streaming"]["lazy_subgroups"] > 0, "no residue was restored lazily"
    assert check["restore_speedup"] >= 5.0, (
        f"hard-link/lazy restore only {check['restore_speedup']:.1f}x faster than eager (< 5x)"
    )

    trajectory_path(TRAJECTORY_NAME).write_text(
        json.dumps(
            trajectory_payload(
                result,
                compression_ratio=shuffle_ratio,
                restore_latency_s={
                    mode: row["restore_s"] for mode, row in restore.items()
                },
                restore_speedup=check["restore_speedup"],
                overhead_vs_raw_pct={
                    codec: row["overhead_vs_raw_pct"] for codec, row in steps.items()
                },
            ),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
