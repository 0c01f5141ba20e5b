"""Update-phase flush accounting: ``flush_seconds`` is time this phase waited.

The I/O threads' summed write seconds are not a wait of the phase — they
overlap each other and the compute — so they must never stand in for
``flush_seconds``.  A phase's flush wait is bounded by its wall time and its
``io_fraction`` by 1, while cache-eviction write-backs, which block the
calling thread, still count.
"""

import numpy as np

from repro.aio.throttle import BandwidthThrottle
from repro.core.config import MLPOffloadConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750
#: Bytes of one subgroup's FP32 params + exp_avg + exp_avg_sq.
SUBGROUP_STATE_BYTES = SUBGROUP * 12


def _run_phases(root, throttles, *, host_cache_bytes, iterations=2):
    for name in ("nvme", "pfs"):
        (root / name).mkdir(parents=True, exist_ok=True)
    config = MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(root / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(root / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP,
        host_cache_bytes=host_cache_bytes,
        adam=AdamConfig(lr=1e-3),
        pipeline_update_phase=True,
    )
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(3)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    fp16 = initial.astype(np.float16)
    reports = []
    with MLPOffloadEngine(config, layout, rank=0, throttles=throttles) as engine:
        engine.initialize(initial.copy())
        for _ in range(iterations):
            grad = rng.standard_normal(TOTAL_PARAMS).astype(np.float16)
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view])
            engine.on_microbatch_complete()
            reports.append(engine.run_update(fp16))
    return reports


def test_pipelined_uncached_flush_wait_stays_within_wall_time(tmp_path):
    # Modelled (non-sleeping) throttles charge far more write seconds to the
    # I/O threads than the phase spends waiting on them.
    throttles = {
        name: BandwidthThrottle(1e5, simulate=True) for name in ("nvme", "pfs")
    }
    for report in _run_phases(tmp_path, throttles, host_cache_bytes=0):
        stats = report.stats
        assert stats.cache_hits == 0
        assert stats.flush_bytes >= 8 * SUBGROUP_STATE_BYTES
        assert stats.flush_seconds <= stats.wall_seconds
        assert stats.io_fraction <= 1.0


def test_one_subgroup_cache_counts_eviction_writeback_wait(tmp_path):
    # Paced throttles: every eviction write-back sleeps on the calling thread.
    latency = 0.01
    throttles = {
        name: BandwidthThrottle(1e9, simulate=False, latency=latency)
        for name in ("nvme", "pfs")
    }
    reports = _run_phases(tmp_path, throttles, host_cache_bytes=SUBGROUP_STATE_BYTES)
    stats = reports[-1].stats
    # Seven of the eight updated subgroups are evicted by the next one's put.
    assert stats.skipped_flushes == 8
    assert stats.flush_bytes >= 7 * SUBGROUP_STATE_BYTES
    assert stats.flush_seconds >= 7 * latency
    assert stats.flush_seconds <= stats.wall_seconds
