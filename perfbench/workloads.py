"""The benchmark's workloads, driven only through the engine's public calls.

Each workload function takes a :class:`Run` (seed, run length, scratch
directory, optional tracer), performs set-up, a timed loop and the
checkpoint/restore rounds, checks the outputs against the oracles in
:mod:`oracles`, and fills the run's samples, counters and accounting.
:func:`end_to_end` and :func:`per_layer` turn those into the reported metrics.

Workload make-up (see README.md for the reasons):

* ``update-local`` — one rank, 8 Mi parameters in 1 Mi-parameter subgroups,
  two unthrottled file tiers on the buffered ``thread`` backend, host cache
  off, otherwise the default engine config.
* ``update-paper-tiers`` — the same state over two ranks, one thread each,
  sharing one ``TierLockManager`` and two real-sleeping ``BandwidthThrottle``s
  at the paper's Testbed-1 NVMe:PFS ratio; each rank caches one subgroup.
* ``train-ckpt`` — ``FunctionalTrainer`` on a 3.3M-parameter GPT, a host
  cache of 4 of its 13 subgroups, an async compressed checkpoint every
  iteration, then restores and a resumed run.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import threading
import time
import concurrent.futures
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from oracles import (
    ADAM64_STRIDE,
    check_against_float64,
    check_losses,
    kingma_ba_float64,
    replay_update,
    require,
    require_bitwise,
)
from tracing import Tracer

from repro.aio.locks import TierLockManager
from repro.aio.throttle import BandwidthThrottle
from repro.ckpt import CheckpointReader
from repro.core.config import IOBackendConfig, MLPOffloadConfig, TierConfig
from repro.core.engine import MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.model_zoo import tiny_test_model
from repro.train.sharding import build_shard_layout
from repro.train.trainer import FunctionalTrainer, InMemoryReferenceTrainer, TrainerConfig
from repro.train.transformer import TransformerLM

TIERS = ("nvme", "pfs")
#: Paper Table 1, Testbed-1: (read, write) bytes/s.  The engine's placement
#: hints on every workload; the throttle rates of ``update-paper-tiers``.
TABLE1_BW = {"nvme": (6.9e9, 5.3e9), "pfs": (3.6e9, 3.6e9)}
#: Throttles run Table 1 scaled so NVMe reads at 200 MB/s: slow enough that
#: I/O dominates the update phase, with the paper's NVMe:PFS ratio.
PAPER_TIER_SCALE = 200e6 / 6.9e9
#: Per-request latency of each throttled tier (seconds).
PAPER_TIER_LATENCY = {"nvme": 0.5e-3, "pfs": 2e-3}
STATE_BYTES_PER_PARAM = 12  # FP32 params + exp_avg + exp_avg_sq

ADAM = AdamConfig(lr=1e-3)
UPDATE_SUBGROUP = 1 << 20
UPDATE_PARAMS = 8 * UPDATE_SUBGROUP
#: Seeded FP16 gradient sets; iteration ``i`` feeds set ``i % GRAD_SETS``.
GRAD_SETS = 3
GPT = dict(num_layers=4, hidden_dim=256, num_heads=4, vocab_size=512, sequence_length=64)
GPT_SUBGROUP = 1 << 18
GPT_CACHE_SUBGROUPS = 4
MICRO_BATCH = 2
RESUME_ITERATIONS = 2

#: Set-ups per run, by workload; ``setup_s`` is their median.  The short
#: unthrottled set-ups (about 0.2 s) need more of them to be steady.
SETUP_REPEATS = {"update-local": 11, "update-paper-tiers": 5, "train-ckpt": 11}
CKPT_ROUNDS = 4
RESTORES = 7
MIN_ITERATIONS = 3
#: update-* snapshot only in their checkpoint rounds, after the timed loop;
#: an interval no run reaches keeps ``maybe_checkpoint`` a no-op in the loop.
CHECKPOINT_OFF = 1 << 30


@dataclass
class Run:
    """One workload run: inputs, scratch space, and everything it measured."""

    seed: int
    seconds: float
    root: Path
    tracer: Optional[Tracer] = None
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    #: Operation accounting: iterations, tier I/O requests, checkpoint
    #: versions and restores, each attempted / failed (and more).
    ops: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {
            "iterations": {"attempted": 0, "failed": 0},
            "io_requests": {"attempted": 0, "retried": 0, "failed": 0},
            "checkpoints": {"attempted": 0, "committed": 0, "skipped": 0},
            "restores": {"attempted": 0, "failed": 0},
        }
    )
    params_per_iteration: int = 0
    peak_rss_mb: float = 0.0
    stored_bytes: int = 0
    #: Per-layer inputs: program counters (deltas over the timed loop),
    #: update-phase stats sums, writer counters, restore counts.
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    depths: List[int] = field(default_factory=list)
    loop_seconds: float = 0.0
    notes: List[str] = field(default_factory=list)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def iteration(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.iteration = index

    def directory(self, name: str) -> Path:
        path = self.root / name
        path.mkdir(parents=True)
        return path

    def record_peak_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def account_io(self, engine: MLPOffloadEngine) -> None:
        """Add an engine's lifetime tier and checkpoint I/O requests."""
        io = self.ops["io_requests"]
        aio_engines = [engine.tier.engine]
        if engine.checkpointer is not None:
            aio_engines.append(engine.checkpointer.engine)
        for aio in aio_engines:
            for name in aio.stores:
                stats = aio.tier_stats(name)
                io["attempted"] += stats.read_ops + stats.write_ops + stats.failures
            retries, failures, _timeouts = aio.retry_totals()
            io["retried"] += retries
            io["failed"] += failures

    def account_writer(self, engine: MLPOffloadEngine) -> None:
        writer = engine.checkpointer
        assert writer is not None
        self.stored_bytes += writer.staged_stored_bytes
        self.ops["checkpoints"]["skipped"] += writer.skipped_versions
        for key, value in (
            ("ckpt.staged_bytes", writer.staged_bytes),
            ("ckpt.linked_bytes", writer.linked_bytes),
            ("ckpt.stored_bytes", writer.staged_stored_bytes),
        ):
            self.counters[key] += value


# -- shared helpers ------------------------------------------------------------


def tier_configs(directory: Path) -> Tuple[TierConfig, ...]:
    return tuple(
        TierConfig(name=name, path=str(directory / name), read_bw=TABLE1_BW[name][0],
                   write_bw=TABLE1_BW[name][1])
        for name in TIERS
    )


def paper_throttles() -> Dict[str, BandwidthThrottle]:
    """One half-duplex device timeline per tier, shared by every rank."""
    return {
        name: BandwidthThrottle(
            TABLE1_BW[name][0] * PAPER_TIER_SCALE,
            write_bytes_per_second=TABLE1_BW[name][1] * PAPER_TIER_SCALE,
            latency=PAPER_TIER_LATENCY[name],
            simulate=False,
        )
        for name in TIERS
    }


def program_counters(engines: Sequence[MLPOffloadEngine], throttles) -> Dict[str, float]:
    """Snapshot of the counters the program keeps (summed over ``engines``)."""
    out: Dict[str, float] = defaultdict(float)
    managers = {}
    for engine in engines:
        for tier in TIERS:
            stats = engine.tier.engine.tier_stats(tier)
            out[f"aio.{tier}.read_ops"] += stats.read_ops
            out[f"aio.{tier}.write_ops"] += stats.write_ops
            out[f"aio.{tier}.bytes_read"] += stats.bytes_read
            out[f"aio.{tier}.bytes_written"] += stats.bytes_written
            out[f"aio.{tier}.read_s"] += stats.read_seconds
            out[f"aio.{tier}.write_s"] += stats.write_seconds
        retries, failures, _timeouts = engine.tier.engine.retry_totals()
        out["aio.retries"] += retries
        out["aio.failures"] += failures
        out["pool.hits"] += engine.pool.stats.hits
        out["pool.misses"] += engine.pool.stats.misses
        managers[id(engine.concurrency.lock_manager)] = engine.concurrency.lock_manager
    for manager in managers.values():
        for tier in TIERS:
            stats = manager.stats(tier)
            out[f"locks.{tier}.wait_s"] += stats.wait_seconds
            out[f"locks.{tier}.contended"] += stats.contended_acquisitions
    for tier, throttle in (throttles or {}).items():
        out[f"throttle.{tier}.busy_s"] += throttle.charged_seconds
    return out


def add_update_stats(run: Run, reports) -> None:
    for report in reports:
        stats = report.stats
        run.counters["engine.grad_drain_s"] += stats.grad_drain_seconds
        run.counters["engine.convert_s"] += stats.conversion_seconds
        run.counters["engine.compute_s"] += stats.compute_seconds
        run.counters["engine.fetch_wait_s"] += stats.fetch_seconds
        run.counters["engine.flush_wait_s"] += stats.flush_seconds
        run.counters["cache.hits"] += stats.cache_hits
        run.counters["cache.misses"] += stats.cache_misses
        run.depths.append(stats.prefetch_depth)


def timed_setups(run: Run, build, repeats: int):
    """Build ``repeats`` times in fresh directories; keep the last build.

    Each build is timed from constructing the engine(s) to the end of the
    initial offload.  ``build(directory)`` returns ``(handle, engines)``.
    """
    handle = engines = None
    for repeat in range(repeats):
        if engines is not None:
            close_all(engines)
            shutil.rmtree(run.root / f"setup{repeat - 1}")
        directory = run.directory(f"setup{repeat}")
        start = time.perf_counter()
        handle, engines = build(directory)
        run.samples["setup_s"].append(time.perf_counter() - start)
    return handle, engines


def close_all(engines: Sequence[MLPOffloadEngine]) -> None:
    """Close engines and collect them now.

    A closed engine sits in reference cycles (its cache holds callbacks bound
    to it), so without a collection its buffers stay resident until the
    cyclic collector happens to run, and peak memory would follow that timing.
    """
    for engine in engines:
        engine.close()
    gc.collect()


def note_backends(run: Run, engine: MLPOffloadEngine) -> None:
    """Record the raw-I/O backend each tier resolved to."""
    resolved = {tier: engine.tier.engine.tier_stats(tier).backend for tier in TIERS}
    run.notes.append("I/O backends: " + ", ".join(f"{t}={b}" for t, b in resolved.items()))


def keep_going(run: Run, iterations: int, loop_start: float) -> bool:
    return iterations < MIN_ITERATIONS or time.perf_counter() - loop_start < run.seconds


def verify_retained_versions(run: Run, config: MLPOffloadConfig, workers: Sequence[str]) -> None:
    """Full digest audit (``verify_blobs``) of every retained version."""
    run.phase("audit")
    for worker in workers:
        reader = CheckpointReader(config, worker=worker)
        versions = reader.versions()
        require(bool(versions), f"{worker}: no committed checkpoint versions to audit")
        for version in versions:
            segments = reader.verify_blobs(reader.load_manifest(version))
            run.notes.append(f"{worker} v{version}: {segments} blob segments pass their digests")


def stop_tracing(run: Run) -> None:
    """Oracles run untraced: they are not the program under test."""
    if run.tracer is not None:
        run.tracer.uninstall()
        run.tracer.phase = "oracle"


class CommitClock:
    """Times each snapshot of one engine from ``save_checkpoint`` to commit.

    Wraps the two calls on the instance only.  A waiter thread per version
    blocks on the writer's pending handle, so a commit is timed when it
    lands rather than when the training loop next looks.
    """

    def __init__(self, engine: MLPOffloadEngine) -> None:
        self.samples: List[float] = []
        self._threads: List[threading.Thread] = []
        self._start = 0.0
        save, snapshot = engine.save_checkpoint, engine.checkpointer.snapshot

        def timed_save(*args, **kwargs):
            self._start = time.perf_counter()
            return save(*args, **kwargs)

        def timed_snapshot(**kwargs):
            pending = snapshot(**kwargs)
            waiter = threading.Thread(target=self._await, args=(pending, self._start),
                                      name="perfbench-commit-clock", daemon=True)
            self._threads.append(waiter)
            waiter.start()
            return pending

        engine.save_checkpoint = timed_save
        engine.checkpointer.snapshot = timed_snapshot

    def _await(self, pending, start: float) -> None:
        try:
            pending.wait()
        except Exception:  # noqa: BLE001 - the engine re-raises it to the loop
            return
        if not pending.skipped:
            self.samples.append(time.perf_counter() - start)

    def join(self) -> None:
        for thread in self._threads:
            thread.join()


# -- update-local / update-paper-tiers -----------------------------------------


def run_update_workload(
    run: Run, *, ranks: int, throttled: bool, cache_subgroups: int, backend: str,
    setup_repeats: int,
) -> None:
    rng = np.random.default_rng(run.seed)
    init = rng.standard_normal(UPDATE_PARAMS, dtype=np.float32) * np.float32(0.02)
    grad_sets = [
        (rng.standard_normal(UPDATE_PARAMS, dtype=np.float32) * np.float32(1e-2)).astype(np.float16)
        for _ in range(GRAD_SETS)
    ]
    layout = build_shard_layout(UPDATE_PARAMS, num_ranks=ranks, subgroup_size=UPDATE_SUBGROUP)
    bounds = [layout.rank_intervals[rank] for rank in range(ranks)]
    run.params_per_iteration = UPDATE_PARAMS
    config_of: Dict[str, MLPOffloadConfig] = {}

    def build(directory: Path):
        config = MLPOffloadConfig(
            tiers=tier_configs(directory),
            subgroup_size=UPDATE_SUBGROUP,
            host_cache_bytes=cache_subgroups * UPDATE_SUBGROUP * STATE_BYTES_PER_PARAM,
            adam=ADAM,
            io=IOBackendConfig(backend=backend),
            checkpoint_dir=str(directory / "ckpt"),
            checkpoint_interval=CHECKPOINT_OFF,
        )
        config_of["config"] = config
        throttles = paper_throttles() if throttled else None
        locks = TierLockManager() if ranks > 1 else None
        engines = [
            MLPOffloadEngine(config, layout, rank=rank, lock_manager=locks, throttles=throttles)
            for rank in range(ranks)
        ]
        for rank, engine in enumerate(engines):
            start, stop = bounds[rank]
            engine.initialize(init[start:stop])
        return (throttles, locks), engines

    run.phase("setup")
    (throttles, locks), engines = timed_setups(run, build, setup_repeats)
    config = config_of["config"]
    note_backends(run, engines[0])
    fp16 = [init[start:stop].astype(np.float16) for start, stop in bounds]
    views = [
        [(sg.index, slice(sg.global_start - bounds[rank][0], sg.global_stop - bounds[rank][0]))
         for sg in engine.subgroups]
        for rank, engine in enumerate(engines)
    ]
    executor = concurrent.futures.ThreadPoolExecutor(max_workers=ranks, thread_name_prefix="rank")

    def rank_iteration(rank: int, grads: np.ndarray):
        """One data-parallel rank's iteration: backward hook, update, ckpt hook."""
        engine = engines[rank]
        start, stop = bounds[rank]
        rank_grads = grads[start:stop]
        for index, view in views[rank]:
            engine.on_backward_gradient(index, rank_grads[view])
        engine.on_microbatch_complete()
        report = engine.run_update(fp16[rank])
        engine.maybe_checkpoint(fp16[rank])
        return report

    def iteration(index: int):
        run.iteration(index)
        run.ops["iterations"]["attempted"] += 1
        grads = grad_sets[index % GRAD_SETS]
        if ranks == 1:
            return [rank_iteration(0, grads)]
        futures = [executor.submit(rank_iteration, rank, grads) for rank in range(ranks)]
        return [future.result() for future in futures]

    try:
        # Timed loop.
        run.phase("loop")
        before = program_counters(engines, throttles)
        loop_start = time.perf_counter()
        done = 0
        while keep_going(run, done, loop_start):
            start = time.perf_counter()
            reports = iteration(done)
            run.samples["iter_s"].append(time.perf_counter() - start)
            run.samples["update_s"].append(max(r.stats.wall_seconds for r in reports))
            add_update_stats(run, reports)
            done += 1
        run.loop_seconds = time.perf_counter() - loop_start
        after = program_counters(engines, throttles)
        for key, value in after.items():
            run.counters[key] += value - before.get(key, 0.0)

        # Checkpoint rounds: one more iteration, then each rank snapshots in
        # turn and waits for the commit.  Ranks take turns because without
        # global coordination a rank's first commit may sweep blobs that
        # another rank is still draining.
        run.phase("ckpt")
        for _round in range(CKPT_ROUNDS):
            iteration(done)
            done += 1
            for rank, engine in enumerate(engines):
                run.ops["checkpoints"]["attempted"] += 1
                skipped = engine.checkpointer.skipped_versions
                start = time.perf_counter()
                engine.save_checkpoint(fp16[rank], wait=True)
                elapsed = time.perf_counter() - start
                # A version skipped for lack of space returns normally.
                if engine.checkpointer.skipped_versions == skipped:
                    run.samples["ckpt_commit_s"].append(elapsed)
                    run.ops["checkpoints"]["committed"] += 1
        run.phase("audit")
        masters = [engine.fetch_master_params() for engine in engines]
        for engine in engines:
            run.account_writer(engine)
            run.account_io(engine)
    finally:
        executor.shutdown(wait=True)
        close_all(engines)

    verify_retained_versions(run, config, [f"rank{rank}" for rank in range(ranks)])

    # Restores on fresh engines over the same tiers and checkpoints.
    run.phase("restore")
    for attempt in range(RESTORES):
        for rank in range(ranks):
            fresh = MLPOffloadEngine(config, layout, rank=rank, lock_manager=locks, throttles=throttles)
            try:
                run.ops["restores"]["attempted"] += 1
                start = time.perf_counter()
                restored = fresh.restore_checkpoint()
                run.samples["restore_s"].append(time.perf_counter() - start)
                if attempt == RESTORES - 1:
                    run.phase("audit")
                    require_bitwise(f"rank{rank} restored fp16", restored.fp16_params, fp16[rank])
                    require_bitwise(f"rank{rank} restored master", fresh.fetch_master_params(),
                                    masters[rank])
                    run.phase("restore")
                    run.counters["restore.linked_subgroups"] += restored.linked_subgroups
                    run.counters["restore.lazy_subgroups"] += restored.lazy_subgroups
                    expected_lazy = cache_subgroups
                    require(restored.lazy_subgroups == expected_lazy,
                            f"rank{rank}: {restored.lazy_subgroups} lazy subgroups restored, "
                            f"expected the {expected_lazy} cached ones")
                    require(restored.linked_subgroups == len(fresh.subgroups) - expected_lazy,
                            f"rank{rank}: only {restored.linked_subgroups} subgroups hard-linked")
                run.account_io(fresh)
            finally:
                close_all([fresh])
    run.record_peak_rss()
    stop_tracing(run)

    # Oracles: offload-free bitwise replay, then float64 Adam.
    iterations = done
    for rank, (start, stop) in enumerate(bounds):
        subgroups = [(view.start, view.stop) for _index, view in views[rank]]
        master, working = replay_update(
            init[start:stop],
            lambda i, a=start, b=stop: grad_sets[i % GRAD_SETS][a:b],
            subgroups,
            iterations,
            ADAM,
        )
        require_bitwise(f"rank{rank} fp32 master", masters[rank], master)
        require_bitwise(f"rank{rank} fp16 working copy", fp16[rank], working)
        reference = kingma_ba_float64(
            init[start:stop:ADAM64_STRIDE],
            lambda i, a=start, b=stop: grad_sets[i % GRAD_SETS][a:b:ADAM64_STRIDE],
            iterations,
            lr=ADAM.lr, beta1=ADAM.beta1, beta2=ADAM.beta2, eps=ADAM.eps,
        )
        worst = check_against_float64(
            f"rank{rank} fp32 master", masters[rank][::ADAM64_STRIDE], reference, iterations, ADAM.lr
        )
        run.notes.append(f"rank{rank}: float64 Adam worst |error| {worst:.3g} after {iterations} steps")


def update_local(run: Run) -> None:
    # Buffered I/O: "auto" resolves to O_DIRECT on ext4, which makes this a
    # benchmark of the shared disk (median iteration time swung 0.19-0.37 s
    # between back-to-back runs); through the page cache it measures the code.
    run_update_workload(run, ranks=1, throttled=False, cache_subgroups=0, backend="thread",
                        setup_repeats=SETUP_REPEATS["update-local"])


def update_paper_tiers(run: Run) -> None:
    run_update_workload(run, ranks=2, throttled=True, cache_subgroups=1, backend="auto",
                        setup_repeats=SETUP_REPEATS["update-paper-tiers"])


# -- train-ckpt ----------------------------------------------------------------


def train_ckpt(run: Run) -> None:
    model_config = tiny_test_model(**GPT)
    num_params = TransformerLM(model_config).num_params
    layout = build_shard_layout(num_params, num_ranks=1, subgroup_size=GPT_SUBGROUP)
    trainer_config = TrainerConfig(micro_batch_size=MICRO_BATCH, seed=run.seed)
    run.params_per_iteration = num_params
    config_of: Dict[str, MLPOffloadConfig] = {}

    def build(directory: Path):
        config = MLPOffloadConfig(
            tiers=tier_configs(directory),
            subgroup_size=GPT_SUBGROUP,
            host_cache_bytes=GPT_CACHE_SUBGROUPS * GPT_SUBGROUP * STATE_BYTES_PER_PARAM,
            adam=ADAM,
            # Buffered I/O, as on update-local: on "auto" (O_DIRECT) the
            # update phase's flushes wait on the shared disk, and
            # update_params_per_s spread 0.30 of its median over ten seeds.
            io=IOBackendConfig(backend="thread"),
            checkpoint_dir=str(directory / "ckpt"),
            checkpoint_interval=1,
        )
        config_of["config"] = config
        engine = MLPOffloadEngine(config, layout, rank=0)
        trainer = FunctionalTrainer(model_config, engine, trainer_config=trainer_config)
        return trainer, [engine]

    run.phase("setup")
    trainer, (engine,) = timed_setups(run, build, SETUP_REPEATS["train-ckpt"])
    config = config_of["config"]
    note_backends(run, engine)
    clock = CommitClock(engine)
    losses: List[float] = []
    try:
        run.phase("loop")
        before = program_counters([engine], None)
        loop_start = time.perf_counter()
        done = 0
        while keep_going(run, done, loop_start):
            run.iteration(done)
            run.ops["iterations"]["attempted"] += 1
            start = time.perf_counter()
            report = trainer.train_iteration()
            run.samples["iter_s"].append(time.perf_counter() - start)
            run.samples["update_s"].append(report.update_report.stats.wall_seconds)
            add_update_stats(run, [report.update_report])
            losses.extend(report.losses)
            if report.checkpoint_version is not None:
                run.ops["checkpoints"]["attempted"] += 1
            done += 1
        run.loop_seconds = time.perf_counter() - loop_start
        after = program_counters([engine], None)
        for key, value in after.items():
            run.counters[key] += value - before.get(key, 0.0)
        run.phase("ckpt")
        engine.checkpoint_wait()
        clock.join()
        run.samples["ckpt_commit_s"].extend(clock.samples)
        run.ops["checkpoints"]["committed"] += len(clock.samples)
        run.account_writer(engine)
        run.account_io(engine)
    finally:
        close_all([engine])

    # Restores; the last restored trainer resumes and trains on.
    run.phase("restore")
    for attempt in range(RESTORES):
        fresh = MLPOffloadEngine(config, layout, rank=0)
        try:
            run.ops["restores"]["attempted"] += 1
            start = time.perf_counter()
            resumed = FunctionalTrainer(model_config, fresh, trainer_config=trainer_config, resume=True)
            run.samples["restore_s"].append(time.perf_counter() - start)
            restored = resumed.last_restored
            require(restored.iteration == done,
                    f"restored iteration {restored.iteration}, expected {done}")
            require(restored.linked_subgroups > 0 and restored.lazy_subgroups > 0,
                    f"restore linked {restored.linked_subgroups} and lazily restored "
                    f"{restored.lazy_subgroups} subgroups; both paths must run")
            if attempt == RESTORES - 1:
                run.counters["restore.linked_subgroups"] += restored.linked_subgroups
                run.counters["restore.lazy_subgroups"] += restored.lazy_subgroups
                run.phase("resume")
                clock = CommitClock(fresh)
                for offset in range(RESUME_ITERATIONS):
                    run.iteration(done + offset)
                    run.ops["iterations"]["attempted"] += 1
                    report = resumed.train_iteration()
                    losses.extend(report.losses)
                    if report.checkpoint_version is not None:
                        run.ops["checkpoints"]["attempted"] += 1
                fresh.checkpoint_wait()
                clock.join()
                run.ops["checkpoints"]["committed"] += len(clock.samples)
                run.phase("audit")
                master = resumed.master_params()
                working = resumed.working_params().copy()
                run.account_writer(fresh)
            run.account_io(fresh)
        finally:
            close_all([fresh])
    verify_retained_versions(run, config, ["rank0"])
    run.record_peak_rss()
    stop_tracing(run)

    # Oracle: the offload-free reference trainer over the same iterations.
    reference = InMemoryReferenceTrainer(
        model_config, subgroup_size=GPT_SUBGROUP, adam=ADAM, trainer_config=trainer_config
    )
    reference_losses = [loss for step in reference.train(done + RESUME_ITERATIONS) for loss in step]
    check_losses(losses, reference_losses)
    require_bitwise("resumed fp32 master", master, reference.master_params())
    require_bitwise("resumed fp16 working copy", working, reference.working_params())
    run.notes.append(f"loss {losses[0]:.4f} -> {losses[-1]:.4f} over {len(losses)} iterations")


WORKLOADS = {
    "update-local": update_local,
    "update-paper-tiers": update_paper_tiers,
    "train-ckpt": train_ckpt,
}


# -- metrics -------------------------------------------------------------------

#: name -> unit, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_s": "s",
    "update_params_per_s": "params/s",
    "ckpt_commit_s": "s",
    "ckpt_bytes_per_version": "bytes",
    "restore_s": "s",
    "peak_rss_MB": "MB",
}


def end_to_end(run: Run) -> Dict[str, float]:
    median = statistics.median
    committed = run.ops["checkpoints"]["committed"]
    require(committed > 0, "no checkpoint version committed")
    return {
        "setup_s": median(run.samples["setup_s"]),
        "iter_s": median(run.samples["iter_s"]),
        "update_params_per_s": run.params_per_iteration / median(run.samples["update_s"]),
        "ckpt_commit_s": median(run.samples["ckpt_commit_s"]),
        "ckpt_bytes_per_version": run.stored_bytes / committed,
        "restore_s": median(run.samples["restore_s"]),
        "peak_rss_MB": run.peak_rss_mb,
    }


def per_layer(run: Run) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run: ``name -> (value, unit)``.

    Loop work is reported per timed iteration, checkpoint and codec work per
    committed version, and restore work per restore, so runs that fit a
    different number of iterations into the same time stay comparable.
    Rates and shares are reported as they are.
    """
    tracer = run.tracer
    assert tracer is not None
    loop = ("loop",)
    # Checkpoint, codec and restore work also happens after the timed loop;
    # the benchmark's own audits and oracles are left out.
    program = ("loop", "ckpt", "restore", "resume")
    iterations = len(run.samples["iter_s"])
    versions = max(1, run.ops["checkpoints"]["committed"])
    restores = max(1, run.ops["restores"]["attempted"])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    def spans(name: str, phases=loop) -> Tuple[int, float, int]:
        found = tracer.outermost(name, phases)
        return len(found), sum(s.seconds for s in found), sum(s.amount for s in found)

    def per_iteration(name: str) -> float:
        return spans(name)[1] / iterations

    c = run.counters
    _, adam_s, adam_params = spans("train.adam")
    prefetch_calls, prefetch_s, _ = spans("vtier.prefetch")
    flush_calls, flush_s, _ = spans("vtier.flush")
    _, load_s, load_bytes = spans("store.load_into")
    _, save_s, save_bytes = spans("store.save_from")
    _, encode_s, encode_bytes = spans("codec.encode", program)
    bytes_read = sum(c[f"aio.{tier}.bytes_read"] for tier in TIERS)

    metrics: Dict[str, Tuple[float, str]] = {
        "train.forward_s": (per_iteration("train.forward"), "s/iter"),
        "train.backward_s": (per_iteration("train.backward"), "s/iter"),
        "train.adam_s": (adam_s / iterations, "s/iter"),
        "train.adam_params_per_s": (ratio(adam_params, adam_s), "params/s"),
        "engine.backward_hook_s": (per_iteration("engine.backward_hook"), "s/iter"),
        "engine.update_s": (per_iteration("engine.update"), "s/iter"),
    }
    for key in ("grad_drain_s", "convert_s", "compute_s", "fetch_wait_s", "flush_wait_s"):
        metrics[f"engine.{key}"] = (c[f"engine.{key}"] / iterations, "s/iter")
    metrics["engine.prefetch_depth"] = (float(statistics.median(run.depths)), "subgroups")
    metrics["cache.hits"] = (c["cache.hits"] / iterations, "count/iter")
    metrics["cache.misses"] = (c["cache.misses"] / iterations, "count/iter")
    metrics["vtier.prefetch_calls"] = (prefetch_calls / iterations, "count/iter")
    metrics["vtier.prefetch_s"] = (prefetch_s / iterations, "s/iter")
    metrics["vtier.flush_calls"] = (flush_calls / iterations, "count/iter")
    metrics["vtier.flush_s"] = (flush_s / iterations, "s/iter")
    for tier in TIERS:
        metrics[f"vtier.{tier}.read_share"] = (ratio(c[f"aio.{tier}.bytes_read"], bytes_read), "share")
    for tier in TIERS:
        for key, unit in (("read_ops", "count/iter"), ("write_ops", "count/iter"),
                          ("bytes_read", "bytes/iter"), ("bytes_written", "bytes/iter"),
                          ("read_s", "s/iter"), ("write_s", "s/iter")):
            metrics[f"aio.{tier}.{key}"] = (c[f"aio.{tier}.{key}"] / iterations, unit)
    metrics["aio.retries"] = (c["aio.retries"], "count")
    metrics["aio.failures"] = (c["aio.failures"], "count")
    for tier in TIERS:
        busy = ratio(c[f"throttle.{tier}.busy_s"], run.loop_seconds)
        metrics[f"aio.{tier}.busy_frac"] = (busy, "share")
    for tier in TIERS:
        metrics[f"locks.{tier}.wait_s"] = (c[f"locks.{tier}.wait_s"] / iterations, "s/iter")
        metrics[f"locks.{tier}.contended"] = (c[f"locks.{tier}.contended"] / iterations, "count/iter")
    metrics.update({
        "store.load_into_s": (load_s / iterations, "s/iter"),
        "store.load_GBps": (ratio(load_bytes, load_s) / 1e9, "GB/s"),
        "store.save_from_s": (save_s / iterations, "s/iter"),
        "store.save_GBps": (ratio(save_bytes, save_s) / 1e9, "GB/s"),
        "pool.hits": (c["pool.hits"] / iterations, "count/iter"),
        "pool.misses": (c["pool.misses"] / iterations, "count/iter"),
        "ckpt.snapshot_s": (spans("ckpt.snapshot", program)[1] / versions, "s/version"),
        "ckpt.digest_s": (spans("ckpt.digest", program)[1] / versions, "s/version"),
        "ckpt.staged_bytes": (c["ckpt.staged_bytes"] / versions, "bytes/version"),
        "ckpt.linked_bytes": (c["ckpt.linked_bytes"] / versions, "bytes/version"),
        "ckpt.stored_bytes": (c["ckpt.stored_bytes"] / versions, "bytes/version"),
        "codec.encode_s": (encode_s / versions, "s/version"),
        "codec.encode_MBps": (ratio(encode_bytes, encode_s) / 1e6, "MB/s"),
        "codec.decode_s": (spans("codec.decode", program)[1] / restores, "s/restore"),
        "restore.read_blob_s": (spans("restore.read_blob", program)[1] / restores, "s/restore"),
        "restore.linked_subgroups": (c["restore.linked_subgroups"], "count"),
        "restore.lazy_subgroups": (c["restore.lazy_subgroups"], "count"),
    })
    return metrics

