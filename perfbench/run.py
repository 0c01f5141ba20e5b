#!/usr/bin/env python3
"""Benchmark of the MLP-Offload engine: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py                          # every workload, seed 0, BENCHMARK.json run_seconds
    python3 perfbench/run.py --workload update-local --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload train-ckpt --trace 1

Each workload runs in a child process of its own, so peak memory, buffer
pools and the page cache of one workload do not carry over to the next.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and traced, writes a Chrome trace, prints each
layer's self time and the tracing overhead, and reports the per-layer
metrics.  The last line of standard output is one JSON object; for a single
workload it has exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Tier, checkpoint and trace files go under ``--out`` (default
``.perfbench/`` in the checkout, which git ignores); tier and checkpoint
files are deleted when the workload ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("update-local", "update-paper-tiers", "train-ckpt")
#: One child may take this long; a ``--trace 1`` run starts two.
CHILD_TIMEOUT_S = 85


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed loop of each workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                        help="directory for tier, checkpoint and trace files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload in this process ---------------------------------------


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and insist on using it."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {ROOT / 'src'}")


def summarize_ops(ops: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Top-level accounting: iterations, checkpoint versions and restores."""
    attempted = (ops["iterations"]["attempted"] + ops["checkpoints"]["attempted"]
                 + ops["restores"]["attempted"])
    failed = (ops["iterations"]["failed"] + ops["restores"]["failed"]
              + ops["checkpoints"]["attempted"] - ops["checkpoints"]["committed"])
    return {"attempted": attempted, "failed": failed}


def describe(samples: List[float]) -> str:
    """Count, minimum, median and maximum of a sample set; from 40 samples on,
    also the highest percentile with ten samples above it."""
    values = sorted(samples)
    text = (f"n={len(values)} min {values[0]:.4f} median {statistics.median(values):.4f} "
            f"max {values[-1]:.4f}")
    if len(values) >= 40:
        index = len(values) - 11
        text += f" p{100 * (index + 1) / len(values):.0f} {values[index]:.4f}"
    return text


def print_self_times(tracer) -> None:
    print(f"{'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, own) in sorted(tracer.self_times().items(),
                                            key=lambda item: -item[1][2]):
        print(f"{name:<24} {calls:>8} {total:>10.4f} {own:>10.4f}")


def child_main(args: argparse.Namespace) -> int:
    import_program()
    from oracles import OracleError
    from tracing import Tracer, binding_sites
    from workloads import END_TO_END_UNITS, WORKLOADS, Run, end_to_end, per_layer

    args.out.mkdir(parents=True, exist_ok=True)
    root = args.out / f"work-{args.workload}-{os.getpid()}"
    run = Run(seed=args.seed, seconds=args.seconds, root=root,
              tracer=Tracer() if args.trace else None)
    result: Dict[str, object] = {"correct": False, "ops": run.ops}
    status = 1
    try:
        root.mkdir(parents=True)
        if run.tracer is not None:
            run.tracer.install(binding_sites())
        WORKLOADS[args.workload](run)
        metrics = end_to_end(run)
        result["metrics"] = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()
        }
        print(f"[{args.workload}] seed {args.seed}: {len(run.samples['iter_s'])} timed iterations "
              f"in {run.loop_seconds:.2f} s")
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<24} {metrics[name]:>16.6g} {unit}")
        for name in ("iter_s", "update_s", "setup_s", "ckpt_commit_s", "restore_s"):
            print(f"  {name} samples: {describe(run.samples[name])}")
        for note in run.notes:
            print(f"  {note}")
        print(f"  operations: {json.dumps(run.ops)}")
        if run.tracer is not None:
            trace_path = args.out / f"trace-{args.workload}-seed{args.seed}.json"
            run.tracer.chrome_trace(trace_path)
            print(f"  trace: {trace_path} ({len(run.tracer.spans)} spans)")
            print_self_times(run.tracer)
            layers = per_layer(run)
            result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
            for name, (value, unit) in layers.items():
                print(f"  {name:<28} {value:>16.6g} {unit}")
        result["correct"] = True
        status = 0
    except OracleError as exc:
        print(f"[{args.workload}] INCORRECT: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - any failure fails the run, with its traceback
        traceback.print_exc()
        run.ops["iterations"]["failed"] += 1
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(root, ignore_errors=True)
    result.update(summarize_ops(run.ops))
    print(json.dumps(result))
    return status


# -- parent: one child per workload --------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment of a child, with one BLAS/OpenMP thread.

    OpenBLAS otherwise starts a thread per core that spin-waits between
    matrix products; on a two-core host those threads take the cores from
    the checkpoint drain and the I/O threads (a train-ckpt iteration took
    1.1 s with them and 0.8 s with one thread).
    """
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: argparse.Namespace, workload: str, trace: bool) -> Optional[dict]:
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(trace)),
               "--out", str(args.out)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=child_env())
    except subprocess.TimeoutExpired:
        print(f"[{workload}] timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or not result.get("correct"):
        print(f"[{workload}] failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return result


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(metrics: Dict[str, dict], section: str) -> bool:
    """Whether ``metrics`` are exactly the ones BENCHMARK.json declares, units too."""
    spec = benchmark_spec()[section]
    want = {entry["name"]: entry["unit"] for entry in spec}
    got = {name: metric["unit"] for name, metric in metrics.items()}
    if got != want:
        print(f"metrics disagree with BENCHMARK.json {section}: "
              f"{sorted(set(got.items()) ^ set(want.items()))}", file=sys.stderr)
    return got == want


def run_workload(args: argparse.Namespace, workload: str) -> Optional[dict]:
    base = run_child(args, workload, trace=False)
    if base is None or not declared(base["metrics"], "end_to_end"):
        return None
    if not args.trace:
        return {
            "correct": True,
            "attempted": base["attempted"],
            "failed": base["failed"],
            "metrics": base["metrics"],
        }
    traced = run_child(args, workload, trace=True)
    if traced is None or not declared(traced["layers"], "per_layer"):
        return None
    print(f"[{workload}] tracing overhead (traced - untraced):")
    for name, metric in base["metrics"].items():
        delta = traced["metrics"][name]["value"] - metric["value"]
        share = delta / metric["value"] if metric["value"] else 0.0
        print(f"  {name:<24} {delta:>+14.6g} {metric['unit']:<9} ({share:+.1%})")
    return {
        "correct": True,
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "metrics": traced["layers"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    args.out = args.out.resolve()
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    start = time.perf_counter()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(args, name) for name in names}
    print(f"benchmark wall time {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if any(result is None for result in results.values()):
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
