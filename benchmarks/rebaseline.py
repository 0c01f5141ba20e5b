"""Gated, selective rebaseline helper for ``BENCH_*.json`` trajectories.

The perf-smoke benchmarks write their trajectory files to a pytest temp
directory unless ``REPRO_BENCH_OUT`` names another one (see
``benchmarks/conftest.py``), so a casual local ``pytest`` run never leaves a
possibly-noisy re-run in the working tree, one ``git add`` away from
silently ratcheting the regression gate (a committed noisy baseline raises
the allowed overhead for every future nightly run).

This tool is the deliberate way to rebaseline:

* it snapshots the HEAD-committed version of every trajectory file,
* regenerates them at the repository root (``pytest -m perf_smoke`` with
  ``REPRO_BENCH_OUT=.``, skipped with ``--no-run``),
* gates the fresh files against the committed ones with the same
  comparator CI uses (``check_trajectory.compare_metrics``,
  machine-independent metrics by default), and
* **restores the committed baselines whenever the gate fails** — a run
  that would not pass CI is never left in the tree.  If a regression is
  real, the cause needs investigating; the baseline is not the place to
  hide it.

Rebaselining is also *selective*: name the trajectories a code change
actually affected and every other baseline is restored untouched even
when the full benchmark suite regenerated it, so reviewers only see
deltas with a stated reason::

    python benchmarks/rebaseline.py BENCH_registry.json
    python benchmarks/rebaseline.py            # keep all (gate still applies)

``SWEEP_*.json`` tables regenerate through ``python -m repro.sweep``; pass
them explicitly together with ``--no-run`` to gate an existing re-run.

Exit status: 0 = fresh baselines kept, 1 = gate failed (committed
baselines restored) or the benchmark run itself failed, 2 = usage error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, List, Sequence, Tuple

_CHECK_PATH = Path(__file__).resolve().with_name("check_trajectory.py")
_spec = importlib.util.spec_from_file_location("check_trajectory", _CHECK_PATH)
check_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trajectory)

#: Default rebaseline scope: the pytest-regenerated benchmark trajectories.
DEFAULT_GLOB = "BENCH_*.json"


def snapshot_committed(
    names: Iterable[str], repo_root: Path, dest: Path
) -> Tuple[List[str], List[str]]:
    """Copy the HEAD-committed version of each trajectory into ``dest``.

    Returns ``(tracked, new)``: names found at HEAD (snapshotted) and names
    with no committed version (brand-new baselines, nothing to gate
    against).
    """
    tracked: List[str] = []
    new: List[str] = []
    for name in names:
        proc = subprocess.run(
            ["git", "-C", str(repo_root), "show", f"HEAD:{name}"],
            capture_output=True,
        )
        if proc.returncode != 0:
            new.append(name)
            continue
        (dest / name).write_bytes(proc.stdout)
        tracked.append(name)
    return tracked, new


def restore_committed(committed_dir: Path, names: Iterable[str], repo_root: Path) -> None:
    """Put the snapshotted committed baselines back into the working tree."""
    for name in names:
        snapshot = committed_dir / name
        if snapshot.is_file():
            (repo_root / name).write_bytes(snapshot.read_bytes())


def rebaseline(
    repo_root: Path,
    committed_dir: Path,
    requested: Sequence[str],
    tracked: Sequence[str],
    new_names: Sequence[str],
    *,
    threshold: float = 0.25,
    ratios_only: bool = True,
    echo: Callable[[str], None] = print,
) -> int:
    """Gate fresh trajectories against committed ones; keep only ``requested``.

    Every tracked trajectory *not* requested is restored from the committed
    snapshot (selective rebaseline).  Requested trajectories are kept only
    if every one of them passes the comparator against its committed
    baseline; a single regression restores **all** of them and returns 1 —
    partial rebaselines would leave the tree in a state no single benchmark
    run produced.
    """
    requested_set = set(requested)
    bystanders = [name for name in tracked if name not in requested_set]
    restore_committed(committed_dir, bystanders, repo_root)
    for name in bystanders:
        echo(f"restored {name} (not requested; committed baseline kept)")

    problems: List[str] = []
    gated = [name for name in tracked if name in requested_set]
    for name in gated:
        candidate_path = repo_root / name
        if not candidate_path.is_file():
            problems.append(f"{name}: no regenerated trajectory in {repo_root}")
            continue
        try:
            base_payload = json.loads((committed_dir / name).read_text(encoding="utf-8"))
            cand_payload = json.loads(candidate_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{name}: unreadable trajectory ({exc})")
            continue
        for problem in check_trajectory.compare_metrics(
            check_trajectory.extract_metrics(base_payload),
            check_trajectory.extract_metrics(cand_payload),
            threshold=threshold,
            ratios_only=ratios_only,
        ):
            problems.append(f"{name}: {problem}")

    if problems:
        restore_committed(committed_dir, gated, repo_root)
        echo(f"\n{len(problems)} gate failure(s) — committed baselines restored:")
        for problem in problems:
            echo(f"  REGRESSION {problem}")
        echo(
            "\nA fresh run that fails the gate is noise or a real regression; "
            "neither belongs in the baseline.  Re-run on a quieter machine or "
            "investigate the cause."
        )
        return 1

    for name in gated:
        echo(f"rebaselined {name} (gate passed against committed baseline)")
    for name in new_names:
        if name in requested_set and (repo_root / name).is_file():
            echo(f"rebaselined {name} (new trajectory; no committed baseline)")
    if gated or new_names:
        echo(
            "\nCommit these with the code change that justifies them and say "
            "so in the commit message (machine, repeat count, or the commit "
            "that changed performance)."
        )
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trajectories", nargs="*",
        help="trajectory files to rebaseline (default: every BENCH_*.json); "
        "all others are restored to their committed content",
    )
    parser.add_argument(
        "--no-run", action="store_true",
        help="gate the trajectories already in the working tree instead of "
        "regenerating them with pytest",
    )
    parser.add_argument(
        "--marker", default="perf_smoke",
        help="pytest -m marker used to regenerate the trajectories",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative regression budget per headline metric (default 0.25)",
    )
    parser.add_argument(
        "--all-metrics", action="store_true",
        help="gate raw durations too (same machine as the committed "
        "baselines); default gates only machine-independent metrics",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    repo_root = Path(__file__).resolve().parents[1]
    known = sorted(path.name for path in repo_root.glob(DEFAULT_GLOB))
    requested = list(args.trajectories) if args.trajectories else known
    for name in requested:
        if Path(name).name != name:
            parser.error(f"trajectory names are repo-root files, got path {name!r}")

    with tempfile.TemporaryDirectory(prefix="repro-rebaseline-") as tmp:
        committed_dir = Path(tmp)
        scope = sorted(set(known) | set(requested))
        tracked, new = snapshot_committed(scope, repo_root, committed_dir)
        if not args.no_run:
            env = dict(os.environ)
            parts = [str(repo_root / "src")]
            if env.get("PYTHONPATH"):
                parts.append(env["PYTHONPATH"])
            env["PYTHONPATH"] = os.pathsep.join(parts)
            env["REPRO_BENCH_OUT"] = "."
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-m", args.marker, "-q"],
                cwd=repo_root, env=env,
            )
            if proc.returncode != 0:
                restore_committed(committed_dir, tracked, repo_root)
                print(
                    f"benchmark run failed (exit {proc.returncode}); "
                    "committed baselines restored",
                    file=sys.stderr,
                )
                return 1
        return rebaseline(
            repo_root, committed_dir, requested, tracked, new,
            threshold=args.threshold, ratios_only=not args.all_metrics,
        )


if __name__ == "__main__":
    raise SystemExit(main())
