"""Span recording for the traced benchmark run.

A :class:`Tracer` wraps public calls of the engine at the place where the
calling module binds the name (a class attribute, or a module-level import
such as ``repro.core.engine.adam_update``).  Calls made on I/O threads and
checkpoint drain threads go through the same binding, so they are recorded
as well.  Spans stay in memory until :meth:`Tracer.chrome_trace` writes them
out as Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` open.

Nothing here changes the program: :meth:`Tracer.install` swaps attributes
and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    thread: int
    span_id: int
    parent_id: int  # 0 = no parent on this thread
    iteration: int
    phase: str
    amount: int  # bytes or parameters the call moved (0 when not measured)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _nbytes(index: int, keyword: str) -> Callable:
    """Amount extractor: ``.nbytes`` of positional arg ``index`` (``self`` counts
    as argument 0 of a method) or of keyword argument ``keyword``."""

    def extract(args, kwargs) -> int:
        value = kwargs.get(keyword) if keyword in kwargs else (
            args[index] if len(args) > index else None
        )
        return int(getattr(value, "nbytes", 0))

    return extract


def _adam_params(args, kwargs) -> int:
    state = args[0] if args else kwargs.get("state")
    return int(state.params.size)


def binding_sites() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, amount extractor)`` for every traced call.

    Imported lazily so this module can be loaded before ``repro`` is on the
    path.  Span names are ``<layer>.<call>``; the per-layer metrics in
    ``workloads.py`` aggregate them by name.
    """
    import repro.ckpt.restore as restore_mod
    import repro.ckpt.writer as writer_mod
    import repro.codec.framing as framing_mod
    import repro.core.engine as engine_mod
    import repro.tiers.file_store as file_store_mod
    from repro.aio.engine import AsyncIOEngine
    from repro.ckpt.restore import CheckpointReader
    from repro.ckpt.writer import CheckpointWriter
    from repro.core.engine import OffloadEngineBase
    from repro.core.virtual_tier import VirtualTier
    from repro.tiers.file_store import FileStore
    from repro.train.trainer import FunctionalTrainer
    from repro.train.transformer import TransformerLM

    return [
        (FunctionalTrainer, "train_iteration", "trainer.iteration", None),
        (TransformerLM, "forward", "train.forward", None),
        (TransformerLM, "backward", "train.backward", None),
        (engine_mod, "adam_update", "train.adam", _adam_params),
        (OffloadEngineBase, "initialize", "engine.initialize", None),
        (OffloadEngineBase, "on_backward_gradient", "engine.backward_hook", None),
        (OffloadEngineBase, "run_update", "engine.update", None),
        (OffloadEngineBase, "save_checkpoint", "engine.save_checkpoint", None),
        (OffloadEngineBase, "restore_checkpoint", "engine.restore", None),
        (VirtualTier, "prefetch_subgroup", "vtier.prefetch", None),
        (VirtualTier, "flush_subgroup", "vtier.flush", None),
        (AsyncIOEngine, "submit", "aio.submit", None),
        (FileStore, "load_into", "store.load_into", _nbytes(2, "out")),
        (FileStore, "save_from", "store.save_from", _nbytes(2, "array")),
        (FileStore, "compute_checksum", "ckpt.digest", None),
        (file_store_mod, "payload_digest", "ckpt.digest", None),
        (writer_mod, "payload_digest", "ckpt.digest", None),
        (framing_mod, "payload_digest", "ckpt.digest", None),
        (CheckpointWriter, "snapshot", "ckpt.snapshot", None),
        (writer_mod, "encoded_frame", "codec.encode", _nbytes(0, "array")),
        (restore_mod, "decode_frame_into", "codec.decode", None),
        (CheckpointReader, "read_blob", "restore.read_blob", None),
    ]


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.iteration = -1
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_names: Dict[int, str] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # -- recording -----------------------------------------------------------

    def _wrap(self, func: Callable, name: str, amount: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
                ident = threading.get_ident()
                tracer._thread_names[ident] = threading.current_thread().name
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            iteration, phase = tracer.iteration, tracer.phase
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    Span(
                        name, start, end, threading.get_ident(), span_id, parent,
                        iteration, phase, amount(args, kwargs) if amount is not None else 0,
                    )
                )

        return traced

    def install(self, sites: Iterable[Tuple[object, str, str, Optional[Callable]]]) -> None:
        for owner, attribute, name, amount in sites:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, amount))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        Self time is a span's duration minus the part of its interval that
        its child spans cover (children run on the span's own thread).
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id:
                children[span.parent_id].append(span)
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            covered = 0
            cursor = span.start_ns
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
                lo, hi = max(child.start_ns, cursor), min(child.end_ns, span.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table[span.name]
            row[0] += 1
            row[1] += span.seconds
            row[2] += (span.end_ns - span.start_ns - covered) / 1e9
        return {name: (int(r[0]), r[1], r[2]) for name, r in table.items()}

    def outermost(self, name: str, phases: Optional[Iterable[str]] = None) -> List[Span]:
        """Spans called ``name`` with no enclosing span of the same name.

        Store and digest calls nest (a checksum read digests chunks); summing
        only the outermost ones counts each stretch of wall time once.
        """
        wanted = None if phases is None else set(phases)
        by_id = {span.span_id: span for span in self.spans}
        found = []
        for span in self.spans:
            if span.name != name or (wanted is not None and span.phase not in wanted):
                continue
            parent = by_id.get(span.parent_id)
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent_id)
            if parent is None:
                found.append(span)
        return found

    def chrome_trace(self, path: Path) -> None:
        """Write every span as Chrome trace-event JSON (``ph: X`` events)."""
        tids = {ident: n for n, ident in enumerate(sorted(self._thread_names), start=1)}
        events: List[dict] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": self._thread_names[ident]}}
            for ident, tid in tids.items()
        ]
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tids.get(span.thread, 0),
                "ts": (span.start_ns - self._t0) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "iteration": span.iteration,
                    "phase": span.phase,
                    "amount": span.amount,
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
