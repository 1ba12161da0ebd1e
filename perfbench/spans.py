"""Span tracing installed from outside the program.

Wrappers replace functions at class or module level (never on
instances: ``detect`` clones the decision procedure per kernel backend
and per pushdown floors, so an instance patch would miss the clone that
runs).  A function imported by name into other modules is replaced in
every loaded ``repro`` module that holds it.  Each call of a wrapped
function records one span ``(name, start, end, parent, run_id)``; spans
stay in memory until :meth:`Tracer.write` at the end of the run.

Layer self time is a span's duration minus the durations of its direct
children.  The benchmark opens one root span per operation (a detect or
an ingest); the root's own self time is the part of the operation no
wrapped layer covers, reported as ``executor.self_s``.  Self times of
all spans under one root therefore sum to the operation's wall time.

Spans recorded inside forked pool workers stay in the workers; on the
parallel workload the parent sees planning, prewarm, fetches it makes
itself and the wait for the pool (part of ``executor.self_s``), and the
workers' share is measured as their CPU time.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span name → layer metric its self time is added to.
LAYER_OF = {
    "op": "executor.self_s",
    "reduction.plan": "reduction.plan_s",
    "storage.fetch": "storage.fetch_s",
    "similarity.cache": "similarity.kernel_s",
    "matching.compare": "matching.compare_s",
    "matching.derive": "matching.derive_decide_s",
    "matching.decide": "matching.derive_decide_s",
    "executor.prewarm": "executor.prewarm_s",
    "session.refresh": "session.refresh_s",
    "session.journal": "session.journal_s",
    "session.snapshot": "session.snapshot_s",
}


def _targets():
    """``(span name, owner, attribute)`` of every wrapped function."""
    from repro.matching.engine import XTupleDecisionProcedure
    from repro.matching.executor import multisource, scheduler
    from repro.pdb.storage import (
        MultiSourceStore,
        SessionJournal,
        SessionStore,
        SpillingXTupleStore,
    )
    from repro.pdb.storage.columnar import ColumnarXTupleStore
    from repro.reduction import plan
    from repro.service.session import DetectionSession
    from repro.similarity.kernels import SimilarityCache

    return [
        ("reduction.plan", plan, "plan_candidates"),
        ("reduction.plan", multisource, "plan_sources"),
        ("storage.fetch", SpillingXTupleStore, "fetch"),
        ("storage.fetch", ColumnarXTupleStore, "fetch"),
        ("storage.fetch", MultiSourceStore, "fetch"),
        ("storage.fetch", SessionStore, "fetch"),
        ("similarity.cache", SimilarityCache, "__call__"),
        ("matching.compare", XTupleDecisionProcedure, "comparison_matrix"),
        ("matching.derive", XTupleDecisionProcedure, "derivation_input"),
        ("matching.decide", XTupleDecisionProcedure, "decide"),
        ("executor.prewarm", scheduler, "prewarm_plan"),
        ("session.refresh", DetectionSession, "refresh"),
        ("session.journal", SessionJournal, "append_ops"),
        # save() builds the snapshot document that save_snapshot writes.
        ("session.snapshot", DetectionSession, "save"),
        ("session.snapshot", SessionJournal, "save_snapshot"),
    ]


class Tracer:
    """Collects spans from the installed wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.run_id = 0

    def _wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.run_id)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every target; idempotent until :meth:`uninstall`."""
        if self._patches:
            return
        for name, owner, attribute in _targets():
            original = owner.__dict__[attribute]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                continue
            # A module-level function: patch every repro module that
            # imported it by name, so callers bound to it see the wrapper.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attribute) is original
                ):
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    @contextmanager
    def root(self, run_id: int):
        """The root span of one operation; later spans carry *run_id*."""
        self.run_id = run_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("op", start, end, -1, run_id)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Run id → layer metric → summed self time of the run's spans."""
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        runs: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for index, span in enumerate(spans):
            if span is not None:
                runs[span[4]][LAYER_OF[span[0]]] += (
                    span[2] - span[1] - child_time[index]
                )
        return {run: dict(totals) for run, totals in runs.items()}

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, run.

        Written beside *path* and renamed over it, so a reader never
        sees a half-written file.
        """
        partial = f"{path}.{os.getpid()}.partial"
        with gzip.open(partial, "wt", encoding="utf-8") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span, separators=(",", ":")))
                    out.write("\n")
        os.replace(partial, path)
