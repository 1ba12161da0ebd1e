"""The four benchmark workloads and the loops that measure them.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned.  An operation is one
streamed ``detect`` / ``detect_between`` (dense_full, spilled_stream,
parallel_consolidate) or one ``DetectionSession.ingest`` batch
(durable_ingest).  Each timed detection gets a fresh detector, so it
starts with empty similarity caches, as a one-shot caller does.

Correctness: every operation's decisions are digested (ids, status and
``repr`` of the similarity) and compared after the loop with the
serial, in-memory, ``kernel_backend="python"`` reference over the same
generated inputs.  A mismatch or an exception counts as a failed
operation.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import inputs
from spans import LAYER_OF, Tracer

from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector
from repro.matching.executor import prune_disjoint_sources
from repro.pdb.io import open_store
from repro.pdb.relations import XRelation
from repro.pdb.storage import combine_sources
from repro.reduction import CertainKeyBlocking, SubstringKey

clock = time.perf_counter

#: Extra set-ups per run after the measured loop; ``setup_s`` is the
#: import time plus the median over all set-ups of the run.
SETUP_REPEATS = 4
#: Traced operations per traced run: every span stays in memory until
#: the run ends, and one dense operation records ~4·10^4 spans.
TRACED_OPS = 3
#: Reopens of the durable session per run; ``reopen_s`` is their median.
REOPEN_REPEATS = 5


def detector(reducer=None) -> DuplicateDetector:
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=reducer
    )


def digest(decisions) -> str:
    """Order-sensitive digest of a decision sequence."""
    text = "".join(
        f"{decided.left_id}|{decided.right_id}|{decided.status.value}|"
        f"{decided.similarity!r}\n"
        for decided in decisions
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """High-water RSS of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def bytes_written() -> int:
    """Bytes this process has passed to write calls (``wchar``)."""
    with open("/proc/self/io", "rb") as counters:
        for line in counters:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def cache_counts(matcher) -> tuple[int, int]:
    """Summed ``(hits, misses)`` of the matcher's similarity caches."""
    hits = misses = 0
    for cache in matcher.cache_stats().values():
        hits += cache.hits
        misses += cache.misses
    return hits, misses


def page_counts(stores) -> tuple[int, int]:
    """Summed page-cache ``(hits, misses)`` of the stores."""
    hits = misses = 0
    for store in stores:
        info = store.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percentile(values, share: float) -> float:
    """Nearest-rank percentile, *share* in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


@dataclass
class Op:
    """One measured operation."""

    wall: float
    #: Seconds from the call until the first decided partition.
    first: float
    #: Pairs decided (re-decided, for an ingest).
    pairs: int
    digest: str
    run_id: int
    traced: bool
    #: Per-operation counts from the program's public counters.
    counts: dict = field(default_factory=dict)
    #: Index of the ingested batch (ingests only).
    batch: int = -1


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    #: Metric name → ``(value, unit)``.
    metrics: dict
    attempted: int
    failed: int
    notes: list = field(default_factory=list)
    #: The run's tracer, whose spans ``run.py`` writes out at the end.
    tracer: Tracer | None = None


class Measurement:
    """Set-up times, operations and failures of one run."""

    def __init__(self, trace: bool, import_s: float) -> None:
        self.tracer = Tracer() if trace else None
        self.import_s = import_s
        self.setups: list[float] = []
        self.ops: list[Op] = []
        #: Operations that raised, and measured ones whose decisions
        #: differ from the reference.
        self.errors = 0
        self.mismatches = 0
        #: Correctness checks made besides the operations themselves.
        self.checks = 0
        self.failed_checks = 0
        self._run_id = 0

    def next_run_id(self) -> int:
        self._run_id += 1
        return self._run_id

    def timed_setup(self, build, *args):
        started = clock()
        state = build(*args)
        self.setups.append(clock() - started)
        return state

    def check(self, ok: bool) -> None:
        """Record one correctness check that is not an operation."""
        self.checks += 1
        self.failed_checks += not ok

    @property
    def untraced(self) -> list[Op]:
        return [op for op in self.ops if not op.traced]

    @property
    def traced(self) -> list[Op]:
        return [op for op in self.ops if op.traced]

    def end_to_end(self, rss: float) -> dict:
        untraced = self.untraced
        return {
            "setup_s": (self.import_s + statistics.median(self.setups), "s"),
            "pairs_per_s": (
                statistics.median(op.pairs / op.wall for op in untraced),
                "1/s",
            ),
            "first_slice_ms": (
                statistics.median(op.first for op in untraced) * 1000, "ms"
            ),
            "latency_p50_ms": (
                statistics.median(op.wall for op in untraced) * 1000, "ms"
            ),
            "peak_rss_mb": (rss, "MiB"),
        }

    def layer_times(self) -> dict:
        """Mean self seconds per traced operation, for every layer."""
        runs = self.tracer.self_times()
        traced = self.traced
        return {
            layer: (
                mean(runs.get(op.run_id, {}).get(layer, 0.0)
                     for op in traced),
                "s",
            )
            for layer in sorted(set(LAYER_OF.values()))
        }

    def count(self, key: str) -> float:
        """Mean of one per-operation count over the traced operations."""
        return mean(op.counts.get(key, 0) for op in self.traced)

    def outcome(self, metrics: dict, notes: list) -> Outcome:
        attempted = len(self.ops) + self.errors + self.checks
        failed = self.errors + self.mismatches + self.failed_checks
        metrics["failed_ops_ratio"] = (ratio(failed, attempted), "ratio")
        if self.tracer is not None:
            layers = sum(
                metrics[layer][0] for layer in set(LAYER_OF.values())
            )
            wall = mean(op.wall for op in self.traced)
            notes.append(
                f"layer self times sum to {layers * 1000:.3f} ms; a traced "
                f"operation took {wall * 1000:.3f} ms on average"
            )
        return Outcome(metrics, attempted, failed, notes, self.tracer)


# ----------------------------------------------------------------------
# Detection workloads
# ----------------------------------------------------------------------


class DenseFull:
    """Serial in-memory FullComparison over multi-alternative x-tuples."""

    n_jobs = 1
    reducer = None

    def setup(self, seed: int, workdir: str, index: int) -> dict:
        return {"sources": [inputs.dense_relation(seed)],
                "detector": detector(self.reducer)}

    def stores(self, state):
        return ()

    def stream(self, state, detect):
        return detect.detect(
            state["sources"][0],
            stream=True,
            keep_derivations=False,
            keep_compared_pairs=False,
        )

    def reference(self, state):
        return detector(self.reducer).detect(
            state["sources"][0],
            n_jobs=1,
            kernel_backend="python",
            keep_derivations=False,
        ).decisions

    def close(self, state) -> None:
        for store in self.stores(state):
            store.close()

    def static_counts(self, state) -> dict:
        return {}


class SpilledStream(DenseFull):
    """Row-layout spilled store, 4 × 64-tuple page budget, streamed."""

    reducer = CertainKeyBlocking(SubstringKey([("name", 1), ("job", 1)]))

    def setup(self, seed: int, workdir: str, index: int) -> dict:
        relation = inputs.spilled_relation(seed)
        path = os.path.join(workdir, f"spilled-{index}")
        options = dict(
            page_size=inputs.SPILLED_PAGE_SIZE,
            max_pages=inputs.SPILLED_MAX_PAGES,
        )
        relation.spill(path, **options).close()
        return {
            "sources": [relation],
            "stores": [open_store(path, **options)],
            "paths": [path],
            "detector": detector(self.reducer),
        }

    def stores(self, state):
        return state["stores"]

    def stream(self, state, detect):
        return detect.detect(
            state["stores"][0],
            stream=True,
            keep_derivations=False,
            keep_compared_pairs=False,
        )

    def static_counts(self, state) -> dict:
        return {
            "storage.store_bytes_per_input_byte": ratio(
                sum(directory_bytes(path) for path in state["paths"]),
                sum(inputs.exact_json_bytes(s) for s in state["sources"]),
            ),
            "page_size": state["stores"][0].cache_info().page_size,
        }


class ParallelConsolidate(SpilledStream):
    """``detect_between`` over three columnar sources on the fork pool."""

    reducer = CertainKeyBlocking(SubstringKey([("name", 1)]))
    #: Two workers, never more than the machine has CPUs.
    n_jobs = min(2, os.cpu_count() or 1)

    def setup(self, seed: int, workdir: str, index: int) -> dict:
        sources = inputs.consolidation_sources(seed)
        paths = []
        for source in sources:
            path = os.path.join(workdir, f"{source.name}-{index}")
            source.spill(path, layout="columnar").close()
            paths.append(path)
        return {
            "sources": sources,
            "stores": [open_store(path) for path in paths],
            "paths": paths,
            "detector": detector(self.reducer),
        }

    def stream(self, state, detect):
        return detect.detect_between(
            *state["stores"],
            within_sources=False,
            n_jobs=self.n_jobs,
            stream=True,
            keep_derivations=False,
            keep_compared_pairs=False,
        )

    def reference(self, state):
        return detector(self.reducer).detect_between(
            *state["sources"],
            within_sources=False,
            n_jobs=1,
            kernel_backend="python",
            keep_derivations=False,
        ).decisions

    def static_counts(self, state) -> dict:
        counts = super().static_counts(state)
        _view, pruned = prune_disjoint_sources(
            combine_sources(state["stores"]), self.reducer
        )
        counts["executor.sources_pruned"] = len(pruned)
        return counts


def cells(alternatives: dict, decisions) -> int:
    """Alternative pairs (k × l comparison cells) behind the decisions."""
    return sum(
        alternatives[d.left_id] * alternatives[d.right_id]
        for d in decisions
    )


def report_counts(report) -> dict:
    """Per-operation counts of an ``ExecutionReport``."""
    return {
        "executor.prewarmed_entries": report.prewarmed_entries,
        "executor.dispatch_tasks": report.dispatch_tasks,
        "executor.fault_events": (
            report.worker_crashes + report.worker_timeouts
            + report.retried_dispatches
        ),
    }


def op_scope(tracer: Tracer | None, run_id: int):
    """The root span of one operation, when tracing."""
    return tracer.root(run_id) if tracer is not None else nullcontext()


def _detect_op(workload, state, detect, tracer, run_id) -> Op:
    """One streamed detection; decisions are digested after the clock."""
    stores = workload.stores(state)
    for store in stores:
        store.clear_cache()
    pages_before = page_counts(stores)
    cpu_kind = (
        resource.RUSAGE_CHILDREN if workload.n_jobs > 1
        else resource.RUSAGE_SELF
    )
    cpu_before = cpu_seconds(cpu_kind)
    pieces = []
    first = None
    if tracer is not None:
        tracer.install()
    try:
        with op_scope(tracer, run_id):
            start = clock()
            for piece in workload.stream(state, detect):
                if first is None:
                    first = clock() - start
                pieces.append(piece)
            wall = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    worker_cpu = cpu_seconds(cpu_kind) - cpu_before
    decisions = [d for piece in pieces for d in piece.decisions]
    report = detect.last_report
    page_hits, page_misses = (
        after - before
        for after, before in zip(page_counts(stores), pages_before)
    )
    cache_hits, cache_misses = cache_counts(detect.procedure.matcher)
    alternatives = state["alternatives"]
    return Op(
        wall=wall,
        first=first if first is not None else wall,
        pairs=len(decisions),
        digest=digest(decisions),
        run_id=run_id,
        traced=tracer is not None,
        counts={
            "reduction.candidate_pairs": report.total_pairs,
            "reduction.partitions": report.partitions,
            "storage.page_loads": page_misses,
            "storage.page_hits": page_hits,
            "similarity.kernel_calls": cache_misses,
            "similarity.cache_hits": cache_hits,
            "matching.cells": cells(alternatives, decisions),
            "matching.pairs": len(decisions),
            "executor.worker_cpu_s": worker_cpu,
            **report_counts(report),
        },
    )


def layer_metrics(run: Measurement, n_jobs: int, static: dict) -> dict:
    """Per-layer metrics shared by every workload, from traced operations.

    Times are mean self seconds per traced operation; counts are means
    per traced operation of the program's public counters.
    """
    traced = run.traced
    untraced = run.untraced
    page_loads = run.count("storage.page_loads")
    page_hits = run.count("storage.page_hits")
    kernel_calls = run.count("similarity.kernel_calls")
    cache_hits = run.count("similarity.cache_hits")
    worker_cpu = run.count("executor.worker_cpu_s")
    metrics = run.layer_times()
    metrics.update(
        {
            "reduction.candidate_pairs": (
                run.count("reduction.candidate_pairs"), "count"
            ),
            "reduction.partitions": (run.count("reduction.partitions"),
                                     "count"),
            "storage.page_loads": (page_loads, "count"),
            "storage.decodes_per_tuple": (
                ratio(page_loads * static.get("page_size", 0),
                      static["tuples"]),
                "ratio",
            ),
            "storage.page_hit_rate": (
                ratio(page_hits, page_hits + page_loads), "ratio"
            ),
            "storage.store_bytes_per_input_byte": (
                static.get("storage.store_bytes_per_input_byte", 0.0),
                "ratio",
            ),
            "similarity.kernel_calls": (kernel_calls, "count"),
            "similarity.cache_hit_rate": (
                ratio(cache_hits, cache_hits + kernel_calls), "ratio"
            ),
            "matching.cells_per_pair": (
                ratio(run.count("matching.cells"),
                      run.count("matching.pairs")),
                "ratio",
            ),
            "executor.prewarmed_entries": (
                run.count("executor.prewarmed_entries"), "count"
            ),
            "executor.dispatch_tasks": (
                run.count("executor.dispatch_tasks"), "count"
            ),
            "executor.worker_cpu_s": (worker_cpu, "s"),
            "executor.parallel_efficiency": (
                ratio(worker_cpu, n_jobs * mean(op.wall for op in traced)),
                "ratio",
            ),
            "executor.fault_events": (
                sum(op.counts["executor.fault_events"] for op in traced),
                "count",
            ),
            "executor.sources_pruned": (
                static.get("executor.sources_pruned", 0), "count"
            ),
            # Against the untraced operations that alternated with the
            # traced ones, so both sides ran under the same load.
            "trace.overhead_ratio": (
                ratio(statistics.median(op.wall for op in traced),
                      statistics.median(op.wall
                                        for op in untraced[:len(traced)])),
                "ratio",
            ),
        }
    )
    return metrics


def run_detect(workload, seed, seconds, trace, workdir, import_s) -> Outcome:
    """Closed loop of streamed detections for *seconds* seconds."""
    run = Measurement(trace, import_s)
    state = run.timed_setup(workload.setup, seed, workdir, 0)
    state["alternatives"] = {
        xtuple.tuple_id: len(xtuple.alternatives)
        for source in state["sources"]
        for xtuple in source
    }
    # Traced runs alternate untraced and traced operations, so the
    # overhead ratio compares operations made under the same load.
    modes = (None, run.tracer) if trace else (None,)
    deadline = clock() + seconds
    while not run.errors and (not run.ops or clock() < deadline):
        for tracer in modes:
            if tracer is not None and len(run.traced) >= TRACED_OPS:
                continue
            try:
                # The first operation uses the detector built in set-up.
                detect = state.pop("detector", None) or detector(
                    workload.reducer
                )
                run.ops.append(
                    _detect_op(workload, state, detect, tracer,
                               run.next_run_id())
                )
            except Exception:  # counted as a failed operation
                traceback.print_exc()
                run.errors += 1
                break
    rss = peak_rss_mb()
    static = workload.static_counts(state)
    static["tuples"] = len(state["alternatives"])
    for index in range(1, SETUP_REPEATS + 1):
        workload.close(run.timed_setup(workload.setup, seed, workdir, index))
    reference = digest(workload.reference(state))
    workload.close(state)
    run.mismatches = sum(op.digest != reference for op in run.ops)

    metrics = run.end_to_end(rss)
    if trace:
        metrics.update(layer_metrics(run, workload.n_jobs, static))
    notes = [
        f"{len(run.untraced)} untraced and {len(run.traced)} traced "
        f"operations of {run.ops[0].pairs if run.ops else 0} pairs",
    ]
    return run.outcome(metrics, notes)


# ----------------------------------------------------------------------
# Durable ingest
# ----------------------------------------------------------------------

SESSION_REDUCER = CertainKeyBlocking(SubstringKey([("name", 1)]))


class FirstProgress:
    """Progress observer noting when an ingest's first partition ends."""

    def __init__(self) -> None:
        self.at: float | None = None

    def __call__(self, _event) -> None:
        if self.at is None:
            self.at = clock()


def _open_session(detect, base, path: str, progress):
    return detect.session(
        base, journal=path, keep_derivations=False, on_progress=progress
    )


def _session_setup(seed: int, workdir: str, index: int) -> dict:
    """Base relation, batches, and a journaled session after detect()."""
    base = inputs.session_base(seed)
    batches = inputs.session_batches(seed, base, inputs.SESSION_INGESTS)
    detect = detector(SESSION_REDUCER)
    progress = FirstProgress()
    path = os.path.join(workdir, f"session-{index}")
    session = _open_session(detect, base, path, progress)
    session.detect()
    return {
        "base": base,
        "batches": batches,
        "path": path,
        "detector": detect,
        "session": session,
        "progress": progress,
    }


def _ingest_op(state, batch: int, tracer, run_id: int) -> Op:
    """One journaled ingest; decisions are digested after the clock."""
    session = state["session"]
    progress = state["progress"]
    upserts, deletes = state["batches"][batch]
    journal = os.path.join(state["path"], "journal.jsonl")
    journal_before = (
        os.path.getsize(journal) if os.path.exists(journal) else 0
    )
    stats = session.stats
    planned, executed = stats.pairs_planned, stats.pairs_executed
    partitions, reused = stats.partitions_planned, stats.partitions_reused
    matcher = state["detector"].procedure.matcher
    hits_before, misses_before = cache_counts(matcher)
    cpu_before = cpu_seconds(resource.RUSAGE_SELF)
    written_before = bytes_written()
    progress.at = None
    if tracer is not None:
        tracer.install()
    try:
        with op_scope(tracer, run_id):
            start = clock()
            result = session.ingest(upserts, deletes=deletes)
            wall = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    written = bytes_written() - written_before
    worker_cpu = cpu_seconds(resource.RUSAGE_SELF) - cpu_before
    hits, misses = cache_counts(matcher)
    redecided = stats.pairs_executed - executed
    return Op(
        wall=wall,
        first=progress.at - start if progress.at is not None else wall,
        pairs=redecided,
        digest=digest(result.decisions),
        run_id=run_id,
        traced=tracer is not None,
        batch=batch,
        counts={
            "reduction.candidate_pairs": stats.pairs_planned - planned,
            "reduction.partitions": stats.partitions_planned - partitions,
            "similarity.kernel_calls": misses - misses_before,
            "similarity.cache_hits": hits - hits_before,
            # Every session tuple is flat: one cell per re-decided pair.
            "matching.cells": redecided,
            "matching.pairs": redecided,
            "executor.worker_cpu_s": worker_cpu,
            **report_counts(session.last_report),
            "session.partitions_reused": stats.partitions_reused - reused,
            "session.bytes_written": written,
            "session.bytes_journaled": os.path.getsize(journal)
            - journal_before,
        },
    )


def run_durable(seed, seconds, trace, workdir, import_s) -> Outcome:
    """Cycles of a fixed ingest sequence against a journaled session.

    Every cycle opens a fresh session and replays the same batches, so
    the session-age profile of the measured ingests is the same on
    every run; cycles repeat until *seconds* have passed.
    """
    run = Measurement(trace, import_s)
    state = run.timed_setup(_session_setup, seed, workdir, 0)
    deadline = clock() + seconds
    cycles = 0
    while True:
        for batch in range(len(state["batches"])):
            # Traced runs trace every other ingest of a cycle, so traced
            # and untraced ingests see the same session ages.
            tracer = run.tracer if trace and batch % 2 else None
            try:
                run.ops.append(
                    _ingest_op(state, batch, tracer, run.next_run_id())
                )
            except Exception:  # counted as a failed operation
                traceback.print_exc()
                run.errors += 1
                break
        cycles += 1
        if run.errors or clock() >= deadline:
            break
        state = run.timed_setup(
            _session_setup, seed, workdir, cycles
        )
    rss = peak_rss_mb()
    snapshot_bytes = os.path.getsize(
        os.path.join(state["path"], "snapshot.json")
    )
    live = digest(state["session"].detect().decisions)
    reopen_walls, reopened = [], []
    for _ in range(REOPEN_REPEATS):
        started = clock()
        session = _open_session(
            detector(SESSION_REDUCER), state["base"], state["path"], None
        )
        result = session.detect()
        reopen_walls.append(clock() - started)
        reopened.append(digest(result.decisions))
    while len(run.setups) < SETUP_REPEATS + 1:
        run.timed_setup(_session_setup, seed, workdir, len(run.setups))

    reference = detector(SESSION_REDUCER).session(
        state["base"], kernel_backend="python", keep_derivations=False
    )
    reference.detect()
    expected = [
        digest(reference.ingest(upserts, deletes=deletes).decisions)
        for upserts, deletes in state["batches"]
    ]
    run.mismatches = sum(
        op.digest != expected[op.batch] for op in run.ops
    )
    final_view = XRelation(
        "final", inputs.SCHEMA, list(state["session"].store)
    )
    scratch = digest(
        detector(SESSION_REDUCER).detect(
            final_view, n_jobs=1, kernel_backend="python",
            keep_derivations=False,
        ).decisions
    )
    run.check(live == scratch)
    for reopened_digest in reopened:
        run.check(reopened_digest == scratch)

    untraced = run.untraced
    written = sum(op.counts["session.bytes_written"] for op in untraced)
    journaled = sum(op.counts["session.bytes_journaled"] for op in untraced)
    metrics = run.end_to_end(rss)
    metrics.update(
        {
            "session.ingest_p90_ms": (
                percentile([op.wall for op in untraced], 0.9) * 1000, "ms"
            ),
            "session.reopen_s": (statistics.median(reopen_walls), "s"),
            "session.write_bytes_per_ingested_byte": (
                ratio(written, journaled), "ratio"
            ),
            "session.snapshot_bytes": (snapshot_bytes, "bytes"),
        }
    )
    if trace:
        planned = sum(op.counts["reduction.candidate_pairs"] for op in run.ops)
        partitions = sum(op.counts["reduction.partitions"] for op in run.ops)
        metrics.update(
            layer_metrics(run, 1, {"tuples": len(state["base"])})
        )
        metrics.update(
            {
                "session.partition_reuse_ratio": (
                    ratio(sum(op.counts["session.partitions_reused"]
                              for op in run.ops), partitions),
                    "ratio",
                ),
                "session.pairs_redecided_ratio": (
                    ratio(sum(op.pairs for op in run.ops), planned), "ratio"
                ),
            }
        )
    notes = [
        f"{cycles} cycles of {len(state['batches'])} ingests: "
        f"{len(untraced)} untraced, {len(run.traced)} traced; "
        f"{REOPEN_REPEATS} reopens",
    ]
    return run.outcome(metrics, notes)


WORKLOADS = {
    "dense_full": lambda *args: run_detect(DenseFull(), *args),
    "spilled_stream": lambda *args: run_detect(SpilledStream(), *args),
    "durable_ingest": run_durable,
    "parallel_consolidate": lambda *args: run_detect(
        ParallelConsolidate(), *args
    ),
}
