"""Trace harness of the end-to-end benchmark: timing wrappers and spans.

Under ``--trace 1`` the benchmark replaces selected public functions of
the program with timing wrappers, patched where each name is looked up
(``repro.serving.artifact.run_query``, not ``repro.serving.kernel.run_query``,
because the artifact module imported it by name).  Each call records one
span ``(name, start_ns, end_ns, span_id, parent_id, a, b)`` in memory; the
parent is the innermost traced call still open on the same thread, and
``a``/``b`` are optional work counts taken from the call's arguments or
result (users per query, rows per step, flops and bytes, delta bytes).
Without ``--trace`` nothing is patched, so the untraced run pays nothing.

Spans stay in memory and are dumped per process as JSON when the process
ends: the benchmark process dumps its own, the serving child dumps the
front-end's on exit, and every forked serving worker dumps its own from
the wrapped ``worker_main`` (the child installs the wrappers before it
forks, so workers inherit them).  All processes stamp spans with
``time.perf_counter_ns``, which reads ``CLOCK_MONOTONIC`` on Linux, so
spans from different processes fall into the same phase windows.

A span's *self time* is its duration minus the time its child spans
cover.  Children run on the parent's thread, inside the parent's interval
and one after another, so their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded call: name index, start/end (ns), span id, parent id
#: (-1 at top level), two work counts.
Span = Tuple[int, int, int, int, int, float, float]


class SpanRecorder:
    """The in-memory span buffer of one process."""

    def __init__(self, role: str) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.reset(role)

    def reset(self, role: str) -> None:
        """Empty the buffer (a forked worker drops the spans it inherited;
        the installed wrappers keep their name indices)."""
        self.role = role
        self.spans: List[Span] = []
        self.ids = itertools.count()
        self._local = threading.local()

    def name_index(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def stack(self) -> List[int]:
        """Ids of the traced calls open on the calling thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, directory) -> Path:
        """Write this process's spans to ``directory/<role>-<pid>.json``."""
        path = Path(directory) / f"{self.role}-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "pid": os.getpid(),
                       "names": self.names, "spans": self.spans}, handle)
        return path


# --------------------------------------------------------------------- #
# work counts taken from a traced call
# --------------------------------------------------------------------- #
def _users_per_query(args, kwargs, result):
    return float(args[0].users.size), 0.0


def _similarity_work(args, kwargs, result):
    """Flops and bytes of one ``facet_candidate_scores`` call.

    Mirrors the function's own path choice: the dense path scores every
    user against all ``M`` unique candidates, the sparse one only against
    each user's ``C`` candidates.  Flops are ``2·U·I·K·D``; bytes are the
    item-facet block read plus the per-facet ``(K, U, I)`` score block.
    """
    from repro.core.similarity import ALL_PAIRS_CANDIDATE_RATIO

    user_facets, item_facets, inverse = args[0], args[1], args[2]
    n_facets, n_unique, dim = item_facets.shape
    n_users, width = inverse.shape
    scored = n_unique if n_unique <= ALL_PAIRS_CANDIDATE_RATIO * width \
        else width
    flops = 2.0 * n_users * scored * n_facets * dim
    moved = item_facets.nbytes + 8.0 * n_facets * n_users * scored
    return flops, moved


def _rows_per_step(args, kwargs, result):
    return float(result.user_rows.size + result.item_rows.size), 0.0


def _delta_bytes(args, kwargs, result):
    """Delta payload bytes, and the part shipped as wholesale tensors."""
    full = sum(values.nbytes for rows, values in result.updates.values()
               if rows is None)
    return float(result.nbytes()), float(full)


@dataclass(frozen=True)
class Target:
    """A public function or method to time: ``module`` + ``attribute``."""

    name: str
    module: str
    attribute: str  # "func" or "Class.method"
    measure: Optional[Callable] = None


_T = Target
#: Client side of the socket tier (the benchmark's load generator).
CLIENT_TARGETS = (
    _T("wire.encode_query", "repro.serving.wire", "encode_query"),
    _T("wire.decode_frame", "repro.serving.wire", "decode_frame"),
    _T("wire.decode_result", "repro.serving.wire", "decode_result"),
)
#: The read path below a query: artifact, kernel, family scorer.
SCORING_TARGETS = (
    _T("artifact.query", "repro.serving.artifact", "ServingArtifact.query"),
    _T("kernel.run_query", "repro.serving.artifact", "run_query",
       _users_per_query),
    _T("kernel.mask_seen_rows", "repro.serving.kernel", "mask_seen_rows"),
    _T("similarity.facet_candidate_scores", "repro.core.similarity",
       "facet_candidate_scores", _similarity_work),
)
#: Serving front-end and (after the fork) workers.
SERVER_TARGETS = CLIENT_TARGETS + SCORING_TARGETS + (
    _T("wire.encode_result", "repro.serving.wire", "encode_result"),
    _T("wire.decode_query", "repro.serving.wire", "decode_query"),
    _T("connection.send_bytes", "multiprocessing.connection",
       "Connection.send_bytes"),
)
#: One fused MARS training step and its evaluation.
TRAINING_TARGETS = (
    _T("batching.sample_batch", "repro.data.batching",
       "TripletBatcher.sample_batch"),
    _T("negative_sampling.sample_batch", "repro.data.negative_sampling",
       "UniformNegativeSampler.sample_batch"),
    _T("fused.forward_backward", "repro.core._multifacet",
       "fused_forward_backward", _rows_per_step),
    _T("fused.scatter_rows", "repro.core.fused", "scatter_rows"),
    _T("optim.step_rows", "repro.autograd.optim", "RiemannianSGD.step_rows"),
    _T("optim.step_dense", "repro.autograd.optim",
       "RiemannianSGD.step_dense"),
    _T("module.project_to_sphere", "repro.autograd.module",
       "Embedding.project_to_sphere"),
    _T("protocol.evaluate", "repro.eval.protocol",
       "LeaveOneOutEvaluator.evaluate"),
)
#: Streaming refresh: log, ingest, growth, delta export and publish, reads.
STREAMING_TARGETS = TRAINING_TARGETS + SCORING_TARGETS + (
    _T("events.append", "repro.streaming.events", "EventLog.append"),
    _T("online.ingest", "repro.streaming.online", "StreamingTrainer.ingest"),
    _T("interactions.append", "repro.data.interactions",
       "InteractionMatrix.append_interactions"),
    _T("module.grow_rows", "repro.autograd.module", "Embedding.grow_rows"),
    _T("loop.refresh_data", "repro.training.loop",
       "TrainingLoop.refresh_data"),
    _T("loop.fit_more", "repro.training.loop",
       "RuntimeTrainedModel.fit_more"),
    _T("artifact.export", "repro.core.base", "BaseRecommender.export_serving"),
    _T("artifact.make_delta", "repro.serving.artifact", "make_delta",
       _delta_bytes),
    _T("artifact.delta_update", "repro.serving.artifact",
       "ServingArtifact.delta_update"),
    _T("service.publish_delta", "repro.serving.service",
       "RecommenderService.publish_delta"),
    _T("service.recommend", "repro.serving.service",
       "RecommenderService.recommend"),
)


# --------------------------------------------------------------------- #
# installing wrappers
# --------------------------------------------------------------------- #
def _wrap(fn: Callable, name: str, recorder: SpanRecorder,
          measure: Optional[Callable]) -> Callable:
    index = recorder.name_index(name)
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = recorder.stack()
        span_id = next(recorder.ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
        a, b = measure(args, kwargs, result) if measure else (0.0, 0.0)
        recorder.spans.append((index, start, end, span_id, parent, a, b))
        return result

    return traced


_MISSING = object()


def _patch(owner, attribute: str, replacement) -> Callable[[], None]:
    """``setattr`` that returns its own undo (restoring inherited lookups)."""
    previous = owner.__dict__.get(attribute, _MISSING)
    setattr(owner, attribute, replacement)

    def undo() -> None:
        if previous is _MISSING:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, previous)
    return undo


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *classes, attribute = target.attribute.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


def install(targets: Iterable[Target],
            recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; returns a function that removes the wrappers."""
    undos = []
    for target in targets:
        owner, attribute = _resolve(target)
        fn = getattr(owner, attribute)
        undos.append(_patch(owner, attribute,
                            _wrap(fn, target.name, recorder, target.measure)))

    def uninstall() -> None:
        for undo in reversed(undos):
            undo()
    return uninstall


def install_worker_dump(recorder: SpanRecorder, directory) -> None:
    """Make every serving worker forked from here trace and dump its spans.

    Patches ``repro.serving.server.worker_main``, the name the server
    forks into.  A worker ignores SIGTERM, so the parent's
    terminate-after-shutdown cannot cut its dump short; the parent still
    joins it and kills it if it lingers.
    """
    from repro.serving import server

    real = server.worker_main

    @functools.wraps(real)
    def traced_worker_main(*args, **kwargs):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        recorder.reset("worker")
        try:
            return real(*args, **kwargs)
        finally:
            recorder.dump(directory)

    server.worker_main = traced_worker_main


def span_cost_ns(repeats: int = 5, calls: int = 20_000) -> float:
    """Calibrated cost of one traced call over an untraced one, in ns."""
    def noop():
        return None

    recorder = SpanRecorder("calibration")
    traced = _wrap(noop, "calibration", recorder, None)
    samples = []
    for _ in range(repeats):
        recorder.spans.clear()
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        plain = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter_ns() - start - plain) / calls)
    samples.sort()
    return max(0.0, samples[len(samples) // 2])


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #
@dataclass
class Totals:
    """Aggregate of one span name in one process role."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    a: float = 0.0
    b: float = 0.0


Window = Tuple[int, int]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time of each span: its duration minus its children's."""
    covered: Dict[int, int] = {}
    for _, start, end, _, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    return [end - start - covered.get(span_id, 0)
            for _, start, end, span_id, _, _, _ in spans]


def aggregate(dumps: Iterable[dict],
              windows: Sequence[Window]) -> Dict[Tuple[str, str], Totals]:
    """``(role, span name) -> Totals`` over spans starting in ``windows``."""
    totals: Dict[Tuple[str, str], Totals] = {}
    for dump in dumps:
        names = dump["names"]
        spans = [tuple(span) for span in dump["spans"]]
        for span, own in zip(spans, self_times(spans)):
            index, start, end, _, _, a, b = span
            if not any(lo <= start <= hi for lo, hi in windows):
                continue
            entry = totals.setdefault((dump["role"], names[index]), Totals())
            entry.calls += 1
            entry.total_ns += end - start
            entry.self_ns += own
            entry.a += a
            entry.b += b
    return totals


def load_dumps(directory) -> List[dict]:
    dumps = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def missing_spans(totals: Dict[Tuple[str, str], Totals],
                  declared: Iterable[Tuple[str, str]]) -> List[str]:
    """Declared ``(role, span)`` pairs that never fired: a wrapper patched
    on a name the code does not look up."""
    return [f"{role}:{name}" for role, name in declared
            if totals.get((role, name), Totals()).calls == 0]


def residual(total: float, parts: Iterable[float]) -> float:
    """What the named parts leave unexplained of ``total``."""
    return total - sum(parts)
