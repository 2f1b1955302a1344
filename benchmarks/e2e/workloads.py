"""The four workloads of the end-to-end benchmark.

Every workload runs MARS, the paper's model (K=4 facets, D=32, fused
engine, serial executor), on inputs generated from ``--seed`` only, and
reports the same end-to-end metrics, each defined for what that workload
does (see ``README.md``):

``serve-single``
    Socket serving of one-user exact top-10 queries (``exclude_seen``) on a
    4000x3000 catalogue: each query scores little, so the client, wire,
    front-end and worker transport layers dominate.
``serve-catalogue``
    The same tier with 8-user queries on a 2000x10000 catalogue: the score
    GEMM, seen-masking and top-k dominate, and coalescing never applies
    (multi-user frames bypass it).
``train-mars``
    A fused MARS fit on the 4000x3000 data, then leave-one-out evaluation:
    sampling, fused forward/backward, ``scatter_rows``, optimizer row steps
    and the sphere projection.
``stream-refresh``
    Warm MARS refreshed micro-batch by micro-batch from a drifting event
    stream (durable log append, ingest, delta export, delta publish) while a
    reader thread queries the service at a fixed rate: the only workload
    with writes beside reads.

Each workload has a fixed shape (phase lengths, epochs, refreshes) sized
so that one run lasts about :data:`RUN_SECONDS`, ``run_seconds`` in
``BENCHMARK.json``.  Each ``run_*`` function returns an :class:`Outcome`:
end-to-end metrics from an untraced run, or per-layer metrics from a
traced one.
"""

from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import loadgen
import stats
import tracing
from repro.core import MARS
from repro.data import MultiFacetSyntheticGenerator, SyntheticConfig
from repro.data.interactions import InteractionMatrix
from repro.data.synthetic import generate_event_stream
from repro.eval import LeaveOneOutEvaluator
from repro.serving.artifact import ServingArtifact
from repro.serving.client import ServingClient
from repro.serving.query import Query, QueryResult
from repro.serving.service import RecommenderService
from repro.streaming import EventLog, StreamingTrainer
from repro.utils.rng import spawn_generators

HERE = Path(__file__).resolve().parent

#: Wall seconds one run of any workload lasts, set-up included: the
#: workload shapes below are sized to it.
RUN_SECONDS = 30

#: MARS as every workload trains it.
MODEL = {"n_facets": 4, "embedding_dim": 32, "batch_size": 512}

#: ``name -> (unit, better)`` of the end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput": ("1/s", "higher"),
    "latency_ms": ("ms", "lower"),
    "rss_mb": ("MB", "lower"),
}

#: ``name -> unit`` of the per-layer metrics (traced run).
PER_LAYER = {
    # socket tier: client, front-end, workers
    "client.encode_ms": "ms", "client.decode_ms": "ms",
    "server.decode_ms": "ms", "server.merge_ms": "ms",
    "server.pipe_send_ms": "ms", "server.coalesced_fraction": "fraction",
    "worker.decode_ms": "ms", "worker.encode_ms": "ms",
    "worker.pipe_send_ms": "ms", "transport_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    # read path: artifact, kernel, family scorer
    "artifact.query_ms": "ms", "artifact.inproc_query_ms": "ms",
    "kernel.run_query_ms": "ms", "kernel.topk_ms": "ms",
    "kernel.mask_seen_ms": "ms", "kernel.users_per_call": "count",
    "similarity.score_ms": "ms", "similarity.gflops": "GFLOP/s",
    "similarity.mb_moved": "MB",
    # fused training step
    "loop.epoch_s": "s", "batching.sample_ms": "ms",
    "negative_sampling.sample_ms": "ms", "fused.forward_backward_ms": "ms",
    "fused.scatter_rows_ms": "ms", "fused.rows_per_step": "count",
    "optim.step_rows_ms": "ms", "optim.step_dense_ms": "ms",
    "module.constrain_ms": "ms", "loop.step_other_ms": "ms",
    "protocol.evaluate_s": "s",
    # streaming refresh
    "events.append_ms": "ms", "online.ingest_ms": "ms",
    "interactions.append_ms": "ms", "module.grow_rows_ms": "ms",
    "loop.refresh_data_ms": "ms", "loop.fit_more_ms": "ms",
    "artifact.export_ms": "ms", "artifact.make_delta_ms": "ms",
    "artifact.delta_update_ms": "ms", "service.publish_delta_ms": "ms",
    "artifact.delta_mb": "MB", "artifact.delta_full_fraction": "fraction",
    "online.freshness_p50_ms": "ms", "online.freshness_p90_ms": "ms",
    "online.refresh_other_ms": "ms", "service.recommend_ms": "ms",
    "service.cache_hit_ratio": "fraction",
    # the harness itself
    "trace.overhead_pct": "%",
}

#: A residual may undercut zero by this share of its total before the
#: breakdown counts as inconsistent (spans double-counting time).
RECONCILE_TOLERANCE = 0.10


@dataclass
class Metric:
    value: float
    unit: str
    samples: Optional[int] = None


@dataclass
class Context:
    seed: int
    trace: bool
    run_dir: Path


@dataclass
class Outcome:
    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    params: Dict[str, object]
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def end_to_end_metrics(setup_s: Sequence[float], throughput: float,
                       throughput_samples: int, latencies: Sequence[float],
                       rss_mb: float) -> Dict[str, Metric]:
    """The end-to-end metrics of an untraced run, from what it measured.

    ``latency_ms`` is the trimmed mean of the latencies
    (:func:`stats.trimmed_mean`), not their median: serve-catalogue's
    latencies fall into a fast and a slow mode of similar weight, and a
    median between them jumps from one to the other from run to run.
    """
    return {
        "setup_s": Metric(stats.median(setup_s), "s", len(setup_s)),
        "throughput": Metric(throughput, "1/s", throughput_samples),
        "latency_ms": Metric(stats.trimmed_mean(latencies), "ms",
                             len(latencies)),
        "rss_mb": Metric(rss_mb, "MB"),
    }


def _latency_checks(latencies: Sequence[float], checks: dict,
                    details: dict) -> None:
    """Record the median and the tail (the highest percentile the
    latencies support), and require ten samples beyond each trim point."""
    details["latency_p50_ms"] = stats.percentile(latencies, 50)
    details["latency_tail"] = stats.tail(latencies)
    checks["latency_has_10_samples_beyond_trim"] = stats.supports_percentile(
        len(latencies), 100.0 - stats.TRIM_PERCENT)


def _keep_end_to_end(metrics: Dict[str, Metric], details: dict) -> None:
    """A traced run keeps its (traced) end-to-end values in the record, so
    the tracing overhead can be read against an untraced run."""
    details["end_to_end"] = {name: m.value for name, m in metrics.items()}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(ns: float, count: int) -> float:
    return ns / count / 1e6 if count else 0.0


def _dataset(n_users: int, n_items: int, seed: int):
    config = SyntheticConfig(n_users=n_users, n_items=n_items,
                             interactions_per_user=8.0)
    return MultiFacetSyntheticGenerator(
        config, random_state=seed).generate_dataset()


# --------------------------------------------------------------------- #
# per-layer metrics (traced run)
# --------------------------------------------------------------------- #
@dataclass
class Layers:
    """Counts a traced workload measured itself, beside its spans."""

    window_ns: int
    span_cost_ns: float
    requests: int = 0              # socket queries answered in the window
    mean_round_trip_ms: float = 0.0
    lag_p99_ms: float = 0.0
    coalesced_fraction: float = 0.0
    inproc_query_ms: float = 0.0
    reads: int = 0                 # in-process service reads in the window
    cache_hit_ratio: float = 0.0
    epoch_durations_s: Sequence[float] = ()
    steps: int = 0
    refreshes: int = 0
    freshness_ms: Sequence[float] = ()


def per_layer_metrics(totals, layers: Layers) -> Dict[str, Metric]:
    """Every per-layer metric; layers a workload never enters read 0."""
    def total(name, field_name="total_ns", roles=None):
        """Sum of one ``Totals`` field of span ``name`` over ``roles``."""
        return sum(getattr(entry, field_name)
                   for (role, span_name), entry in totals.items()
                   if span_name == name and (roles is None or role in roles))

    def per(count, *names, roles=None, field_name="total_ns"):
        """Milliseconds the named spans took per unit of work."""
        return _ms(sum(total(name, field_name, roles) for name in names),
                   count)

    def ratio(name, numerator, denominator):
        return total(name, numerator) / max(1, total(name, denominator))

    client, server, worker = ("client",), ("server",), ("worker",)
    requests, steps = layers.requests, layers.steps
    queries = layers.requests + layers.reads
    refreshes = layers.refreshes
    score = "similarity.facet_candidate_scores"
    values = {
        "client.encode_ms": per(requests, "wire.encode_query", roles=client),
        "client.decode_ms": per(requests, "wire.decode_frame",
                                "wire.decode_result", roles=client),
        "server.decode_ms": per(requests, "wire.decode_frame", roles=server),
        "server.merge_ms": per(requests, "wire.encode_query",
                               "wire.encode_result", "wire.decode_result",
                               roles=server),
        "server.pipe_send_ms": per(requests, "connection.send_bytes",
                                   roles=server),
        "server.coalesced_fraction": layers.coalesced_fraction,
        "worker.decode_ms": per(requests, "wire.decode_frame",
                                "wire.decode_query", roles=worker),
        "worker.encode_ms": per(requests, "wire.encode_result", roles=worker),
        "worker.pipe_send_ms": per(requests, "connection.send_bytes",
                                   roles=worker),
        "loadgen.lag_p99_ms": layers.lag_p99_ms,
        "artifact.query_ms": per(queries, "artifact.query"),
        "artifact.inproc_query_ms": layers.inproc_query_ms,
        "kernel.run_query_ms": per(queries, "kernel.run_query"),
        "kernel.topk_ms": per(queries, "kernel.run_query",
                              field_name="self_ns"),
        "kernel.mask_seen_ms": per(queries, "kernel.mask_seen_rows"),
        "kernel.users_per_call": ratio("kernel.run_query", "a", "calls"),
        "similarity.score_ms": per(queries, score),
        "similarity.gflops": ratio(score, "a", "total_ns"),
        "similarity.mb_moved": total(score, "b") / 1e6 / max(1, queries),
        "loop.epoch_s": (stats.median(layers.epoch_durations_s)
                         if layers.epoch_durations_s else 0.0),
        "batching.sample_ms": per(steps, "batching.sample_batch",
                                  field_name="self_ns"),
        "negative_sampling.sample_ms": per(steps,
                                           "negative_sampling.sample_batch"),
        "fused.forward_backward_ms": per(steps, "fused.forward_backward",
                                         field_name="self_ns"),
        "fused.scatter_rows_ms": per(steps, "fused.scatter_rows"),
        "fused.rows_per_step": ratio("fused.forward_backward", "a", "calls"),
        "optim.step_rows_ms": per(steps, "optim.step_rows"),
        "optim.step_dense_ms": per(steps, "optim.step_dense"),
        "module.constrain_ms": per(steps, "module.project_to_sphere"),
        "protocol.evaluate_s": total("protocol.evaluate") / 1e9,
        "artifact.delta_mb": (total("artifact.make_delta", "a") / 1e6
                              / max(1, refreshes)),
        "artifact.delta_full_fraction": ratio("artifact.make_delta", "b", "a"),
        "online.freshness_p50_ms": (stats.percentile(layers.freshness_ms, 50)
                                    if refreshes else 0.0),
        "online.freshness_p90_ms": (stats.percentile(layers.freshness_ms, 90)
                                    if refreshes else 0.0),
        "service.recommend_ms": per(layers.reads, "service.recommend"),
        "service.cache_hit_ratio": layers.cache_hit_ratio,
    }
    for name in ("events.append", "online.ingest", "interactions.append",
                 "module.grow_rows", "loop.refresh_data", "loop.fit_more",
                 "artifact.export", "artifact.make_delta",
                 "artifact.delta_update", "service.publish_delta"):
        values[name + "_ms"] = per(refreshes, name)
    # Residuals: the share of each unit of work no named layer explains.
    socket_parts = [values[name] for name in (
        "client.encode_ms", "client.decode_ms", "server.decode_ms",
        "server.merge_ms", "server.pipe_send_ms", "worker.decode_ms",
        "worker.encode_ms", "worker.pipe_send_ms")]
    socket_parts.append(per(requests, "artifact.query", roles=worker))
    values["transport_ms"] = (
        tracing.residual(layers.mean_round_trip_ms, socket_parts)
        if requests else 0.0)
    step_spans = sum(total(name) for name in (
        "batching.sample_batch", "fused.forward_backward", "optim.step_rows",
        "optim.step_dense", "module.project_to_sphere"))
    values["loop.step_other_ms"] = (
        _ms(tracing.residual(1e9 * sum(layers.epoch_durations_s),
                             [step_spans]), steps) if steps else 0.0)
    values["online.refresh_other_ms"] = (
        tracing.residual(float(np.mean(layers.freshness_ms)), [
            values[name] for name in (
                "events.append_ms", "online.ingest_ms", "artifact.export_ms",
                "artifact.make_delta_ms", "service.publish_delta_ms")])
        if refreshes else 0.0)
    n_spans = sum(entry.calls for entry in totals.values())
    values["trace.overhead_pct"] = (100.0 * n_spans * layers.span_cost_ns
                                    / max(1, layers.window_ns))
    return {name: Metric(float(values[name]), unit)
            for name, unit in PER_LAYER.items()}


def _span_calls(totals) -> Dict[str, int]:
    """Call count of every traced ``role:span`` in the measured windows."""
    return {f"{role}:{name}": entry.calls
            for (role, name), entry in sorted(totals.items())}


def _reconciled(residual: float, total: float) -> bool:
    return residual >= -RECONCILE_TOLERANCE * total


def _window(started_s: float, ended_s: float) -> Tuple[int, int]:
    return int(started_s * 1e9), int(ended_s * 1e9)


# --------------------------------------------------------------------- #
# serve-single / serve-catalogue
# --------------------------------------------------------------------- #
#: Each of ``launches`` server children gets ``warmup_s`` and ``closed_s``
#: seconds of closed loop, then ``open_queries`` queries due at
#: ``open_rate`` q/s.  The rates are frozen: about a quarter of the
#: closed-loop rate each workload reached with 2 connections on 2 CPUs when
#: they were set.  At half that rate, queueing turned run-to-run swings of
#: about 10% in machine speed into 30-45% swings of p90.
#:
#: serve-catalogue runs more, shorter launches.  Its two workers' BLAS
#: threads contend for the 2 CPUs, and a launch settles for many seconds
#: in either a fast state (about 75 q/s) or a slow one (about 47 q/s); only
#: more launches average that out.
SERVE = {
    "serve-single": {"n_users": 4000, "n_items": 3000,
                     "users_per_query": 1, "launches": 4, "warmup_s": 0.5,
                     "closed_s": 2.5, "open_rate": 200.0,
                     "open_queries": 600},
    "serve-catalogue": {"n_users": 2000, "n_items": 10000,
                        "users_per_query": 8, "launches": 8,
                        "warmup_s": 0.25, "closed_s": 0.75,
                        "open_rate": 15.0, "open_queries": 25},
}
SERVE_COMMON = {"k": 10, "exclude_seen": True, "connections": 2,
                "fit_epochs": 1, "check_queries": 200}


class ServerChild:
    """A :class:`RecommenderServer` in a child process (``serve_child.py``),
    with the server's default worker count.

    ``setup_s`` is the time from launching the child until its first
    ``ping`` answers: interpreter start, worker fork, mmap load and digest
    verification of the artifact.
    """

    READY_TIMEOUT_S = 120.0

    def __init__(self, artifact: Path,
                 trace_dir: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "serve_child.py"),
                   str(artifact)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        self.READY_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("serving child did not report ready")
            info = json.loads(line)
            self.address = (info["host"], int(info["port"]))
            self.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def ping(self) -> dict:
        with ServingClient(self.address) as client:
            return client.ping()

    def pss_mb(self) -> float:
        """Summed proportional set size of the child and its workers."""
        return sum(_pss_kb(pid) for pid in _process_tree(self.process.pid)) \
            / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
            except OSError:
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def _process_tree(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree = [root]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    return tree


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _served_answers(address, queries: Sequence[Query], connections: int,
                    ) -> List[Tuple[Query, Optional[QueryResult]]]:
    """Send ``queries`` over ``connections`` connections (one thread each),
    one at a time on each connection.

    Each answer must be bitwise the artifact's own.  One-user frames that
    arrive together on two connections are coalesced into one batched
    score GEMM, whose rows may differ from the one-user pass in the last
    bit, so one-user queries go over one connection; multi-user frames are
    never coalesced.  ``None`` marks a failed query.
    """
    def send(share: Sequence[Query]) -> List[Optional[QueryResult]]:
        answers = []
        with ServingClient(address) as client:
            for query in share:
                try:
                    answers.append(client.query(query))
                except Exception:
                    answers.append(None)
        return answers

    shares = [queries[offset::connections] for offset in range(connections)]
    with ThreadPoolExecutor(connections) as pool:
        answered = list(pool.map(send, shares))
    answers: List[Optional[QueryResult]] = [None] * len(queries)
    for offset, share in enumerate(answered):
        answers[offset::connections] = share
    return list(zip(queries, answers))


def _compare_in_process(answers, reference: ServingArtifact):
    """Replay the queries on ``reference`` (with no server running):
    ``(mismatching answers, in-process ns spent answering)``."""
    mismatches, spent_ns = 0, 0
    for query, served in answers:
        started = time.perf_counter_ns()
        expected = reference.query(query)
        spent_ns += time.perf_counter_ns() - started
        if served is None or served.items.tobytes() != expected.items.tobytes() \
                or served.scores.tobytes() != expected.scores.tobytes():
            mismatches += 1
    return mismatches, spent_ns


def _serve_declared(name: str) -> List[Tuple[str, str]]:
    declared = [("client", "wire.encode_query"),
                ("client", "wire.decode_frame"),
                ("client", "wire.decode_result"),
                ("server", "wire.decode_frame"),
                ("server", "connection.send_bytes")]
    declared += [("worker", target) for target in (
        "wire.decode_frame", "wire.decode_query", "wire.encode_result",
        "connection.send_bytes", "artifact.query", "kernel.run_query",
        "kernel.mask_seen_rows", "similarity.facet_candidate_scores")]
    if SERVE[name]["users_per_query"] == 1:
        # Only one-user frames coalesce: merge and split run here alone.
        declared += [("server", "wire.encode_query"),
                     ("server", "wire.decode_result"),
                     ("server", "wire.encode_result")]
    return declared


@dataclass
class _Launch:
    """What one serving child measured: its set-up, phases and memory."""

    setup_s: float
    phases: Dict[str, loadgen.PhaseResult]
    pss_mb: float
    requests: int           # front-end requests during closed + open loop
    coalesced_queries: int  # of which served through a merged frame


def _serve_launch(child: ServerChild, spec: dict, make_query,
                  streams: Sequence[np.random.Generator]) -> _Launch:
    """Warm-up, then a closed loop, then a Poisson open loop on one child."""
    offsets = loadgen.poisson_schedule(spec["open_rate"], spec["open_queries"],
                                       streams[0])
    phases = loadgen.run(child.address, [loadgen.Phase(
        "warmup", "closed", make_query(streams[1]),
        duration_s=spec["warmup_s"])], spec["connections"])
    before = child.ping()["stats"]
    phases.update(loadgen.run(child.address, [
        loadgen.Phase("closed", "closed", make_query(streams[2]),
                      duration_s=spec["closed_s"]),
        loadgen.Phase("open", "open", make_query(streams[3]),
                      offsets_s=offsets),
    ], spec["connections"]))
    after = child.ping()["stats"]
    return _Launch(child.setup_s, phases, child.pss_mb(),
                   after["requests"] - before["requests"],
                   after["coalesced_queries"] - before["coalesced_queries"])


def run_serve(name: str, ctx: Context) -> Outcome:
    spec = dict(SERVE[name], **SERVE_COMMON)
    n_launches = spec["launches"]
    streams = spawn_generators(ctx.seed, 4 * n_launches + 1)
    dataset = _dataset(spec["n_users"], spec["n_items"], ctx.seed)
    model = MARS(n_epochs=spec["fit_epochs"], random_state=ctx.seed,
                 **MODEL).fit(dataset)
    path = model.export_serving("MARS").save(
        ctx.run_dir / "serve.artifact.npz", compressed=False)
    reference = ServingArtifact.load(path, mmap_mode="r")
    n_users = reference.n_users

    def query_maker(stream):
        def make(_index: int) -> Query:
            users = stream.integers(0, n_users, size=spec["users_per_query"])
            return Query(users=users, k=spec["k"],
                         exclude_seen=spec["exclude_seen"])
        return make

    recorder = uninstall = None
    if ctx.trace:
        recorder = tracing.SpanRecorder("client")
        uninstall = tracing.install(tracing.CLIENT_TARGETS, recorder)
    spans_dir = ctx.run_dir / "spans"
    launches: List[_Launch] = []
    try:
        # Every launch is one set-up sample and one measurement: the
        # serving tier's speed moves between launches as well as within one.
        for index in range(n_launches):
            trace_dir = None
            if ctx.trace:
                trace_dir = spans_dir / f"launch{index}"
                trace_dir.mkdir(parents=True)
            child = ServerChild(path, trace_dir)
            try:
                launches.append(_serve_launch(
                    child, spec, query_maker,
                    streams[4 * index:4 * index + 4]))
                if index == n_launches - 1:
                    make = query_maker(streams[-1])
                    answers = _served_answers(
                        child.address,
                        [make(i) for i in range(spec["check_queries"])],
                        1 if spec["users_per_query"] == 1
                        else spec["connections"])
            finally:
                child.stop()
    finally:
        if uninstall is not None:
            uninstall()

    closed = [launch.phases["closed"] for launch in launches]
    opened = [launch.phases["open"] for launch in launches]
    mismatches, inproc_ns = _compare_in_process(answers, reference)
    attempted = len(answers)
    failed = sum(served is None for _, served in answers)
    for launch in launches:
        for phase in launch.phases.values():
            attempted += len(phase.requests)
            failed += phase.failed
    latencies = np.concatenate([phase.latencies_ms() for phase in opened])
    answered = sum(len(phase.completed) for phase in closed)
    checks = {"answers_match_inprocess": bool(answers) and mismatches == 0,
              "open_loop_answered": sum(p.failed for p in opened) == 0
              and latencies.size > 0}
    params = dict(spec, model=dict(MODEL, family="MARS"))
    requests = sum(launch.requests for launch in launches)
    coalesced = sum(launch.coalesced_queries for launch in launches)
    details = {"setup_samples": [launch.setup_s for launch in launches],
               "closed_qps": [len(p.completed) / p.duration_s for p in closed],
               "open_samples": int(latencies.size),
               "pss_mb": [launch.pss_mb for launch in launches],
               "requests": requests, "coalesced_queries": coalesced,
               "check_queries": len(answers),
               "check_mismatches": mismatches}
    _latency_checks(latencies, checks, details)
    metrics = end_to_end_metrics(
        details["setup_samples"],
        answered / sum(phase.duration_s for phase in closed), answered,
        latencies, stats.median(details["pss_mb"]))
    if not ctx.trace:
        return Outcome(metrics, attempted, failed, checks, params, details)
    _keep_end_to_end(metrics, details)

    windows = [_window(phase.started, phase.ended)
               for phase in closed + opened]
    dumps = [dump for index in range(n_launches)
             for dump in tracing.load_dumps(spans_dir / f"launch{index}")]
    dumps.append({"role": "client", "names": recorder.names,
                  "spans": recorder.spans})
    totals = tracing.aggregate(dumps, windows)
    round_trips = np.concatenate([phase.round_trips_ms()
                                  for phase in closed + opened])
    layers = Layers(
        window_ns=sum(hi - lo for lo, hi in windows),
        span_cost_ns=tracing.span_cost_ns(),
        requests=int(round_trips.size),
        mean_round_trip_ms=float(round_trips.mean()),
        lag_p99_ms=stats.percentile(
            np.concatenate([phase.lags_ms() for phase in opened]), 99),
        coalesced_fraction=coalesced / max(1, requests),
        inproc_query_ms=_ms(inproc_ns, len(answers)))
    metrics = per_layer_metrics(totals, layers)
    missing = tracing.missing_spans(totals, _serve_declared(name))
    checks["declared_spans_fired"] = not missing
    checks["breakdown_reconciles"] = _reconciled(
        metrics["transport_ms"].value, layers.mean_round_trip_ms)
    details.update(missing_spans=missing, span_calls=_span_calls(totals),
                   mean_round_trip_ms=layers.mean_round_trip_ms)
    return Outcome(metrics, attempted, failed, checks, params, details)


# --------------------------------------------------------------------- #
# train-mars
# --------------------------------------------------------------------- #
TRAIN = {"n_users": 4000, "n_items": 3000, "epochs": 60,
         "setup_fits": 5, "eval_negatives": 100,
         # Leave-one-out quality below these floors fails the run.  Over
         # seeds 0-29, the commit that defined the benchmark reached HR@10
         # 0.400-0.464 and nDCG@10 0.211-0.258 (chance: 10/101): the floors
         # sit just under those minima, so seed-to-seed variation passes and
         # a change that degrades the model fails.
         "hr_at_10_floor": 0.39, "ndcg_at_10_floor": 0.205}

TRAIN_DECLARED = [("main", name) for name in (
    "batching.sample_batch", "negative_sampling.sample_batch",
    "fused.forward_backward", "fused.scatter_rows", "optim.step_rows",
    "optim.step_dense", "module.project_to_sphere", "protocol.evaluate")]


class _StepTimer:
    """Times every ``train_step`` of one model instance (the unit of work
    whose latency ``train-mars`` reports), keeping each step's loss."""

    def __init__(self, model) -> None:
        self.durations_ms: List[float] = []
        self.losses: List[float] = []
        step = model.train_step

        def timed_step(batch, optimizer):
            started = time.perf_counter_ns()
            loss = step(batch, optimizer)
            self.durations_ms.append((time.perf_counter_ns() - started) / 1e6)
            self.losses.append(loss)
            return loss

        model.train_step = timed_step


def _fit_setup_s(model, dataset) -> float:
    """Wall time of ``fit`` outside its epochs: network, margins, batcher,
    optimizer."""
    started = time.perf_counter()
    model.fit(dataset)
    elapsed = time.perf_counter() - started
    return elapsed - sum(report.duration for report in model.runtime_.reports)


def run_train(ctx: Context) -> Outcome:
    spec = dict(TRAIN)
    dataset = _dataset(spec["n_users"], spec["n_items"], ctx.seed)
    recorder = uninstall = None
    if ctx.trace:
        recorder = tracing.SpanRecorder("main")
        uninstall = tracing.install(tracing.TRAINING_TARGETS, recorder)
    try:
        model = MARS(n_epochs=spec["epochs"], random_state=ctx.seed, **MODEL)
        timer = _StepTimer(model)
        fit_started = time.perf_counter()
        setups = [_fit_setup_s(model, dataset)]
        fit_ended = time.perf_counter()
        for _ in range(spec["setup_fits"] - 1):
            setups.append(_fit_setup_s(
                MARS(n_epochs=1, random_state=ctx.seed, **MODEL), dataset))
        eval_started = time.perf_counter()
        result = LeaveOneOutEvaluator(
            dataset, n_negatives=spec["eval_negatives"],
            random_state=ctx.seed).evaluate(model)
        eval_ended = time.perf_counter()
    finally:
        if uninstall is not None:
            uninstall()

    reports = model.runtime_.reports
    durations = [report.duration for report in reports]
    steps = len(timer.durations_ms)
    hr, ndcg = result.metrics["hr@10"], result.metrics["ndcg@10"]
    finite = bool(np.all(np.isfinite(timer.losses))
                  and np.all(np.isfinite(model.loss_history_)))
    checks = {"losses_finite": finite,
              "hr_at_10_above_chance": hr > 10.0 / (1 + spec["eval_negatives"]),
              "hr_at_10_above_floor": hr >= spec["hr_at_10_floor"],
              "ndcg_at_10_above_floor": ndcg >= spec["ndcg_at_10_floor"]}
    params = dict(spec, model=dict(MODEL, family="MARS", engine="fused",
                                   executor="serial"))
    details = {"hr_at_10": hr, "ndcg_at_10": ndcg,
               "eval_users": result.n_users, "setup_samples": setups,
               "fit_s": fit_ended - fit_started,
               "eval_s": eval_ended - eval_started}
    failed = int(np.sum(~np.isfinite(timer.losses)))
    _latency_checks(timer.durations_ms, checks, details)
    triplets = MODEL["batch_size"] * reports[0].n_batches
    metrics = end_to_end_metrics(
        setups, triplets / stats.median(durations), len(durations),
        timer.durations_ms, _max_rss_mb())
    if not ctx.trace:
        return Outcome(metrics, steps, failed, checks, params, details)
    _keep_end_to_end(metrics, details)

    fit_window = _window(fit_started, fit_ended)
    dumps = [{"role": "main", "names": recorder.names,
              "spans": recorder.spans}]
    totals = tracing.aggregate(dumps,
                               [fit_window, _window(eval_started, eval_ended)])
    layers = Layers(window_ns=fit_window[1] - fit_window[0],
                    span_cost_ns=tracing.span_cost_ns(),
                    epoch_durations_s=durations, steps=steps)
    metrics = per_layer_metrics(totals, layers)
    missing = tracing.missing_spans(totals, TRAIN_DECLARED)
    checks["declared_spans_fired"] = not missing
    mean_step_ms = 1e3 * sum(durations) / max(1, steps)
    checks["breakdown_reconciles"] = _reconciled(
        metrics["loop.step_other_ms"].value, mean_step_ms)
    details.update(missing_spans=missing, span_calls=_span_calls(totals),
                   mean_step_ms=mean_step_ms)
    return Outcome(metrics, steps, failed, checks, params, details)


# --------------------------------------------------------------------- #
# stream-refresh
# --------------------------------------------------------------------- #
STREAM = {"n_users": 2000, "n_items": 3000, "warm_events": 20000,
          "warm_epochs": 5, "batch_events": 200,
          "refreshes": 75, "read_rate": 100.0,
          "read_zipf": 1.1, "k": 10, "setup_reps": 15}
STREAM_MODEL = "stream"

STREAM_DECLARED = [("main", target.name)
                   for target in tracing.STREAMING_TARGETS
                   if target.name != "protocol.evaluate"]


class _Reader(threading.Thread):
    """Open-loop reads against the service at a fixed Poisson rate."""

    def __init__(self, service: RecommenderService, users: np.ndarray,
                 probabilities: np.ndarray, rate: float, k: int,
                 rng: np.random.Generator) -> None:
        super().__init__(name="stream-reader", daemon=True)
        self.service, self.users, self.probabilities = \
            service, users, probabilities
        self.rate, self.k, self.rng = rate, k, rng
        self.stop_event = threading.Event()
        self.requests: List[loadgen.Request] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        due = time.perf_counter()
        try:
            while not self.stop_event.is_set():
                due += self.rng.exponential(1.0 / self.rate)
                user = int(self.rng.choice(self.users, p=self.probabilities))
                delay = due - time.perf_counter()
                if delay > 0 and self.stop_event.wait(delay):
                    break
                request = loadgen.Request(due=due, begin=time.perf_counter())
                try:
                    self.service.recommend(user, k=self.k)
                    request.ok = True
                except Exception:
                    request.ok = False
                request.done = time.perf_counter()
                self.requests.append(request)
        except BaseException as error:  # surfaced by the workload
            self.error = error


def _zipf(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def _build_service(model, seed: int):
    trainer = StreamingTrainer(model, epochs_per_refresh=1, random_state=seed)
    base = trainer.export_serving(STREAM_MODEL)
    service = RecommenderService({STREAM_MODEL: base}, max_wait_ms=0.0)
    return trainer, service


def run_stream(ctx: Context) -> Outcome:
    spec = dict(STREAM)
    refreshes, batch_events = spec["refreshes"], spec["batch_events"]
    (reader_rng,) = spawn_generators(ctx.seed, 1)
    events = generate_event_stream(
        n_users=spec["n_users"], n_items=spec["n_items"],
        n_events=spec["warm_events"] + refreshes * batch_events,
        random_state=ctx.seed)
    warm = events[:spec["warm_events"]]
    users = np.fromiter((e.user for e in warm), dtype=np.int64)
    items = np.fromiter((e.item for e in warm), dtype=np.int64)
    stamps = np.fromiter((e.timestamp for e in warm), dtype=np.float64)
    matrix = InteractionMatrix(int(users.max()) + 1, int(items.max()) + 1,
                               users, items, timestamps=stamps)
    model = MARS(n_epochs=spec["warm_epochs"], random_state=ctx.seed,
                 **MODEL).fit(matrix)

    setups = []
    for _ in range(spec["setup_reps"]):
        started = time.perf_counter()
        trainer, service = _build_service(model, ctx.seed)
        setups.append(time.perf_counter() - started)

    warm_users = np.flatnonzero(matrix.user_degrees() > 0)
    reader = _Reader(service, reader_rng.permutation(warm_users),
                     _zipf(warm_users.size, spec["read_zipf"]),
                     spec["read_rate"], spec["k"], reader_rng)
    log = EventLog(ctx.run_dir / "stream.events.log")
    recorder = uninstall = None
    if ctx.trace:
        recorder = tracing.SpanRecorder("main")
        uninstall = tracing.install(tracing.STREAMING_TARGETS, recorder)
    reports_before = len(model.runtime_.reports)
    warm_shape = matrix.shape
    stats_before = service.stats
    freshness_ms: List[float] = []
    try:
        reader.start()
        loop_started = time.perf_counter()
        for index in range(refreshes):
            batch = events[spec["warm_events"] + index * batch_events:
                           spec["warm_events"] + (index + 1) * batch_events]
            started = time.perf_counter()
            log.append(batch)
            trainer.ingest(batch)
            live, _, _ = service.registry.get(STREAM_MODEL)
            service.publish_delta(STREAM_MODEL, trainer.export_delta(live))
            freshness_ms.append(1e3 * (time.perf_counter() - started))
        loop_ended = time.perf_counter()
    finally:
        reader.stop_event.set()
        reader.join(timeout=60)
        if uninstall is not None:
            uninstall()
    if reader.error is not None:
        raise reader.error
    stats_after = service.stats

    live, _, _ = service.registry.get(STREAM_MODEL)
    digest_match = (live.content_digest()
                    == trainer.export_serving(STREAM_MODEL).content_digest())
    reads = [r for r in reader.requests if loop_started <= r.due <= loop_ended]
    done = [r for r in reads if r.ok]
    latencies = np.array([1e3 * (r.done - r.due) for r in done])
    failed = sum(not r.ok for r in reader.requests)
    attempted = refreshes + len(reader.requests)
    checks = {"live_artifact_equals_full_export": digest_match,
              "reads_answered": failed == 0 and latencies.size > 0}
    params = dict(spec, model=dict(MODEL, family="MARS", engine="fused",
                                   executor="serial", epochs_per_refresh=1))
    hits = stats_after["cache_hits"] - stats_before["cache_hits"]
    lookups = hits + stats_after["cache_misses"] - stats_before["cache_misses"]
    details = {"setup_samples": setups, "reads": len(reads),
               "loop_events_per_s": (refreshes * batch_events
                                     / (loop_ended - loop_started)),
               "read_samples": int(latencies.size),
               "cache_hit_ratio": hits / max(1, lookups),
               "freshness_p50_ms": stats.percentile(freshness_ms, 50),
               "freshness_p90_ms": stats.percentile(freshness_ms, 90),
               "grown_users": matrix.shape[0] - warm_shape[0],
               "grown_items": matrix.shape[1] - warm_shape[1]}
    _latency_checks(latencies, checks, details)
    metrics = end_to_end_metrics(
        setups, 1e3 * batch_events / stats.median(freshness_ms), refreshes,
        latencies, _max_rss_mb())
    if not ctx.trace:
        return Outcome(metrics, attempted, failed, checks, params, details)
    _keep_end_to_end(metrics, details)

    windows = [_window(loop_started, loop_ended)]
    totals = tracing.aggregate([{"role": "main", "names": recorder.names,
                                 "spans": recorder.spans}], windows)
    reports = model.runtime_.reports[reports_before:]
    layers = Layers(
        window_ns=windows[0][1] - windows[0][0],
        span_cost_ns=tracing.span_cost_ns(),
        reads=len(done), cache_hit_ratio=details["cache_hit_ratio"],
        epoch_durations_s=[report.duration for report in reports],
        steps=sum(report.n_batches for report in reports),
        refreshes=refreshes, freshness_ms=freshness_ms)
    metrics = per_layer_metrics(totals, layers)
    missing = tracing.missing_spans(totals, STREAM_DECLARED)
    checks["declared_spans_fired"] = not missing
    checks["breakdown_reconciles"] = _reconciled(
        metrics["online.refresh_other_ms"].value, float(np.mean(freshness_ms)))
    details.update(missing_spans=missing, span_calls=_span_calls(totals))
    return Outcome(metrics, attempted, failed, checks, params, details)


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "serve-single": lambda ctx: run_serve("serve-single", ctx),
    "serve-catalogue": lambda ctx: run_serve("serve-catalogue", ctx),
    "train-mars": run_train,
    "stream-refresh": run_stream,
}
