"""Unit tests of the benchmark harness arithmetic (no timing, no serving).

The load generator's schedule and percentile arithmetic, the trace
harness's self-time, window and residual arithmetic, and the summary
statistics are checked on hand-made timestamps (a fake clock), so the
tests are exact and fast.
"""

import statistics
import sys
import types

import numpy as np
import pytest

import loadgen
import stats
import tracing
import workloads
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------------- #
# load generator
# --------------------------------------------------------------------- #
def test_poisson_schedule_is_seeded_sorted_and_sized():
    first = loadgen.poisson_schedule(200.0, 1000, ensure_rng(7))
    again = loadgen.poisson_schedule(200.0, 1000, ensure_rng(7))
    other = loadgen.poisson_schedule(200.0, 1000, ensure_rng(8))
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first[:50], other[:50])
    assert first.size == 1000
    assert first[0] > 0 and np.all(np.diff(first) > 0)
    # 1000 arrivals at 200/s span about 5 s: a Gamma(1000) sum of gaps
    # stays within 5 sigma (sigma = sqrt(1000) / 200 s).
    assert abs(first[-1] - 5.0) < 5 * np.sqrt(1000) / 200.0


@pytest.mark.parametrize("rate, count", [(0.0, 10), (5.0, 0)])
def test_poisson_schedule_rejects_empty_processes(rate, count):
    with pytest.raises(ValueError):
        loadgen.poisson_schedule(rate, count, ensure_rng(0))


def test_fewest_outstanding_prefers_the_first_of_ties():
    assert loadgen.fewest_outstanding([3, 1, 1]) == 1
    assert loadgen.fewest_outstanding([0, 0]) == 0
    assert loadgen.fewest_outstanding([2, 5]) == 0


def _phase(rows, started=100.0, ended=104.0):
    phase = loadgen.PhaseResult("fake", started=started, ended=ended)
    for due, begin, done, ok in rows:
        phase.requests.append(loadgen.Request(due, begin, done, ok))
    return phase


def test_phase_latency_is_measured_from_the_due_time():
    # A stall delays the second query's send by 30 ms: its latency keeps
    # that wait, its round trip does not, and its lag records it.
    phase = _phase([(100.000, 100.000, 100.010, True),
                    (100.005, 100.035, 100.040, True),
                    (100.010, 100.036, 100.050, False)])
    np.testing.assert_allclose(phase.latencies_ms(), [10.0, 35.0])
    np.testing.assert_allclose(phase.round_trips_ms(), [10.0, 5.0])
    np.testing.assert_allclose(phase.lags_ms(), [0.0, 30.0, 26.0])
    assert phase.failed == 1 and len(phase.completed) == 2


def test_phase_duration_spans_start_to_end():
    assert _phase([], started=100.0, ended=104.5).duration_s \
        == pytest.approx(4.5)


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / q2)
    assert stats.median(values) == statistics.median(values)


def test_percentile_interpolates_like_numpy():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_trimmed_mean_drops_each_tail():
    values = [float(v) for v in range(1, 101)] + [1e6]   # one huge outlier
    # 101 values: the 10 lowest and 10 highest go, the mean of 11..91 stays.
    assert stats.trimmed_mean(values) == pytest.approx(51.0)
    assert stats.trimmed_mean([3.0, 4.0]) == pytest.approx(3.5)
    assert stats.trimmed_mean(values, cut=0.0) == pytest.approx(
        np.mean(values))


def test_trimmed_mean_moves_smoothly_between_two_modes():
    # Two modes of near-equal weight: the median jumps across the gap
    # when one sample changes mode; the trimmed mean moves by one step.
    def mixture(fast):
        return [20.0] * fast + [40.0] * (100 - fast)

    assert stats.percentile(mixture(51), 50) == 20.0
    assert stats.percentile(mixture(49), 50) == 40.0
    step = stats.trimmed_mean(mixture(49)) - stats.trimmed_mean(mixture(51))
    assert 0 < step < 2.0


def test_end_to_end_metrics_report_the_trimmed_latency():
    latencies = [1.0] + [2.0] * 18 + [100.0]
    metrics = workloads.end_to_end_metrics([0.3, 0.1, 0.2], 50.0, 7,
                                           latencies, 12.0)
    assert metrics["latency_ms"].value == pytest.approx(2.0)
    assert metrics["latency_ms"].samples == 20
    assert metrics["setup_s"].value == pytest.approx(0.2)
    assert metrics["throughput"].samples == 7


@pytest.mark.parametrize("n, expected", [
    (5, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.supports_percentile(n, expected)
        assert stats.tail(list(range(n)))["percentile"] == expected


def test_spread_summarizes_records_per_workload_and_metric():
    def record(value):
        return {"workloads": {"w": {"metrics": {
            "p50_ms": {"value": value, "unit": "ms", "samples": 9}}}}}

    runs = [1.0, 2.0, 4.0, 3.0]
    summary = stats.spread([record(v) for v in runs])
    entry = summary[("w", "p50_ms", "ms")]
    q1, q2, q3 = statistics.quantiles(runs, n=4)
    assert entry["median"] == q2 and entry["runs"] == 4
    assert entry["relative_iqr"] == pytest.approx((q3 - q1) / q2)
    assert "relative_iqr" not in stats.spread([record(1.0)])[
        ("w", "p50_ms", "ms")]


def test_environment_records_thread_variables_without_setting_them(
        monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    record = stats.environment(tmp_path)
    assert record["thread_env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert record["thread_env"]["OMP_NUM_THREADS"] is None
    assert record["git_sha"] is None  # not a git work tree
    assert record["usable_cpus"] >= 1


def test_git_sha_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("abc123 refs/heads/main\n")
    assert stats.git_sha(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert stats.git_sha(tmp_path) == "def456"


# --------------------------------------------------------------------- #
# trace harness
# --------------------------------------------------------------------- #
def _span(name, start, end, span_id, parent=-1, a=0.0, b=0.0):
    return (name, start, end, span_id, parent, a, b)


def test_self_time_subtracts_the_children():
    spans = [_span(1, 10, 30, 1, parent=0),
             _span(1, 40, 70, 2, parent=0),
             _span(2, 45, 50, 3, parent=2),
             _span(0, 0, 100, 0)]
    assert tracing.self_times(spans) == [20, 25, 5, 50]


def test_aggregate_keeps_spans_starting_inside_the_windows():
    dump = {"role": "main", "names": ["outer", "inner"],
            "spans": [_span(1, 10, 30, 1, parent=0, a=4.0),
                      _span(0, 0, 100, 0),
                      _span(1, 500, 600, 2, a=1.0)]}
    totals = tracing.aggregate([dump], [(0, 200)])
    assert totals[("main", "outer")].total_ns == 100
    assert totals[("main", "outer")].self_ns == 80
    assert totals[("main", "inner")].calls == 1
    assert totals[("main", "inner")].a == 4.0
    both = tracing.aggregate([dump], [(0, 200), (450, 550)])
    assert both[("main", "inner")].calls == 2
    assert tracing.missing_spans(totals, [("main", "outer"),
                                          ("worker", "outer")]) \
        == ["worker:outer"]


def test_residual_is_what_the_parts_leave():
    assert tracing.residual(10.0, [2.5, 3.5]) == pytest.approx(4.0)
    assert tracing.residual(1.0, [0.75, 0.5]) == pytest.approx(-0.25)


@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("toy_traced")

    class Base:
        def work(self, n):
            return module.helper(n) + 1

    class Child(Base):
        pass

    def helper(n):
        return n * 2

    module.Base, module.Child, module.helper = Base, Child, helper
    monkeypatch.setitem(sys.modules, "toy_traced", module)
    return module


def test_install_records_nested_spans_and_uninstall_restores(toy_module):
    recorder = tracing.SpanRecorder("main")
    targets = [
        tracing.Target("toy.work", "toy_traced", "Child.work",
                       lambda args, kwargs, result: (float(args[1]), 0.0)),
        tracing.Target("toy.helper", "toy_traced", "helper"),
    ]
    original_helper = toy_module.helper
    uninstall = tracing.install(targets, recorder)
    assert toy_module.Child().work(3) == 7
    assert toy_module.Base().work(1) == 3  # the base class stays untraced
    uninstall()

    spans = [dict(zip(("name", "start", "end", "id", "parent", "a", "b"),
                      span)) for span in recorder.spans]
    names = [recorder.names[span["name"]] for span in spans]
    assert names == ["toy.helper", "toy.work", "toy.helper"]
    helper, work = spans[0], spans[1]
    assert helper["parent"] == work["id"] and work["parent"] == -1
    assert work["a"] == 3.0
    assert "work" not in toy_module.Child.__dict__
    assert toy_module.helper is original_helper


def test_dump_round_trips_through_load(tmp_path):
    recorder = tracing.SpanRecorder("worker")
    recorder.name_index("x")
    recorder.spans.append(_span(0, 1, 5, 0))
    recorder.dump(tmp_path)
    (dump,) = tracing.load_dumps(tmp_path)
    assert dump["role"] == "worker" and dump["names"] == ["x"]
    assert tracing.aggregate([dump], [(0, 10)])[("worker", "x")].total_ns == 4


def test_reset_keeps_the_name_table_of_installed_wrappers():
    recorder = tracing.SpanRecorder("server")
    index = recorder.name_index("wire.decode_frame")
    recorder.spans.append(_span(index, 0, 1, 0))
    recorder.reset("worker")
    assert recorder.spans == [] and recorder.role == "worker"
    assert recorder.name_index("wire.decode_frame") == index


# --------------------------------------------------------------------- #
# per-layer arithmetic
# --------------------------------------------------------------------- #
def _totals(entries):
    return {key: tracing.Totals(calls, total, own, a, b)
            for key, (calls, total, own, a, b) in entries.items()}


def test_transport_is_the_round_trip_the_named_spans_leave():
    ms = 1_000_000
    totals = _totals({
        ("client", "wire.encode_query"): (4, 1 * ms, 1 * ms, 0, 0),
        ("server", "wire.decode_frame"): (4, 2 * ms, 2 * ms, 0, 0),
        ("worker", "artifact.query"): (4, 8 * ms, 2 * ms, 0, 0),
        ("worker", "kernel.run_query"): (4, 6 * ms, 3 * ms, 4, 0),
        ("worker", "connection.send_bytes"): (4, 1 * ms, 1 * ms, 0, 0),
    })
    layers = workloads.Layers(window_ns=10**9, span_cost_ns=0.0,
                              requests=4, mean_round_trip_ms=5.0)
    metrics = workloads.per_layer_metrics(totals, layers)
    assert set(metrics) == set(workloads.PER_LAYER)
    # per request: 0.25 + 0.5 + 2.0 (artifact, children included) + 0.25
    assert metrics["transport_ms"].value == pytest.approx(5.0 - 3.0)
    assert metrics["kernel.topk_ms"].value == pytest.approx(0.75)
    assert metrics["kernel.users_per_call"].value == pytest.approx(1.0)
    assert metrics["loop.step_other_ms"].value == 0.0  # no training steps


def test_step_other_is_the_epoch_time_the_step_spans_leave():
    ms = 1_000_000
    totals = _totals({
        ("main", "batching.sample_batch"): (10, 20 * ms, 15 * ms, 0, 0),
        ("main", "negative_sampling.sample_batch"): (10, 5 * ms, 5 * ms,
                                                     0, 0),
        ("main", "fused.forward_backward"): (10, 40 * ms, 30 * ms, 500, 0),
        ("main", "optim.step_rows"): (30, 10 * ms, 10 * ms, 0, 0),
    })
    layers = workloads.Layers(window_ns=10**9, span_cost_ns=100.0,
                              epoch_durations_s=[0.05, 0.03], steps=10)
    metrics = workloads.per_layer_metrics(totals, layers)
    assert metrics["loop.step_other_ms"].value == pytest.approx(1.0)
    assert metrics["batching.sample_ms"].value == pytest.approx(1.5)
    assert metrics["fused.rows_per_step"].value == pytest.approx(50.0)
    assert metrics["loop.epoch_s"].value == pytest.approx(0.04)
    # 60 spans of 100 ns in one second
    assert metrics["trace.overhead_pct"].value == pytest.approx(6e-4)
