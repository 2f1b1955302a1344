"""Schema of ``BENCHMARK.json`` against the benchmark that implements it.

Fast and timing-free: nothing here runs a workload.
"""

import json
import re
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_top_level_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) \
        and 1 <= spec["run_seconds"] <= 60
    assert spec["run_seconds"] == workloads.RUN_SECONDS
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_run_refuses_another_run_length(spec, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "train-mars",
                  "--seconds", str(spec["run_seconds"] + 1)])
    assert exit_info.value.code != 0
    assert "--seconds must be" in capsys.readouterr().err


def test_command_and_paths_stay_inside_the_benchmark(spec):
    assert spec["paths"] == ["benchmarks/e2e"]
    command = spec["command"]
    assert 1 <= len(command) <= 32 and all(len(arg) <= 200 for arg in command)
    assert command == ["python3", "benchmarks/e2e/run.py"]
    for path in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert (ROOT / path).is_dir()
        assert not any(p.is_symlink() for p in (ROOT / path).rglob("*"))


def test_names_are_well_formed_and_unique(spec):
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in spec[group]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_entries(spec):
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_declared_workloads_exist_in_run(spec):
    declared = [workload["name"] for workload in spec["workloads"]]
    assert declared == list(workloads.WORKLOADS)


def test_every_emitted_metric_is_declared(spec):
    end_to_end = {e["name"]: (e["unit"], e["better"])
                  for e in spec["end_to_end"]}
    assert end_to_end == workloads.END_TO_END
    emitted = workloads.end_to_end_metrics([1.0], 2.0, 1, [3.0, 4.0], 5.0)
    assert {name: m.unit for name, m in emitted.items()} \
        == {name: unit for name, (unit, _) in end_to_end.items()}

    per_layer = {e["name"]: e["unit"] for e in spec["per_layer"]}
    assert per_layer == workloads.PER_LAYER
    emitted = workloads.per_layer_metrics(
        {}, workloads.Layers(window_ns=1, span_cost_ns=0.0))
    assert {name: m.unit for name, m in emitted.items()} == per_layer
