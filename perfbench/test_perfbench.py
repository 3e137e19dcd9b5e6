"""Tests of the benchmark itself: its contract, its names and its checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Several tests run the benchmark end to end in a subprocess; together they
take a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare_environment()

import harness  # noqa: E402
import references  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import FIGURES, FigSweep, UcpSweep  # noqa: E402

SPEC = json.loads(harness.BENCHMARK.read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(kind: str) -> list[str]:
    return [entry["name"] for entry in SPEC[kind]]


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    everything = [w["name"] for w in SPEC["workloads"]] + names("end_to_end") + names("per_layer")
    assert len(everything) == len(set(everything))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_tail_is_the_highest_percentile_with_ten_beyond() -> None:
    for n in (11, 20, 21, 42, 97):
        samples = [float(i * i % 101) for i in range(n)]
        value, percentile, beyond = harness.tail(samples)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        assert value == cuts[percentile - 1]
        assert beyond == sum(1 for x in samples if x > value) >= 10
        if percentile < 99:
            assert sum(1 for x in samples if x > cuts[percentile]) < 10
    value, percentile, _beyond = harness.tail([float(i) for i in range(1, 21)])
    assert percentile >= 50 and value >= statistics.median(range(1, 21))
    assert harness.tail([1.0, 2.0, 3.0]) == (3.0, 100, 0)


def test_nondefault_seed_prints_every_end_to_end_metric() -> None:
    done = bench("--workload", "ucp_sweep", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 20
    assert list(result["metrics"]) == names("end_to_end")
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key] and metric["value"] > 0
    assert "engine: kernel" in done.stdout


def test_traced_run_emits_every_per_layer_metric() -> None:
    done = bench("--workload", "ucp_sweep", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True
    assert list(result["metrics"]) == names("per_layer")
    value = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert value["setup.generate_s"] > 0 and value["setup.stream_s"] > 0
    assert value["kernel.stream_reuse_ratio"] == 1
    assert value["ucp.tick_s"] >= value["pipeline.run_s"] / 3
    assert value["executor.jobs_simulated"] == 0 and value["runner.hit_ratio"] == 0
    assert (run.work_dir() / "spans-ucp_sweep-seed1.jsonl").is_file()


def test_without_program_sources_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(harness.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "ucp_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_sabotaged_digest_fails_the_op() -> None:
    workload = UcpSweep(references.DEFAULT_SEED)
    workload.setup(NullTracer())
    workload.configs = dict(list(workload.configs.items())[:2])
    committed, _source = references.load(workload, references.DEFAULT_SEED, run.work_dir(), 1)
    sabotaged = dict(committed)
    first = workload.ops()[0][2]
    sabotaged[first] = "0" * 64
    workload.references = sabotaged
    workload.reset("cold")
    ops = workload.run_pass("cold", NullTracer())
    assert [op.ok for op in ops] == [False, True]
    assert "digest" in ops[0].error


def test_sabotaged_figure_table_fails_the_op() -> None:
    workload = FigSweep(references.DEFAULT_SEED, jobs=2)
    workload.setup(NullTracer())
    committed, _source = references.load(workload, references.DEFAULT_SEED, run.work_dir(), 1)
    workload.references = {**committed, "fig02": committed["fig02"] + " "}
    workload.reset("cold")
    ops = workload.run_pass("cold", Tracer())
    assert [op.ok for op in ops] == [False] + [True] * (len(FIGURES) - 1)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_committed_references_are_the_interpreters(name: str) -> None:
    workload = harness.make_workload(name, references.DEFAULT_SEED)
    workload.setup(NullTracer())
    committed = json.loads(references.COMMITTED.read_text(encoding="utf-8"))
    assert references.compute(workload, 2) == committed[name]
