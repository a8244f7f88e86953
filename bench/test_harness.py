"""Self-test of the benchmark harness: ``python -m pytest bench -q``.

Runs at ``--scale smoke`` with a few seconds per run; it checks the harness,
not the program's speed.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import subprocess
import sys

import pytest

from bench import run as bench_run  # first: puts src/ on sys.path
from bench import compare, harness, workloads

SPEC = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 4


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_trace_depends_on_seed_only(name):
    def digest(seed):
        return workloads.trace_digest(workloads.build(name, seed, "smoke").trace)

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_benchmark_json_names_the_workloads_run_py_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_every_metric_of_every_workload_is_printed_with_its_unit(tmp_path):
    """One full smoke set through the real command line."""
    proc = subprocess.run(
        [
            sys.executable, str(bench_run.ROOT / "bench" / "run.py"),
            "--scale", "smoke", "--seconds", str(SMOKE_SECONDS),
            "--out", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    printed = {}  # (workload, traced) -> {"name unit"}
    for line in proc.stdout.splitlines():
        if line.startswith("# workload="):
            fields = dict(f.split("=", 1) for f in line[2:].split()[:2])
            section = printed.setdefault((fields["workload"], fields["traced"]), set())
        elif not line.startswith("{"):
            name, _value, unit = line.split()
            section.add(f"{name} {unit}")
    for workload in bench_run.WORKLOADS:
        for traced, key in (("0", "end_to_end"), ("1", "per_layer")):
            wanted = {f"{m['name']} {m['unit']}" for m in SPEC[key]}
            assert printed[(workload, traced)] == wanted, (workload, key)
    result = json.loads((tmp_path / "BENCH_e2e.json").read_text())
    assert result["schema"] == bench_run.SCHEMA
    assert all(run["failed_share"] == 0 for run in result["runs"])
    for workload in bench_run.WORKLOADS:
        trace = json.loads((tmp_path / f"trace_{workload}.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"burst", "ingest.pull", "service.rxq_wait", "backend.process_burst",
                "service.auditq_wait", "service.audit"} <= names
        assert all(
            {"burst", "parent"} <= event["args"].keys() and event["dur"] >= 0
            for event in trace["traceEvents"]
        )
    # Last line of a run: the contract's result object.
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_one_flipped_verdict_fails_the_run():
    flipped = []

    def flip_one(inner):
        def process_burst(burst):
            verdicts = list(inner(burst))
            if not flipped:
                flipped.append(True)
                verdicts[0] = not verdicts[0]
            return verdicts

        return process_burst

    record = harness.measure(
        workloads.build("shard_flood", 1, "smoke"), SMOKE_SECONDS, tamper=flip_one
    )
    assert record["detail"]["verdict_mismatches"] == 1
    assert record["failed_share"] > 0 and not record["correct"]
    assert bench_run.exit_code([record]) != 0
    assert multiprocessing.active_children() == []


def test_a_hung_run_is_killed_and_booked_as_failed(monkeypatch):
    monkeypatch.setattr(bench_run, "HARD_TIMEOUT_S", 1.5)
    args = bench_run.argparse.Namespace(seconds=30.0, scale="smoke", out="bench-out")
    record = bench_run.run_child(args, "shard_flood", False, 1)
    assert not record["correct"] and record["failed"] >= 1
    assert "hard timeout" in record["detail"]["timed_out"]
    assert bench_run.exit_code([record]) != 0


def _result_file(path, throughput):
    runs = [
        {
            "workload": workload, "traced": False, "failed": 0, "attempted": 1000,
            "metrics": {
                m["name"]: [throughput if m["name"] == "throughput_pps" else 100.0,
                            m["unit"]]
                for m in SPEC["end_to_end"]
            },
        }
        for workload in bench_run.WORKLOADS
        for _ in range(3)
    ]
    path.write_text(json.dumps({"schema": bench_run.SCHEMA, "runs": runs}))
    return str(path)


def test_compare_flags_a_throughput_drop_beyond_the_bound_and_passes_identical(tmp_path):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "throughput_pps")
    base = _result_file(tmp_path / "a.json", 1000.0)
    same = _result_file(tmp_path / "b.json", 1000.0)
    slower = _result_file(tmp_path / "c.json", 1000.0 * (1.0 - bound - 0.05))
    out = io.StringIO()
    assert compare.compare(base, same, out=out) == 0
    assert "regression" not in out.getvalue()
    out = io.StringIO()
    assert compare.compare(base, slower, out=out) == 1
    flagged = [line for line in out.getvalue().splitlines() if "regression" in line]
    assert len(flagged) == len(bench_run.WORKLOADS)
    assert all("throughput_pps" in line for line in flagged)
