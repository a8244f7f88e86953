"""One command for the whole benchmark.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                         [--repeat R] [--scale full|smoke] [--out bench-out]

Without ``--workload`` every workload runs; without ``--trace`` each one runs
untraced (the end-to-end metrics) and then traced (the per-layer metrics).
``--repeat R`` makes R untraced runs on seeds S..S+R-1, which is what
bench/compare.py needs to tell a regression from noise.

Each run is its own subprocess in its own session under a hard timeout, so a
hang cannot hang the harness and a worker cannot outlive its run.  Every
metric is printed as ``name value unit``; each run ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; everything lands in
``<out>/BENCH_e2e.json`` (schema ``vif-bench-v1``) and traced runs also write
``<out>/trace_<workload>.json`` (Chrome trace + self-time table).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# The command in BENCHMARK.json may name no path outside bench/, so the
# script finds the program (src/) and its own package (the root) itself.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SCHEMA = "vif-bench-v1"
WORKLOADS = ("fleet_paper3k", "shard_flood", "shard_blocklist", "shard_churn")
#: The benchmark contract allows a run 180 s; a child that is still going
#: after this long is hung.
HARD_TIMEOUT_S = 150.0


def host_fingerprint() -> Dict[str, object]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- child: one run ------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from bench import harness, layers, workloads

    def progress(phase: str, planned_packets: int) -> None:
        print(f"@phase {phase} {planned_packets}", flush=True)

    workload = workloads.build(args.workload, args.seed, args.scale)
    record = harness.measure(
        workload, args.seconds, traced=bool(args.trace), progress=progress
    )
    record["seed"] = args.seed
    spans = record.pop("spans", None)
    if spans is not None:
        trace = layers.chrome_trace(spans)
        trace["per_layer"] = record["metrics"]
        trace["self_time_s"] = {
            phase: layers.self_times([s for s in spans if s["phase"] == phase])
            for phase in ("saturate", "paced")
        }
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace_{args.workload}.json").write_text(json.dumps(trace))
    print("@result " + json.dumps(record), flush=True)
    return 0


# -- parent: subprocess per run --------------------------------------------------------


def _hung_record(args, workload: str, traced: bool, seed: int, phases: List[List[str]]):
    """A run that had to be killed: every packet of the phase it hung in
    (and, lacking better knowledge, nothing else) is booked as failed."""
    phase, planned = (phases[-1][0], int(phases[-1][1])) if phases else ("start", 0)
    attempted = max(sum(int(p[1]) for p in phases), 1)
    failed = max(planned, 1)
    return {
        "workload": workload, "traced": traced, "seed": seed, "seconds": args.seconds,
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "correct": False, "metrics": {},
        "detail": {"timed_out": f"hard timeout in phase {phase}"},
    }


def run_child(args, workload: str, traced: bool, seed: int) -> Optional[dict]:
    """One run in its own session; ``None`` if the child broke without
    producing a result (a harness error, not a measurement)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--scale", args.scale, "--out", args.out,
    ]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timed_out = False
    try:
        stdout, _ = proc.communicate(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        # The child leads its own process group: its shard workers die with
        # it on every exit path, including a worker that outlived the child.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if timed_out:
        stdout, _ = proc.communicate()
    phases, record = [], None
    for line in stdout.splitlines():
        if line.startswith("@phase "):
            phases.append(line.split()[1:3])
        elif line.startswith("@result "):
            record = json.loads(line[len("@result "):])
    if record is None and timed_out:
        record = _hung_record(args, workload, traced, seed, phases)
    return record


def contract_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in record["metrics"].items()
            },
        }
    )


def report(record: dict) -> None:
    print(
        f"# workload={record['workload']} traced={int(record['traced'])} "
        f"seed={record['seed']} failed_share={record['failed_share']:.6g} "
        f"detail={json.dumps(record['detail'], sort_keys=True)}"
    )
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(contract_line(record), flush=True)


def exit_code(records: List[Optional[dict]]) -> int:
    """0 only if every run produced a result and none failed an operation."""
    if any(record is None for record in records):
        return 2
    return 0 if all(r["correct"] and r["failed"] == 0 for r in records) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default="bench-out")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)

    records: List[Optional[dict]] = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        for traced in (False, True) if args.trace is None else (bool(args.trace),):
            for seed in range(args.seed, args.seed + (1 if traced else args.repeat)):
                record = run_child(args, workload, traced, seed)
                records.append(record)
                if record is None:
                    print(
                        f"bench: {workload} (trace={int(traced)}, seed={seed}) "
                        "broke without a result",
                        file=sys.stderr,
                    )
                else:
                    report(record)
    results = [record for record in records if record is not None]
    if results:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "BENCH_e2e.json").write_text(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "host": host_fingerprint(),
                    "scale": args.scale,
                    "seconds": args.seconds,
                    "runs": results,
                },
                indent=1,
            )
        )
    return exit_code(records)


if __name__ == "__main__":
    sys.exit(main())
