"""Golden regression for trace-span serialization.

A fixed-seed two-enclave fleet round, recorded with a deterministic
fixed-step clock, must serialize to exactly this Chrome-trace event set —
names, phases, timestamps and the parent/child nesting.  Any change to the
span taxonomy (renamed spans, re-parenting, added/removed instrumentation
on this path) shows up here as a diff against the golden list and must be
made deliberately.
"""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from repro import obs
from repro.core.controller import IXPController
from repro.core.fleet import FleetConfig, FleetManager
from repro.core.rules import Action, FilterRule, FlowPattern, RuleSet
from repro.faults.harness import rule_traffic
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.tee.attestation import IASService
from repro.util.units import GBPS

#: (name, span_id, parent_id, ts_us, dur_us) for every event, in record
#: order.  Deploy ECalls are roots; the round is one tree: fleet.round over
#: probe (2 pings, one per enclave), recover (no-op), carry (one burst per
#: enclave: the round's packets are grouped by slot, not by runs of
#: neighbours, so the 20 interleaved packets cost 2 ECalls).
GOLDEN_EVENTS = [
    ("ecall.set_scale_out_mode", 1, None, 0.0, 1000.0),
    ("ecall.installed_rules", 2, None, 2000.0, 1000.0),
    ("ecall.install_rules", 3, None, 4000.0, 1000.0),
    ("ecall.set_assigned_rules", 4, None, 6000.0, 1000.0),
    ("ecall.set_scale_out_mode", 5, None, 8000.0, 1000.0),
    ("ecall.installed_rules", 6, None, 10000.0, 1000.0),
    ("ecall.install_rules", 7, None, 12000.0, 1000.0),
    ("ecall.set_assigned_rules", 8, None, 14000.0, 1000.0),
    ("fleet.round", 9, None, 16000.0, 15000.0),
    ("fleet.probe", 10, 9, 17000.0, 5000.0),
    ("ecall.ping", 11, 10, 18000.0, 1000.0),
    ("ecall.ping", 12, 10, 20000.0, 1000.0),
    ("fleet.recover", 13, 9, 23000.0, 1000.0),
    ("fleet.carry", 14, 9, 25000.0, 5000.0),
    ("ecall.process_burst", 15, 14, 26000.0, 1000.0),
    ("ecall.process_burst", 16, 14, 28000.0, 1000.0),
]


def _fixed_step_clock(step_s: float = 0.001):
    state = {"now": 0.0}

    def now() -> float:
        state["now"] += step_s
        return state["now"]

    return now


@pytest.fixture
def golden_env():
    """Fresh registry + deterministic enabled tracer, restored afterwards."""
    prev_registry = obs.set_registry(MetricsRegistry())
    prev_tracer = obs.set_tracer(
        Tracer(time_source=_fixed_step_clock(), enabled=True)
    )
    yield obs.get_tracer()
    obs.set_registry(prev_registry)
    obs.set_tracer(prev_tracer)


def _run_round() -> None:
    controller = IXPController(IASService())
    fleet = FleetManager(controller, config=FleetConfig(seed="golden"))
    rules = RuleSet()
    for i in range(4):
        rules.add(
            FilterRule(
                rule_id=i + 1,
                pattern=FlowPattern(dst_prefix=f"10.0.{i}.0/24"),
                action=Action.DROP if i % 2 else Action.ALLOW,
                requested_by="victim.example",
                rate_bps=0.6 * 2 * 10 * GBPS / 4,
            )
        )
    fleet.deploy(rules, enclaves_override=2)
    fleet.run_round(rule_traffic(rules, seed="golden/traffic")(0))


def test_two_enclave_round_matches_golden_trace(golden_env):
    _run_round()
    doc = golden_env.to_chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    # Spans stamp the real process/thread ids (multi-worker traces render
    # as separate lanes); in this single-threaded run every event shares
    # this process's identity.
    assert all(
        e["pid"] == os.getpid() and e["tid"] == threading.get_ident()
        for e in events
    )
    distilled = [
        (
            e["name"],
            e["args"]["span_id"],
            e["args"].get("parent_id"),
            e["ts"],
            e["dur"],
        )
        for e in events
    ]
    assert distilled == GOLDEN_EVENTS


def _normalized(doc: dict) -> str:
    """Serialized trace with the process-unique fleet instance label (the
    only run-to-run variation by design) normalized away."""
    return re.sub(r'"fleet-\d+"', '"fleet-N"', json.dumps(doc, sort_keys=True))


def test_round_trace_serialization_is_stable(golden_env, tmp_path):
    """Same seed, same clock: the written JSON is byte-for-byte stable
    (modulo the per-process fleet instance label), and the nesting
    recovered from tree() matches the golden parent links."""
    _run_round()
    first = _normalized(golden_env.to_chrome_trace())
    path = tmp_path / "round.trace.json"
    golden_env.write_chrome_trace(str(path))
    assert _normalized(json.loads(path.read_text())) == first

    golden_env.clear()
    obs.set_tracer(Tracer(time_source=_fixed_step_clock(), enabled=True))
    try:
        _run_round()
        second = _normalized(obs.get_tracer().to_chrome_trace())
    finally:
        obs.set_tracer(golden_env)
    assert second == first

    # tree() mirrors the golden parent/child structure.
    tracer = Tracer(time_source=_fixed_step_clock(), enabled=True)
    prev = obs.set_tracer(tracer)
    try:
        _run_round()
    finally:
        obs.set_tracer(prev)
    roots = tracer.tree()
    round_node = roots[-1]
    assert round_node["name"] == "fleet.round"
    assert [c["name"] for c in round_node["children"]] == [
        "fleet.probe",
        "fleet.recover",
        "fleet.carry",
    ]
    probe, recover, carry = round_node["children"]
    assert [c["name"] for c in probe["children"]] == ["ecall.ping"] * 2
    assert recover["children"] == []
    assert [c["name"] for c in carry["children"]] == [
        "ecall.process_burst"
    ] * 2


def test_raising_span_tagged_with_error_type(golden_env):
    """A span unwound by an exception carries error=<ExceptionType> in its
    args (and therefore in the Chrome-trace serialization); the exception
    still propagates."""
    with pytest.raises(RuntimeError, match="boom"):
        with golden_env.span("unit.crash", site="test"):
            raise RuntimeError("boom")
    record = next(r for r in golden_env.records if r.name == "unit.crash")
    assert record.args["error"] == "RuntimeError"
    assert record.end_s is not None  # still closed cleanly
    event = next(
        e
        for e in golden_env.to_chrome_trace()["traceEvents"]
        if e["name"] == "unit.crash"
    )
    assert event["args"]["error"] == "RuntimeError"
    assert event["args"]["site"] == "test"


def test_clean_span_has_no_error_tag(golden_env):
    with golden_env.span("unit.clean"):
        pass
    record = next(r for r in golden_env.records if r.name == "unit.clean")
    assert "error" not in record.args


def test_span_args_carry_identity(golden_env):
    _run_round()
    round_record = next(
        r for r in golden_env.records if r.name == "fleet.round"
    )
    assert round_record.args["fleet"].startswith("fleet-")
    burst = next(
        r for r in golden_env.records if r.name == "ecall.process_burst"
    )
    assert "enclave" in burst.args
