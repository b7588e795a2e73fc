"""Churn and client-storm golden pin (kernel determinism contract).

The static golden trace (``test_golden_trace.py``) pins runs without
membership deltas or client storms.  This module pins the other half of
the kernel's lifecycle surface: sampled churn shapes (ring-6 sampler
indices 7–9), the every-verb ring-6 churn plan, and two client-storm
plans.  For each plan it records the processed event count, the meals
per pid, the verdict's per-property status map, the lease-service
counters (storm plans), and a sha256 of the JSON wire log.  Any change
to the order in which a delta notifies peers, spawns or retires a diner,
fences channels or arms storm timers moves at least one of these.

Regenerate (only when a pinned plan is deliberately changed) with:

    PYTHONPATH=src python tests/test_churn_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults import ClientStormSpec, FaultPlan, WorkloadSpec, run_plan_kernel, sample_plan
from repro.faults.plan import MembershipSpec

FIXTURE = Path(__file__).parent / "fixtures" / "churn_golden.json"

ALL_VERB_CHURN = (
    MembershipSpec(time=8.0, verb="join", pid=6, edges=(0, 5)),
    MembershipSpec(time=14.0, verb="leave", pid=2),
    MembershipSpec(time=22.0, verb="rejoin", pid=2),
    MembershipSpec(time=28.0, verb="add_edge", pid=1, peer=4),
    MembershipSpec(time=34.0, verb="remove_edge", pid=1, peer=4),
)


def pinned_plans() -> dict:
    """The pinned plans, by fixture key."""
    plans = {
        f"ring6-index{index}": sample_plan(topology="ring", n=6, seed=0, index=index)
        for index in (6, 7, 8, 9)
    }
    plans["ring6-all-verbs"] = FaultPlan(
        topology="ring", n=6, seed=0, horizon=90.0, membership=ALL_VERB_CHURN
    )
    plans["ring4-abandon-storm"] = FaultPlan(
        topology="ring",
        n=4,
        seed=3,
        horizon=40.0,
        workload=WorkloadSpec.of("lease"),
        storm=ClientStormSpec(
            sessions=12, burst=4, interval=2.0, start=1.0, ttl=1.0, hold=0.3, abandon=0.25
        ),
    )
    return plans


def measure(plan: FaultPlan) -> dict:
    result = run_plan_kernel(plan)
    wire = json.dumps(result.wire, sort_keys=True).encode("utf-8")
    pinned = {
        "events": result.events,
        "meals": {str(pid): count for pid, count in sorted(result.meals.items())},
        "statuses": dict(sorted(result.verdict.statuses().items())),
        "wire_records": len(result.wire),
        "wire_sha256": hashlib.sha256(wire).hexdigest(),
    }
    if result.storm is not None:
        pinned["storm_counters"] = dict(sorted(result.storm["counters"].items()))
    return pinned


@pytest.mark.parametrize("key", sorted(pinned_plans()))
def test_churn_run_is_pinned(key):
    expected = json.loads(FIXTURE.read_text())[key]
    assert measure(pinned_plans()[key]) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    recorded = {key: measure(plan) for key, plan in sorted(pinned_plans().items())}
    FIXTURE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
