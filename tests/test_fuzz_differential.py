"""Differential fuzzing: the same plan on both substrates must agree.

Runs each sampled FaultPlan on the discrete-event kernel and on a
loopback AsyncHost (the plan's latency adversary replayed through
``inject_latency`` in scaled wall time), judged informationally
(``judge=False``): every per-property status then depends only on what
the observed stream *proves*, so the two substrates must produce
identical status maps — the strongest cheap claim that the checks
subsystem is genuinely substrate-agnostic and that the live transport
honors the kernel's channel assumptions (FIFO, boundedness).

Marked ``fuzz`` + ``live``: wall-clock asyncio runs.
"""

import pytest

from repro.faults import run_plan_kernel, run_plan_live, sample_plan

pytestmark = [pytest.mark.fuzz, pytest.mark.live]

TIME_SCALE = 0.01


@pytest.mark.parametrize("index", range(10))
def test_kernel_and_live_statuses_agree(index):
    plan = sample_plan(n=4, seed=1, index=index, horizon_floor=40.0)
    kernel = run_plan_kernel(plan, judge=False)
    live = run_plan_live(plan, judge=False, time_scale=TIME_SCALE)
    assert kernel.verdict.statuses() == live.verdict.statuses(), (
        f"substrates disagree on {plan.describe()}"
    )
    # Informational judgement of the pristine algorithm never fails.
    assert kernel.ok and live.ok


def test_live_mutant_fails_like_the_kernel():
    plan = sample_plan(n=4, seed=1, index=0, horizon_floor=40.0, mutant="greedy-eater")
    kernel = run_plan_kernel(plan)
    live = run_plan_live(plan, time_scale=TIME_SCALE)
    assert "wx-safety" in kernel.failed
    assert "wx-safety" in live.failed


def test_live_crash_plan_injects_and_quiesces():
    plan = sample_plan(n=4, seed=1, index=2, horizon_floor=40.0)
    assert plan.crashes  # index 2 is the storm-crash archetype
    live = run_plan_live(plan, time_scale=TIME_SCALE)
    assert live.ok, live.verdict.failed
    for spec in plan.crashes:
        # Actual (virtual-time) crash instant is on schedule.
        assert live.crash_times[spec.pid] == pytest.approx(
            spec.latest_time(), rel=0.5
        )
