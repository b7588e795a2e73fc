"""The benchmark's three workloads and their failure accounting.

Every workload is closed-loop and driven from one thread: the next op
starts only when the previous one finished.  Each turns ``--seed`` into
inputs (the program receives only those), times its set-up several times
and keeps the median, runs ops until the wall budget is spent (and at
least :data:`MIN_OPS`, so a p90 has ten samples beyond it), then judges
the outputs.

* ``kernel_geometric`` - the kernel's steady-state hot path.  One op
  advances a ``DiningTable`` on ``random_geometric(2000)`` by one fixed
  virtual-time slice; a run advances four such tables round robin.
* ``fault_plans`` - the fuzz/replay path.  One op builds, runs and
  judges one ``FaultPlan`` of a fixed shape.
* ``live_unix`` - the live runtime.  A ring of 8 split over two
  ``AsyncHost``s linked by unix sockets; one op is one meal session.

Counts that must repeat exactly for a seed (``sim.events``,
``network.sends``, ``dining_msgs_per_meal``, ``response_vt_p90``) are
taken over a fixed amount of simulated work - the first
:data:`EXACT_SLICES` slices or :data:`EXACT_PLANS` plans - never over the
wall-time window, whose length depends on the machine.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.faults.engine as engine
import repro.graphs.topologies as topologies
from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.errors import InvariantViolation, SimulationError
from repro.faults.plan import (
    CrashSpec,
    FaultPlan,
    FlapSpec,
    LatencySpec,
    MembershipSpec,
    WorkloadSpec,
)
from repro.net.host import AsyncHost, HostConfig
from repro.sim.latency import FixedLatency
from repro.trace.events import EATING, HUNGRY, PhaseChange

perf = time.perf_counter

#: Calibrated times read as on a machine where one calibration pass
#: takes this long (see :func:`calibration_pass`).
CAL_NOMINAL_S = 0.00125
#: The program slows less than the pass when co-tenants load the VM: over
#: ten runs each side of a slow spell it took 1.45x as long where the
#: pass took 1.53x, i.e. the 0.87th power.  Scaling by the pass ratio to
#: the 0.9th power removes that bias; scaling by the plain ratio read the
#: slow spells 6-8 % low.
CAL_EXPONENT = 0.9
#: Ops on each side whose calibration passes set an op's machine speed.
CAL_SMOOTH = 3
#: Set-up is repeated this often per run and the median reported.
SETUP_REPEATS = 5
#: Minimum ops per run: a p90 over 100 samples has 10 beyond it.
MIN_OPS = 100

KERNEL_N = 2000
#: Tables per run, advanced round robin.  The dynamics of a graph settle
#: into one of two regimes (about 35.5 or 39.5 dining messages per meal,
#: 12 % apart in meals per vt; one seed in five lands in the first), so a
#: one-table run would inherit that split; four tables average it out.
KERNEL_TABLES = 4
SLICE_VT = 1.0
#: The untimed warm-up slice.  The start-up wave (every diner hungry at
#: once) peaks around vt 15-20; from vt 25 on, events and meals per vt
#: hold steady, so later slices are not slower than earlier ones.
WARMUP_VT = 25.0
EXACT_SLICES = MIN_OPS

PLAN_N = 40
PLAN_HORIZON = 80.0
FAMILY_SIZE = 160
#: Dining messages per meal range from 7 to 15 between plans (graph
#: density), so the exact counts cover the whole family: a run does at
#: least every plan once.
EXACT_PLANS = FAMILY_SIZE

LIVE_N = 8
#: pid -> host: 4 ring edges cross the socket, 4 stay on one host.
LIVE_PLACEMENT = {0: 0, 1: 0, 4: 0, 5: 0, 2: 1, 3: 1, 6: 1, 7: 1}
LIVE_EAT_S = 0.002
LIVE_THINK_S = 0.0005
#: Sessions that start eating before this (host seconds) are not timed.
LIVE_WARMUP_S = 0.5
#: A session still hungry this long before the end was never served.
LIVE_PATIENCE_S = 0.5
#: Epoch lead: long enough for both hosts to be built and connected.
LIVE_START_DELAY_S = 0.3
#: Socket directory, relative to the checkout root (short unix paths).
RUN_DIR = ".bench_run"


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Counts that repeat exactly for a seed (kernel workloads).
    exact: Dict[str, float] = field(default_factory=dict)
    #: Calibrated seconds of each timed op (live: hungry->eating wall
    #: seconds per session, which a calibration pass cannot bracket).
    op_s: List[float] = field(default_factory=list)
    #: Uncalibrated wall seconds of each timed op, and the calibration
    #: pass time measured around it (kernel workloads).
    raw_op_s: List[float] = field(default_factory=list)
    op_speed: List[float] = field(default_factory=list)
    #: Every meal of the run, warm-up included (per-layer ratios).
    meals_total: int = 0


def rng_for(seed: int, workload: str) -> random.Random:
    """The input generator of one workload; a string seed is stable
    across interpreters (hashed with SHA-512, not ``hash()``)."""
    return random.Random(f"perfbench/{workload}/{seed}")


def p50(values: List[float]) -> float:
    return statistics.median(values)


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def served_waits(changes, start: float, end: float):
    """Hungry->eating times of sessions served in ``(start, end]``, and the
    hunger start of every session still waiting at the end."""
    hungry: Dict[int, float] = {}
    waits = []
    for change in changes:
        if change.time > end:
            break
        if change.new_phase == HUNGRY:
            hungry[change.pid] = change.time
        elif change.new_phase == EATING:
            began = hungry.pop(change.pid, None)
            if began is not None and change.time > start:
                waits.append(change.time - began)
    return waits, hungry


class _Peer:
    __slots__ = ("hits", "links")

    def __init__(self) -> None:
        self.hits = 0
        self.links: Dict[int, int] = {}


_PEERS = [_Peer() for _ in range(64)]


def calibration_pass() -> float:
    """Seconds for one fixed pass of event-queue-like Python work.

    Heap pushes and pops, dict updates and attribute writes - the
    interpreter work the program does, in none of the program's code, so
    a change to the program never changes it.  The VM's CPU speed swings
    by a third within seconds as co-tenants come and go; timing this pass
    around each measurement tracks that swing.
    """
    started = perf()
    heap: list = []
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1000, i, _PEERS[i % 64]))
    while heap:
        _, i, peer = heapq.heappop(heap)
        peer.hits += 1
        peer.links[i % 8] = peer.links.get(i % 8, 0) + 1
    return perf() - started


class Stopwatch:
    """Times its block: wall seconds (``raw``), the mean of the calibration
    passes timed just before and just after it (``speed``), and ``seconds``,
    the time the block would take where a pass takes :data:`CAL_NOMINAL_S`.
    """

    def __enter__(self) -> "Stopwatch":
        self._before = calibration_pass()
        self._started = perf()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.raw = perf() - self._started
        self.speed = (self._before + calibration_pass()) / 2.0
        self.seconds = calibrated(self.raw, self.speed)
        return False


def calibrated(raw: float, speed: float) -> float:
    """``raw`` wall seconds as on a machine whose calibration pass takes
    :data:`CAL_NOMINAL_S`, given the pass took ``speed`` around it."""
    return raw * (CAL_NOMINAL_S / speed) ** CAL_EXPONENT


def record(out: "Outcome", watch: Stopwatch) -> None:
    out.raw_op_s.append(watch.raw)
    out.op_speed.append(watch.speed)


def calibrate(out: "Outcome") -> None:
    """Calibrated op times: each op's wall time scaled by the median pass
    time of the ops around it (:data:`CAL_SMOOTH` on each side).  One pass is
    short enough to catch a hiccup; the median over neighbours tracks the
    machine's speed, which drifts over seconds, not milliseconds."""
    speeds = out.op_speed
    out.op_s = [
        calibrated(raw, statistics.median(speeds[max(0, i - CAL_SMOOTH): i + CAL_SMOOTH + 1]))
        for i, raw in enumerate(out.raw_op_s)
    ]


def timed_setups(build, repeats: int):
    """Run ``build`` ``repeats`` times; return (median calibrated seconds,
    last result)."""
    samples = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()
        with Stopwatch() as watch:
            built = build()
        samples.append(watch.seconds)
    return statistics.median(samples), built


def op_metrics(out: Outcome, meals: int, window_s: float) -> None:
    out.metrics.update(
        meals_per_s=meals / window_s,
        ops_per_s=len(out.op_s) / window_s,
        op_ms_p50=p50(out.op_s) * 1000.0,
        op_ms_p90=p90(out.op_s) * 1000.0,
    )


# ----------------------------------------------------------------------
# kernel_geometric
# ----------------------------------------------------------------------
def kernel_inputs(seed: int) -> dict:
    rng = rng_for(seed, "kernel_geometric")
    return {
        "n": KERNEL_N,
        "graph_seeds": [rng.randrange(2**31) for _ in range(KERNEL_TABLES)],
        "sim_seed": rng.randrange(2**31),
    }


def build_kernel_table(inputs: dict, index: int = 0) -> DiningTable:
    """Graph, table (default strict check suite), network start."""
    graph = topologies.random_geometric(inputs["n"], seed=inputs["graph_seeds"][index])
    table = DiningTable(
        graph,
        seed=inputs["sim_seed"],
        latency=FixedLatency(1.0),
        workload=AlwaysHungry(eat_time=0.05, think_time=0.01),
        detector=scripted_detector(convergence_time=0.0),
    )
    table.run(until=0.0)
    return table


def _kernel_counts(tables: List[DiningTable]) -> dict:
    return {
        "events": sum(t.sim.processed_events for t in tables),
        "sends": sum(t.network.sent_count for t in tables),
        "dining": sum(t.message_stats.by_layer.get("dining", 0) for t in tables),
        "meals": sum(d.meals_eaten for t in tables for d in t.diners.values()),
    }


def run_kernel_geometric(seed: int, seconds: float, *, min_ops: int = MIN_OPS,
                         repeats: int = SETUP_REPEATS) -> Outcome:
    out = Outcome()
    inputs = kernel_inputs(seed)
    out.metrics["setup_s"], first = timed_setups(lambda: build_kernel_table(inputs), repeats)
    tables = [first] + [build_kernel_table(inputs, i) for i in range(1, KERNEL_TABLES)]
    for table in tables:
        table.run(until=WARMUP_VT)
    base = _kernel_counts(tables)
    exact = None
    deadline = perf() + seconds
    try:
        while len(out.raw_op_s) < min_ops or perf() < deadline:
            # Round robin: slice k advances table k mod KERNEL_TABLES.
            rounds, index = divmod(len(out.raw_op_s), KERNEL_TABLES)
            table = tables[index]
            watch = Stopwatch()
            try:
                with watch:
                    table.run(until=WARMUP_VT + (rounds + 1) * SLICE_VT)
            finally:
                record(out, watch)
            if len(out.raw_op_s) == EXACT_SLICES:
                exact = _kernel_counts(tables)
    except (InvariantViolation, SimulationError) as exc:
        # The table is dead after a strict check raised: this op failed
        # and the run ends here.
        out.failed = 1
        out.notes.append(f"slice {len(out.raw_op_s)} raised {type(exc).__name__}: {exc}")
    calibrate(out)
    out.attempted = len(out.op_s)
    end = _kernel_counts(tables)
    exact = exact or end
    waits: List[float] = []
    exact_vt = WARMUP_VT + EXACT_SLICES // KERNEL_TABLES * SLICE_VT
    for table in tables:
        if not out.failed:
            verdict = table.verdict()
            if not verdict.ok:
                out.failed = out.attempted
                out.notes.append(f"final verdict failed: {verdict.failed}")
        served, _ = served_waits(table.trace.of_type(PhaseChange), WARMUP_VT, exact_vt)
        waits.extend(served)
    meals = exact["meals"] - base["meals"]
    out.exact = {
        "sim.events": exact["events"] - base["events"],
        "network.sends": exact["sends"] - base["sends"],
        "dining_msgs_per_meal": (exact["dining"] - base["dining"]) / meals,
        "response_vt_p90": p90(waits),
    }
    op_metrics(out, end["meals"] - base["meals"], sum(out.op_s))
    out.metrics["dining_msgs_per_meal"] = out.exact["dining_msgs_per_meal"]
    out.metrics["response_vt_p90"] = out.exact["response_vt_p90"]
    out.meals_total = end["meals"]
    return out


# ----------------------------------------------------------------------
# fault_plans
# ----------------------------------------------------------------------
def make_plan(rng: random.Random, *, mutant: Optional[str] = None) -> FaultPlan:
    """One plan of the family's fixed shape: geometric n=40, lognormal
    latency, a timed crash and an eating-triggered crash, detector flaps
    before convergence, a join and a leave.  Only victims, times
    and the graph vary, so every op costs about the same."""
    pids = list(range(PLAN_N))
    rng.shuffle(pids)
    timed, eating, bouncer, anchor_a, anchor_b = pids[:5]
    after = round(rng.uniform(5.0, 15.0), 3)
    return FaultPlan(
        topology="geometric",
        n=PLAN_N,
        seed=rng.randrange(2**31),
        horizon=PLAN_HORIZON,
        latency=LatencySpec.of("lognormal", median=1.0, sigma=0.5, floor=0.05, ceiling=6.0),
        crashes=(
            CrashSpec(pid=timed, at=round(rng.uniform(10.0, 30.0), 3)),
            CrashSpec(pid=eating, when="eating", after=after, deadline=after + 20.0),
        ),
        flaps=FlapSpec(
            convergence=round(rng.uniform(15.0, 25.0), 3),
            detection_delay=1.5,
            mistakes_per_edge=1.0,
            mean_mistake_duration=2.0,
        ),
        workload=WorkloadSpec.of("always", eat_time=0.75, think_time=0.01),
        mutant=mutant,
        membership=(
            MembershipSpec(
                time=round(rng.uniform(10.0, 30.0), 3),
                verb="join",
                pid=PLAN_N,
                edges=tuple(sorted((anchor_a, anchor_b))),
            ),
            # No rejoin: a rejoin makes the unmodified program fail the
            # channel-bound check on about one plan family in fifteen (see
            # README.md), and a benchmark op must be one it judges ok.
            MembershipSpec(time=round(rng.uniform(15.0, 30.0), 3), verb="leave", pid=bouncer),
        ),
    )


def plan_family(seed: int, *, mutant: Optional[str] = None) -> List[FaultPlan]:
    rng = rng_for(seed, "fault_plans")
    return [make_plan(rng, mutant=mutant) for _ in range(FAMILY_SIZE)]


def run_fault_plans(seed: int, seconds: float, *, min_ops: int = EXACT_PLANS,
                    repeats: int = SETUP_REPEATS, mutant: Optional[str] = None) -> Outcome:
    out = Outcome()

    def setup():
        family = plan_family(seed, mutant=mutant)
        engine.run_plan_kernel(family[0])
        return family

    out.metrics["setup_s"], family = timed_setups(setup, repeats)
    meals = dining = exact_meals = events = sends = 0
    waits: List[float] = []
    deadline = perf() + seconds
    while len(out.raw_op_s) < min_ops or perf() < deadline:
        index = len(out.raw_op_s)
        plan = family[index % len(family)]
        watch = Stopwatch()
        try:
            with watch:
                result = engine.run_plan_kernel(plan)
        except Exception as exc:  # noqa: BLE001 - an escaped error is a failed op
            out.failed += 1
            out.notes.append(f"plan {index} raised {type(exc).__name__}: {exc}")
            result = None
        record(out, watch)
        if result is None:
            continue
        if not result.ok or result.error:
            out.failed += 1
            if len(out.notes) < 5:
                out.notes.append(f"plan {index}: failed {result.failed} {result.error or ''}")
        plan_meals = sum(result.meals.values())
        meals += plan_meals
        if index < EXACT_PLANS:
            exact_meals += plan_meals
            events += result.events
            plan_sends = [r for r in result.wire if r["kind"] == "send"]
            sends += len(plan_sends)
            dining += sum(1 for r in plan_sends if r["layer"] == "dining")
            served, _ = served_waits(
                result.trace.of_type(PhaseChange), -math.inf, math.inf
            )
            waits.extend(served)
    calibrate(out)
    out.attempted = len(out.op_s)
    out.exact = {
        "sim.events": events,
        "network.sends": sends,
        "dining_msgs_per_meal": dining / exact_meals if exact_meals else 0.0,
        "response_vt_p90": p90(waits) if len(waits) >= 10 else 0.0,
    }
    op_metrics(out, meals, sum(out.op_s))
    out.metrics["dining_msgs_per_meal"] = out.exact["dining_msgs_per_meal"]
    out.metrics["response_vt_p90"] = out.exact["response_vt_p90"]
    out.meals_total = meals
    return out


# ----------------------------------------------------------------------
# live_unix
# ----------------------------------------------------------------------
def live_inputs(seed: int) -> dict:
    return {"seed": rng_for(seed, "live_unix").randrange(2**31)}


def build_hosts(inputs: dict, *, duration: float, epoch: float, addresses: dict):
    graph = topologies.ring(LIVE_N)
    config = HostConfig(
        duration=duration,
        seed=inputs["seed"],
        eat_time=LIVE_EAT_S,
        think_time=LIVE_THINK_S,
        tracing=True,
    )
    return [
        AsyncHost(
            graph,
            local_pids=[pid for pid, host in sorted(LIVE_PLACEMENT.items()) if host == index],
            config=config,
            placement=LIVE_PLACEMENT,
            host_index=index,
            addresses=addresses,
            transport="unix",
            epoch=epoch,
            run=f"host{index}",
        )
        for index in (0, 1)
    ]


async def _live_session(inputs: dict, duration: float, start_delay: float, addresses: dict,
                        lags: Optional[list]):
    """Build and connect both hosts, then run them.

    Returns the hosts and the calibrated set-up seconds: construction plus
    the dial-up, bracketed by calibration passes (the second one runs once
    both hosts are connected, inside the epoch start delay).
    """
    passes = [calibration_pass()]
    started = perf()
    hosts = build_hosts(
        inputs, duration=duration, epoch=time.time() + start_delay, addresses=addresses
    )
    built = perf() - started
    connected: List[float] = []
    for host in hosts:
        # Times the dial-up only; the epoch start-delay sleep that follows
        # it inside ``run`` is not set-up work.
        start_transport = host._start_transport

        async def timed_transport(start_transport=start_transport):
            await start_transport()
            connected.append(perf())
            if len(connected) == len(hosts):
                passes.append(calibration_pass())

        host._start_transport = timed_transport
    tasks = [host.run() for host in hosts]
    if lags is not None:
        loop = asyncio.get_running_loop()
        tasks.append(loop_lag_probe(lags, loop.time() + start_delay + duration))
    dial_start = perf()
    await asyncio.gather(*tasks)
    setup = built + (max(connected) - dial_start)
    return hosts, calibrated(setup, statistics.mean(passes))


async def loop_lag_probe(lags: list, stop_at: float, interval: float = 0.005) -> None:
    """Sample how late the event loop fires a timer (actual - scheduled)."""
    loop = asyncio.get_running_loop()
    while loop.time() < stop_at:
        due = loop.time() + interval
        await asyncio.sleep(interval)
        lags.append(loop.time() - due)


def run_live_unix(seed: int, seconds: float, *, min_ops: int = MIN_OPS,
                  repeats: int = SETUP_REPEATS, lags: Optional[list] = None) -> Outcome:
    # A 20 s run serves ~18,000 sessions; ``min_ops`` is met by time alone.
    out = Outcome()
    inputs = live_inputs(seed)
    os.makedirs(RUN_DIR, exist_ok=True)
    addresses = {i: os.path.join(RUN_DIR, f"{os.getpid()}-h{i}.sock") for i in (0, 1)}
    try:
        setups = []
        for _ in range(repeats - 1):
            # Set-up samples: connect, start and stop at once.
            gc.collect()
            _, setup = asyncio.run(_live_session(inputs, 0.0, 0.1, addresses, None))
            setups.append(setup)
        duration = LIVE_WARMUP_S + seconds
        gc.collect()
        hosts, setup = asyncio.run(
            _live_session(inputs, duration, LIVE_START_DELAY_S, addresses, lags)
        )
        setups.append(setup)
    finally:
        for path in addresses.values():
            if os.path.exists(path):
                os.unlink(path)
    out.metrics["setup_s"] = statistics.median(setups)

    overdue = served = dining = 0
    meals_total = 0
    for host in hosts:
        waits, waiting = served_waits(host.trace.of_type(PhaseChange), LIVE_WARMUP_S, duration)
        out.op_s.extend(waits)
        served += len(waits)
        overdue += sum(1 for began in waiting.values() if began < duration - LIVE_PATIENCE_S)
        dining += sum(
            1
            for event in host.wire_events
            if event.kind == "send" and event.layer == "dining"
            and LIVE_WARMUP_S < event.time <= duration
        )
        meals_total += sum(d.meals_eaten for d in host.diners.values())
    out.attempted = served + overdue
    out.failed = overdue
    if overdue:
        out.notes.append(f"{overdue} sessions hungry > {LIVE_PATIENCE_S}s, never served")
    for host in hosts:
        verdict = host.verdict()
        if host.violations or not verdict.ok:
            out.failed = out.attempted
            out.notes.append(
                f"host {host.host_index}: {len(host.violations)} violations, "
                f"failed {verdict.failed}"
            )
    window = duration - LIVE_WARMUP_S
    op_metrics(out, served, window)
    out.metrics["dining_msgs_per_meal"] = dining / served
    out.metrics["response_vt_p90"] = p90(out.op_s)
    out.meals_total = meals_total
    return out


WORKLOADS = {
    "kernel_geometric": run_kernel_geometric,
    "fault_plans": run_fault_plans,
    "live_unix": run_live_unix,
}


def warm_imports() -> None:
    """Import and exercise every layer on tiny inputs before any timer
    starts, so ``setup_s`` measures construction, not module loading."""
    table = DiningTable(
        topologies.ring(6), workload=AlwaysHungry(eat_time=0.05, think_time=0.01)
    )
    table.run(until=5.0)
    table.verdict()
    engine.run_plan_kernel(FaultPlan(topology="geometric", n=6, horizon=10.0))
    asyncio.run(AsyncHost(topologies.ring(4), config=HostConfig(duration=0.05)).run())
