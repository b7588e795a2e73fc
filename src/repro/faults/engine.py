"""One FaultPlan → one judged run, on either substrate.

The engine interprets a :class:`~repro.faults.plan.FaultPlan`:

* **kernel** — a :class:`~repro.core.table.DiningTable` with the plan's
  latency adversary, workload, scripted ◇P₁ (convergence, detection
  delay, random pre-convergence mistakes), and crash injections.
  Time-scripted crashes ride the ordinary
  :class:`~repro.sim.crash.CrashPlan`; *state-triggered* crashes arm
  trace/network listeners that kill the victim the moment it enters the
  doorway, starts eating, or receives a fork — the windows in which a
  crash strands the most shared state at neighbors.  Every triggered
  victim also appears in the CrashPlan at its ``deadline``, so the
  detector oracles know about it (detection is merely late, which ◇P₁
  permits) and the crash happens by the deadline even if the trigger
  never fires.
* **live** — a loopback :class:`~repro.net.host.AsyncHost` whose new
  ``inject_latency`` hook replays the same latency adversary in scaled
  wall time; crashes use their (scaled) scripted times or deadlines.

Both paths end in the same :func:`repro.checks.standard_suite` Verdict.
Judgement windows are derived from the plan itself
(:meth:`JudgeWindows.for_plan`): eventual properties are never judged
tighter than the adversary allows, so a clean campaign over the
unmutated algorithm passing with 0 violations is a meaningful claim.

Exceptions a mutant raises mid-run (``ForkDuplicationError`` from
Lemma 1.1's runtime assert, kernel event-budget exhaustion from a flood
bug, …) are converted into failing properties rather than propagated, so
the campaign layer sees a uniform Verdict either way.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checks import CheckConfig, FAIL, PropertyVerdict, Verdict, Violation
from repro.checks.properties import CHANNEL_BOUND, FIFO, FORK_UNIQUENESS
from repro.core.messages import Fork
from repro.core.table import DiningTable, scripted_detector
from repro.errors import (
    ChannelCapacityError,
    ConfigurationError,
    FifoViolationError,
    ForkDuplicationError,
    InvariantViolation,
    SimulationError,
)
from repro.faults.mutants import get_mutant
from repro.faults.plan import CrashSpec, FaultPlan
from repro.graphs import topologies
from repro.sim.crash import CrashPlan
from repro.sim.events import EventPriority
from repro.sim.monitors import message_layer
from repro.sim.network import NetworkMonitor
from repro.sim.rng import RandomStreams
from repro.trace.events import DoorwayChange, PhaseChange

#: Synthetic property name for mutant-raised faults that map to no
#: standard property (scheduling storms, crashed-process sends, …).
RUNTIME_ERROR = "runtime-error"

#: Synthetic property judging the lease-service path under a client
#: storm: every lease the storm leaves active must be backed by an
#: eating (or crashed) diner — a leak means a grant escaped Algorithm
#: 1's critical section.
LEASE_BACKING = "lease-backing"

#: How many pieces a kernel run is cut into, so a failing plan stops at
#: the first chunk whose suite holds a violation instead of simulating a
#: flood mutant to the full horizon.
RUN_CHUNKS = 8


# ----------------------------------------------------------------------
# Judgement windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JudgeWindows:
    """Windows binding the eventual properties, derived from the plan.

    All values are in the plan's virtual time units.  The derivation is
    deliberately generous — a window too tight would convict the correct
    algorithm of its adversary's sins; the clean-campaign acceptance run
    (``repro fuzz`` with no mutant) is the empirical check that it never
    does.
    """

    settle: float
    patience: float
    after: float
    grace: float

    @staticmethod
    def for_plan(plan: FaultPlan, *, margin: float = 3.0) -> "JudgeWindows":
        lat = plan.latency.ceiling()
        eat = plan.eat_ceiling()  # storm TTLs included
        # Suspicion output is trustworthy only after detector convergence,
        # latency stabilization (GST), the last possible crash's
        # detection, and the last membership delta (a joiner or rejoiner
        # needs a doorway round-trip before its neighborhood is settled);
        # in-flight stragglers add one ceiling.
        base = max(
            plan.flaps.convergence,
            plan.latency.stabilization_time(),
            plan.last_possible_crash() + plan.flaps.detection_delay,
            plan.last_membership_time(),
        )
        settle = base + eat + 2.0 * lat + margin
        # A hungry diner can transitively wait behind every other diner's
        # meal plus the message round-trips between them, all of which may
        # start before ``base``.
        patience = base + plan.n * (eat + 4.0 * lat) + margin
        after = settle
        # Traffic toward a victim stops once every neighbor's detector
        # fires, and detectors are scripted from CrashPlan deadlines —
        # but the quiescence clock starts at the ACTUAL crash, which for
        # a trigger can be as early as its arming time.  Grace must span
        # from the earliest possible crash instant to trustworthy
        # suspicion (``base``), or legal late detection convicts the
        # correct algorithm.
        earliest = min((c.earliest_time() for c in plan.crashes), default=0.0)
        grace = max(0.0, base - earliest) + eat + 3.0 * lat + margin
        return JudgeWindows(settle=settle, patience=patience, after=after, grace=grace)

    def as_dict(self) -> Dict[str, float]:
        return {
            "settle": self.settle,
            "patience": self.patience,
            "after": self.after,
            "grace": self.grace,
        }


# ----------------------------------------------------------------------
# Run result
# ----------------------------------------------------------------------
@dataclass
class FaultRunResult:
    """Everything one interpreted plan produced.

    ``trace`` and ``wire`` stay attached (in memory) so the shrinker can
    write a witness without re-running; ``to_json`` omits them.
    ``crash_times`` maps pid to the *actual* crash instant — for
    triggered crashes this is the trigger time, not the deadline.
    """

    plan: FaultPlan
    substrate: str
    verdict: Verdict
    windows: Optional[JudgeWindows]
    crash_times: Dict[int, float] = field(default_factory=dict)
    meals: Dict[int, int] = field(default_factory=dict)
    events: int = 0
    stopped_early: bool = False
    error: Optional[str] = None
    trace: object = None
    wire: List[dict] = field(default_factory=list)
    #: LockCore snapshot when the plan carried a client storm.
    storm: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    @property
    def failed(self) -> List[str]:
        return self.verdict.failed

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "substrate": self.substrate,
            "windows": self.windows.as_dict() if self.windows else None,
            "crash_times": {str(p): t for p, t in sorted(self.crash_times.items())},
            "meals": {str(p): m for p, m in sorted(self.meals.items())},
            "events": self.events,
            "stopped_early": self.stopped_early,
            "error": self.error,
            "verdict": self.verdict.to_json(),
            "storm": self.storm,
        }


# ----------------------------------------------------------------------
# Wire logging (kernel): the offline-replayable message stream
# ----------------------------------------------------------------------
class _WireLogMonitor(NetworkMonitor):
    """Records every kernel send/deliver/drop as a wire-log dict.

    The dicts speak the exact vocabulary of
    :func:`repro.checks.stream.event_from_wire`, so a witness directory's
    ``wire.jsonl`` makes channel-bound / FIFO / quiescence judgeable by
    ``repro check`` offline.  Sequence numbers are assigned at send; the
    kernel network is FIFO by construction, so deliveries and drops
    retire pending sequence numbers in order.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._next: Dict[Tuple[int, int], int] = {}
        self._pending: Dict[Tuple[int, int], deque] = {}

    def _record(self, kind, src, dst, message, time, seq) -> None:
        self.records.append(
            {
                "kind": kind,
                "src": src,
                "dst": dst,
                "type": type(message).__name__,
                "layer": message_layer(message),
                "seq": seq,
                "time": time,
            }
        )

    def on_send(self, src, dst, message, time) -> None:
        key = (src, dst)
        seq = self._next.get(key, 0) + 1
        self._next[key] = seq
        self._pending.setdefault(key, deque()).append(seq)
        self._record("send", src, dst, message, time, seq)

    def _retire(self, src, dst) -> Optional[int]:
        pending = self._pending.get((src, dst))
        return pending.popleft() if pending else None

    def on_deliver(self, src, dst, message, time) -> None:
        self._record("deliver", src, dst, message, time, self._retire(src, dst))

    def on_drop(self, src, dst, message, time) -> None:
        self._record("drop", src, dst, message, time, self._retire(src, dst))


# ----------------------------------------------------------------------
# Triggered crashes (kernel)
# ----------------------------------------------------------------------
class _CrashTrigger(NetworkMonitor):
    """Arms one state-triggered crash on a running table.

    Doorway and eating triggers listen to the trace; the fork trigger
    watches deliveries.  The kill is always *scheduled* at the current
    instant with CONTROL priority — never executed synchronously inside
    the triggering event — so the victim finishes the very step that put
    it into the targeted state (it genuinely crashes holding the fork /
    inside the doorway) and the transport never loses the triggering
    delivery.
    """

    def __init__(self, table: DiningTable, spec: CrashSpec) -> None:
        self.table = table
        self.spec = spec
        self.fired = False

    def arm(self) -> None:
        if self.spec.when == "fork":
            self.table.network.add_monitor(self)
        elif self.spec.when == "doorway":
            self.table.trace.add_listener(self._on_doorway, types=(DoorwayChange,))
        elif self.spec.when == "eating":
            self.table.trace.add_listener(self._on_phase, types=(PhaseChange,))
        else:  # pragma: no cover - CrashSpec validation forbids this
            raise ConfigurationError(f"unknown trigger {self.spec.when!r}")

    def _on_doorway(self, record) -> None:
        if record.pid == self.spec.pid and record.inside and record.time >= self.spec.after:
            self._fire()

    def _on_phase(self, record) -> None:
        if (
            record.pid == self.spec.pid
            and record.new_phase == "eating"
            and record.time >= self.spec.after
        ):
            self._fire()

    def on_deliver(self, src, dst, message, time) -> None:
        if dst == self.spec.pid and isinstance(message, Fork) and time >= self.spec.after:
            self._fire()

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        sim = self.table.sim
        pid = self.spec.pid
        sim.schedule_at(
            sim.now,
            lambda: self.table.network.crash(pid),
            priority=EventPriority.CONTROL,
            label=f"fuzz-trigger-crash {pid}",
        )


# ----------------------------------------------------------------------
# Client storms (lease-service path)
# ----------------------------------------------------------------------
class _ClientStorm:
    """Interpret a :class:`~repro.faults.plan.ClientStormSpec` on either substrate.

    Sessions are driven straight into a :class:`~repro.locks.service.
    LockCore` riding the run's diners — no sockets, the in-process
    analogue of a ``LockService`` client fleet.  The substrate supplies
    ``later(delay, fn, label)`` (the kernel: a CONTROL-priority timer; the
    live runtime: ``loop.call_later`` of a ``host.guarded`` step),
    ``defer(fn)`` for the core's hunger nudges, and ``time_scale``, the
    substrate seconds per plan second.  Bursts draw their resources from
    the seed's ``"fuzz/client-storm"`` stream; each grant either abandons
    (the killed-connection client: only the TTL reclaims its lease) or
    releases after the plan's hold time.
    """

    def __init__(
        self,
        plan: FaultPlan,
        graph,
        diners,
        trace,
        workload,
        *,
        clock,
        defer,
        later,
        time_scale: float = 1.0,
    ) -> None:
        from repro.locks.service import LeaseWorkload, LockCore, default_resources

        self.spec = plan.storm
        self.core = LockCore(default_resources(graph), diners, clock=clock, defer=defer)
        self.core.attach(trace)
        if isinstance(workload, LeaseWorkload):
            workload.bind(self.core)
        self._later = later
        self._scale = time_scale
        self._rng = RandomStreams(plan.seed).stream("fuzz/client-storm")
        self._names = sorted(self.core.resources)
        self._ttl_ms = max(1, int(round(self.spec.ttl * time_scale * 1000.0)))

    def arm(self) -> None:
        from repro.locks.messages import SESSION_BASE

        spec = self.spec
        session = SESSION_BASE
        remaining = spec.sessions
        when = spec.start
        while remaining:
            count = min(spec.burst, remaining)
            ids = range(session, session + count)
            self._later(
                when * self._scale, lambda ids=ids: self._burst(ids), "storm-burst"
            )
            session += count
            remaining -= count
            when += spec.interval

    def _burst(self, ids) -> None:
        for session in ids:
            resource = self._names[self._rng.randrange(len(self._names))]
            self.core.request(
                session,
                resource,
                self._ttl_ms,
                lambda message, _s=session: self._reply(_s, message),
            )

    def _reply(self, session: int, message) -> None:
        from repro.locks.messages import LeaseGrant

        if type(message) is not LeaseGrant:
            return  # denials are the core's books; nothing to drive
        if self._rng.random() < self.spec.abandon:
            self.core.abandon(session)
            return
        lease_id = message.lease_id
        self._later(
            self.spec.hold * self._scale,
            lambda: self.core.release(session, lease_id),
            "storm-release",
        )

    def finalize(self, verdict: Verdict, now: float) -> Verdict:
        """Close the service books and judge the lease-backing property."""
        self.core.shutdown()  # flush still-queued waiters (denied: shutdown)
        return _fold_leaked(verdict, self.core, now)


def _fold_leaked(verdict: Verdict, core, now: float) -> Verdict:
    leaked = core.leaked_leases()
    if not leaked:
        return verdict
    synthetic = PropertyVerdict(
        prop=LEASE_BACKING,
        status=FAIL,
        violations=[
            Violation(
                prop=LEASE_BACKING,
                time=now,
                detail=(
                    f"lease {lease.lease_id} on {lease.resource} "
                    f"(session {lease.session}) active but diner "
                    f"{lease.pid} is not eating"
                ),
            )
            for lease in leaked[:5]
        ],
        counters={"leaked_total": len(leaked)},
    )
    return verdict.with_property(synthetic)


# ----------------------------------------------------------------------
# Exception → property mapping
# ----------------------------------------------------------------------
def _property_of_exception(exc: BaseException) -> str:
    if isinstance(exc, ForkDuplicationError):
        return FORK_UNIQUENESS
    if isinstance(exc, ChannelCapacityError):
        return CHANNEL_BOUND
    if isinstance(exc, FifoViolationError):
        return FIFO
    return RUNTIME_ERROR


def _fold_exception(verdict: Verdict, exc: BaseException, time: float) -> Verdict:
    """Merge a mutant-raised fault into the verdict as a failing property."""
    name = _property_of_exception(exc)
    synthetic = PropertyVerdict(
        prop=name,
        status=FAIL,
        violations=[
            Violation(
                prop=name,
                time=time,
                detail=f"{type(exc).__name__}: {exc}",
            )
        ],
        counters={"raised_total": 1},
    )
    existing = verdict.properties.get(name)
    if existing is not None:
        synthetic = PropertyVerdict.merge([existing, synthetic])
    return verdict.with_property(synthetic)


# ----------------------------------------------------------------------
# Kernel interpretation
# ----------------------------------------------------------------------
def build_table(
    plan: FaultPlan,
    *,
    judge: bool = True,
    diner_factory=None,
    detector=None,
    windows: Optional[JudgeWindows] = None,
) -> DiningTable:
    """The DiningTable a plan describes (exposed for tests).

    ``diner_factory`` substitutes the scheduler under test (the bake-off
    runs the classical baselines through unmodified plans this way; it
    overrides any plan mutant).  ``detector`` substitutes the detector
    factory — crash-oblivious baselines pass ``NullDetector`` so the
    plan's flap script has nothing to script.  ``windows`` pins explicit
    judgement windows instead of :meth:`JudgeWindows.for_plan`'s
    derivation (short bake-off horizons need windows that fit inside
    them).
    """
    graph = topologies.by_name(plan.topology, plan.n, seed=plan.seed)
    crash_plan = CrashPlan.scripted({c.pid: c.latest_time() for c in plan.crashes})
    if judge and windows is None:
        windows = JudgeWindows.for_plan(plan)
    elif not judge:
        windows = None
    config = CheckConfig(
        settle=windows.settle if windows else None,
        patience=windows.patience if windows else None,
        overtaking_after=windows.after if windows else None,
        quiescence_grace=windows.grace if windows and plan.crashes else None,
    )
    mutant = get_mutant(plan.mutant) if plan.mutant else None
    flaps = plan.flaps
    if detector is None:
        detector = scripted_detector(
            convergence_time=flaps.convergence,
            detection_delay=flaps.detection_delay,
            random_mistakes=flaps.mistakes_per_edge > 0,
            mistakes_per_edge=flaps.mistakes_per_edge,
            mean_mistake_duration=flaps.mean_mistake_duration,
        )
    if diner_factory is None:
        diner_factory = mutant.factory() if mutant else None
    return DiningTable(
        graph,
        seed=plan.seed,
        latency=plan.latency.build(),
        workload=plan.workload.build(),
        crash_plan=crash_plan,
        detector=detector,
        diner_factory=diner_factory,
        strict_checks=False,
        check_config=config,
        membership=plan.membership_log(),
    )


def run_plan_kernel(
    plan: FaultPlan,
    *,
    judge: bool = True,
    stop_on_violation: bool = True,
    diner_factory=None,
    detector=None,
    windows: Optional[JudgeWindows] = None,
    monitors=(),
) -> FaultRunResult:
    """Interpret ``plan`` on the discrete-event kernel.

    ``judge=False`` leaves every eventual property informational (the
    differential tests use this: statuses then depend only on what the
    stream *proves*, not on window tuning).  ``stop_on_violation``
    short-circuits the run at the first chunk whose suite holds a
    violation — mutation campaigns spend no budget past the kill.
    ``diner_factory``/``detector``/``windows`` substitute the scheduler,
    detector factory, and judgement windows (see :func:`build_table`) —
    this is how the bake-off replays one plan across the whole zoo.
    ``monitors`` are extra :class:`~repro.sim.network.NetworkMonitor`
    instances attached before the run (the bake-off's per-algorithm
    message-bit instrument rides here).
    """
    if judge and windows is None:
        windows = JudgeWindows.for_plan(plan)
    elif not judge:
        windows = None
    table = build_table(
        plan,
        judge=judge,
        diner_factory=diner_factory,
        detector=detector,
        windows=windows,
    )
    wire = _WireLogMonitor()
    table.network.add_monitor(wire)
    for monitor in monitors:
        table.network.add_monitor(monitor)
    for spec in plan.crashes:
        if spec.when is not None:
            _CrashTrigger(table, spec).arm()
    storm = None
    if plan.storm.active:
        sim = table.sim

        def later(delay, fn, label):
            sim.schedule_at(
                sim.now + delay, fn, priority=EventPriority.CONTROL, label=label
            )

        storm = _ClientStorm(
            plan,
            table.graph,
            table.diners,
            table.trace,
            table.workload,
            clock=lambda: sim.now,
            defer=lambda fn: later(0.0, fn, "storm-defer"),
            later=later,
        )
        storm.arm()

    stopped_early = False
    error: Optional[BaseException] = None
    for chunk in range(1, RUN_CHUNKS + 1):
        try:
            table.run(until=plan.horizon * chunk / RUN_CHUNKS)
        except (InvariantViolation, SimulationError) as exc:
            error = exc
            break
        if stop_on_violation and table.checks.violations:
            stopped_early = chunk < RUN_CHUNKS
            break

    verdict = table.verdict()
    if error is not None:
        verdict = _fold_exception(verdict, error, table.sim.now)
    if storm is not None:
        verdict = storm.finalize(verdict, table.sim.now)

    return FaultRunResult(
        plan=plan,
        substrate="kernel",
        verdict=verdict,
        windows=windows,
        crash_times={r.pid: r.time for r in table.trace.crashes()},
        meals=table.eat_counts(),
        events=table.sim.processed_events,
        stopped_early=stopped_early or error is not None,
        error=f"{type(error).__name__}: {error}" if error is not None else None,
        trace=table.trace,
        wire=wire.records,
        storm=storm.core.snapshot() if storm is not None else None,
    )


# ----------------------------------------------------------------------
# Live interpretation
# ----------------------------------------------------------------------
def run_plan_live(
    plan: FaultPlan,
    *,
    time_scale: float = 0.02,
    judge: bool = True,
    diner_factory=None,
    detector=None,
    windows: Optional[JudgeWindows] = None,
) -> FaultRunResult:
    """Interpret ``plan`` on a loopback :class:`~repro.net.host.AsyncHost`.

    ``time_scale`` maps plan (virtual) seconds to wall seconds — the
    default squeezes a 120-unit horizon into ~2.4 s of wall clock.  The
    plan's latency adversary is replayed through the host's
    ``inject_latency`` hook (same model, same seed-derived streams,
    delays scaled); crashes use their scripted times, triggers their
    deadlines (state triggers are kernel-only).  ◇P₁ is the host's real
    heartbeat detector, so the plan's flap script does not apply — the
    pre-convergence adversary on this substrate is genuine wall-clock
    jitter.  With ``judge=True`` the settle/patience/overtaking windows
    are bound (scaled) at finalize; quiescence stays informational (its
    grace is consumed online, before windows could be rebound).
    """
    import asyncio

    from repro.graphs.membership import MembershipLog
    from repro.net.host import AsyncHost, HostConfig, run_host

    if time_scale <= 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale!r}")
    graph = topologies.by_name(plan.topology, plan.n, seed=plan.seed)
    if judge and windows is None:
        windows = JudgeWindows.for_plan(plan)
    elif not judge:
        windows = None
    mutant = get_mutant(plan.mutant) if plan.mutant else None

    # Membership deltas ride the host's wall clock, so their plan times
    # scale exactly like crash times do.
    membership = plan.membership_log()
    if membership is not None:
        membership = MembershipLog(
            dataclasses.replace(d, time=d.time * time_scale) for d in membership
        )

    model = plan.latency.build()
    streams = RandomStreams(plan.seed).spawn("fuzz-live-latency")

    def inject(src: int, dst: int, message, now: float) -> float:
        virtual_now = now / time_scale
        return model.sample(src, dst, virtual_now, streams) * time_scale

    host = AsyncHost(
        graph,
        config=HostConfig(
            duration=plan.horizon * time_scale,
            seed=plan.seed,
        ),
        crash_times={c.pid: c.latest_time() * time_scale for c in plan.crashes},
        workload=plan.workload.build(time_scale=time_scale),
        inject_latency=inject,
        diner_factory=diner_factory
        if diner_factory is not None
        else (mutant.factory() if mutant else None),
        detector=detector,
        membership=membership,
        run="fuzz",
    )
    storm = None
    if plan.storm.active:

        async def run_with_storm() -> _ClientStorm:
            # The storm shares the host's loop: bursts and releases run
            # as guarded host steps, so checker and violation capture
            # see them.
            loop = asyncio.get_running_loop()
            armed = _ClientStorm(
                plan,
                host.graph,
                host.diners,
                host.trace,
                host.workload,
                clock=lambda: host.now,
                defer=lambda fn: loop.call_soon(host.guarded(fn, "storm-defer")),
                later=lambda delay, fn, label: loop.call_later(
                    delay, host.guarded(fn, label)
                ),
                time_scale=time_scale,
            )
            armed.arm()
            await host.run()
            return armed

        storm = asyncio.run(run_with_storm())
    else:
        run_host(host)

    if judge and windows is not None:
        host.checks.bind_windows(
            settle=windows.settle * time_scale,
            patience=windows.patience * time_scale,
            after=windows.after * time_scale,
        )
    verdict = host.verdict()
    if storm is not None:
        verdict = storm.finalize(verdict, host.now)
    # ``host.violations`` mixes checker-forwarded witnesses (already in
    # the verdict, possibly as informational counters) with actor faults
    # the host captured outside the checkers (a mutant raising
    # mid-step).  Only the latter must fail the run.
    checker_details = {f"{v.prop}: {v.detail}" for v in host.checks.violations}
    actor_faults = [d for d in host.violations if d not in checker_details]
    if actor_faults:
        synthetic = PropertyVerdict(
            prop=RUNTIME_ERROR,
            status=FAIL,
            violations=[
                Violation(prop=RUNTIME_ERROR, time=host.now, detail=detail)
                for detail in actor_faults[:5]
            ],
            counters={"raised_total": len(actor_faults)},
        )
        verdict = verdict.with_property(synthetic)

    return FaultRunResult(
        plan=plan,
        substrate="live",
        verdict=verdict,
        windows=windows,
        crash_times={r.pid: r.time / time_scale for r in host.trace.crashes()},
        meals={pid: d.meals_eaten for pid, d in host.diners.items()},
        events=host.checks.events_observed,
        trace=host.trace,
        wire=[
            {
                "kind": e.kind,
                "src": e.src,
                "dst": e.dst,
                "type": e.type,
                "layer": e.layer,
                "seq": e.seq,
                "time": e.time,
            }
            for e in host.wire_events
        ],
        storm=storm.core.snapshot() if storm is not None else None,
    )


def run_plan(plan: FaultPlan, *, substrate: str = "kernel", **kwargs) -> FaultRunResult:
    """Dispatch a plan to its substrate interpreter."""
    if substrate == "kernel":
        return run_plan_kernel(plan, **kwargs)
    if substrate == "live":
        return run_plan_live(plan, **kwargs)
    raise ConfigurationError(f"unknown substrate {substrate!r}")
