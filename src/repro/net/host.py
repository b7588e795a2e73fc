"""AsyncHost: Algorithm 1 actors on a real asyncio event loop.

One :class:`AsyncHost` owns one event loop and hosts one or more
**unchanged** :class:`~repro.core.diner.DinerActor` objects through
:class:`~repro.net.substrate.LiveSubstrate`.  Everything the simulator
kernel provided under virtual time is re-realised under wall-clock time:

* **Links** — every message (local or remote) passes through the binary
  codec.  Actors on the same host are linked through ``loop.call_soon``
  (asyncio's FIFO ready queue preserves send order); actors on different
  hosts are linked through one TCP or Unix-socket connection per directed
  host pair (TCP byte ordering makes every directed channel FIFO).
* **◇P₁** — the same :class:`~repro.detectors.heartbeat.HeartbeatDetector`
  used under the kernel, now driven by wall-clock timers: heartbeats every
  ``heartbeat_interval`` seconds, adaptive per-neighbor deadlines.
* **Crash injection** — a scheduled :meth:`~repro.core.substrate.Actor.crash`
  freezes the actor (no more steps, deliveries dropped); once *every*
  local actor is crashed the host severs its connections, which is what a
  process crash looks like from the rest of the cluster.
* **Live checking** — the same :func:`repro.checks.standard_suite` the
  simulator kernel runs, fed online from this host's vantage point:
  state probes after every local step, message events on fully local
  edges, and deliver/drop events for inbound cross-host traffic
  (per-directed-channel sequence numbers ride in every frame, so the
  FIFO/no-loss assumption is asserted live).  Cross-host edges are
  re-judged post-hoc from the merged wire logs (see
  :mod:`repro.net.cluster`), through the identical checkers.
* **Observability** — the same metric names as the simulator
  (``net.messages_sent_total``, ``net.in_transit``, ``dining.*``) in a
  :class:`~repro.obs.metrics.MetricsRegistry`, plus an append-only wire
  log of every send/deliver/drop with wall-clock timestamps.

Exceptions raised inside actor steps or checkers are captured as run
violations (never thrown through the event loop), so a run always
completes and reports everything it saw.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.checks import (
    CheckConfig,
    DeliverEvent,
    DropEvent,
    ProbeEvent,
    SendEvent,
    Verdict,
    Violation,
    annotate_violations,
    event_from_trace_record,
    standard_suite,
)
from repro.core.diner import DinerActor
from repro.core.lifecycle import LifecycleDriver
from repro.core.substrate import ProcessId
from repro.core.workload import AlwaysHungry, Workload
from repro.detectors.heartbeat import HeartbeatDetector
from repro.errors import ConfigurationError
from repro.graphs.coloring import Coloring, greedy_coloring, validate_coloring
from repro.graphs.conflict import ConflictGraph
from repro.graphs.membership import MembershipDelta, MembershipLog, TopologyTimeline
from repro.locks.messages import LeaseDenied
from repro.net.codec import (
    FrameDecoder,
    WireCodecError,
    encode_frame,
    frame_wire_bytes,
)
from repro.net.substrate import LiveSubstrate
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import NetworkInstrument, TraceInstrument
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    Span,
    SpanAssembler,
    SpanContext,
    completed_meals,
    dump_spans,
    flush_span_metrics,
    span_to_dict,
)
from repro.sim.monitors import message_layer
from repro.sim.rng import RandomStreams
from repro.trace.events import Crash, DoorwayChange, PhaseChange
from repro.trace.recorder import TraceRecorder
from repro.trace.serialize import dump_path, record_to_dict

__all__ = ["AsyncHost", "HostConfig", "WireEvent", "run_host"]


@dataclass
class HostConfig:
    """Numeric knobs of a live run; one instance is shared by a cluster.

    Defaults are scaled for second-long demonstration runs: eating lasts
    50 ms and the detector heartbeats every 250 ms, so a 2-second run
    sees dozens of meals and several detector periods.
    """

    duration: float = 2.0
    seed: int = 0
    eat_time: float = 0.05
    think_time: float = 0.01
    max_sessions: Optional[int] = None
    heartbeat_interval: float = 0.25
    initial_timeout: float = 0.75
    timeout_increment: float = 0.25
    channel_bound: int = 4
    connect_timeout: float = 10.0
    #: Request tracing: span assembly plus the optional trace-context tag
    #: on every outbound frame (untraced peers decode them regardless).
    tracing: bool = True
    #: Serve Prometheus text on ``http://127.0.0.1:<port>/metrics`` while
    #: the host runs (0 = pick a free port; None = no endpoint).
    scrape_port: Optional[int] = None
    #: Dump the flight-recorder rings here on a FAIL verdict or any
    #: recorded violation (None = recorder off).
    flight_dir: Optional[str] = None
    flight_capacity: int = 512


class WireEvent(NamedTuple):
    """One observed transport event, timestamped on the shared epoch clock.

    ``kind`` is ``send``, ``deliver``, or ``drop`` (delivery attempt at a
    crashed actor).  Both endpoints of a cross-host edge log with the same
    machine's clock, so merged wire logs reconstruct exact per-edge
    occupancy with no skew correction.  A named tuple rather than a
    dataclass: the wire log appends two of these per local message, and
    tuple construction is the cheapest allocation the interpreter offers.
    """

    kind: str
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: int
    time: float
    bits: int


class AsyncHost:
    """Hosts a subset of a conflict graph's diners on one event loop.

    Parameters
    ----------
    graph:
        The full conflict graph (every host knows the whole topology).
    local_pids:
        The processes this host runs; default all of them (single-host
        loopback mode).
    placement:
        pid -> host index, for routing.  Defaults to everything local.
    host_index, addresses, transport:
        This host's identity, the host-index -> address map, and the link
        kind: ``loopback`` (in-process only), ``unix`` (address is a
        socket path), or ``tcp`` (address is a ``[host, port]`` pair).
    epoch:
        Shared wall-clock zero (``time.time()`` units).  The cluster
        launcher picks one instant slightly in the future and hands it to
        every host, so ``now`` is cross-process comparable and all hosts
        start their actors together.  Defaults to "when run() starts".
    crash_times:
        pid -> crash instant (seconds after the epoch) for local pids.
    inject_latency:
        Optional adversarial delay hook for *local* edges:
        ``inject_latency(src, dst, message, now)`` returns extra wall
        seconds to hold the message before delivery.  When set, every
        local delivery routes through ``loop.call_later`` and is clamped
        to the channel's latest scheduled delivery, so injected jitter
        can never reorder a FIFO channel.  The fuzz engine uses this to
        run the same latency adversaries the kernel runs.
    diner_factory:
        Optional substitute actor constructor with the
        :class:`~repro.core.diner.DinerActor` signature (the mutation
        harness injects seeded bugs through it).
    detector:
        Optional detector *factory* with the kernel table's contract —
        called with the (union) graph.  ``None`` keeps the live default,
        a :class:`~repro.detectors.heartbeat.HeartbeatDetector`; the
        bake-off passes :class:`~repro.detectors.null.NullDetector` for
        the crash-oblivious classical baselines.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        *,
        local_pids: Optional[Sequence[ProcessId]] = None,
        config: Optional[HostConfig] = None,
        placement: Optional[Mapping[ProcessId, int]] = None,
        host_index: int = 0,
        addresses: Optional[Mapping[int, object]] = None,
        transport: str = "loopback",
        epoch: Optional[float] = None,
        crash_times: Optional[Mapping[ProcessId, float]] = None,
        workload: Optional[Workload] = None,
        coloring: Optional[Coloring] = None,
        registry: Optional[MetricsRegistry] = None,
        run: str = "live",
        inject_latency=None,
        diner_factory=None,
        detector=None,
        membership: Optional[MembershipLog] = None,
    ) -> None:
        if transport not in ("loopback", "unix", "tcp"):
            raise ConfigurationError(f"unknown transport {transport!r}")
        self.graph = graph
        self.config = config or HostConfig()
        self.host_index = int(host_index)
        self.transport = transport
        self._addresses = dict(addresses or {})
        self._epoch: Optional[float] = epoch
        self._finished = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None

        # Dynamic membership: delta times are in host seconds (seconds
        # after the run epoch — callers scale plan time before handing
        # the log over).  The union graph — every node and edge that
        # ever exists — takes the static graph's role for coloring, the
        # detector, actor construction, and checker wiring, exactly as
        # the kernel table does; the per-epoch views restrict each
        # actor's live link set.
        self.membership = membership if membership is not None else MembershipLog()
        dynamic = bool(self.membership)
        self.timeline = TopologyTimeline(graph, self.membership) if dynamic else None
        union = self.timeline.union() if dynamic else graph
        self.union_graph = union
        self._lifecycle = LifecycleDriver(self, on_fault=self._record_violation)
        self._pending_membership: List[MembershipDelta] = list(self.membership)
        if dynamic and transport != "loopback":
            # rejoin and edge churn rely on this host's authoritative
            # per-channel sequence counters to fence stale traffic; on a
            # multi-host cluster only join/leave have that property.
            for delta in self.membership:
                if delta.verb in ("rejoin", "add_edge", "remove_edge"):
                    raise ConfigurationError(
                        f"membership verb {delta.verb!r} requires loopback "
                        "transport (single-host run)"
                    )

        pids = tuple(local_pids) if local_pids is not None else union.nodes
        for pid in pids:
            if pid not in union:
                raise ConfigurationError(f"local pid {pid} is not in the conflict graph")
        self.local_pids: Tuple[ProcessId, ...] = tuple(sorted(pids))

        self._placement: Dict[ProcessId, int] = (
            dict(placement)
            if placement is not None
            else {pid: self.host_index for pid in union.nodes}
        )
        for pid in union.nodes:
            if pid not in self._placement:
                raise ConfigurationError(f"placement does not cover process {pid}")
        if transport == "loopback":
            remote = [p for p in union.nodes if self._placement[p] != self.host_index]
            if remote:
                raise ConfigurationError(
                    f"loopback transport cannot reach remote pids {remote}"
                )

        self.streams = RandomStreams(self.config.seed)
        self.coloring = coloring if coloring is not None else greedy_coloring(union)
        validate_coloring(union, self.coloring)
        if detector is None:
            self.detector = HeartbeatDetector(
                union,
                interval=self.config.heartbeat_interval,
                initial_timeout=self.config.initial_timeout,
                timeout_increment=self.config.timeout_increment,
            )
        else:
            # A factory with the kernel table's detector contract:
            # called with the (union) graph, so crash-oblivious baselines
            # can run live with NullDetector and spend zero heartbeats.
            self.detector = detector(union)
        self.workload = workload if workload is not None else AlwaysHungry(
            eat_time=self.config.eat_time,
            think_time=self.config.think_time,
            max_sessions=self.config.max_sessions,
        )
        self.trace = TraceRecorder()

        self.registry = registry if registry is not None else MetricsRegistry(profile=False)
        self._net_probe = NetworkInstrument(
            self.registry, run=run, bound=self.config.channel_bound
        )
        self._trace_probe = TraceInstrument(self.registry, union, self)
        self._trace_probe.attach(self.trace)
        self.registry.add_finalizer(self._flush_probes)

        self._make_diner = diner_factory if diner_factory is not None else DinerActor
        make_diner = self._make_diner
        self.diners: Dict[ProcessId, DinerActor] = {}
        for pid in self.local_pids:
            if dynamic:
                if pid not in graph:
                    continue  # joins later; its actor spawns at delta time
                diner = make_diner(
                    pid,
                    union,
                    self.coloring,
                    self.detector,
                    self.workload,
                    self.trace,
                    neighbors=graph.neighbors(pid),
                )
            else:
                diner = make_diner(
                    pid, graph, self.coloring, self.detector, self.workload, self.trace
                )
            diner.bind_substrate(LiveSubstrate(self, pid))
            self.diners[pid] = diner

        self._inject_latency = inject_latency
        # Latest scheduled (delayed) delivery per local directed channel;
        # clamping against it keeps injected jitter FIFO-safe.
        self._delay_front: Dict[Tuple[ProcessId, ProcessId], float] = {}
        # Channel fences (dynamic membership): deliveries on a fenced
        # directed channel with seq <= fence are dropped — the live
        # analogue of the kernel network's rejoin/edge-rebuild hygiene.
        self._fences: Dict[Tuple[ProcessId, ProcessId], int] = {}

        local = set(self.local_pids)
        self._local_edges = tuple(
            edge for edge in sorted(union.edges) if edge[0] in local and edge[1] in local
        )

        self._crash_times: Dict[ProcessId, float] = {
            pid: float(t)
            for pid, t in (crash_times or {}).items()
            if pid in local
        }

        # The same substrate-agnostic suite the kernel runs, judging what
        # this host can see: local edges exactly, inbound remote channels
        # from the receiving side.  Violations are collected, never
        # raised — a live run always completes and reports what it saw.
        final_nodes = self.timeline.final().graph.nodes if dynamic else union.nodes
        # Baseline factories build actors without Algorithm 1's local
        # variables; the DinerLocal/PendingPing probes only apply to the
        # real DinerActor (mirrors DiningTable's auto-detection).
        if self.diners:
            diner_locals = all(
                isinstance(d, DinerActor) for d in self.diners.values()
            )
        else:
            diner_locals = isinstance(make_diner, type) and issubclass(
                make_diner, DinerActor
            )
        self.checks = standard_suite(
            self._local_edges,
            CheckConfig(
                channel_bound=self.config.channel_bound,
                correct=tuple(
                    pid
                    for pid in self.local_pids
                    if pid not in self._crash_times and pid in final_nodes
                ),
                crash_time_of=self._crash_times.get,
            ),
            on_violation=self._on_check_violation,
            diner_locals=diner_locals,
            dynamic=dynamic,
            membership=self.timeline,
        )
        self._probe = ProbeEvent(0.0, self.diners)
        # Per-pid partial probes: a step at one diner can only change that
        # diner's own flags and the fork/token state of its incident
        # edges, so post-step checking restricts to those (the full-scan
        # probe remains for steps without a single responsible pid).
        self._pid_probes: Dict[ProcessId, ProbeEvent] = {
            pid: ProbeEvent(
                0.0,
                self.diners,
                edges=tuple(e for e in self._local_edges if pid in e),
                pairs=((pid, None),),
            )
            for pid in self.local_pids
        }
        self.trace.add_listener(self._on_trace_record, types=(PhaseChange, Crash))
        self._end: Optional[float] = None

        self._next_seq: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self.wire_events: List[WireEvent] = []
        self.violations: List[str] = []

        # Request tracing: lifecycle records drive the span assembler;
        # message stamps ride the wire as the codec's optional context
        # block, so cross-host spans merge without a shared clock oracle.
        self.tracer: Optional[SpanAssembler] = None
        self.spans: List[Span] = []
        if self.config.tracing:
            self.tracer = SpanAssembler()
            self.trace.add_listener(
                self._on_span_record, types=(PhaseChange, DoorwayChange, Crash)
            )

        self.flight: Optional[FlightRecorder] = None
        if self.config.flight_dir is not None:
            self.flight = FlightRecorder(self.config.flight_capacity)
            self.trace.add_listener(self._on_flight_record)

        self._server = None
        self._scrape_server = None
        self.scrape_address: Optional[Tuple[str, int]] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self._conn_writers: List[asyncio.StreamWriter] = []
        # Outbound coalescing: frames for a peer accumulate in one buffer
        # and a single call_soon flushes the batch — one syscall per loop
        # turn per peer instead of one writer.write per frame.
        self._out_buffers: Dict[int, bytearray] = {}
        self._flush_pending: set = set()
        #: Installed by :meth:`repro.locks.service.LockService.install`.
        self.lock_service = None

    # ------------------------------------------------------------------
    # Substrate surface (consumed by LiveSubstrate)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since the shared run epoch."""
        if self._epoch is None:
            return 0.0
        return time.time() - self._epoch

    @property
    def placement(self) -> Dict[ProcessId, int]:
        """The pid -> host-index routing map (read-only by convention)."""
        return self._placement

    def guarded(self, callback, label: str = "", pid: Optional[ProcessId] = None):
        """Wrap an actor callback: capture exceptions, then run checkers.

        With ``pid`` the post-step probe restricts to that diner's state
        and incident edges (a timer or reevaluation callback can only
        have changed its own actor); without it the full scan runs.
        """

        def step() -> None:
            if self._finished:
                return
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - every actor fault is a finding
                self._record_violation(f"{label or 'step'}: {exc}")
                return
            self._after_step(pid)

        return step

    def transmit(self, src: ProcessId, dst: ProcessId, message) -> None:
        """Route one message: local FIFO queue or the peer connection.

        Local edges never touch the codec: the decoded form is what the
        receiving actor wants, so the message object rides ``call_soon``
        directly and only its *would-be* frame size is accounted
        (:func:`frame_wire_bytes` — exact, allocation-free).  Remote
        edges encode once and coalesce into the peer's output buffer.
        """
        if self._finished:
            return
        key = (src, dst)
        seq = self._next_seq.get(key, 0) + 1
        self._next_seq[key] = seq
        now = self.now
        context = None if self.tracer is None else self.tracer.send(now, src)
        name = type(message).__name__
        layer = message_layer(message)
        if self._placement[dst] == self.host_index:
            bits = 8 * frame_wire_bytes(src, dst, seq, message, context)
            self._wire(WireEvent("send", src, dst, name, layer, seq, now, bits))
            # Local edge: both endpoints observable, so the live per-edge
            # gauge and the Section 7 bound checker are exact here.
            self._net_probe.on_send(src, dst, message, now)
            self.checks.observe(SendEvent(now, src, dst, name, layer, seq))
            if self._inject_latency is None:
                self.loop.call_soon(self._receive, src, dst, seq, message, context)
            else:
                # Once a channel carries injected delays, every delivery on
                # it goes through call_later and is clamped to the channel
                # front — mixing call_soon with call_later could reorder.
                # Work in loop time: call_later schedules on the loop's
                # monotonic clock, and equal deadlines are not stable in
                # its timer heap — the front is therefore kept in loop
                # coordinates and each delivery lands strictly after it.
                delay = float(self._inject_latency(src, dst, message, now) or 0.0)
                when = self.loop.time() + max(0.0, delay)
                front = self._delay_front.get(key)
                if front is not None and when <= front:
                    when = front + 1e-6
                self._delay_front[key] = when
                self.loop.call_at(when, self._receive, src, dst, seq, message, context)
        else:
            frame = encode_frame(src, dst, seq, message, context)
            self._wire(
                WireEvent("send", src, dst, name, layer, seq, now, 8 * len(frame))
            )
            self.registry.counter("net.messages_sent_total", type=name, layer=layer).inc()
            peer = self._placement[dst]
            writer = self._writers.get(peer)
            if writer is None or writer.is_closing():
                # The peer is gone (crashed hosts sever their links, and
                # hosts wind down independently): the message is lost in
                # transit, exactly a crash-model drop.
                self._wire(
                    WireEvent("drop", src, dst, name, layer, seq, now, 8 * len(frame))
                )
                self.registry.counter(
                    "net.messages_dropped_total", type=name, layer=layer
                ).inc()
            else:
                self._buffer_frame(peer, frame)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _buffer_frame(self, peer: int, frame: bytes) -> None:
        """Append to the peer's output buffer; flush once per loop turn."""
        buffer = self._out_buffers.get(peer)
        if buffer is None:
            buffer = self._out_buffers[peer] = bytearray()
        buffer += frame
        if peer not in self._flush_pending:
            self._flush_pending.add(peer)
            self.loop.call_soon(self._flush_peer, peer)

    def _flush_peer(self, peer: int) -> None:
        self._flush_pending.discard(peer)
        buffer = self._out_buffers.get(peer)
        if not buffer:
            return
        writer = self._writers.get(peer)
        if writer is not None and not writer.is_closing():
            writer.write(bytes(buffer))
        buffer.clear()

    def _flush_all_peers(self) -> None:
        for peer in list(self._out_buffers):
            self._flush_peer(peer)

    def _receive(
        self,
        src: ProcessId,
        dst: ProcessId,
        seq: int,
        message,
        context: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        if self._finished:
            return
        actor = self.diners.get(dst)
        now = self.now
        name = type(message).__name__
        layer = message_layer(message)
        local_src = self._placement[src] == self.host_index
        fence = self._fences.get((src, dst))
        if fence is not None and 0 < seq <= fence:
            # Stale traffic from before a rejoin or edge rebuild: drop at
            # delivery, exactly like the kernel network's channel fence.
            self._wire(WireEvent("drop", src, dst, name, layer, seq, now, 0))
            self.checks.observe(DropEvent(now, src, dst, name, layer, seq))
            if local_src:
                self._net_probe.on_drop(src, dst, message, now)
            return
        if actor is None:
            if self.timeline is not None and dst in self.union_graph:
                # Dynamic run: the destination has not joined yet (or has
                # left for good).  Detector probing keeps flowing to such
                # pids by design, so this is a drop, not a fault.
                self._wire(WireEvent("drop", src, dst, name, layer, seq, now, 0))
                self.checks.observe(DropEvent(now, src, dst, name, layer, seq))
                if local_src:
                    self._net_probe.on_drop(src, dst, message, now)
                return
            self._record_violation(f"frame for non-local pid {dst} ({name} from {src})")
            return
        if actor.crashed:
            self._wire(
                WireEvent("drop", src, dst, name, layer, seq, now, 0)
            )
            # The FIFO checker judges the carried seq either way; channel
            # occupancy only retires sends it actually saw (local edges).
            self.checks.observe(DropEvent(now, src, dst, name, layer, seq))
            if local_src:
                self._net_probe.on_drop(src, dst, message, now)
            else:
                self.registry.counter(
                    "net.messages_dropped_total", type=name, layer=layer
                ).inc()
            return
        self._wire(
            WireEvent("deliver", src, dst, name, layer, seq, now, 0)
        )
        if self.tracer is not None:
            if context is not None and type(context) is not SpanContext:
                context = SpanContext(*context)
            self.tracer.receive(now, src, dst, name, context)
        self.checks.observe(DeliverEvent(now, src, dst, name, layer, seq))
        if local_src:
            self._net_probe.on_deliver(src, dst, message, now)
        else:
            self.registry.counter(
                "net.messages_delivered_total", type=name, layer=layer
            ).inc()
        try:
            actor.deliver(src, message)
        except Exception as exc:  # noqa: BLE001 - every actor fault is a finding
            self._record_violation(f"deliver {name} {src}->{dst}: {exc}")
            return
        self._after_step(dst)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def _after_step(self, pid: Optional[ProcessId] = None) -> None:
        probe = self._probe if pid is None else self._pid_probes.get(pid, self._probe)
        probe.time = self.now
        self.checks.observe(probe)

    def _on_trace_record(self, record) -> None:
        event = event_from_trace_record(record)
        if event is not None:
            self.checks.observe(event)

    def _on_span_record(self, record) -> None:
        tracer = self.tracer
        if type(record) is PhaseChange:
            tracer.on_phase(record.time, record.pid, record.old_phase, record.new_phase)
        elif type(record) is DoorwayChange:
            tracer.on_doorway(record.time, record.pid, record.inside)
        else:
            tracer.on_crash(record.time, record.pid)

    def _on_flight_record(self, record) -> None:
        self.flight.record_trace(record_to_dict(record))

    def _wire(self, event: WireEvent) -> None:
        self.wire_events.append(event)
        if self.flight is not None:
            self.flight.record_wire(event._asdict())

    def _on_check_violation(self, violation: Violation) -> None:
        self._record_violation(f"{violation.prop}: {violation.detail}")

    def _record_violation(self, detail: str) -> None:
        self.violations.append(detail)

    def _flush_probes(self) -> None:
        self._net_probe.flush()
        self._trace_probe.flush()

    # ------------------------------------------------------------------
    # Transport lifecycle
    # ------------------------------------------------------------------
    def _peer_hosts(self) -> Tuple[int, ...]:
        """Host indices this host exchanges messages with.

        Peering is over the union graph: an edge that only exists after
        a join still needs its socket, and pre-dialing everything at
        start-up keeps the mid-run join path free of connect retries.
        """
        peers = set()
        for pid in self.local_pids:
            for neighbor in self.union_graph.neighbors(pid):
                owner = self._placement[neighbor]
                if owner != self.host_index:
                    peers.add(owner)
        return tuple(sorted(peers))

    async def _start_scrape(self) -> None:
        if self.config.scrape_port is None:
            return
        self._scrape_server = await asyncio.start_server(
            self._serve_scrape, host="127.0.0.1", port=int(self.config.scrape_port)
        )
        self.scrape_address = self._scrape_server.sockets[0].getsockname()[:2]

    async def _serve_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP scrape with the registry's Prometheus text.

        Any request path gets the exposition (``/metrics`` by
        convention); the snapshot runs the registry finalizers, so
        mid-run scrapes see freshly flushed gauges and counters.
        """
        from repro.obs.report import render_prometheus

        try:
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = render_prometheus(self.registry.snapshot()).encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n".encode("ascii")
                + b"Connection: close\r\n\r\n"
                + body
            )
            await writer.drain()
        except Exception:  # pragma: no cover - a dead scraper is not a finding
            pass
        finally:
            writer.close()

    async def _start_transport(self) -> None:
        if self.transport == "loopback":
            return
        address = self._addresses.get(self.host_index)
        if address is None:
            raise ConfigurationError(f"no address for host {self.host_index}")
        if self.transport == "unix":
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(address)
            )
        else:
            bind_host, port = address
            self._server = await asyncio.start_server(
                self._on_connection, host=str(bind_host), port=int(port)
            )
        for peer in self._peer_hosts():
            self._writers[peer] = await self._dial(peer)

    async def _dial(self, peer: int) -> asyncio.StreamWriter:
        """Connect to ``peer``, retrying while the cluster is still coming up."""
        address = self._addresses.get(peer)
        if address is None:
            raise ConfigurationError(f"no address for peer host {peer}")
        deadline = time.time() + self.config.connect_timeout
        while True:
            try:
                if self.transport == "unix":
                    _, writer = await asyncio.open_unix_connection(path=str(address))
                else:
                    bind_host, port = address
                    _, writer = await asyncio.open_connection(str(bind_host), int(port))
                return writer
            except OSError:
                if time.time() >= deadline:
                    raise ConfigurationError(
                        f"host {self.host_index} could not reach host {peer} "
                        f"at {address!r} within {self.config.connect_timeout}s"
                    ) from None
                await asyncio.sleep(0.05)

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._conn_writers.append(writer)
        self._reader_tasks.append(
            asyncio.ensure_future(self._read_connection(reader, writer))
        )

    async def _read_connection(
        self,
        reader: asyncio.StreamReader,
        writer: Optional[asyncio.StreamWriter] = None,
    ) -> None:
        """Single reader per connection, multiplexing every session on it.

        Dining frames go to the local actors; ``layer="locks"`` frames go
        to the lease service with this connection's writer for replies
        (they never enter the dining checkers or the wire log — client
        sessions are not conflict-graph channels).  EOF or reset abandons
        every session bound to the connection, which is what starts the
        TTL-reclaim clock for a crashed client.
        """
        decoder = FrameDecoder(capture_context=True)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except WireCodecError as exc:
                    self._record_violation(f"corrupt inbound stream: {exc}")
                    return
                for src, dst, seq, message, context in frames:
                    if message_layer(message) == "locks":
                        service = self.lock_service
                        if service is None:
                            if writer is not None and not writer.is_closing():
                                writer.write(
                                    encode_frame(0, src, 0, LeaseDenied(0, "no-service"))
                                )
                        else:
                            service.on_frame(src, message, writer)
                    else:
                        self._receive(src, dst, seq, message, context)
        finally:
            if self.lock_service is not None and writer is not None:
                self.lock_service.on_connection_lost(writer)

    def _kill_connections(self) -> None:
        """Sever every link: what the cluster sees when this host 'crashes'."""
        if self._server is not None:
            self._server.close()
        for writer in self._writers.values():
            if not writer.is_closing():
                writer.close()
        for writer in self._conn_writers:
            if not writer.is_closing():
                writer.close()
        for task in self._reader_tasks:
            task.cancel()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    async def run(self) -> "AsyncHost":
        """Connect, run every local actor for ``config.duration``, wind down."""
        self.loop = asyncio.get_running_loop()
        await self._start_scrape()
        await self._start_transport()
        if self._epoch is None:
            self._epoch = time.time()
        start_delay = self._epoch - time.time()
        if start_delay > 0:
            await asyncio.sleep(start_delay)

        for pid, actor in sorted(self.diners.items()):
            self.guarded(actor.on_start, label=f"start@{pid}", pid=pid)()
        for pid, instant in sorted(self._crash_times.items()):
            self.loop.call_later(max(0.0, instant - self.now), self._inject_crash, pid)
        for delta in self.membership:
            # Each timer pops the next delta in log order, so same-instant
            # deltas apply in log order even if the loop's timer heap
            # breaks the tie differently.
            self.loop.call_later(
                max(0.0, delta.time - self.now), self._apply_membership
            )

        remaining = self._epoch + self.config.duration - time.time()
        if remaining > 0:
            await asyncio.sleep(remaining)
        await self._shutdown()
        return self

    def _inject_crash(self, pid: ProcessId) -> None:
        if self._finished:
            return
        actor = self.diners.get(pid)
        if actor is None or actor.crashed:
            return
        try:
            actor.crash()
        except Exception as exc:  # noqa: BLE001 - every actor fault is a finding
            self._record_violation(f"crash@{pid}: {exc}")
        if all(a.crashed for a in self.diners.values()):
            self._kill_connections()

    # ------------------------------------------------------------------
    # Dynamic membership: the primitives repro.core.lifecycle drives
    # ------------------------------------------------------------------
    def live_diner(self, pid: ProcessId) -> Optional[DinerActor]:
        actor = self.diners.get(pid)
        return actor if actor is not None and not actor.crashed else None

    def is_local(self, pid: ProcessId) -> bool:
        return self._placement[pid] == self.host_index

    def spawn(self, pid: ProcessId, neighbors, *, replace: bool) -> DinerActor:
        """Build and bind a fresh incarnation of ``pid`` (not started)."""
        diner = self._make_diner(
            pid,
            self.union_graph,
            self.coloring,
            self.detector,
            self.workload,
            self.trace,
            neighbors=neighbors,
        )
        diner.bind_substrate(LiveSubstrate(self, pid))
        self.diners[pid] = diner
        if replace:
            for key, seq in self._next_seq.items():
                if pid in key and seq:
                    self._fences[key] = seq
        return diner

    def retire(self, pid: ProcessId) -> None:
        self._inject_crash(pid)

    def fence_edge(self, a: ProcessId, b: ProcessId) -> None:
        for key in ((a, b), (b, a)):
            seq = self._next_seq.get(key)
            if seq:
                self._fences[key] = seq

    def run_step(self, step, label: str, pid: ProcessId) -> None:
        self.guarded(step, label=label, pid=pid)()

    def _apply_membership(self) -> None:
        """Execute the next membership delta (timers fire in log order)."""
        if self._finished or not self._pending_membership:
            return
        self._lifecycle.apply(self._pending_membership.pop(0))
        self._after_step(None)

    async def _shutdown(self) -> None:
        if self.lock_service is not None:
            self.lock_service.shutdown()
            for lease in self.lock_service.core.leaked_leases():
                self._record_violation(
                    f"locks: leaked lease {lease.lease_id} on {lease.resource} "
                    f"(session {lease.session}, diner {lease.pid} not eating)"
                )
        self._finished = True
        self._end = self.now
        self._flush_all_peers()
        self._kill_connections()
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass
        await asyncio.sleep(0)  # let cancelled reader tasks unwind
        if self.tracer is not None:
            self.spans = self.tracer.finish(self._end)
            flush_span_metrics(self.spans, self.registry)
        self.registry.finalize()
        self._maybe_dump_flight()
        if self._scrape_server is not None:
            self._scrape_server.close()
            try:
                await self._scrape_server.wait_closed()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass

    def _maybe_dump_flight(self) -> None:
        """Dump the flight rings when the run ends badly (FAIL or fault)."""
        if self.flight is None:
            return
        verdict = self.verdict()
        crashed = sorted(pid for pid, d in self.diners.items() if d.crashed)
        unplanned = [pid for pid in crashed if pid not in self._crash_times]
        if verdict.ok and not self.violations and not unplanned:
            return
        if self.spans:
            for span in self.spans[-self.flight.capacity:]:
                self.flight.record_span(span_to_dict(span))
        reason = (
            "verdict-fail" if not verdict.ok
            else "violations" if self.violations
            else "unplanned-crash"
        )
        self.flight.dump(
            self.config.flight_dir,
            reason=reason,
            context={
                "host_index": self.host_index,
                "local_pids": list(self.local_pids),
                "violations": list(self.violations[:20]),
                "crashed": crashed,
                "horizon": self._end,
            },
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def verdict(self) -> Verdict:
        """This host's view of the run, judged by the standard suite.

        Eventual properties are informational here (no settle/patience
        windows are set at host scope); the cluster merges per-host
        verdicts with a re-judged merged-stream verdict and applies the
        windows there.
        """
        horizon = self._end if self._end is not None else (
            self.now if self._epoch is not None else None
        )
        verdict = self.checks.finalize(horizon)
        if self.spans:
            # Name the violating request: every witness gains the
            # trace-id/span-id of the request span covering it.
            verdict = annotate_violations(verdict, self.spans)
        return verdict

    def result(self) -> Dict[str, object]:
        """Compact machine-readable summary of this host's run."""
        return {
            "host_index": self.host_index,
            "local_pids": list(self.local_pids),
            "epoch": self._epoch,
            "duration": self.config.duration,
            "transport": self.transport,
            "meals": {str(pid): d.meals_eaten for pid, d in sorted(self.diners.items())},
            "crashed": sorted(pid for pid, d in self.diners.items() if d.crashed),
            "violations": list(self.violations),
            "verdict": self.verdict().to_json(),
            "wire_events": len(self.wire_events),
            "spans": len(self.spans),
            "span_meals": completed_meals(self.spans),
            "scrape_address": list(self.scrape_address) if self.scrape_address else None,
            "max_in_transit_local": self._net_probe.max_in_transit(),
            "false_suspicion_retractions": (
                self.detector.total_false_retractions()
                if hasattr(self.detector, "total_false_retractions")
                else 0
            ),
            "locks": (
                None if self.lock_service is None else self.lock_service.core.snapshot()
            ),
        }

    def write_outputs(self, directory: str) -> None:
        """Dump trace, wire log, metrics snapshot, and result summary."""
        os.makedirs(directory, exist_ok=True)
        dump_path(self.trace, os.path.join(directory, "trace.jsonl"))
        if self.spans:
            dump_spans(os.path.join(directory, "spans.jsonl"), self.spans)
        with open(os.path.join(directory, "wire.jsonl"), "w", encoding="utf-8") as stream:
            for event in self.wire_events:
                stream.write(json.dumps(event._asdict(), sort_keys=True))
                stream.write("\n")
        with open(os.path.join(directory, "metrics.json"), "w", encoding="utf-8") as stream:
            json.dump(self.registry.snapshot(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        with open(os.path.join(directory, "result.json"), "w", encoding="utf-8") as stream:
            json.dump(self.result(), stream, indent=2, sort_keys=True)
            stream.write("\n")


def run_host(host: AsyncHost) -> Dict[str, object]:
    """Run one host to completion on a fresh event loop; returns its result.

    Uses uvloop's event loop when the interpreter has it (a drop-in
    libuv-backed loop with cheaper timers and socket I/O); the stock
    asyncio loop otherwise — no hard dependency either way.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        asyncio.run(host.run())
    else:
        with asyncio.Runner(loop_factory=uvloop.new_event_loop) as runner:
            runner.run(host.run())
    return host.result()
