"""Which entry points a traced run wraps, and the per-layer metrics.

:func:`instrument` installs every wrapper on a :class:`~tracing.Tracer`
before the workload builds anything, so class-level wrappers are in place
when tables and hosts capture bound methods.  Per-instance hooks (the
kernel check adapter's closures, each live host's check suite) are
wrapped lazily, the first time the instance runs.

The kernel's own ``Simulator.profiler`` hook times every fired action.
:class:`ActionProfiler` books those times as a synthetic ``sim.action``
layer, so ``sim.run``'s self time is exactly the event loop's cost: run
wall time minus the actions it fired and the post-event check hook.
"""

from __future__ import annotations

import asyncio
import functools
import statistics

import repro.core.table as table_mod
import repro.faults.engine as engine
import repro.graphs.topologies as topologies
import repro.net.host as host_mod
from repro.checks import CheckConfig
from repro.core.diner import DinerActor
from repro.core.table import DiningTable
from repro.detectors.base import DetectorModule
from repro.detectors.heartbeat import HeartbeatAgent
from repro.net.codec import FrameDecoder
from repro.net.host import AsyncHost
from repro.obs.tracing import SpanAssembler
from repro.sim.checks import KernelCheckAdapter
from repro.sim.kernel import Simulator
from repro.sim.network import Network

#: Every property the standard suite (static or dynamic) can attribute
#: time to, plus the kernel adapter's own settle account.
CHECK_PROPERTIES = (
    "fork-uniqueness", "diner-local", "channel-bound", "fifo", "edge-exclusion",
    "wx-safety", "progress", "overtaking", "quiescence", "pending-ping",
    "kernel-adapter.settle",
)

#: Spans that run inside ``sim.run`` but outside any fired action.
_OUTSIDE_ACTIONS = ("checks.on_step", "setup.start")

#: Per-layer metrics and units, in report order.  ``_s`` metrics are self
#: seconds (span duration minus wrapped children) over the traced window.
PER_LAYER = (
    ("sim.events", "count"), ("sim.events_per_meal", "1"),
    ("sim.queue_depth_peak", "count"), ("sim.self_s", "s"), ("sim.actions_s", "s"),
    ("network.sends", "count"), ("network.delivered", "count"),
    ("network.dropped", "count"), ("network.send_s", "s"),
    ("diner.deliver_calls", "count"), ("diner.deliver_s", "s"),
    ("diner.reevaluate_calls", "count"), ("diner.reevaluate_s", "s"),
    ("checks.on_send_s", "s"), ("checks.on_deliver_s", "s"), ("checks.on_step_s", "s"),
    ("checks.observe_calls", "count"), ("checks.observe_s", "s"), ("checks.share", "1"),
    *((f"checks.prop.{name}_s", "s") for name in CHECK_PROPERTIES),
    ("detector.messages", "count"), ("detector.on_message_s", "s"),
    ("detector.suspects_calls", "count"), ("detector.false_retractions", "count"),
    ("faults.build_table_s", "s"), ("faults.run_s", "s"), ("faults.verdict_s", "s"),
    ("faults.wire_records", "count"),
    ("membership.deltas", "count"), ("membership.apply_s", "s"),
    ("setup.graph_s", "s"), ("setup.diners_s", "s"), ("setup.checks_s", "s"),
    ("setup.start_s", "s"),
    ("trace.records", "count"),
    ("codec.frames_encoded", "count"), ("codec.bytes", "B"), ("codec.encode_s", "s"),
    ("codec.feed_calls", "count"), ("codec.frames_decoded", "count"),
    ("codec.decode_s", "s"), ("codec.frames_per_feed", "1"),
    ("transport.writes", "count"), ("transport.bytes_written", "B"),
    ("transport.frames_per_write", "1"),
    ("host.transmit_calls", "count"), ("host.transmit_s", "s"),
    ("host.loop_lag_ms_p90", "ms"), ("host.cpu_busy_share", "1"),
    ("obs.spans", "count"), ("obs.span_s", "s"),
    ("bench.self_s", "s"), ("trace.wall_s", "s"), ("trace.self_sum_s", "s"),
    ("trace.spans", "count"), ("trace.overhead", "ratio"),
)


class ActionProfiler:
    """``Simulator.profiler`` that books each fired action as a child span.

    The kernel reports an action's duration only after it returned, by
    which time the wrapped layers it called were charged to the open
    ``sim.run`` frame.  :meth:`record` moves that child time under the
    action: the action's self time is its duration minus the wrapped work
    inside it, and the frame is charged the action's full duration once.
    """

    def __init__(self, tracer, sim, state: dict) -> None:
        self.tracer = tracer
        self.sim = sim
        self.state = state
        self.begin()

    def _outside(self) -> float:
        total = self.tracer.total_s
        return sum(total[name] for name in _OUTSIDE_ACTIONS)

    def begin(self) -> None:
        """Mark the start of one ``sim.run`` frame."""
        self._child_mark = 0.0
        self._outside_mark = self._outside()

    def record(self, label, seconds) -> None:
        frame = self.tracer.stack[-1]
        outside = self._outside()
        inside = frame[1] - self._child_mark - (outside - self._outside_mark)
        self.tracer.self_s["sim.action"] += seconds - inside
        self.tracer.calls["sim.action"] += 1
        frame[1] += seconds - inside
        self._child_mark = frame[1]
        self._outside_mark = outside
        depth = self.sim.queue_depth
        if depth > self.state["queue_depth_peak"]:
            self.state["queue_depth_peak"] = depth


class _HookedSimulator(Simulator):
    """Routes the check adapter's one-shot post-event hook through a span.

    The adapter arms ``_post_event`` with a closure it holds privately, so
    the hook can only be traced where the kernel stores it.
    """

    @property
    def _post_event(self):
        return self.__dict__["_post_event"]

    @_post_event.setter
    def _post_event(self, hook):
        if hook is not None:
            hook = self.__dict__["_bench_hooks"].get(hook, hook)
        self.__dict__["_post_event"] = hook


def instrument(tracer) -> dict:
    """Wrap every traced entry point; returns the shared probe state."""
    state = {"queue_depth_peak": 0, "lags": []}
    counts = tracer.counts
    span = tracer.span

    # -- kernel stack ---------------------------------------------------------
    original_run = DiningTable.run

    def _instrument_table(table) -> ActionProfiler:
        sim = table.sim
        profiler = ActionProfiler(tracer, sim, state)
        sim.profiler = profiler
        adapter = table._check_adapter
        if adapter is not None:
            raw_step = adapter.on_step
            for attr, name in (("on_send", "checks.on_send"),
                               ("on_deliver", "checks.on_deliver"),
                               ("on_step", "checks.on_step")):
                tracer.wrap(adapter, attr, name, restore=False)
            sim.__dict__["_bench_hooks"] = {raw_step: adapter.on_step}
            sim.__class__ = _HookedSimulator
        table._bench_profiler = profiler
        return profiler

    def run(table, *args, **kwargs):
        profiler = getattr(table, "_bench_profiler", None) or _instrument_table(table)
        profiler.begin()
        sim, network = table.sim, table.network
        before = (sim.processed_events, network.sent_count, network.delivered_count,
                  network.dropped_count, len(table.trace))
        try:
            return span("sim.run", original_run, table, *args, **kwargs)
        finally:
            after = (sim.processed_events, network.sent_count, network.delivered_count,
                     network.dropped_count, len(table.trace))
            for key, old, new in zip(
                ("sim.events", "network.sends", "network.delivered", "network.dropped",
                 "trace.records"),
                before, after,
            ):
                counts[key] += new - old

    tracer.patch(DiningTable, "run", run)
    tracer.wrap(Network, "send", "network.send")
    tracer.wrap(DiningTable, "_apply_delta", "membership.apply")
    tracer.wrap(topologies, "random_geometric", "setup.graph")
    tracer.wrap(DinerActor, "__init__", "setup.diners")
    tracer.wrap(table_mod, "standard_suite", "setup.checks")
    tracer.wrap(KernelCheckAdapter, "__init__", "setup.checks")
    tracer.wrap(KernelCheckAdapter, "attach", "setup.checks")
    tracer.wrap(Network, "start", "setup.start")
    # Per-property attribution needs a profiling suite; it is requested
    # only here, so untraced runs keep the default unprofiled suite.
    for module in (table_mod, engine, host_mod):
        tracer.patch(module, "CheckConfig", functools.partial(CheckConfig, profile=True))

    def add_profile(_verdict, args):
        checks = args[0].checks
        for name, (seconds, _calls) in checks.profile_totals().items():
            counts[f"checks.prop.{name}_s"] += seconds

    tracer.wrap(DiningTable, "verdict", "faults.verdict", after=add_profile)
    tracer.wrap(engine, "build_table", "faults.build_table")

    def count_wire(result, _args):
        counts["faults.wire_records"] += len(result.wire)

    tracer.wrap(engine, "run_plan_kernel", "faults.run", after=count_wire)

    # -- both stacks ------------------------------------------------------------
    tracer.wrap(DinerActor, "deliver", "diner.deliver")
    tracer.wrap(DinerActor, "reevaluate", "diner.reevaluate")
    tracer.wrap(HeartbeatAgent, "on_message", "detector.on_message")
    tracer.wrap(DetectorModule, "suspects", "detector.suspects")
    suspects = DetectorModule.suspects.__wrapped__
    set_suspicion = DetectorModule.set_suspicion

    def retracting(module, pid, suspected):
        if not suspected and suspects(module, pid):
            counts["detector.false_retractions"] += 1
        return set_suspicion(module, pid, suspected)

    tracer.patch(DetectorModule, "set_suspicion", retracting)

    # -- live stack ---------------------------------------------------------------
    def count_encode(frame, _args):
        counts["codec.frames_encoded"] += 1
        counts["codec.bytes"] += len(frame)

    tracer.wrap(host_mod, "encode_frame", "codec.encode", after=count_encode)

    def count_decode(frames, _args):
        counts["codec.frames_decoded"] += len(frames)

    tracer.wrap(FrameDecoder, "feed", "codec.decode", after=count_decode)

    def count_write(_result, args):
        counts["transport.bytes_written"] += len(args[1])

    tracer.wrap(asyncio.StreamWriter, "write", "transport.write", after=count_write)
    tracer.wrap(AsyncHost, "transmit", "host.transmit")
    for method in ("send", "receive", "on_phase", "on_doorway", "on_crash"):
        tracer.wrap(SpanAssembler, method, "obs.span")

    def count_spans(spans, _args):
        counts["obs.spans"] += len(spans)

    tracer.wrap(SpanAssembler, "finish", "obs.span", after=count_spans)
    host_run = AsyncHost.run

    async def run_host(host):
        tracer.wrap(host.checks, "observe", "checks.observe", restore=False)
        result = await host_run(host)
        counts["trace.records"] += len(host.trace)
        for name, (seconds, _calls) in host.checks.profile_totals().items():
            counts[f"checks.prop.{name}_s"] += seconds
        return result

    tracer.patch(AsyncHost, "run", run_host)
    return state


def per_layer_metrics(tracer, state, *, wall: float, cpu: float, meals: int,
                      overhead: float) -> dict:
    """The per-layer metric values of one traced window."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({key: value for key, value in counts.items() if key in values})
    for metric, span_name in (
        ("sim.self_s", "sim.run"), ("sim.actions_s", "sim.action"),
        ("network.send_s", "network.send"), ("diner.deliver_s", "diner.deliver"),
        ("diner.reevaluate_s", "diner.reevaluate"),
        ("checks.on_send_s", "checks.on_send"), ("checks.on_deliver_s", "checks.on_deliver"),
        ("checks.on_step_s", "checks.on_step"), ("checks.observe_s", "checks.observe"),
        ("detector.on_message_s", "detector.on_message"),
        ("faults.build_table_s", "faults.build_table"), ("faults.run_s", "faults.run"),
        ("faults.verdict_s", "faults.verdict"), ("membership.apply_s", "membership.apply"),
        ("setup.graph_s", "setup.graph"), ("setup.diners_s", "setup.diners"),
        ("setup.checks_s", "setup.checks"), ("setup.start_s", "setup.start"),
        ("codec.encode_s", "codec.encode"), ("codec.decode_s", "codec.decode"),
        ("host.transmit_s", "host.transmit"), ("obs.span_s", "obs.span"),
        ("bench.self_s", "bench"),
    ):
        values[metric] = self_s.get(span_name, 0.0)
    values["diner.deliver_calls"] = calls.get("diner.deliver", 0)
    values["diner.reevaluate_calls"] = calls.get("diner.reevaluate", 0)
    values["checks.observe_calls"] = calls.get("checks.observe", 0)
    values["detector.messages"] = calls.get("detector.on_message", 0)
    values["detector.suspects_calls"] = calls.get("detector.suspects", 0)
    values["membership.deltas"] = calls.get("membership.apply", 0)
    values["codec.feed_calls"] = calls.get("codec.decode", 0)
    values["transport.writes"] = calls.get("transport.write", 0)
    values["host.transmit_calls"] = calls.get("host.transmit", 0)
    if values["codec.feed_calls"]:
        values["codec.frames_per_feed"] = values["codec.frames_decoded"] / values["codec.feed_calls"]
    if values["transport.writes"]:
        values["transport.frames_per_write"] = (
            values["codec.frames_encoded"] / values["transport.writes"]
        )
    if meals:
        values["sim.events_per_meal"] = values["sim.events"] / meals
    values["sim.queue_depth_peak"] = state["queue_depth_peak"]
    checks_s = sum(
        tracer.total_s.get(name, 0.0)
        for name in ("checks.on_send", "checks.on_deliver", "checks.on_step", "checks.observe")
    )
    values["checks.share"] = checks_s / wall if wall > 0 else 0.0
    lags = state["lags"]
    if len(lags) >= 100:
        values["host.loop_lag_ms_p90"] = statistics.quantiles(lags, n=10)[-1] * 1000.0
    values["host.cpu_busy_share"] = cpu / wall if wall > 0 else 0.0
    values["trace.wall_s"] = wall
    values["trace.self_sum_s"] = sum(self_s.values())
    values["trace.spans"] = tracer.span_total
    values["trace.overhead"] = overhead
    return values
