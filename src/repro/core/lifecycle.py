"""One lifecycle driver: membership deltas applied the same way everywhere.

A :class:`~repro.graphs.membership.MembershipDelta` is a *local*
operation of the protocol — a process joins, leaves, returns, or gains
or loses one conflict edge — not of the transport.  :class:`LifecycleDriver`
therefore interprets all five verbs once, for the discrete-event kernel
(:class:`~repro.core.table.DiningTable`) and the live asyncio runtime
(:class:`~repro.net.host.AsyncHost`) alike.  Per delta it advances the
epoch, reads the new view and the previous snapshot, notifies peers in
the view's sorted neighbor order, spawns or retires the diner, fences
rebuilt channels, tells the check plane, and writes the
``membership_change`` trace record.

The host object passed to the driver exposes ``timeline`` (the
:class:`~repro.graphs.membership.TopologyTimeline`), ``trace``,
``detector``, ``checks`` (a :class:`~repro.checks.suite.CheckSuite` or
``None``) and ``now``, and supplies only these primitives:

================  ===========================  ===============================
primitive         kernel (``DiningTable``)     live (``AsyncHost``)
================  ===========================  ===============================
``live_diner``    non-crashed table diner      non-crashed hosted actor
``is_local``      always true                  placed on this host
``spawn``         build, ``Network.register``  build, bind a ``LiveSubstrate``;
                  (``replace`` fences the      ``replace`` fences the pid's
                  pid's channels)              channels at their current seq
``retire``        ``Network.crash``            ``_inject_crash``
``fence_edge``    ``Network.fence_channels``   fence both directions at seq
``run_step``      call directly                ``AsyncHost.guarded``
================  ===========================  ===============================

``spawn(pid, neighbors, replace=...)`` returns the registered diner
without starting it; ``run_step(step, label, pid)`` runs one actor step
of ``pid``.  The call order per verb is part of the determinism
contract: on a join the peers learn before the newcomer spawns (its
first pings find a hygienic link to answer on), on a leave the diner
retires before its neighbors hear ``neighbor_left``, and on an
``add_edge`` the channels are fenced before either endpoint re-links.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.graphs.conflict import ProcessId


class LifecycleDriver:
    """Applies membership deltas through a host's lifecycle primitives.

    ``on_fault`` receives the description of an exception a delta raised
    (the live runtime records it as a violation and still writes the
    trace record); ``None`` lets the exception propagate, as the kernel
    does.
    """

    def __init__(
        self,
        host,
        *,
        on_fault: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.host = host
        self.epoch = 0
        self._on_fault = on_fault

    def apply(self, delta) -> None:
        """Execute one delta now.

        The epoch counter advances first, so the trace record and every
        epoch-stamped witness agree with the timeline's snapshot index.
        """
        host = self.host
        epoch = self.epoch + 1
        self.epoch = epoch
        snapshots = host.timeline.snapshots()
        view = snapshots[epoch].graph
        previous = snapshots[epoch - 1].graph
        verb = delta.verb
        pid = delta.pid
        peer = delta.peer
        if verb == "join":
            edges = delta.edges
        elif verb in ("add_edge", "remove_edge"):
            edges = (peer,)
        else:
            edges = ()
        try:
            if verb == "join":
                neighbors = view.neighbors(pid)
                # Peers first: when the newcomer's on_start pings, the
                # peers already carry a hygienic link to answer on.
                for other in neighbors:
                    diner = host.live_diner(other)
                    if diner is not None:
                        diner.add_neighbor(pid)
                if host.is_local(pid):
                    self._spawn(pid, neighbors, verb)
            elif verb == "leave":
                # The same path as a crash: the Crash trace record
                # reaches the checks online, and survivors substitute the
                # leaver in their Action 5/9 guards exactly as ◇P₁
                # suspicion would — its forks are reclaimed without
                # waiting on a detector that was never scripted to fire.
                neighbors = previous.neighbors(pid)
                if host.is_local(pid):
                    host.retire(pid)
                for other in neighbors:
                    diner = host.live_diner(other)
                    if diner is not None:
                        diner.neighbor_left(pid)
            elif verb == "rejoin":
                # Membership act, not detector output: silently wipe the
                # old incarnation's module (suspicions and dead
                # listeners) before the fresh actor re-subscribes.
                host.detector.module_for(pid).reset()
                neighbors = view.neighbors(pid)
                for other in neighbors:
                    diner = host.live_diner(other)
                    if diner is None:
                        continue
                    if pid in diner.links:
                        diner.neighbor_rejoined(pid)
                    else:
                        diner.add_neighbor(pid)
                if host.is_local(pid):
                    self._spawn(pid, neighbors, verb)
            elif verb == "add_edge":
                if pid in view and peer in view.neighbors(pid):
                    # Traffic from the edge's earlier existence must not
                    # deliver into the rebuilt link state; fence before
                    # the endpoints' (deferred) re-evaluations can send.
                    host.fence_edge(pid, peer)
                    self._note_relink(verb, pid, edges)
                    for a, b in ((pid, peer), (peer, pid)):
                        diner = host.live_diner(a)
                        if diner is not None:
                            diner.add_neighbor(b)
            elif verb == "remove_edge":
                if pid in previous and peer in previous.neighbors(pid):
                    for a, b in ((pid, peer), (peer, pid)):
                        diner = host.live_diner(a)
                        if diner is not None:
                            diner.remove_neighbor(b)
        except Exception as exc:  # noqa: BLE001 - reported or re-raised
            if self._on_fault is None:
                raise
            self._on_fault(f"membership {verb}@{pid}: {exc}")
        host.trace.membership_change(host.now, epoch, verb, pid, edges)

    def _spawn(self, pid: ProcessId, neighbors, verb: str) -> None:
        host = self.host
        replace = verb == "rejoin"
        diner = host.spawn(pid, neighbors, replace=replace)
        if replace:
            self._note_relink(verb, pid, ())

        def start() -> None:
            diner.on_start()
            diner.reevaluate()

        host.run_step(start, f"{verb}@{pid}", pid)

    def _note_relink(self, verb: str, pid: ProcessId, edges: tuple) -> None:
        checks = self.host.checks
        if checks is not None:
            checks.note_relink(verb, pid, edges, self.host.now)


__all__ = ["LifecycleDriver"]
