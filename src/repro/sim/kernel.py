"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the pending-event queue and
exposes the scheduling API everything else is built on.  It deliberately
knows nothing about processes, channels, or dining — those are layered on
top (see :mod:`repro.sim.actor` and :mod:`repro.sim.network`) — which keeps
the kernel small enough to reason about and reuse for the baselines and the
failure-detector implementations alike.

Determinism contract
--------------------
Given the same master seed and the same sequence of scheduling calls, a run
is bit-for-bit reproducible.  The kernel enforces its half of the contract
by firing same-instant events in ``(priority, scheduling order)`` and by
never consulting wall-clock time.  Components uphold the other half by
drawing randomness only from :class:`repro.sim.rng.RandomStreams`.

Hot path
--------
:meth:`Simulator.run` drains the queue through
:meth:`~repro.sim.events.EventQueue.pop_due`, which fuses the historical
``peek_time`` + ``pop`` pair and returns the raw entry tuple, so firing a
fire-and-forget event allocates nothing.  Per-event overhead beyond the
queue is three attribute loads and three branches: the profiler check, the
one-shot post-event hook, and the step-listener check.  The two observer
mechanisms are deliberately different:

* ``add_step_listener`` — persistent observers (the obs instrumentation)
  called after every event;
* ``_post_event`` — a **one-shot** hook slot armed by the invariant-check
  adapter only when an event actually dirtied checkable state, so a clean
  step costs one load-and-branch instead of a call into the checker.
"""

from __future__ import annotations

from heapq import heappush
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import SchedulingError
from repro.sim.events import _PRIO_SHIFT, Event, EventPriority, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.time import END_OF_TIME, START_OF_TIME, Duration, Instant, validate_duration, validate_instant

# Enum member lookups are surprisingly costly on the hot path; the two
# fire-and-forget priorities are resolved once at import, pre-shifted
# into entry-subkey position (see repro.sim.events).
_DELIVERY_SUBKEY_BASE = int(EventPriority.DELIVERY) << _PRIO_SHIFT
_REEVALUATE_SUBKEY_BASE = int(EventPriority.REEVALUATE) << _PRIO_SHIFT


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see
        :class:`repro.sim.rng.RandomStreams`).
    max_events:
        Hard cap on processed events; exceeding it raises
        :class:`SchedulingError`.  This turns accidental event storms
        (for example, a zero-delay retry loop) into a crisp failure
        instead of a hang.
    """

    def __init__(self, seed: int = 0, max_events: int = 50_000_000) -> None:
        self._now: Instant = START_OF_TIME
        self._queue = EventQueue()
        self._processed = 0
        self._max_events = int(max_events)
        self._finished = False
        self.streams = RandomStreams(seed)
        self._step_listeners: List[Callable[[Instant], None]] = []
        # Optional wall-clock profiler (see repro.obs.profile): when set,
        # every fired action is timed and attributed via its event label.
        self.profiler = None
        # One-shot post-event hook (see module docstring).  Cleared before
        # each invocation; the armer re-arms it when new work appears.
        self._post_event: Optional[Callable[[Instant], None]] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> Instant:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (diagnostics and budget checks)."""
        return self._processed

    @property
    def queue_depth(self) -> int:
        """Live events currently pending (observability probes)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: Instant,
        action: Callable[[], None],
        *,
        priority: EventPriority = EventPriority.TIMER,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute virtual ``time``.

        Scheduling in the past is an error; scheduling exactly at ``now``
        is allowed and fires after the current event completes.
        """
        if self._finished:
            raise SchedulingError("cannot schedule on a finished simulator")
        if not self._now <= time < END_OF_TIME:
            # Off the fast path: produce the precise historical error.
            time = validate_instant(time)
            if time < self._now:
                raise SchedulingError(
                    f"cannot schedule event {label!r} at {time} before current time {self._now}"
                )
            raise SchedulingError(f"cannot schedule event {label!r} at END_OF_TIME")
        return self._queue.push(float(time), priority, action, label=label)

    def schedule_after(
        self,
        delay: Duration,
        action: Callable[[], None],
        *,
        priority: EventPriority = EventPriority.TIMER,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay`` from now."""
        if not delay >= 0.0:  # negative or NaN: report via the validator
            delay = validate_duration(delay, name="delay")
        return self.schedule_at(self._now + delay, action, priority=priority, label=label)

    def schedule_delivery(self, time: Instant, action: Callable[[], None], label: str = "") -> None:
        """Fire-and-forget delivery at absolute ``time`` (no handle).

        The network's fast path: deliveries are never cancelled, so no
        :class:`Event` is allocated.
        """
        if self._finished:
            raise SchedulingError("cannot schedule on a finished simulator")
        if not self._now <= time < END_OF_TIME:
            time = validate_instant(time)
            if time < self._now:
                raise SchedulingError(
                    f"cannot schedule event {label!r} at {time} before current time {self._now}"
                )
            raise SchedulingError(f"cannot schedule event {label!r} at END_OF_TIME")
        # Inlined EventQueue.push_transient: one call frame per message
        # delivery is measurable at storm scale, and the kernel and its
        # queue are one subsystem (see the module docstring).
        queue = self._queue
        queue._seq = sequence = queue._seq + 1
        entry = (time, _DELIVERY_SUBKEY_BASE | sequence, action, label, None)
        tick = int(time * queue._inv)
        base = queue._base
        if tick <= base:
            heappush(queue._extra, entry)
        elif tick < base + queue._span:
            queue._ring[tick % queue._span].append(entry)
            queue._near += 1
        else:
            heappush(queue._far, entry)
        queue._live += 1

    def schedule_reevaluation(self, action: Callable[[], None], *, label: str = "") -> None:
        """Fire-and-forget guard re-evaluation at the current instant.

        REEVALUATE priority sorts after every same-instant delivery and
        timer, so the callback observes the settled state of the step.
        """
        if self._finished:
            raise SchedulingError("cannot schedule on a finished simulator")
        # Inlined push_transient; a re-evaluation lands at the current
        # instant, which is always the current tick (or earlier), so only
        # the _extra branch of the insert can apply.
        queue = self._queue
        queue._seq = sequence = queue._seq + 1
        heappush(
            queue._extra,
            (self._now, _REEVALUATE_SUBKEY_BASE | sequence, action, label, None),
        )
        queue._live += 1

    def add_step_listener(self, listener: Callable[[Instant], None]) -> None:
        """Register a callback invoked after every processed event.

        Used by observers that want to see every state the simulation
        passes through (metrics instrumentation) without instrumenting
        each actor.
        """
        self._step_listeners.append(listener)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _fire(self, entry: tuple) -> None:
        """Account for and fire one popped entry (shared step/run tail)."""
        processed = self._processed + 1
        self._processed = processed
        if processed > self._max_events:
            raise SchedulingError(
                f"event budget exhausted ({self._max_events} events); "
                "likely a zero-delay scheduling loop"
            )
        self._now = now = entry[0]
        action = entry[2]
        if action is not None:
            profiler = self.profiler
            if profiler is None:
                action()
            else:
                started = perf_counter()
                action()
                profiler.record(entry[3], perf_counter() - started)
        hook = self._post_event
        if hook is not None:
            self._post_event = None
            hook(now)
        listeners = self._step_listeners
        if listeners:
            for listener in listeners:
                listener(now)

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        entry = self._queue.pop_due(END_OF_TIME)
        if entry is None:
            return False
        self._fire(entry)
        return True

    def run(self, *, until: Instant = END_OF_TIME) -> Instant:
        """Process events until the queue drains or the clock passes ``until``.

        The clock is advanced to ``until`` when it is finite and the queue
        drained earlier, so successive bounded runs compose:
        ``run(until=10); run(until=20)`` behaves like ``run(until=20)``.
        Returns the clock value at exit.
        """
        until = validate_instant(until, name="until")
        queue = self._queue
        pop_due = queue.pop_due
        max_events = self._max_events
        perf = perf_counter
        # Loop-invariant hoists: the profiler and the step listeners are
        # attached before the run starts (mid-run attachment is not part
        # of their contract); the one-shot _post_event hook is re-read
        # every event because actions arm it.  The processed counter is
        # kept in a local and written back in ``finally`` so it stays
        # exact even when an action raises.
        profiler = self.profiler
        listeners = self._step_listeners if self._step_listeners else None
        processed = self._processed
        try:
            while True:
                # Inlined EventQueue.pop_due fast path: a live entry at
                # the drain cursor with no earlier late arrival.  The
                # queue's own pop_due handles every other case (bucket
                # exhausted, cancelled head, _extra front).
                cur = queue._cur
                idx = queue._idx
                if idx < len(cur):
                    entry = cur[idx]
                    event = entry[4]
                    if event is None or not event.cancelled:
                        extra = queue._extra
                        if not extra or entry < extra[0]:
                            if entry[0] > until:
                                break
                            queue._idx = idx + 1
                            queue._live -= 1
                            if event is not None:
                                event._queue = None
                        else:
                            entry = pop_due(until)
                            if entry is None:
                                break
                    else:
                        entry = pop_due(until)
                        if entry is None:
                            break
                else:
                    entry = pop_due(until)
                    if entry is None:
                        break
                # Inlined _fire: this is the simulation's innermost loop.
                processed += 1
                if processed > max_events:
                    raise SchedulingError(
                        f"event budget exhausted ({max_events} events); "
                        "likely a zero-delay scheduling loop"
                    )
                self._now = now = entry[0]
                action = entry[2]
                if action is not None:
                    if profiler is None:
                        action()
                    else:
                        started = perf()
                        action()
                        profiler.record(entry[3], perf() - started)
                hook = self._post_event
                if hook is not None:
                    self._post_event = None
                    hook(now)
                if listeners is not None:
                    for listener in listeners:
                        listener(now)
        finally:
            self._processed = processed
        if until != END_OF_TIME and until > self._now:
            self._now = until
        return self._now

    def run_until_quiescent(self) -> Instant:
        """Process events until no event remains; returns the final time."""
        return self.run(until=END_OF_TIME)

    def finish(self) -> None:
        """Mark the simulator finished; later scheduling attempts raise."""
        self._finished = True
