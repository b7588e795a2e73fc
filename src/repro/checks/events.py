"""The normalized check-event vocabulary.

Every substrate — the discrete-event kernel, the live asyncio runtime,
and offline trace/wire-log replay — describes a run to the checkers in
exactly these terms.  The vocabulary is deliberately tiny and versioned
(:data:`CHECK_EVENT_VERSION`): a checker written against it runs
identically online in the kernel, online over live sockets, and offline
over any recorded artifact, which is the whole point of the
:mod:`repro.checks` subsystem.

Two kinds of members:

* **Serializable events** — phase, doorway, suspicion, crash (derived
  from :mod:`repro.trace.events` records) and send/deliver/drop (derived
  from wire-log records).  These are what ``repro check`` replays.
* **:class:`ProbeEvent`** — an *online-only* member carrying live local
  state views (the diner objects themselves, duck-typed).  State-based
  checkers (fork uniqueness, the diner-local invariants) consume it when
  a substrate can offer it and report ``skip`` when one cannot (offline
  replay of a recorded trace has no state to probe).

Message events carry the per-directed-channel sequence number when the
substrate knows it (the wire codec always does; the kernel adapter
assigns them at send), which is what makes the FIFO/no-loss property
checkable from the stream alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

ProcessId = int

#: Version of the vocabulary below.  Bump when events gain/lose fields
#: or semantics; verdicts record the version they were produced under.
CHECK_EVENT_VERSION = 2


@dataclass(frozen=True)
class PhaseEvent:
    """A diner moved between thinking / hungry / eating."""

    time: float
    pid: ProcessId
    old_phase: str
    new_phase: str


@dataclass(frozen=True)
class DoorwayEvent:
    """A diner entered (``inside=True``) or exited the asynchronous doorway."""

    time: float
    pid: ProcessId
    inside: bool


@dataclass(frozen=True)
class SuspicionEvent:
    """A detector module's output on one neighbor flipped."""

    time: float
    observer: ProcessId
    suspect: ProcessId
    suspected: bool


@dataclass(frozen=True)
class CrashEvent:
    """A process crashed."""

    time: float
    pid: ProcessId


@dataclass(frozen=True)
class MembershipEvent:
    """One membership delta applied: the conflict topology changed.

    ``epoch`` is the monotone counter *after* the delta.  ``edges``
    carries a ``join``'s initial neighbor pids; the edge verbs put the
    peer there.  Checkers whose bookkeeping is keyed to a link's
    incarnation (Lemma 2.2's outstanding-ping table) consume this to
    retire state the teardown already retired on the wire — exactly what
    the online substrates do through ``CheckSuite.note_relink``, now
    visible to offline replay too.
    """

    time: float
    epoch: int
    verb: str
    pid: ProcessId
    edges: tuple = ()


@dataclass(frozen=True)
class SendEvent:
    """A message entered the directed channel ``src -> dst``.

    ``type`` is the message class name (``"Fork"``, ``"Ping"``, …),
    ``layer`` its protocol layer (``"dining"`` or ``"detector"``), and
    ``seq`` the per-directed-channel sequence number when known.
    """

    time: float
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: Optional[int] = None


@dataclass(frozen=True)
class DeliverEvent:
    """A message left the channel and was handed to the destination."""

    time: float
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: Optional[int] = None


@dataclass(frozen=True)
class DropEvent:
    """A message was discarded (crashed destination or severed link)."""

    time: float
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: Optional[int] = None


class ProbeEvent:
    """Online-only: a snapshot opportunity over live local state.

    ``states`` maps pid to a duck-typed state view exposing at least
    ``crashed``; the full diner surface (``holds_fork(n)``,
    ``holds_token(n)``, ``is_eating``, ``is_hungry``, ``inside``,
    ``phase``, ``_links_in_order()``) unlocks the state-based checkers.
    Adapters may reuse one mutable instance per run — checkers read it
    synchronously inside :meth:`~repro.checks.suite.CheckSuite.observe`
    and never retain it.

    ``edges`` and ``pairs`` optionally restrict the probe to the slice of
    state an adapter knows could have changed: ``edges`` limits fork/token
    uniqueness to those undirected edges, ``pairs`` limits the diner-local
    invariants to ``(pid, neighbor)`` link checks (``neighbor=None`` means
    the whole diner).  ``None`` (the default) means a full scan — what a
    substrate without change tracking feeds.
    """

    __slots__ = ("time", "states", "edges", "pairs")

    def __init__(
        self,
        time: float,
        states: Mapping[ProcessId, object],
        edges=None,
        pairs=None,
    ) -> None:
        self.time = time
        self.states = states
        self.edges = edges
        self.pairs = pairs


#: Serializable message-event kinds, keyed the way wire logs spell them.
WIRE_EVENT_TYPES = {"send": SendEvent, "deliver": DeliverEvent, "drop": DropEvent}

#: Every serializable member of the vocabulary.
SERIALIZABLE_EVENT_TYPES = (
    PhaseEvent,
    DoorwayEvent,
    SuspicionEvent,
    CrashEvent,
    MembershipEvent,
    SendEvent,
    DeliverEvent,
    DropEvent,
)
