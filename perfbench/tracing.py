"""Span tracer that instruments the program from outside.

The benchmark never edits ``src/``: a traced run replaces chosen public
entry points (module functions, class methods, per-instance closures) with
thin wrappers that open a span, call the original, and close the span.
Every replacement is recorded, and :meth:`Tracer.restore` puts the exact
original objects back, so the untraced runs execute the unmodified
program and a later traced run starts from a clean slate.

Self time is computed online with a frame stack: a span's self time is
its duration minus the durations of the spans opened directly inside
it.  Because every span's duration is charged exactly once to its parent,
the self times of all spans under one root sum to the root's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

_MISSING = object()

#: Raw spans kept for the exit dump; the aggregates cover every span.
KEEP_SPANS = 100_000


class Tracer:
    """Spans, per-layer self/total seconds, call counts and free counters."""

    def __init__(self) -> None:
        #: Open frames: ``[span_id, child_seconds]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``(span_id, parent_id, name, start, end)``; parent 0 is "none".
        self.spans: List[tuple] = []
        self.span_total = 0
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        stack = self.stack
        self._next_id = span_id = self._next_id + 1
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.total_s[name] += duration
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration
            self.span_total += 1
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((span_id, parent, name, start, end))

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, replacement, *, restore: bool = True) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`.

        ``restore=False`` is for per-instance hooks on objects that die
        with the run: remembering them would keep every instance alive.
        """
        if restore:
            self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        after: Optional[Callable] = None,
        restore: bool = True,
    ) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        ``owner`` is a module, a class (the wrapper becomes a method) or an
        instance (per-instance closures and bound methods).  ``after``
        receives ``(result, args)`` once the call returned, for counters
        such as bytes encoded or frames decoded.
        """
        original = getattr(owner, attr)
        span = self.span

        if after is None:

            def wrapper(*args, **kwargs):
                return span(name, original, *args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = span(name, original, *args, **kwargs)
                after(result, args)
                return result

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper, restore=restore)

    def restore(self) -> None:
        """Undo every patch, newest first, putting the originals back."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the kept spans and the aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, name, start, end in self.spans:
                stream.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                )
                stream.write("\n")
            stream.write(
                json.dumps(
                    {
                        "summary": {
                            "spans": self.span_total,
                            "kept": len(self.spans),
                            "self_s": dict(self.self_s),
                            "total_s": dict(self.total_s),
                            "calls": dict(self.calls),
                            "counts": dict(self.counts),
                        }
                    }
                )
            )
            stream.write("\n")
