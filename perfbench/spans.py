"""In-memory span tracing installed around the program's public functions.

A traced run patches each measured function or method with a wrapper that
records a span (name, start, end, parent span) and, for some layers, a
work count such as bytes or parameters.  Nothing inside ``src/`` changes:
the wrappers are installed from here and removed when the run ends.

A function is patched in its defining module and in every ``eegconn``
module that imported it by name, because ``from .x import f`` copies the
reference and a call through the copy would otherwise escape the trace.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    value: object = None  # work count (bytes, parameters, (epochs, useful epochs))
    error: str | None = None  # exception type, when the call raised


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    Children are merged as intervals and clipped to the parent, so the
    result stays right when child spans overlap or outlive their parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Ids of ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    for s in spans:
        if s.parent in inside:
            inside.add(s.id)
    return sorted(inside)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.active = False  # wrappers record only while set
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, measure=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(len(spans), stack[-1] if stack else None, name, time.perf_counter_ns())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if measure is not None:
                span.value = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, name: str, measure=None, count_only=False):
        """Replace ``module.attr`` everywhere an ``eegconn`` module holds it."""
        original = getattr(module, attr)
        replacement = (self.counter(original, name) if count_only
                       else self.wrap(original, name, measure))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("eegconn") and getattr(mod, attr, None) is original:
                self._set(mod, attr, replacement)

    def patch_method(self, cls, attr: str, name: str):
        self._set(cls, attr, self.wrap(getattr(cls, attr), name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, with self times, once the run is over."""
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "self_ns": own,
                    "value": s.value, "error": s.error,
                }) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
