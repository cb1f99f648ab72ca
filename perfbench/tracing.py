"""Spans around calls into the package, recorded from the benchmark's side.

A `Tracer` swaps a timing wrapper in for a function attribute of a module, a
class or an instance, keeps every span in memory and writes them out once at
the end.  Spans nest through a stack, so each span knows its parent and the
time its children covered; self time is the span minus its children.  A
span can be folded into a parent of a given name (`fold`): it then counts as
part of that parent's self time and not as a call of its own.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self, fold: dict[str, str] | None = None):
        # {child name: parent name}: child spans directly under such a parent
        # are charged to it
        self.fold = dict(fold or {})
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phases: list[str] = []
        # per span: name id, parent span, phase id, start, end, child time
        # (ns), and whether a span of the same name encloses it
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.phase_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.child: list[int] = []
        self.nested: list[bool] = []
        self._open: list[int] = []         # open spans per name id
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.missing: list[str] = []
        self.notes: dict[str, list] = defaultdict(list)
        self.set_phase("setup")

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace `owner.attr` by a timed wrapper recording spans as `name`.

        `note(args, kwargs)` runs after the span closes, so whatever it
        computes is not counted in the span; its value is kept in `notes`
        with the span's index.  A missing attribute is skipped and listed in
        `missing`, so its metrics read zero.
        """
        if not hasattr(owner, attr):
            self.missing.append(name)
            return
        fn = getattr(owner, attr)
        own = vars(owner).get(attr, _ABSENT)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
            self._open.append(0)
        stack, parent, child, nested = self._stack, self.parent, self.child, self.nested
        start, end, name_id, phase_id = self.start, self.end, self.name_id, self.phase_id
        is_open = self._open
        tracer = self

        def wrapped(*args, **kwargs):
            i = len(start)
            p = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(p)
            phase_id.append(tracer._phase_id)
            child.append(0)
            end.append(0)
            nested.append(is_open[nid] > 0)
            is_open[nid] += 1
            stack.append(i)
            t0 = perf_counter_ns()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                end[i] = t1
                stack.pop()
                is_open[nid] -= 1
                if p >= 0:
                    child[p] += t1 - t0
                if note is not None:
                    tracer.notes[name].append((i, note(args, kwargs)))

        wrapped.__wrapped__ = fn
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, own))

    def installed(self) -> int:
        return len(self._installed)

    def unwrap_all(self, since: int = 0) -> None:
        """Restore the attributes wrapped since `installed()` read `since`."""
        while len(self._installed) > since:
            owner, attr, own = self._installed.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def set_phase(self, phase: str) -> None:
        """Tag the spans opened from now on with `phase`."""
        if phase not in self.phases:
            self.phases.append(phase)
        self._phase_id = self.phases.index(phase)

    # -- reading --------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one solve."""
        return len(self.start)

    def summary(self, lo: int, hi: int, phase: str | None = None) -> dict:
        """Per name: calls, self and inclusive time samples (us) and the
        inclusive total (s) of the spans in [lo, hi), optionally only those
        of one phase.  Folded spans are left out."""
        ids = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        start = np.asarray(self.start[lo:hi], dtype=np.int64)
        dur = np.asarray(self.end[lo:hi], dtype=np.int64) - start
        self_ns = dur - np.asarray(self.child[lo:hi], dtype=np.int64)
        keep = np.ones(ids.size, dtype=bool)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        inside = (parent >= lo) & (parent < hi)
        parent_id = np.full(ids.size, -1, dtype=np.int64)
        parent_id[inside] = ids[parent[inside] - lo]
        for child_name, parent_name in self.fold.items():
            if child_name not in self._ids or parent_name not in self._ids:
                continue
            sel = (ids == self._ids[child_name]) & (parent_id == self._ids[parent_name])
            np.add.at(self_ns, parent[sel] - lo, dur[sel])
            keep &= ~sel
        if phase is not None:
            pid = self.phases.index(phase) if phase in self.phases else -1
            keep &= np.asarray(self.phase_id[lo:hi]) == pid
        # inclusive totals count outermost spans of a name only, so that a
        # re-entered name is not counted twice
        outer = ~np.asarray(self.nested[lo:hi], dtype=bool)
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (ids == nid)
            if not sel.any():
                continue
            out[name] = {
                "calls": int(sel.sum()),
                "self_us": self_ns[sel] / 1e3,
                "incl_us": dur[sel] / 1e3,
                "inclusive_s": float(dur[sel & outer].sum()) / 1e9,
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span as a compressed array file plus a name index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            phase_id=np.asarray(self.phase_id, dtype=np.int8),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            child_ns=np.asarray(self.child, dtype=np.int64),
            nested=np.asarray(self.nested, dtype=bool),
            names=np.asarray(json.dumps({"names": self.names, "phases": self.phases})),
        )


_ABSENT = object()
