"""Timing spans around the public functions of the cpes modules, installed
from outside the package by rebinding module attributes.

A span has a name, a start, an end, a parent span and an episode id (the
number of ``sample_episode`` calls opened before it). Spans stay in memory
until the run ends. A function the modules no longer define is skipped, so
its metrics read 0 calls instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("store", "episodes", "selection", "scoring", "harness")
# methods wrapped besides the module-level functions: (layer, class, method)
METHODS = (("scoring", "Gradients", "add_"),)
EPISODE_START = "episodes.sample_episode"
# the span whose first argument names the record that is selected
RECORD_KEYED = "selection.similarity_sequence"
PHASES = ("harness.train", "harness.evaluate")
_MAX_PROBLEMS = 10


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.episodes: list[int] = []
        self.record_ids: dict[int, object] = {}
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._episode = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        if name == EPISODE_START:
            self._episode += 1
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.episodes.append(self._episode)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    @contextmanager
    def root(self, name: str):
        """A root span with the wrappers installed for its duration."""
        self.install()
        try:
            with self.span(name) as idx:
                yield idx
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == RECORD_KEYED:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = tracer._open(name)
                tracer.record_ids[idx] = getattr(args[0], "record_id", None) if args else None
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function defined in the LAYERS modules, and
        rebind each alias of it in any loaded cpes module to the same
        wrapper, so one call opens exactly one span."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.wrapped = []
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"cpes.{layer}")
            for attr, fn in list(vars(module).items()) if module else ():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
                    self.wrapped.append(f"{layer}.{attr}")
        modules = [m for n, m in list(sys.modules.items()) if n == "cpes" or n.startswith("cpes.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"cpes.{layer}"), cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                name = f"{layer}.{cls_name}.{method}"
                self._patches.append((cls, method, fn))
                setattr(cls, method, self._wrap(name, fn))
                self.wrapped.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def roots(self) -> list[tuple[int, int]]:
        """(first, end) index range of each root span's subtree; children
        are opened after their parent, so a subtree is contiguous."""
        firsts = [i for i, p in enumerate(self.parents) if p < 0]
        return list(zip(firsts, firsts[1:] + [len(self.parents)]))

    def check(self) -> list[str]:
        """Self-check: every span closed, children inside their parent and
        not overlapping their siblings, and no span directly inside one of
        its own name (what a function wrapped twice records, counting its
        calls and time twice). When these hold, each root's self times
        partition its duration, so they sum to the traced wall time with
        nothing counted twice."""
        problems: list[str] = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        last_child_end: dict[int, float] = {}
        for i, parent in enumerate(self.parents):
            start, end = self.starts[i], self.ends[i]
            if not start <= end:
                problems.append(f"span {i} ({self.names[i]}) not closed")
            if parent < 0:
                continue
            if start < self.starts[parent] or end > self.ends[parent]:
                problems.append(f"span {i} ({self.names[i]}) escapes its parent")
            if start < last_child_end.get(parent, -math.inf):
                problems.append(f"span {i} ({self.names[i]}) overlaps a sibling")
            if self.names[parent] == self.names[i]:
                problems.append(f"span {i} ({self.names[i]}) is inside a span of its own name")
            last_child_end[parent] = end
            if len(problems) >= _MAX_PROBLEMS:
                break
        return problems

    def aggregate(self, first: int, end: int, own: list[float], scope: str | None = None) -> dict:
        """Per-name calls and self time (from `own`, the self_times()) in
        one root's subtree, with the facts the per-layer ratios need. With
        `scope`, one of PHASES, only the spans of that phase count."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        phase = {}
        calls_in_phase: dict[tuple[str, str], int] = defaultdict(int)
        episode_starts: dict[int, list[float]] = defaultdict(list)
        keyed = []
        for i in range(first, end):
            name = self.names[i]
            phase[i] = i if name in PHASES else phase.get(self.parents[i])
            if scope is not None and (phase[i] is None or self.names[phase[i]] != scope):
                continue
            calls[name] += 1
            self_s[name] += own[i]
            if i in self.record_ids:
                keyed.append(self.record_ids[i])
            if phase[i] is not None:
                calls_in_phase[(self.names[phase[i]], name)] += 1
            if name == EPISODE_START and phase[i] is not None:
                episode_starts[phase[i]].append(self.starts[i])
        episode_s = []
        for p, starts in episode_starts.items():
            bounds = starts + [self.ends[p]]
            episode_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
        return {
            "calls": calls,
            "self_s": self_s,
            "calls_in_phase": calls_in_phase,
            "episode_s": episode_s,
            "selected_records": len(keyed),
            "distinct_records": len(set(keyed)),
            "spans": sum(calls.values()),
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "episode": self.episodes[i],
                        }
                    )
                    + "\n"
                )
