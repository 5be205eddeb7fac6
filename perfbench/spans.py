"""Span tracing of the varexp package from outside it.

`Tracer.install` replaces every public module-level function of every
loaded ``varexp`` module with a wrapper that records a span (name, parent
span, start, end). It patches each module attribute that holds the
function, so names bound through ``from .x import y`` (for example
``varexp.cli.simulate_coupled_stats`` or ``varexp.engine.eval_p``) are
traced as well as the defining module's own. `Tracer.restore` puts every
original back and checks that no wrapper is left. No file of the package
changes.

Spans are kept in flat arrays in memory and written out by `write_csv`
when the pass ends. A span's self time is its duration minus the time
its child spans cover; calls are single-threaded, so children never
overlap and that time is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "varexp"


def _span_name(func) -> str:
    module = func.__module__
    if module.startswith(PACKAGE + "."):
        module = module[len(PACKAGE) + 1:]
    return f"{module}.{func.__name__}"


class Tracer:
    """Records spans around the package's public functions."""

    def __init__(self, extractors=None):
        # extractors: span name -> f(args, kwargs, result) -> dict of
        # counts taken where the work happens (path-steps, bytes, ...).
        self._extractors = extractors or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, dict] = {}
        self.errors: dict[int, BaseException] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code (names start 'bench.')."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, func):
        name = _span_name(func)
        extract = self._extractors.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = exc
                raise
            finally:
                self._close(idx)
            if extract is not None:
                self.extra[idx] = extract(args, kwargs, result)
            return result

        traced.__perfbench_original__ = func
        return traced

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> int:
        """Wrap every public function of every loaded package module;
        returns the number of attributes patched."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__perfbench_original__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return len(self._patched)

    def restore(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        leftover = [f"{mod.__name__}.{attr}" for mod in self._modules()
                    for attr, obj in vars(mod).items()
                    if hasattr(obj, "__perfbench_original__")]
        wrong = [f"{mod.__name__}.{attr}" for mod, attr, original in self._patched
                 if getattr(mod, attr) is not original]
        if leftover or wrong:
            raise RuntimeError(f"tracer restore failed: {leftover + wrong}")
        self._patched = []

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [self.end[i] - self.start[i] for i in range(len(self))]
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def ancestors(self, idx: int):
        p = self.parent[idx]
        while p >= 0:
            yield p
            p = self.parent[p]

    def write_csv(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{self.name_of(i)},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")
