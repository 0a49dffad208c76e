"""In-memory span tracer that instruments noisyqst from outside the package.

Every public function defined in a layer module is replaced by a wrapper
that records one span: (name, start, end, parent).  The replacement is made
in every package module that binds the function, because ``from .gates
import measurement_unitary`` gives ``noisyqst.noise`` a second binding that
a patch of ``noisyqst.gates`` alone would miss.  Spans stay in flat arrays
until the run ends; :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

PACKAGE = "noisyqst"
LAYERS = ("cli", "core", "gates", "noise", "quality", "optimize", "tomography")

# Spans of these functions are named after one argument as well, so that
# per-call timings can be split, e.g. effective_povm by noise channel.
SPLIT_BY = {
    "noise.effective_povm": lambda m, noise, *a, **k: noise.channel,
}


class Tracer:
    """Records spans of calls into the package's public functions.

    ``capture_every`` maps a span name to n: every n-th call of that
    function keeps its arguments and result in ``captures[name]``, so a
    later probe can replay exactly the inputs the traced run used.
    """

    def __init__(self, capture_every: dict[str, int] | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.capture_every = dict(capture_every or {})
        self.captures: dict[str, list] = {name: [] for name in self.capture_every}

    def _id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, name: str, fn):
        split = SPLIT_BY.get(name)
        fixed = self._id(name)
        ids, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        every = self.capture_every.get(name)
        kept = self.captures.get(name)
        calls = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(fixed if split is None else self._id(f"{name}.{split(*args, **kwargs)}"))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if every is not None:
                if calls[0] % every == 0:
                    kept.append((args, kwargs, result))
                calls[0] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def table(self) -> "SpanTable":
        return SpanTable.build(
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )


@dataclass(frozen=True)
class SpanTable:
    """Finished spans as arrays; ``self_time`` is duration minus child spans."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    duration: np.ndarray
    self_time: np.ndarray

    @classmethod
    def build(cls, names, name_id, start, end, parent) -> "SpanTable":
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        return cls(names, name_id, start, end, parent, duration, duration - child_time)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        return self.name_id == self.names.index(name)

    def children_of(self, child: str, parents: tuple[str, ...]) -> np.ndarray:
        """Mask of ``child`` spans whose parent span has one of ``parents``' names."""
        ids = [self.names.index(p) for p in parents if p in self.names]
        m = self.mask(child)
        parent_ids = self.name_id[np.where(self.parent >= 0, self.parent, 0)]
        return m & (self.parent >= 0) & np.isin(parent_ids, ids)

    def layer_self_time(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def save(self, path) -> None:
        """Write the spans as arrays, with times in seconds from the first span."""
        t0 = float(self.start.min()) if len(self.start) else 0.0
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 start=self.start - t0, end=self.end - t0, parent=self.parent)
