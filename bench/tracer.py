"""Run-time span tracing of the library's layers, from outside the library.

`Tracer.install()` replaces every public function of each layer module with a
wrapper that opens a span, in the module that defines it and in every module
that imported it by name, plus `IntMatrix.mul`.  It also swaps the searches'
`SearchBudget` for a subclass that charges each spent unit to the innermost
open span.  `uninstall()` puts the originals back.  Nothing in the library is
edited; the wrappers only exist while a traced pass runs.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

from lapdual import (cli, congruence, duality, graphs, intmatrix, laplacians,
                     serialization)

LAYERS = (graphs, intmatrix, laplacians, congruence, duality, serialization, cli)
UNDECIDED = ("unknown", "budget_exceeded")


class _Frame:
    __slots__ = ("name", "start", "child", "units")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.units = 0


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "units", "decided", "with_status")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.units = 0
        self.decided = 0
        self.with_status = 0

    @property
    def units_per_s(self):
        """Budget units per second of self time."""
        return self.units / self.self_s if self.self_s else 0.0

    @property
    def decided_ratio(self):
        """Calls whose result had a definite status, over calls with a status."""
        return self.decided / self.with_status if self.with_status else 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.stack = []
        self.top_level_s = 0.0
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans
    def _close(self, frame, result):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame.child
        stat.units += frame.units
        status = getattr(result, "status", None)
        if isinstance(status, str):
            stat.with_status += 1
            stat.decided += status not in UNDECIDED
        if self.stack:
            self.stack[-1].child += duration
        else:
            self.top_level_s += duration

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = _Frame(name, time.perf_counter())
            tracer.stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, result)

        return traced

    def charge(self, amount):
        # every search runs inside a public function's span
        self.stack[-1].units += amount

    # ------------------------------------------------------------ patching
    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        wrappers = {}
        for module in LAYERS:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__
                        or inspect.isgeneratorfunction(value)):
                    continue
                wrappers[value] = self.wrap(f"{short}.{attr}", value)
        # the defining module and every module that imported the name
        for module in LAYERS:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])
        mul = intmatrix.IntMatrix.__dict__["mul"]
        self._set(intmatrix.IntMatrix, "mul", self.wrap("intmatrix.IntMatrix.mul", mul))

        tracer = self
        base = graphs.SearchBudget

        class CountingBudget(base):
            def spend(self, amount=1):
                tracer.charge(amount)
                base.spend(self, amount)

        for module in (graphs, congruence, duality):
            self._set(module, "SearchBudget", CountingBudget)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
