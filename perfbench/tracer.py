"""Span tracer that wraps the program's public functions from outside.

Every module-level public function of the eight layer modules is replaced,
at every module that binds it (``athermal.distill.typical_range`` as well
as ``athermal.typeclass.typical_range``), by one wrapper that records a
span.  Calls across modules therefore show up without editing the program.
The CLI's file writes are caught by an ``open`` bound into the
``athermal.cli`` namespace, which shadows the builtin there.

A span is (name, start, end, parent index).  The spans of a traced pass
stay in memory; the worker writes the last pass's spans out when the run
ends.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

from workloads import stored_records

LAYERS = ("core", "typeclass", "distill", "form", "multilevel", "coherent", "simulate", "cli")


def _layer_modules() -> dict[str, types.ModuleType]:
    return {layer: sys.modules[f"athermal.{layer}"] for layer in LAYERS}


def _binding_modules() -> list[types.ModuleType]:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "athermal" or name.startswith("athermal."))]


class Tracer:
    """Records spans while installed; counters come from result hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []        # [name id, start, end, parent]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._hooks = {
            "distill.plan_distillation": self._count_distill_plan,
            "distill.plan_distillation_general": self._count_general_plan,
            "distill.build_string_map": lambda r: self.counters.update(["distill.string_maps"]),
            "form.plan_formation": self._count_formation_plan,
            "simulate.execute_plan_classical":
                lambda r: self.counters.update({"simulate.strings": len(r.trajectories)}),
            "simulate.execute_plan_quantum":
                lambda r: self.counters.update({"simulate.strings": 2 ** r.total_qubits}),
            "coherent.coherent_formation_error":
                lambda r: self.counters.update({"coherent.sectors": len(r.sectors)}),
            "multilevel.max_work": self._count_max_work,
        }

    # -- counters -----------------------------------------------------------

    def _count_distill_plan(self, plan):
        self.counters.update({"distill.types": getattr(plan, "num_composite_types", 0),
                              "distill.records": stored_records(plan.per_type_maps)})

    def _count_general_plan(self, result):
        plan = result[0]
        if plan.coherent:   # the diagonal case delegates to plan_distillation
            self._count_distill_plan(plan)

    def _count_formation_plan(self, plan):
        self.counters.update({"form.records": stored_records(plan.per_type_maps),
                              "form.fixed_point_iterations": plan.fixed_point_iterations})

    def _count_max_work(self, ledger):
        self.counters.update({"multilevel.calls": 1, "multilevel.probes": len(ledger.probes),
                              "multilevel.exhaustive": int(ledger.exact_search)})

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.spans)
        self.spans.append([name_id, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one job or a file read."""
        if not self.enabled:
            yield
            return
        index = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._end(index)

    @contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = self._hooks.get(name)
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(index)
            if layer == "typeclass":
                tracer.counters["typeclass.calls"] += 1
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules at every binding."""
        wrappers = {}
        for layer, module in _layer_modules().items():
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in _binding_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        cli = sys.modules["athermal.cli"]
        self._patched.append((cli, "open", None))
        cli.open = self._traced_open

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            if value is None:
                delattr(module, attr)
            else:
                setattr(module, attr, value)
        self._patched.clear()

    def _traced_open(self, file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if self.enabled and any(c in mode for c in "wax"):
            return _TracedWrite(self, handle)
        return handle

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    # -- analysis -----------------------------------------------------------

    def analyse(self) -> dict:
        """Self time per layer, and inclusive time and calls per span name.

        Inclusive time of a name skips spans nested inside a span of the same
        name, so recursion is not counted twice.
        """
        n = len(self.spans)
        child = [0.0] * n
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self: Counter = Counter()
        name_self: Counter = Counter()
        name_incl: Counter = Counter()
        calls: Counter = Counter()
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            own = end - start - child[i]
            layer_self[name.split(".", 1)[0]] += own
            name_self[name] += own
            calls[name] += 1
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name_id:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                name_incl[name] += end - start
        return {"layer_self": layer_self, "self": name_self, "inclusive": name_incl,
                "calls": calls}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with builtins.open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "names": self.names,
                       "spans": self.spans}, fh)


class _TracedWrite:
    """File handle proxy: writes and the closing flush are ``cli.file_write``
    spans, and the closed file's size counts toward ``cli.output_bytes``."""

    def __init__(self, tracer: Tracer, handle):
        self._tracer, self._handle = tracer, handle

    def write(self, data):
        with self._tracer.span("cli.file_write"):
            return self._handle.write(data)

    def close(self):
        with self._tracer.span("cli.file_write"):
            self._handle.flush()
            self._tracer.counters["cli.output_bytes"] += os.fstat(self._handle.fileno()).st_size
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, attr):
        return getattr(self._handle, attr)
