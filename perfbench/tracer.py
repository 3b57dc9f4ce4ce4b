"""Outside-in span tracer for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
rebinds each layer's public entry points to a timing wrapper, in every
``repro`` module that holds a reference to them (``generate_taskset`` is
looked up through ``repro.campaign.executor``, ``solve_scalar`` through
``repro.analysis.dpcp_p.kernel``, ``repro.analysis.spin`` and so on), so a
call is traced no matter which binding its caller uses.

Every wrapped call records one span ``(index, layer, start, end, parent,
unit)``.  Spans stay in memory (packed into typed arrays) and are written
out once, at the end, as a compressed NumPy archive.  A layer's self time
is its spans' durations minus the part their child spans cover.  Spans of
one work unit (or one service wave) share its unit tag.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
import weakref
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer a span can belong to; a span stores the layer's position.
LAYERS = (
    "generation",
    "paths",
    "dpcp_p.ep",
    "dpcp_p.en",
    "dpcp_p.partition",
    "engine.tables",
    "engine.solver",
    "baselines",
    "campaign.executor",
    "campaign.store",
    "service.wave",
)

#: Modules imported before wrapping, so every binding of a wrapped function
#: exists when :meth:`Tracer.install` scans for it (the program imports
#: some of them lazily).
MODULES = (
    "repro",
    "repro.generation.taskset_gen",
    "repro.analysis.paths",
    "repro.analysis.rta",
    "repro.analysis.spin",
    "repro.analysis.lpp",
    "repro.analysis.fedfp",
    "repro.analysis.engine.solver",
    "repro.analysis.engine.tables",
    "repro.analysis.engine.arena",
    "repro.analysis.dpcp_p.kernel",
    "repro.analysis.dpcp_p.partition",
    "repro.analysis.dpcp_p.protocol",
    "repro.campaign.store",
    "repro.campaign.executor",
    "repro.service.jobs",
)

#: ``(layer, defining module, function)``: module-level entry points.
FUNCTIONS = (
    ("generation", "repro.generation.taskset_gen", "generate_taskset"),
    ("engine.tables", "repro.analysis.engine.tables", "compile_taskset"),
    ("engine.solver", "repro.analysis.engine.solver", "solve_scalar"),
    ("engine.solver", "repro.analysis.engine.solver", "solve_batched"),
    ("dpcp_p.partition", "repro.analysis.dpcp_p.partition", "partition_and_analyze"),
    ("campaign.executor", "repro.campaign.executor", "execute_unit"),
    ("service.wave", "repro.service.jobs", "evaluate_query_wave"),
)

#: ``(layer, module, class, method)``: entry points reached through instances.
METHODS = (
    ("paths", "repro.analysis.paths", "PathEnumerator", "enumerate"),
    ("dpcp_p.ep", "repro.analysis.dpcp_p.kernel", "DpcpPKernel", "task_wcrt_ep"),
    ("dpcp_p.en", "repro.analysis.dpcp_p.kernel", "DpcpPKernel", "task_wcrt_en"),
    ("baselines", "repro.analysis.spin", "SpinTest", "test"),
    ("baselines", "repro.analysis.lpp", "LppTest", "test"),
    ("baselines", "repro.analysis.fedfp", "FedFpTest", "test"),
    ("campaign.store", "repro.campaign.store", "CampaignStore", "append"),
)

#: ``(counter, defining module, function)``: calls counted, not timed.
COUNTED = (
    ("dpcp_p.partition.passes", "repro.analysis.dpcp_p.partition", "wfd_assign_resources"),
)

#: Bindings the program's callers look up.  :meth:`Tracer.install` fails
#: when one of them no longer holds the function it wraps, so a refactor
#: that moves a call site breaks the trace loudly instead of reporting 0 s.
REQUIRED_BINDINGS = (
    ("repro.campaign.executor", "generate_taskset"),
    ("repro.campaign.executor", "compile_taskset"),
    ("repro.campaign.executor", "execute_unit"),
    ("repro.service.jobs", "generate_taskset"),
    ("repro.analysis.dpcp_p.kernel", "compile_taskset"),
    ("repro.analysis.dpcp_p.kernel", "solve_scalar"),
    ("repro.analysis.dpcp_p.kernel", "solve_batched"),
    ("repro.analysis.spin", "solve_scalar"),
    ("repro.analysis.lpp", "solve_scalar"),
    ("repro.analysis.rta", "solve_scalar"),
    ("repro.analysis.engine.arena", "solve_batched"),
    ("repro.analysis.dpcp_p.protocol", "partition_and_analyze"),
)

#: Spans buffered as tuples before they are packed into the typed arrays.
_PACK_EVERY = 1 << 16


class _ThreadState:
    """One thread's span stack, span storage and accumulators."""

    __slots__ = ("stack", "buffer", "columns", "self_s", "calls", "counts", "unit")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.buffer: List[tuple] = []
        # index, layer, start, end, parent, unit
        self.columns = (
            array("q"), array("b"), array("d"), array("d"), array("q"), array("q")
        )
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts: Dict[str, int] = {}
        self.unit = -1

    def pack(self) -> None:
        """Move buffered spans into the typed arrays."""
        if self.buffer:
            for column, values in zip(self.columns, zip(*self.buffer)):
                column.extend(values)
            self.buffer.clear()

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    """Collects spans and per-layer self time from wrapped calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._indices = itertools.count()
        self.unit_ids: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []
        #: enumerator -> {task -> last result}: tells fresh enumerations
        #: from cache hits without reading the enumerator's private cache.
        self._enumerated = weakref.WeakKeyDictionary()

    def _new_state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._lock:
            self._states.append(state)
        return state

    def _tag_unit(self, state: _ThreadState, unit_id: str) -> None:
        with self._lock:
            state.unit = len(self.unit_ids)
            self.unit_ids.append(unit_id)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        observe: Optional[Callable] = None,
        unit_of: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``observe(state, args, result, error)`` sees every call's outcome;
        ``unit_of(args)`` names the work unit the call starts.
        """
        layer_id = LAYERS.index(layer)
        local = self._local
        new_state = self._new_state
        next_index = self._indices.__next__
        tag_unit = self._tag_unit
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            if unit_of is not None:
                tag_unit(state, unit_of(args))
            stack = state.stack
            frame = [next_index(), 0.0]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                error = raised
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_index = parent[0]
                else:
                    parent_index = -1
                state.self_s[layer_id] += duration - frame[1]
                state.calls[layer_id] += 1
                buffer = state.buffer
                buffer.append((frame[0], layer_id, start, end, parent_index, state.unit))
                if len(buffer) >= _PACK_EVERY:
                    state.pack()
                if observe is not None:
                    observe(state, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def counted(self, counter: str, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that only counts its calls."""
        local = self._local
        new_state = self._new_state

        def counted_call(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            state.count(counter)
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    # ------------------------------------------------------------------ #
    # Observers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _observe_generation(state, args, result, error) -> None:
        if error is not None and type(error).__name__ == "GenerationError":
            state.count("generation.failures")

    def _observe_paths(self, state, args, result, error) -> None:
        if result is None:
            return
        enumerator, task = args[0], args[1]
        with self._lock:
            seen = self._enumerated.get(enumerator)
            if seen is None:
                seen = self._enumerated[enumerator] = weakref.WeakKeyDictionary()
            if seen.get(task) is result:
                return
            seen[task] = result
        state.count("paths.enumerations")
        state.count("paths.signatures", len(result.profiles))
        if not result.exhaustive:
            state.count("paths.truncated")

    @staticmethod
    def _observe_partition(state, args, result, error) -> None:
        state.count("dpcp_p.partition.tests")

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _rebind(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module binding of ``original`` at ``replacement``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point (raises if a known binding is gone)."""
        for name in MODULES:
            importlib.import_module(name)
        required = {
            (module_name, attr): getattr(sys.modules[module_name], attr, None)
            for module_name, attr in REQUIRED_BINDINGS
        }
        observers = {
            "generate_taskset": self._observe_generation,
            "partition_and_analyze": self._observe_partition,
        }
        unit_tags = {
            "execute_unit": lambda args: args[0].unit_id,
            "evaluate_query_wave": lambda args: f"wave:{len(self.unit_ids)}",
        }
        for layer, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(
                original,
                self.wrap(layer, original, observers.get(attr), unit_tags.get(attr)),
            )
        for counter, module_name, attr in COUNTED:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(original, self.counted(counter, original))
        for layer, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            observe = self._observe_paths if layer == "paths" else None
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(layer, original, observe))
        lost = [
            f"{module_name}.{attr}"
            for (module_name, attr), original in required.items()
            if original is None
            or getattr(getattr(sys.modules[module_name], attr), "__wrapped__", None)
            is not original
        ]
        if lost:
            self.uninstall()
            raise RuntimeError(
                "trace wrapping lost a call site the benchmark relies on: "
                + ", ".join(lost)
            )

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def totals(self) -> dict:
        """Merged ``{"self_s", "calls", "counts", "spans"}`` over all threads."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        spans = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, seconds, n in zip(LAYERS, state.self_s, state.calls):
                if n:
                    self_s[layer] = self_s.get(layer, 0.0) + seconds
                    calls[layer] = calls.get(layer, 0) + n
            for name, n in state.counts.items():
                counts[name] = counts.get(name, 0) + n
            spans += len(state.buffer) + len(state.columns[0])
        return {"self_s": self_s, "calls": calls, "counts": counts, "spans": spans}

    def write_spans(self, path: str) -> None:
        """Write every span to ``path`` (a compressed ``.npz`` archive).

        Arrays ``index``, ``layer`` (position in ``layers``), ``start``,
        ``end`` (``perf_counter`` seconds), ``parent`` (-1 at a root) and
        ``unit`` (position in ``units``, -1 outside any unit).
        """
        import numpy as np

        with self._lock:
            states = list(self._states)
        columns = [[], [], [], [], [], []]
        for state in states:
            state.pack()
            for merged, column in zip(columns, state.columns):
                merged.append(np.frombuffer(column, dtype=column.typecode))
        names = ("index", "layer", "start", "end", "parent", "unit")
        arrays = {
            name: np.concatenate(parts) if parts else np.empty(0)
            for name, parts in zip(names, columns)
        }
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                layers=np.array(LAYERS),
                units=np.array(self.unit_ids),
                **arrays,
            )
