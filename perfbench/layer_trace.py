"""Per-layer wall-clock spans, recorded from outside the simulator.

The tracer never edits the program: :meth:`LayerTracer.install` swaps a
handful of public entry points for timing wrappers and
:meth:`LayerTracer.uninstall` puts the originals back.

* Root spans: every generator resume of a process started through
  ``Simulator.spawn``, every callback scheduled through ``call_at`` /
  ``call_in``, and every caller-owned entry pushed through
  ``schedule_entry``.  Each is attributed to the layer owning the module
  of the code it runs.
* Nested spans: ``OperatorLogic`` subclasses' ``on_record*`` /
  ``on_watermark``, ``StateBackend`` ``get`` / ``put``, the channel send
  and delivery methods and the ``MetricsCollector`` recorders.

A span's self time is its duration minus the time its child spans cover.
The kernel's self time is what the caller measured around ``StreamJob.run``
minus every root span, so the layers' self times sum to that wall time.
Wrapper overhead lands in the span that pays it.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order.  ``kernel`` owns whatever no span covers.
LAYERS = ("kernel", "channels", "operators", "windows", "state",
          "workloads", "scaling", "metrics", "shards")

#: Module (path below ``repro/``) -> layer.  Modules not listed open no
#: root span, so their time counts as kernel time.
MODULE_LAYERS = {
    "simulation/kernel.py": "kernel",
    "simulation/primitives.py": "kernel",
    "simulation/calqueue.py": "kernel",
    "simulation/randomness.py": "workloads",
    "simulation/sharded.py": "shards",
    "simulation/shm_ring.py": "shards",
    "engine/frames.py": "shards",
    "engine/channels.py": "channels",
    "engine/routing.py": "channels",
    "engine/records.py": "channels",
    "engine/keys.py": "channels",
    "engine/operators.py": "operators",
    "engine/runtime.py": "operators",
    "engine/graph.py": "operators",
    "engine/cluster.py": "operators",
    "engine/windows.py": "windows",
    "engine/columnar.py": "windows",
    "engine/state.py": "state",
    "engine/metrics.py": "metrics",
}
#: Package (first path part below ``repro/``) -> layer.
PACKAGE_LAYERS = {"workloads": "workloads", "core": "scaling",
                  "scaling": "scaling", "autoscale": "scaling"}

#: Raw spans kept for the trace file; the per-layer sums cover every span.
SPAN_CAP = 50_000

_LOGIC_METHODS = ("on_record", "on_record_at", "on_record_batch",
                  "on_watermark")


def layer_of_file(filename: str) -> Optional[str]:
    """Layer owning the source file ``filename``, or None."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rel = path[at + len(marker):]
    layer = MODULE_LAYERS.get(rel)
    if layer is None:
        layer = PACKAGE_LAYERS.get(rel.split("/", 1)[0])
    return layer


def _code_of(fn: Any):
    fn = getattr(fn, "__func__", fn)
    fn = getattr(fn, "func", fn)  # functools.partial
    return getattr(fn, "__code__", None)


class LayerTracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.root_s = 0.0
        self.counts: Dict[str, int] = {
            "resumes": 0, "callbacks": 0, "deliveries": 0,
            "records_delivered": 0, "window_calls": 0,
            "window_record_calls": 0, "window_records": 0,
            "state_calls": 0}
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[float] = []
        self._layer_by_code: Dict[Any, Optional[str]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._entries: Dict[int, Tuple[Any, Callable]] = {}
        self.installed = False

    # -- spans ---------------------------------------------------------------

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span attributed to ``layer``."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            span = t1 - t0
            children = stack.pop()
            self.self_s[layer] += span - children
            if stack:
                stack[-1] += span
            else:
                self.root_s += span
            if len(self.spans) < SPAN_CAP:
                self.spans.append((layer, t0, t1, len(stack)))

    def layer_of_code(self, code) -> Optional[str]:
        try:
            return self._layer_by_code[code]
        except KeyError:
            layer = layer_of_file(code.co_filename)
            self._layer_by_code[code] = layer
            return layer

    def layer_of(self, fn: Any) -> Optional[str]:
        code = _code_of(fn)
        return None if code is None else self.layer_of_code(code)

    def _callback(self, layer: str, fn: Callable) -> Callable:
        def traced():
            self.counts["callbacks"] += 1
            return self.call(layer, fn)
        return traced

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _nested(self, owner: Any, name: str, layer: str,
                count: Optional[Callable] = None) -> None:
        original = owner.__dict__[name]
        call = self.call

        if count is None:
            def wrapper(*args, **kwargs):
                return call(layer, original, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                count(args)
                return call(layer, original, *args, **kwargs)
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patch(owner, name, wrapper)

    def install(self) -> "LayerTracer":
        """Wrap the simulator's and layers' entry points.  One tracer at a
        time: uninstall it before installing another."""
        if self.installed:
            return self
        from repro.simulation.kernel import Simulator

        tracer = self
        counts = self.counts
        orig_spawn = Simulator.__dict__["spawn"]
        orig_call_at = Simulator.__dict__["call_at"]
        orig_schedule = Simulator.__dict__["schedule_entry"]

        def spawn(sim, generator, name=""):
            code = getattr(generator, "gi_code", None)
            layer = None if code is None else tracer.layer_of_code(code)
            if layer is not None:
                generator = _TracedGenerator(tracer, layer, generator)
            return orig_spawn(sim, generator, name)

        def call_at(sim, when, callback):
            layer = tracer.layer_of(callback)
            if layer is not None:
                callback = tracer._callback(layer, callback)
            return orig_call_at(sim, when, callback)

        def schedule_entry(sim, when, entry):
            key = id(entry)
            if key not in tracer._entries:
                fn = getattr(entry, "fn", None)
                layer = tracer.layer_of(fn) if fn is not None else None
                tracer._entries[key] = (entry, fn)
                if layer is not None:
                    entry.fn = tracer._callback(layer, fn)
            return orig_schedule(sim, when, entry)

        self._patch(Simulator, "spawn", spawn)
        self._patch(Simulator, "call_at", call_at)
        self._patch(Simulator, "schedule_entry", schedule_entry)

        def count_delivery(args):
            counts["deliveries"] += 1
            if args[1].is_record:
                counts["records_delivered"] += 1

        def count_batch(args):
            counts["deliveries"] += 1
            counts["records_delivered"] += len(args[1].records)

        def count_state(_args):
            counts["state_calls"] += 1

        def count_window_record(_args):
            counts["window_calls"] += 1
            counts["window_record_calls"] += 1
            counts["window_records"] += 1

        def count_window_batch(args):
            counts["window_calls"] += 1
            counts["window_record_calls"] += 1
            counts["window_records"] += args[3] - args[2]

        def count_window_watermark(_args):
            counts["window_calls"] += 1

        counters = {
            ("channels", "deliver"): count_delivery,
            ("channels", "deliver_batch"): count_batch,
            ("state", "get"): count_state,
            ("state", "put"): count_state,
            ("windows", "on_record"): count_window_record,
            ("windows", "on_record_at"): count_window_record,
            ("windows", "on_record_batch"): count_window_batch,
            ("windows", "on_watermark"): count_window_watermark,
        }
        for owner, name, layer in _nested_targets():
            self._nested(owner, name, layer, counters.get((layer, name)))
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point and scheduled entry."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for entry, fn in self._entries.values():
            if fn is not None:
                entry.fn = fn
        self._entries.clear()
        self.installed = False

    # -- results ---------------------------------------------------------------

    def layer_self_s(self, run_wall_s: float) -> Dict[str, float]:
        """Self time per layer; ``kernel`` = run wall minus root spans."""
        out = dict(self.self_s)
        out["kernel"] += run_wall_s - self.root_s
        return out

    def write_spans(self, path: str) -> None:
        """Write the kept spans as a Chrome trace (``chrome://tracing``)."""
        if not self.spans:
            return
        base = self.spans[0][1]
        events = [{"name": layer, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                   "args": {"depth": depth}}
                  for layer, t0, t1, depth in self.spans]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "otherData": {"kept": len(events),
                                     "cap": SPAN_CAP}}, f)


class _TracedGenerator:
    """Generator stand-in timing each resume (``send`` / ``throw``)."""

    def __init__(self, tracer: LayerTracer, layer: str, generator):
        self._tracer = tracer
        self._layer = layer
        self._gen = generator
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value):
        self._tracer.counts["resumes"] += 1
        return self._tracer.call(self._layer, self._gen.send, value)

    def throw(self, exc):
        self._tracer.counts["resumes"] += 1
        return self._tracer.call(self._layer, self._gen.throw, exc)

    def close(self):
        return self._gen.close()


def _nested_targets() -> List[Tuple[type, str, str]]:
    """``(class, method, layer)`` for every nested span."""
    from repro.engine.channels import Channel, InputChannel
    from repro.engine.metrics import MetricsCollector
    from repro.engine.operators import OperatorLogic
    from repro.engine.routing import OutputRouter
    from repro.engine.state import StateBackend
    import repro.engine.windows  # noqa: F401  (defines logic subclasses)
    import repro.workloads  # noqa: F401

    targets = [(Channel, "send", "channels"),
               (Channel, "try_send", "channels"),
               (OutputRouter, "emit_record_fast", "channels"),
               (InputChannel, "deliver", "channels"),
               (InputChannel, "deliver_batch", "channels")]
    targets += [(MetricsCollector, name, "metrics")
                for name in ("record_latency", "record_source_output",
                             "record_sink_input", "record_custom")]
    targets += [(cls, name, "state") for cls in _subclasses(StateBackend)
                for name in ("get", "put") if name in cls.__dict__]
    for cls in _subclasses(OperatorLogic):
        layer = layer_of_file(_module_file(cls)) or "operators"
        targets += [(cls, name, layer) for name in _LOGIC_METHODS
                    if callable(cls.__dict__.get(name))]
    return targets


def entry_points() -> Dict[Tuple[type, str], Any]:
    """The functions :meth:`LayerTracer.install` replaces, as they are now
    (compare before and after a traced run to prove it left nothing)."""
    from repro.simulation.kernel import Simulator

    points = {(Simulator, name): Simulator.__dict__[name]
              for name in ("spawn", "call_at", "schedule_entry")}
    points.update({(owner, name): owner.__dict__[name]
                   for owner, name, _layer in _nested_targets()})
    return points


def _subclasses(cls) -> List[type]:
    seen, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _module_file(cls) -> str:
    import sys
    module = sys.modules.get(cls.__module__)
    return getattr(module, "__file__", "") or ""
