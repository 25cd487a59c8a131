"""Traced-run instrumentation: spans and counts at the repro layer boundaries.

:func:`install` wraps the entry points of the ``src/repro`` modules that
make up each layer (every method of the classes a module defines, and its
module-level functions) in place.  A wrapped call opens a *span* — layer,
host start and end in ``perf_counter_ns``, parent span, and the id of the
client operation it serves, where one exists — unless the caller is
already in the same layer, in which case the call is only counted.

Protocol code runs inside generators that the kernel resumes one step at
a time, so a wrapped generator function returns a proxy generator that
opens one span per resumption.  Application-level ``read``/``write``
generators are *op roots*: each gets a fresh op id that every span opened
while it runs inherits.

A layer's self time is its spans' durations minus the time covered by
their child spans; :meth:`Recorder.exit` applies that rule as each span
closes, and :func:`self_times` applies it again to a written span file.
Only the first :data:`SPAN_CAP` spans are kept for the file; the totals
cover every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import random
import sys
from array import array
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

#: spans kept in memory for the span file; later spans still count
SPAN_CAP = 200_000

#: (layer, module, class names or None for every class it defines)
LAYER_MODULES = (
    ("sim.network", "repro.sim.network", ("Network",)),
    ("sim.node", "repro.sim.node", ("Node",)),
    ("quorum.qrpc", "repro.quorum.qrpc", None),
    ("core.leases", "repro.core.leases", None),
    ("core.dqvl", "repro.core.dqvl", None),
    ("protocols.majority", "repro.protocols.majority", None),
    ("protocols.majority", "repro.protocols.base", None),
    ("edge.frontend", "repro.edge.frontend", None),
    ("workload", "repro.workload.runner", None),
    ("workload", "repro.workload.population", None),
    ("workload", "repro.workload.generators", None),
    ("workload", "repro.harness.experiment", ("RedirectedClient",)),
    ("resilience", "repro.resilience.runtime", None),
    ("resilience", "repro.resilience.detector", None),
    ("resilience", "repro.resilience.breaker", None),
    ("chaos.invariants", "repro.chaos.invariants", None),
    ("consistency", "repro.consistency.regular", None),
    ("obs", "repro.obs.spans", None),
    ("obs", "repro.obs.probes", None),
    ("obs", "repro.obs.metrics", None),
    ("obs", "repro.obs.critpath", None),
    ("obs", "repro.obs.budget", None),
)

#: kernel calls made by the layers above it (the run loop is the root span)
KERNEL_METHODS = (
    "run", "schedule", "call_soon", "call_later", "schedule_many",
    "schedule_each", "sleep", "spawn",
)

#: generators that are one client operation each: (module, class)
OP_ROOTS = (
    ("repro.harness.experiment", "RedirectedClient"),
    ("repro.edge.frontend", "AppClient"),
)

LAYERS = ("sim.kernel",) + tuple(sorted({layer for layer, _, _ in LAYER_MODULES}))


class Recorder:
    """Open spans, per-layer totals and the kept spans of one traced run."""

    def __init__(self, layers: Sequence[str] = LAYERS, cap: int = SPAN_CAP) -> None:
        self.layers = tuple(layers)
        n = len(self.layers)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.counts: Dict[str, int] = {}
        self.cap = cap
        self.total_spans = 0
        #: open spans: [layer, start_ns, child_ns, span_id]
        self.stack: List[list] = []
        self.top = -1
        self.op = -1
        self.next_op = 0
        self.s_layer = array("h")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("q")
        self.s_op = array("q")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, layer: int) -> None:
        stack = self.stack
        span_id = self.total_spans
        self.total_spans += 1
        start = perf_counter_ns()
        if span_id < self.cap:
            self.s_layer.append(layer)
            self.s_start.append(start)
            self.s_end.append(0)
            self.s_parent.append(stack[-1][3] if stack else -1)
            self.s_op.append(self.op)
        else:
            span_id = -1
        stack.append([layer, start, 0, span_id])
        self.top = layer

    def exit(self) -> None:
        end = perf_counter_ns()
        stack = self.stack
        layer, start, child, span_id = stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if span_id >= 0:
            self.s_end[span_id] = end
        if stack:
            stack[-1][2] += duration
            self.top = stack[-1][0]
        else:
            self.top = -1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, layer_name: str, op_root: bool = False):
        layer = self.layers.index(layer_name)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            proxy = self._proxy

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[layer] += 1
                return proxy(fn(*args, **kwargs), layer, op_root)

            return gen_wrapper

        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if self.top == layer:
                return fn(*args, **kwargs)
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _proxy(self, gen, layer: int, op_root: bool):
        """Drive *gen*, opening one span per resumption."""
        op = -1
        if op_root:
            op = self.next_op
            self.next_op += 1
        value = None
        exc: Optional[BaseException] = None
        while True:
            prev_op = self.op
            if op >= 0:
                self.op = op
            opened = self.top != layer
            if opened:
                self.enter(layer)
            try:
                if exc is None:
                    yielded = gen.send(value)
                else:
                    thrown, exc = exc, None
                    yielded = gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                if opened:
                    self.exit()
                self.op = prev_op
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # noqa: BLE001 - forwarded into gen
                exc, value = e, None

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        return {name: ns / 1e9 for name, ns in zip(self.layers, self.self_ns)}

    def write_spans(self, path: str, meta: Dict) -> None:
        """Kept spans as JSON lines, after one header line."""
        kept = len(self.s_layer)
        with open(path, "w") as fh:
            header = dict(meta, layers=list(self.layers), spans_total=self.total_spans,
                          spans_kept=kept, clock="perf_counter_ns")
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i in range(kept):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.layers[self.s_layer[i]],
                    "start": self.s_start[i],
                    "end": self.s_end[i],
                    "parent": self.s_parent[i] if self.s_parent[i] >= 0 else None,
                    "op": self.s_op[i] if self.s_op[i] >= 0 else None,
                }, separators=(",", ":")) + "\n")


def self_times(path: str) -> Dict[str, float]:
    """Per-layer self seconds recomputed from a span file."""
    with open(path) as fh:
        fh.readline()
        spans = [json.loads(line) for line in fh]
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = {}
    for s, covered in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - covered) / 1e9
    return out


class CountingRandom(random.Random):
    """``random.Random`` with the same stream, counting its primitive draws
    into ``recorder.counts["rng.draws"]``."""

    recorder: Recorder

    def random(self):
        self.recorder.count("rng.draws")
        return super().random()

    def getrandbits(self, k):
        self.recorder.count("rng.draws")
        return super().getrandbits(k)


def _rebind(original, replacement) -> None:
    """Point every loaded repro module's name for *original* at *replacement*."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _install_counters(rec: Recorder) -> None:
    """Counts the per-layer metrics need, installed beneath the spans."""
    from repro.core.dqvl import DqvlIqsNode, DqvlOqsNode
    from repro.quorum.qrpc import QuorumCall
    from repro.sim.kernel import Simulator

    sleep = Simulator.sleep

    def counted_sleep(self, delay):
        rec.count("kernel.sleeps")
        return sleep(self, delay)

    run = QuorumCall.run

    def counted_run(self):
        rec.count("qrpc.calls")
        ok = False
        try:
            replies = yield from run(self)
            ok = True
            return replies
        finally:
            # A call whose predicate already held sends nothing (0 rounds).
            rec.count("qrpc.rounds", self.attempts)
            rec.count("qrpc.useful", int(ok and self.attempts > 0))

    renew = DqvlOqsNode._renew_volume_quorum

    def counted_renew(self, volume):
        rec.count("dqvl.renewals")
        return (yield from renew(self, volume))

    send_inval = DqvlIqsNode.send_inval

    def counted_send_inval(self, *args, **kwargs):
        rec.count("dqvl.invals")
        return send_inval(self, *args, **kwargs)

    for cls, name, fn in (
        (Simulator, "sleep", counted_sleep),
        (QuorumCall, "run", counted_run),
        (DqvlOqsNode, "_renew_volume_quorum", counted_renew),
        (DqvlIqsNode, "send_inval", counted_send_inval),
    ):
        setattr(cls, name, functools.wraps(getattr(cls, name))(fn))


def _is_wrappable(name: str, value) -> bool:
    return inspect.isfunction(value) and not (name.startswith("__") and name.endswith("__"))


def install(rec: Recorder, probe_simulator) -> None:
    """Wrap every layer's entry points; call once, before the traced run.

    *probe_simulator* is the benchmark's simulator class; from now on its
    instances draw from a :class:`CountingRandom`.
    """
    from repro.sim.kernel import Simulator

    def counting_rng(seed):
        rng = CountingRandom(seed)
        rng.recorder = rec
        return rng

    _install_counters(rec)
    probe_simulator.rng_factory = counting_rng
    roots = set(OP_ROOTS)
    for name in KERNEL_METHODS:
        setattr(Simulator, name, rec.wrap(getattr(Simulator, name), "sim.kernel"))
    for layer, module_name, class_names in LAYER_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module_name:
                if class_names is not None and attr not in class_names:
                    continue
                op_root = (module_name, attr) in roots
                for meth, fn in list(vars(value).items()):
                    if _is_wrappable(meth, fn):
                        is_op = op_root and meth in ("read", "write")
                        setattr(value, meth, rec.wrap(fn, layer, op_root=is_op))
            elif (class_names is None and _is_wrappable(attr, value)
                    and value.__module__ == module_name):
                _rebind(value, rec.wrap(value, layer))
