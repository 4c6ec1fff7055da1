"""Per-layer span ledger for the traced benchmark run.

The traced run measures each ``repro.<package>`` layer from outside: it
replaces public entry points with wrappers that open a span on entry and
close it on exit.  Nothing under ``src/`` changes, and the program's own
tracer slot (``repro.obs.tracer.ACTIVE``) is never set -- setting it
re-arms the network reference lane, so the traced run would then measure
a different program.

A span records its name, start, end, parent span and simulator event id.
Spans nest by call stack; every span opened while one simulator event
fires carries that event's id.  A span's self time is its duration minus
the time its direct child spans cover, so the self times of all spans add
up to the time the outermost spans cover.  Code a layer calls that has no
wrapper of its own (private helpers, future callbacks) is charged to the
innermost open span.

Spans stay in memory as flat arrays and are written out once, by
:meth:`Ledger.write`, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: The layers the ledger separates, in report order.
LAYERS = (
    "sim", "net", "comm", "core", "replication", "web", "coherence",
    "metrics", "workload", "faults", "exec", "report",
)

#: Span-file header line marker (first line of :meth:`Ledger.write` output).
SPAN_FORMAT = "perfbench-spans-v1"


class Ledger:
    """Spans and counts of one traced run.

    ``counts`` holds counts that are not simply calls of one wrapped
    function (bytes, fault-window sends); ``calls`` counts every call of
    every wrapped function, nested calls included.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        #: Inclusive time of each name's outermost calls.
        self.total_s: List[float] = []
        self._depth: List[int] = []
        self.counts: Dict[str, int] = {}
        #: Seconds the wrappers' counting hooks ran outside every span.
        self.hook_s = 0.0
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_event = array("q")
        self._stack: List[int] = []
        self._child: List[float] = []
        #: Simulators currently inside ``run`` (innermost last), each with
        #: the ordinal that keeps event ids unique across simulators.
        self._sims: List[Tuple[Any, int]] = []
        self._last_sim: Any = None
        self._ordinal = -1

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        """The interned id of span ``name`` (``<layer>.<entry point>``)."""
        nid = self._ids.get(name)
        if nid is None:
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                raise ValueError(f"span {name!r} names no known layer")
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> None:
        """Open a span of name ``nid`` as a child of the innermost span."""
        self.calls[nid] += 1
        self._depth[nid] += 1
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        if self._sims:
            sim, ordinal = self._sims[-1]
            self.span_event.append((ordinal << 32) | sim.events_fired)
        else:
            self.span_event.append(-1)
        self.span_end.append(0.0)
        stack.append(len(self.span_start))
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())

    def close(self, nid: int) -> None:
        """Close the innermost span (which must be of name ``nid``)."""
        end = time.perf_counter()
        index = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.self_s[nid] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.total_s[nid] += duration

    def enter_sim(self, sim: Any) -> None:
        """Mark ``sim`` as the simulator whose events are now firing."""
        if sim is not self._last_sim:
            self._last_sim = sim
            self._ordinal += 1
        self._sims.append((sim, self._ordinal))

    def exit_sim(self) -> None:
        """Undo the matching :meth:`enter_sim`."""
        self._sims.pop()

    def count(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the free-form count ``key``."""
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn: Callable, reentrant: bool = False,
              before: Callable = None, after: Callable = None) -> Callable:
        """Wrap ``fn`` in a span called ``name``.

        ``reentrant`` makes nested calls of the same name (recursion) count
        as calls without opening spans of their own.  ``before(args,
        kwargs)`` runs ahead of the call and ``after(result)`` on its
        result, both outside the span: they are the ledger's own counting.
        """
        nid = self.name_id(name)
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reentrant and ledger._depth[nid]:
                ledger.calls[nid] += 1
                return fn(*args, **kwargs)
            if before is not None:
                ledger.hook(before, args, kwargs)
            ledger.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.close(nid)
            if after is not None:
                ledger.hook(after, result)
            return result

        return wrapper

    def hook(self, fn: Callable, *args: Any) -> None:
        """Run a counting hook; outside every span, time it as the ledger's.

        Inside a span the hook's time is part of that span, like the rest
        of the tracing overhead.
        """
        if self._stack:
            fn(*args)
            return
        started = time.perf_counter()
        fn(*args)
        self.hook_s += time.perf_counter() - started

    # -- results ------------------------------------------------------------

    def calls_of(self, *names: str) -> int:
        """Total calls of the named spans (0 for names never wrapped)."""
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def total_of(self, *names: str) -> float:
        """Total inclusive seconds of the named spans' outermost calls."""
        return sum(self.total_s[self._ids[n]] for n in names if n in self._ids)

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in zip(self.names, self.self_s):
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def covered_s(self) -> float:
        """Seconds covered by outermost spans (their durations summed)."""
        start, end = self.span_start, self.span_end
        return sum(
            end[i] - start[i]
            for i, parent in enumerate(self.span_parent) if parent < 0
        )

    @property
    def span_count(self) -> int:
        """Number of spans recorded."""
        return len(self.span_start)

    def write(self, path: str) -> None:
        """Write every span to ``path``: a JSON header line, then arrays.

        The arrays follow the header in this order, each in native byte
        order: name ids (uint16), start and end (float64 perf-counter
        seconds), parent span index (int32, -1 for none) and event id
        (int64, -1 outside a simulator event; simulator ordinal in the
        high 32 bits).  :func:`read_spans` reads the file back.
        """
        header = {
            "format": SPAN_FORMAT,
            "byteorder": sys.byteorder,
            "spans": self.span_count,
            "names": self.names,
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_event):
                column.tofile(handle)
        os.replace(tmp, path)


def read_spans(path: str) -> Dict[str, Any]:
    """Read a span file written by :meth:`Ledger.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != SPAN_FORMAT:
            raise ValueError(f"{path} is not a perfbench span file")
        count = header["spans"]
        columns = {}
        for key, code in (("name", "H"), ("start", "d"), ("end", "d"),
                          ("parent", "i"), ("event", "q")):
            column = array(code)
            column.fromfile(handle, count)
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns[key] = column
    return {"names": header["names"], **columns}


class Patcher:
    """Replaces attributes and undoes every replacement on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, wrap: Callable) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by ``wrap(it)``."""
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def replace(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name`` to ``value``."""
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def function(self, module: Any, name: str, wrap: Callable) -> None:
        """Replace module function ``name`` everywhere it was imported.

        Every loaded ``repro`` module whose global refers to the original
        function object gets the wrapper, so ``from m import f`` callers
        and recursive calls through the module global go through it too.
        """
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class TracedGenerator:
    """A workload generator whose every resumption is a ``workload`` span.

    :class:`repro.sim.process.Process` drives generators only through
    ``send``, ``throw`` and ``close``.
    """

    __slots__ = ("_gen", "_ledger", "_nid")

    def __init__(self, gen: Any, ledger: Ledger, nid: int) -> None:
        self._gen = gen
        self._ledger = ledger
        self._nid = nid

    def send(self, value: Any) -> Any:
        """Resume the generator with ``value`` inside a span."""
        self._ledger.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._ledger.close(self._nid)

    def throw(self, *exc: Any) -> Any:
        """Raise into the generator inside a span."""
        self._ledger.open(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            self._ledger.close(self._nid)

    def close(self) -> None:
        """Close the underlying generator."""
        self._gen.close()


def _layer_of_handler(handler: Callable) -> str:
    """The ``repro`` layer that owns a registered receive handler."""
    module = getattr(handler, "__module__", "") or ""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "net"


def deployment_totals(deployment: Any) -> Dict[str, int]:
    """Counts one finished simulated deployment reports about itself."""
    stats = deployment.network.stats
    clients = [b.bound.replication for b in deployment.browsers.values()]
    engines = deployment.engines
    return {
        "deployments": 1,
        "net.datagrams": stats.datagrams_sent,
        "net.bytes": stats.bytes_sent,
        "net.dropped_crashed": stats.datagrams_dropped_crashed,
        "net.dropped_partition": stats.datagrams_dropped_partition,
        "reads.issued": sum(c.reads_issued for c in clients),
        "reads.served": sum(
            1 for c in clients for kind, _ in c.op_latencies if kind == "read"
        ),
        "replication.rx_counted": sum(
            count for engine in engines
            for label, count in engine.counters.items()
            if label.startswith("rx:")
        ),
        "faults.events_applied": (
            len(deployment.faults.applied) if deployment.faults else 0
        ),
    }


def install(ledger: Ledger) -> Patcher:
    """Wrap every traced entry point; returns the patcher that undoes it.

    Must run before the deployment is built: receive handlers are wrapped
    when they are registered, and instances bind methods from their class.
    """
    from repro.coherence.trace import TraceRecorder
    from repro.comm.endpoint import CommunicationObject
    from repro.core.control import ControlObject
    from repro.core.dso import DistributedSharedObject
    from repro.core.stub import Stub
    from repro.exec.cache import ResultCache
    from repro.faults.transport import FaultableTransportMixin
    from repro.net.network import Network
    from repro.replication.client import ClientReplicationObject
    from repro.replication.engine import StoreReplicationObject
    from repro.replication.read_path import ReadDemandPath
    from repro.sim.kernel import Simulator
    from repro.web.document import WebDocument
    from repro.workload.scenarios import Deployment

    # Modules by full name: some packages re-export a function under its
    # submodule's name (``repro.report.aggregate``), shadowing the module.
    module = importlib.import_module
    comm_message = module("repro.comm.message")
    exec_codec = module("repro.exec.codec")
    exec_runner = module("repro.exec.runner")
    metrics_faults = module("repro.metrics.faults")
    metrics_staleness = module("repro.metrics.staleness")
    metrics_traffic = module("repro.metrics.traffic")
    profiles = module("repro.workload.profiles")
    report_aggregate = module("repro.report.aggregate")
    report_book = module("repro.report.book")

    patch = Patcher()

    def timed(name: str, **kwargs: Any) -> Callable:
        return lambda fn: ledger.timed(name, fn, **kwargs)

    # sim: the kernel loop; events fired inside it get ids.
    def wrap_run(fn: Callable) -> Callable:
        nid = ledger.name_id("sim.run")

        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            fired = self.events_fired
            # The run span belongs to its caller's context; the spans
            # opened inside it carry the ids of the events firing.
            ledger.open(nid)
            ledger.enter_sim(self)
            try:
                return fn(self, *args, **kwargs)
            finally:
                ledger.exit_sim()
                ledger.close(nid)
                ledger.count("sim.events", self.events_fired - fired)

        return run

    patch.method(Simulator, "run", wrap_run)

    # net: sends (counting those made inside a fault window), arrivals,
    # and every receive handler, wrapped at registration in its owner's
    # layer.
    def fault_window(args: tuple, kwargs: dict) -> None:
        network = args[0]
        ledger.count("net.sends")
        if network.active_partitions or network.crashed_nodes:
            ledger.count("net.fault_window_sends")

    for name in ("send", "multicast"):
        patch.method(Network, name,
                     timed(f"net.{name}", before=fault_window))
    patch.method(Network, "_arrive", timed("net.arrive"))

    def wrap_register(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def register(self, node, handler):
            layer = _layer_of_handler(handler)
            label = getattr(handler, "__qualname__", "handler")
            return fn(self, node,
                      ledger.timed(f"{layer}.rx:{label}", handler))

        return register

    patch.method(Network, "register", wrap_register)

    # comm: endpoint primitives (counting the messages they put on the
    # wire) and payload sizing (recursive calls count).
    def sent_one(args: tuple, kwargs: dict) -> None:
        ledger.count("comm.messages")

    def sent_many(args: tuple, kwargs: dict) -> None:
        endpoint, dsts = args[0], args[1]
        ledger.count("comm.messages",
                     sum(1 for dst in dsts if dst != endpoint.address))

    patch.method(CommunicationObject, "send",
                 timed("comm.send", before=sent_one))
    patch.method(CommunicationObject, "multicast",
                 timed("comm.multicast", before=sent_many))
    for name in ("request", "reply"):
        patch.method(CommunicationObject, name, timed(f"comm.{name}"))
    patch.function(comm_message, "estimate_size",
                   timed("comm.estimate_size", reentrant=True))

    # core: invocation entry points and binding.
    patch.method(Stub, "invoke", timed("core.stub_invoke"))
    patch.method(ControlObject, "invoke", timed("core.invoke"))
    patch.method(DistributedSharedObject, "bind", timed("core.bind"))

    # replication: store and client dispatch, demands, state transfers.
    for cls, prefix in ((StoreReplicationObject, "store"),
                        (ClientReplicationObject, "client")):
        for name in ("handle_message", "handle_invocation"):
            patch.method(cls, name, timed(f"replication.{prefix}_{name}"))
    for name in ("demand", "install_snapshot", "install_partial"):
        patch.method(ReadDemandPath, name, timed(f"replication.{name}"))

    # web: document semantics.
    for name in ("apply", "snapshot", "restore", "partial_snapshot",
                 "restore_partial"):
        patch.method(WebDocument, name, timed(f"web.{name}"))

    # coherence: every trace record.
    for name in ("record_apply", "record_install", "record_drop",
                 "record_write_issue", "record_write_ack", "record_read"):
        patch.method(TraceRecorder, name, timed(f"coherence.{name}"))

    # metrics: the measurement passes run per point.
    patch.function(metrics_staleness, "staleness_summary",
                   timed("metrics.staleness_summary"))
    patch.function(metrics_traffic, "collect_traffic",
                   timed("metrics.collect_traffic"))
    patch.function(metrics_faults, "fault_run_metrics",
                   timed("metrics.fault_run_metrics"))

    # workload: whole profile runs (totalling what each finished
    # deployment reports), tree building, cohort splits and generator
    # resumptions.
    def finished(deployment: Any) -> None:
        for key, value in deployment_totals(deployment).items():
            ledger.count(key, value)

    patch.function(profiles, "run_profile",
                   timed("workload.run_profile", after=finished))
    patch.function(profiles, "build_tree", timed("workload.build_tree"))

    def expanded(members: List[Any]) -> None:
        ledger.count("workload.clients_expanded", len(members))

    patch.method(Deployment, "expand_cohort",
                 timed("workload.expand_cohort", after=expanded))
    resume = ledger.name_id("workload.resume")
    process_cls = profiles.Process

    def traced_process(sim, generator, name="process"):
        return process_cls(sim, TracedGenerator(generator, ledger, resume),
                           name=name)

    patch.replace(profiles, "Process", traced_process)

    # faults: the fault primitives the injector applies.
    for name in ("partition", "heal", "crash_node", "restart_node"):
        patch.method(FaultableTransportMixin, name, timed(f"faults.{name}"))

    # exec: the sweep runner, codec and cache writes.
    def swept(results: Dict[Any, Any]) -> None:
        ledger.count("exec.points", len(results))

    patch.function(exec_runner, "run_sweep",
                   timed("exec.run_sweep", after=swept))

    def encoded(blob: bytes) -> None:
        ledger.count("exec.payload_bytes", len(blob))

    patch.function(exec_codec, "encode_result",
                   timed("exec.encode_result", after=encoded))
    patch.function(exec_codec, "decode_result", timed("exec.decode_result"))
    patch.method(ResultCache, "put_encoded", timed("exec.cache_put"))

    # report: aggregation, rendering and writing of the book.
    patch.function(report_aggregate, "aggregate", timed("report.aggregate"))
    patch.function(report_book, "book_artifacts",
                   timed("report.book_artifacts"))

    def written(paths: List[Any]) -> None:
        ledger.count("report.bytes_written",
                     sum(os.path.getsize(p) for p in paths))

    patch.function(report_book, "write_book",
                   timed("report.write_book", after=written))
    return patch
