"""Datagram-level network simulation.

The :class:`Network` connects named nodes.  It delivers raw datagrams with a
latency model, an optional loss rate, and optional partitions.  Two delivery
classes are offered to the transport layer above:

- **unreliable** datagrams may be dropped by loss or partitions and arrive
  in whatever order their sampled delays dictate (UDP);
- **reliable** datagrams are never dropped -- loss is assumed to be masked
  by retransmission -- and are delivered FIFO per (src, dst) pair; during a
  partition they queue and flush on heal (TCP).

This split mirrors the paper's prototype, which used TCP "for the sake of
simplicity" while observing that the coherence protocol's own ordering would
permit UDP (Section 4.2; measured in experiment X5).

The partition / heal / crash machinery itself lives in
:class:`~repro.faults.transport.FaultableTransportMixin`, shared with the
wall-clock :class:`~repro.runtime.live.LiveNetwork` so one
:class:`~repro.faults.plan.FaultPlan` runs identically on both substrates.

**Event fast path.**  ``send`` and ``multicast`` run a fast lane whenever no
fault is active (no partition, no crashed node -- the mixin maintains the
``_faults_active`` flag) and no tracer is installed: the per-datagram fault
gate, its lock, and the trace-hook guards are skipped entirely.  Installing
a tracer or injecting any fault re-arms the full reference path, which is
byte-identical in stats and schedule to the fast lane (pinned by the
regression tests and the ``bench_net`` parity check).

**FIFO floors.**  A reliable datagram never arrives before an earlier one
on its ``(src, dst)`` pair: its arrival is clamped to the pair's floor,
the latest arrival scheduled on that pair.  A floor is kept only while
the pair has a reliable datagram in flight -- the arrival that reaches
it drops it -- so the network holds no per-pair state at idle, and the
clamp holds under any latency model, including one swapped mid-flight.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.faults.transport import FaultableTransportMixin
from repro.net.latency import ConstantLatency, LatencyModel
from repro.obs import tracer as _obs
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator

#: A receive handler: ``handler(src, payload, size_bytes)``.
ReceiveHandler = Callable[[str, object, int], None]


@dataclasses.dataclass(slots=True)
class NetworkStats:
    """Counters for everything the network carried or dropped.

    Both the simulated and the live transport fill the same counter set,
    so fault metrics aggregate identically across backends.

    Counter bumps are plain slotted-attribute writes -- nothing runs per
    increment.  :meth:`bind` registers a registry collector instead: the
    counters are mirrored into named
    :class:`~repro.obs.metrics.Counter` instruments when the registry
    takes a snapshot (or when :meth:`sync` is called explicitly), so the
    export surface costs the datagram path nothing.
    """

    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_dropped_loss: int = 0
    datagrams_dropped_partition: int = 0
    datagrams_dropped_crashed: int = 0
    datagrams_dropped_unregistered: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Wire frames the socket backend's hub wrote to / read from node
    #: channels (data + control); zero on the in-process transports.
    frames_sent: int = 0
    frames_received: int = 0
    #: Mirror bookkeeping (set by :meth:`bind`); not counters.
    _registry: Optional[MetricsRegistry] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _prefix: str = dataclasses.field(default="net", repr=False, compare=False)

    #: The counter field names, in declaration order (excludes the
    #: mirror bookkeeping fields).
    COUNTER_FIELDS = (
        "datagrams_sent",
        "datagrams_delivered",
        "datagrams_dropped_loss",
        "datagrams_dropped_partition",
        "datagrams_dropped_crashed",
        "datagrams_dropped_unregistered",
        "bytes_sent",
        "bytes_delivered",
        "frames_sent",
        "frames_received",
    )

    def bind(self, registry: MetricsRegistry,
             prefix: str = "net") -> "NetworkStats":
        """Mirror the counters into ``registry`` as ``prefix.field``.

        The mirror is kept current lazily: :meth:`sync` runs as a
        registry collector on every ``registry.snapshot()``.  Returns
        ``self`` so construction chains: ``NetworkStats().bind(metrics)``.
        """
        self._registry = registry
        self._prefix = prefix
        registry.add_collector(self.sync)
        self.sync()
        return self

    def sync(self) -> None:
        """Publish the current counter values into the bound registry."""
        registry = self._registry
        if registry is None:
            return
        prefix = self._prefix
        for name in self.COUNTER_FIELDS:
            registry.counter(f"{prefix}.{name}").set(getattr(self, name))

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain ``{field: value}`` dict."""
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def reset(self) -> None:
        """Zero all counters in place (and the mirror, if bound)."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, 0)
        self.sync()


class NodeNotRegistered(KeyError):
    """Raised when sending from a node that never registered a handler."""


class Network(FaultableTransportMixin):
    """Simulated datagram network between named nodes."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.sim = sim
        #: The latency model datagram delays are sampled from; may be
        #: swapped at any time.
        self.latency = latency or ConstantLatency()
        self.metrics = MetricsRegistry()
        self.stats = NetworkStats().bind(self.metrics)
        self._handlers: Dict[str, ReceiveHandler] = {}
        # FIFO floor per (src, dst) pair with a reliable datagram in
        # flight: the latest arrival scheduled on that pair.
        self._fifo_clock: Dict[Tuple[str, str], float] = {}
        self._init_faults(
            loss_rng=sim.rng.fork("network-loss"), loss_rate=loss_rate
        )

    # -- membership -----------------------------------------------------------

    def register(self, node: str, handler: ReceiveHandler) -> None:
        """Attach a node; datagrams addressed to it invoke ``handler``."""
        self._handlers[node] = handler

    def unregister(self, node: str) -> None:
        """Detach a node; subsequent datagrams to it are dropped."""
        self._handlers.pop(node, None)

    def is_registered(self, node: str) -> bool:
        """Whether a node currently has a receive handler."""
        return node in self._handlers

    def _obs_now(self) -> float:
        """Trace timestamps come from the shared virtual clock."""
        return self.sim.now

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int = 0,
        reliable: bool = True,
    ) -> None:
        """Send one datagram.  ``reliable`` selects the delivery class.

        The fast lane runs when no fault is active and no tracer is
        installed; otherwise the full reference path (fault gate + trace
        hooks) handles the datagram identically.
        """
        if self._faults_active or _obs.ACTIVE is not None:
            return self._send_reference(src, dst, payload, size_bytes,
                                        reliable)
        handlers = self._handlers
        if src not in handlers:
            raise NodeNotRegistered(src)
        stats = self.stats
        stats.datagrams_sent += 1
        stats.bytes_sent += size_bytes
        if dst not in handlers:
            stats.datagrams_dropped_unregistered += 1
            return
        if reliable:
            self._deliver_reliable(src, dst, payload, size_bytes)
        else:
            self._deliver_unreliable(src, dst, payload, size_bytes)

    def _send_reference(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int,
        reliable: bool,
    ) -> None:
        """The reference send path: fault gate plus trace hooks.

        Armed whenever a fault is active or a tracer is installed; its
        observable behaviour (stats, schedule, RNG draws) is identical to
        the fast lane when no fault consumes the datagram.
        """
        if src not in self._handlers:
            raise NodeNotRegistered(src)
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += size_bytes
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.event(
                self.sim.now, "net.send", node=src,
                dst=dst, size=size_bytes, reliable=reliable,
            )
        if dst not in self._handlers:
            self.stats.datagrams_dropped_unregistered += 1
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.event(
                    self.sim.now, "net.drop", node=dst,
                    src=src, reason="unregistered",
                )
            return
        if self._fault_blocked(src, dst, payload, size_bytes, reliable):
            return
        if reliable:
            self._deliver_reliable(src, dst, payload, size_bytes)
        else:
            self._deliver_unreliable(src, dst, payload, size_bytes)

    def multicast(
        self,
        src: str,
        dsts: Sequence[str],
        payload: object,
        size_bytes: int = 0,
        reliable: bool = True,
    ) -> None:
        """Send the same payload to every destination (skipping ``src``).

        Equivalent to a loop of :meth:`send` calls -- same stats, same
        FIFO clamps, same traced events -- but the batched fast lane
        checks the source registration and the fault/tracer gate once
        for the whole fan-out.  With a fault or tracer active, the
        per-destination reference path runs instead (destinations can be
        gated differently by a partition).
        """
        if self._faults_active or _obs.ACTIVE is not None:
            for dst in dsts:
                if dst != src:
                    self._send_reference(src, dst, payload, size_bytes,
                                         reliable)
            return
        targets = [dst for dst in dsts if dst != src]
        if not targets:
            return
        handlers = self._handlers
        if src not in handlers:
            raise NodeNotRegistered(src)
        deliver = (self._deliver_reliable if reliable
                   else self._deliver_unreliable)
        dropped = 0
        for dst in targets:
            if dst not in handlers:
                dropped += 1
                continue
            deliver(src, dst, payload, size_bytes)
        stats = self.stats
        stats.datagrams_sent += len(targets)
        stats.bytes_sent += len(targets) * size_bytes
        if dropped:
            stats.datagrams_dropped_unregistered += dropped

    # -- delivery ------------------------------------------------------------------

    def _deliver_reliable(
        self, src: str, dst: str, payload: object, size_bytes: int
    ) -> None:
        arrival = self.sim.now + self.latency.delay(src, dst, size_bytes)
        # FIFO clamp: a reliable stream never reorders within a (src, dst)
        # pair, exactly like a TCP connection.
        key = (src, dst)
        fifo = self._fifo_clock
        floor = fifo.get(key, 0.0)
        if arrival < floor:
            arrival = floor
        fifo[key] = arrival
        self.sim.schedule_at(arrival, self._arrive, src, dst, payload,
                             size_bytes, key)

    def _deliver_unreliable(
        self, src: str, dst: str, payload: object, size_bytes: int
    ) -> None:
        if self._lose_unreliable():
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.event(
                    self.sim.now, "net.drop", node=dst,
                    src=src, reason="loss",
                )
            return
        delay = self.latency.delay(src, dst, size_bytes)
        self.sim.schedule(delay, self._arrive, src, dst, payload, size_bytes)

    def _arrive(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int,
        fifo_key: Optional[Tuple[str, str]] = None,
    ) -> None:
        if fifo_key is not None:
            # A reliable arrival that reaches its pair's floor drops it.
            # Any later send lands at ``now`` or after, and same-instant
            # events fire in scheduling order, so FIFO still holds.
            fifo = self._fifo_clock
            if fifo.get(fifo_key) == self.sim.now:
                del fifo[fifo_key]
        if self._faults_active and self._crashed_at_arrival(dst):
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.datagrams_dropped_unregistered += 1
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.event(
                    self.sim.now, "net.drop", node=dst,
                    src=src, reason="unregistered",
                )
            return
        stats = self.stats
        stats.datagrams_delivered += 1
        stats.bytes_delivered += size_bytes
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.event(
                self.sim.now, "net.deliver", node=dst,
                src=src, size=size_bytes,
            )
        handler(src, payload, size_bytes)

    # -- introspection ---------------------------------------------------------------

    @property
    def nodes(self) -> Set[str]:
        """The currently registered node names."""
        return set(self._handlers)
