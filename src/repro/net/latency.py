"""Latency models for the simulated network.

A latency model maps ``(source, destination, size_bytes)`` to a one-way
delay in seconds.  Models may be deterministic or draw jitter from the
simulation RNG passed at construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.rng import SeededRng


class LatencyModel:
    """Base class: fixed-zero latency; subclasses override :meth:`delay`."""

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """One-way delay in seconds for a datagram of ``size_bytes``."""
        raise NotImplementedError

    @staticmethod
    def transmission_time(size_bytes: int, bandwidth_bps: Optional[float]) -> float:
        """Serialization delay for a payload on a link of given bandwidth."""
        if not bandwidth_bps:
            return 0.0
        return (size_bytes * 8.0) / bandwidth_bps


class ConstantLatency(LatencyModel):
    """Every datagram takes the same base delay plus transmission time."""

    def __init__(
        self,
        base: float = 0.05,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        if base < 0:
            raise ValueError(f"base latency must be non-negative, got {base!r}")
        self.base = base
        self.bandwidth_bps = bandwidth_bps

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """Constant base delay plus transmission time."""
        return self.base + self.transmission_time(size_bytes, self.bandwidth_bps)


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [low, high] per datagram.

    With ``high > 2 * low`` this model reorders datagrams aggressively,
    which is exactly the regime that exposes protocols relying on network
    ordering instead of WiD ordering (design decision D1).
    """

    def __init__(
        self,
        low: float,
        high: float,
        rng: SeededRng,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        if low < 0 or high < low:
            raise ValueError(f"need 0 <= low <= high, got {low!r}, {high!r}")
        self.low = low
        self.high = high
        self.rng = rng
        self.bandwidth_bps = bandwidth_bps

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """Uniformly jittered delay plus transmission time."""
        base = self.rng.uniform(self.low, self.high)
        return base + self.transmission_time(size_bytes, self.bandwidth_bps)


class RegionalLatency(LatencyModel):
    """Region-pair latency matrix with per-datagram jitter.

    Nodes are mapped to regions (continents, ISPs); intra-region traffic is
    cheap, inter-region traffic pays the configured RTT/2.  This reproduces
    the paper's setting of clients, proxies and servers spread over the
    wide-area Internet.
    """

    def __init__(
        self,
        node_region: Dict[str, str],
        region_latency: Dict[Tuple[str, str], float],
        intra_region: float = 0.005,
        jitter_fraction: float = 0.1,
        rng: Optional[SeededRng] = None,
        bandwidth_bps: Optional[float] = None,
        default: float = 0.15,
    ) -> None:
        self.node_region = dict(node_region)
        self.region_latency = dict(region_latency)
        self.intra_region = intra_region
        self.jitter_fraction = jitter_fraction
        self.rng = rng
        self.bandwidth_bps = bandwidth_bps
        self.default = default

    def assign(self, node: str, region: str) -> None:
        """Place (or move) a node into a region."""
        self.node_region[node] = region

    def base_delay(self, src: str, dst: str) -> float:
        """Deterministic region-to-region delay, before jitter."""
        src_region = self.node_region.get(src)
        dst_region = self.node_region.get(dst)
        if src_region is None or dst_region is None:
            return self.default
        if src_region == dst_region:
            return self.intra_region
        pair = (src_region, dst_region)
        reverse = (dst_region, src_region)
        if pair in self.region_latency:
            return self.region_latency[pair]
        if reverse in self.region_latency:
            return self.region_latency[reverse]
        return self.default

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """Region-pair delay with jitter, plus transmission time."""
        base = self.base_delay(src, dst)
        if self.rng is not None and self.jitter_fraction > 0:
            jitter = base * self.jitter_fraction
            base += self.rng.uniform(0.0, jitter)
        return base + self.transmission_time(size_bytes, self.bandwidth_bps)


class GraphLatency(LatencyModel):
    """Shortest-path latency over an arbitrary weighted graph.

    Backed by :mod:`networkx`; useful for modelling concrete backbone
    topologies.  Pairwise delays are computed lazily and cached.
    """

    def __init__(
        self,
        graph,
        weight: str = "latency",
        bandwidth_bps: Optional[float] = None,
        default: float = 0.3,
    ) -> None:
        self.graph = graph
        self.weight = weight
        self.bandwidth_bps = bandwidth_bps
        self.default = default
        self._cache: Dict[Tuple[str, str], float] = {}

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """Shortest-path delay plus transmission time."""
        base = self._shortest(src, dst)
        return base + self.transmission_time(size_bytes, self.bandwidth_bps)

    def _shortest(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        key = (src, dst)
        if key not in self._cache:
            import networkx as nx

            try:
                length = nx.shortest_path_length(
                    self.graph, src, dst, weight=self.weight
                )
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                length = self.default
            self._cache[key] = float(length)
        return self._cache[key]
