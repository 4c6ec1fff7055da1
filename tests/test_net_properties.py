"""Property test of the bare datagram network under random fault schedules.

Random interleavings of reliable and unreliable sends, partitions and
partial heals, crashes and restarts, loss bursts and latency-model swaps
run on one :class:`~repro.net.network.Network`.  At idle:

- delivered reliable datagrams arrive in send order on every pair;
- every datagram sent is accounted for: delivered, dropped by exactly one
  cause, or still queued behind a partition;
- no FIFO floor is left (floors live only while a pair has a reliable
  datagram in flight).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator

NODES = ("a", "b", "c")

node = st.sampled_from(NODES)
side = st.sets(node, min_size=1, max_size=2)

#: Arguments of each schedule step, by step kind.
STEP_ARGS = {
    "send": st.tuples(node, node, st.booleans()),
    "burst": st.tuples(node, node, st.integers(2, 6), st.floats(0.0, 0.1)),
    "advance": st.tuples(st.floats(0.0, 0.2)),
    "partition": st.tuples(side, side),
    "heal": st.tuples(st.integers(0, 3)),
    "heal_all": st.tuples(),
    "crash": st.tuples(node),
    "restart": st.tuples(node),
    "loss": st.tuples(st.sampled_from([0.0, 0.3, 0.9])),
    "constant": st.tuples(st.floats(0.0, 0.3)),
    "uniform": st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.3)),
}

#: Sends and clock advances are drawn more often than faults, so that
#: pairs often have several datagrams in flight when a fault or a
#: latency swap lands.
KINDS = ["send"] * 6 + ["burst"] * 2 + ["advance"] * 3 + [
    kind for kind in STEP_ARGS if kind not in ("send", "burst", "advance")]

steps = st.sampled_from(KINDS).flatmap(
    lambda kind: STEP_ARGS[kind].map(lambda args: (kind, *args)))


def apply(sim, net, step, sent):
    """Run one schedule step against the network."""
    kind = step[0]
    if kind == "send":
        _, src, dst, reliable = step
        sent.append((src, dst, reliable))
        net.send(src, dst, (reliable, len(sent)), size_bytes=10,
                 reliable=reliable)
    elif kind == "burst":
        # Reliable sends on one pair, spaced out in time, so that some
        # land while later ones are still in flight.
        _, src, dst, count, gap = step
        for _ in range(count):
            apply(sim, net, ("send", src, dst, True), sent)
            sim.run(until=sim.now + gap)
    elif kind == "partition":
        # Sides are disjoint: the second one loses the first's nodes,
        # and falls back to their complement when nothing is left.
        net.partition(step[1], step[2] - step[1] or set(NODES) - step[1])
    elif kind == "heal":
        cuts = net.active_partitions
        if cuts:
            net.heal(*cuts[step[1] % len(cuts)])
    elif kind == "heal_all":
        net.heal()
    elif kind == "crash":
        net.crash_node(step[1])
    elif kind == "restart":
        net.restart_node(step[1])
    elif kind == "loss":
        net.set_loss_rate(step[1])
    elif kind == "constant":
        net.latency = ConstantLatency(step[1])
    elif kind == "uniform":
        low, spread = step[1], step[2]
        net.latency = UniformLatency(low, low + spread,
                                     sim.rng.fork("latency"))
    else:
        sim.run(until=sim.now + step[1])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(steps, min_size=10, max_size=40), st.integers(0, 1000))
def test_network_invariants_hold_at_idle(schedule, seed):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.05))
    delivered = {}

    def receiver(dst):
        def handler(src, payload, size):
            delivered.setdefault((src, dst), []).append(payload)
        return handler

    for name in NODES:
        net.register(name, receiver(name))
    sent = []
    for step in schedule:
        apply(sim, net, step, sent)
    sim.run_until_idle()

    for pair, payloads in delivered.items():
        order = [number for reliable, number in payloads if reliable]
        assert order == sorted(order), pair

    stats = net.stats
    assert stats.datagrams_sent == len(sent)
    assert stats.datagrams_delivered == sum(map(len, delivered.values()))
    queued = net._partition_queue
    assert all(net.partitioned(src, dst) for src, dst, _, _ in queued)
    assert stats.datagrams_sent == (
        stats.datagrams_delivered
        + stats.datagrams_dropped_loss
        + stats.datagrams_dropped_partition
        + stats.datagrams_dropped_crashed
        + stats.datagrams_dropped_unregistered
        + len(queued)
    )
    assert net._fifo_clock == {}
