"""Per-client object graph: fixed-shape instances, shared constants.

Large runs build one copy of this graph per simulated client, so every
class in it is slotted (no per-instance ``__dict__``), readers share
one frozen guarantee set, and a cohort read records its weight as
references to one latency tuple.  Nothing outlives its use: at idle the
network keeps no per-pair state, sessions carry no derived wire form,
finished readers hold no stream of their own, and live events share
their simulator's one cancel hook.  Everything here counts objects; no
test reads the process RSS.
"""

import dataclasses

import pytest

from repro.coherence.session import SessionState
from repro.coherence.trace import (
    ApplyEvent,
    ReadEvent,
    WriteAckEvent,
    WriteIssueEvent,
)
from repro.comm.endpoint import CommunicationObject
from repro.core.control import ControlObject
from repro.core.dso import BoundClient
from repro.core.local_object import LocalObject
from repro.core.stub import Stub
from repro.replication.client import ClientReplicationObject
from repro.replication.policy import ReplicationPolicy
from repro.sim.process import Process
from repro.sim.rng import RELEASED, SeededRng
from repro.web.webobject import Browser
from repro.workload.cohort import CohortReaderWorkload
from repro.workload.generator import (
    ReaderWorkload,
    WorkloadStats,
    ZipfPagePicker,
)
from repro.workload.scenarios import build_tree

PAGES = {"a.html": "<p>a</p>", "b.html": "<p>b</p>"}
READS = 3

#: Every class instantiated per client, per reader or per served read.
PER_CLIENT_CLASSES = {
    Stub, Browser, BoundClient, LocalObject, ControlObject,
    CommunicationObject, ClientReplicationObject, SessionState,
    ReaderWorkload, CohortReaderWorkload, ZipfPagePicker, SeededRng,
    Process, WorkloadStats, ReadEvent, ApplyEvent, WriteIssueEvent,
    WriteAckEvent,
}


def client_graph(browser):
    """The objects one bound browser keeps alive."""
    bound = browser.bound
    local = bound.local
    return [browser, bound, bound.stub, local, local.control, local.comm,
            bound.replication, bound.session]


def workload_graph(workload, process):
    """The objects one reader workload and its process keep alive."""
    return [workload, workload.picker, workload.rng, workload.picker.rng,
            workload.stats, process]


def readers(deployment):
    return {name: browser for name, browser in deployment.browsers.items()
            if name != "master"}


def drive(deployment, workloads):
    processes = [Process(deployment.sim, workload.run(), name=f"wl-{index}")
                 for index, workload in enumerate(workloads)]
    deployment.sim.run_until_idle()
    return processes


@pytest.fixture(scope="module")
def per_client_run():
    """2 caches x 3 individually bound readers, plus one master write."""
    deployment = build_tree(
        ReplicationPolicy.conference_example(), n_caches=2,
        n_readers_per_cache=3, pages=PAGES, seed=5,
    )
    rng = deployment.sim.rng.fork("test")
    workloads = [
        ReaderWorkload(browser, tuple(PAGES), rng.fork(name),
                       operations=READS)
        for name, browser in readers(deployment).items()
    ]
    deployment.browsers["master"].write_page("a.html", "<p>a2</p>")
    processes = drive(deployment, workloads)
    return deployment, workloads, processes


@pytest.fixture(scope="module")
def cohort_run():
    """One weight-3 cohort per cache, plus one master write.

    The cohort on cache-1 is split: cache-1 is down when the cohorts'
    first reads go out, so cohort-1-0's batched read times out and the
    cohort expands; its expand hook restarts the cache, so the members'
    reads are served.
    """
    deployment = build_tree(
        ReplicationPolicy.conference_example(), n_caches=2,
        n_readers_per_cache=3, pages=PAGES, seed=5, cohort_size=3,
        request_timeout=0.5,
    )
    network = deployment.network

    def split(client_id):
        network.restart_node("cache-1")
        return deployment.expand_cohort(client_id)

    rng = deployment.sim.rng.fork("test")
    workloads = [
        CohortReaderWorkload(
            browser, tuple(PAGES), rng.fork(name),
            weight=deployment.cohorts[name], operations=READS,
            expand=lambda client_id=name: split(client_id),
        )
        for name, browser in readers(deployment).items()
    ]
    network.crash_node("cache-1")
    deployment.browsers["master"].write_page("a.html", "<p>a2</p>")
    processes = drive(deployment, workloads)
    return deployment, workloads, processes


def test_cohort_run_splits_exactly_one_cohort(cohort_run):
    deployment, workloads, _ = cohort_run
    assert [w.browser.client_id for w in workloads if w.expanded] == [
        "cohort-1-0"]
    assert sorted(readers(deployment)) == [
        "cohort-0-0", "cohort-1-0", "cohort-1-0.0", "cohort-1-0.1",
        "cohort-1-0.2"]
    assert sum(w.stats.operations for w in workloads) == 2 * 3 * READS


@pytest.mark.parametrize("run", ["per_client_run", "cohort_run"])
def test_per_client_instances_have_no_dict(request, run):
    deployment, workloads, processes = request.getfixturevalue(run)
    objects = [obj for browser in deployment.browsers.values()
               for obj in client_graph(browser)]
    objects += [obj for workload, process in zip(workloads, processes)
                for obj in workload_graph(workload, process)]
    objects += deployment.site.trace.events
    unused = ReaderWorkload if run == "cohort_run" else CohortReaderWorkload
    assert PER_CLIENT_CLASSES - {unused} <= {type(obj) for obj in objects}
    assert [obj for obj in objects if hasattr(obj, "__dict__")] == []


def test_store_side_replication_keeps_its_dict(per_client_run):
    # Only the client side is slotted: the store engine subclasses the
    # same base and stays an ordinary, extensible instance.
    deployment, _, _ = per_client_run
    assert hasattr(deployment.server.engine, "__dict__")


@pytest.mark.parametrize("run", ["per_client_run", "cohort_run"])
def test_readers_share_one_guarantee_set(request, run):
    deployment, _, _ = request.getfixturevalue(run)
    sets = {id(browser.session.guarantees)
            for browser in readers(deployment).values()}
    assert len(sets) == 1
    assert deployment.browsers["master"].session.guarantees


def test_weighted_read_appends_references_to_one_tuple(cohort_run):
    deployment, _, _ = cohort_run
    latencies = deployment.browsers["cohort-0-0"].bound.replication \
        .op_latencies
    assert len(latencies) == 3 * READS
    for read in range(READS):
        entries = latencies[3 * read:3 * read + 3]
        assert entries[0][0] == "read"
        assert all(entry is entries[0] for entry in entries)
    assert len({id(entry) for entry in latencies}) == READS


def test_trace_events_stay_frozen(per_client_run):
    deployment, _, _ = per_client_run
    events = deployment.site.trace.events
    kinds = {type(event) for event in events}
    assert {ReadEvent, ApplyEvent, WriteIssueEvent, WriteAckEvent} <= kinds
    for event in events:
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = -1.0


@pytest.mark.parametrize("run", ["per_client_run", "cohort_run"])
def test_network_keeps_no_per_pair_state_at_idle(request, run):
    deployment, _, _ = request.getfixturevalue(run)
    network = deployment.network
    assert network.stats.datagrams_delivered > 0
    per_pair = {name: value for name, value in vars(network).items()
                if isinstance(value, dict) and value
                and all(isinstance(key, tuple) for key in value)}
    assert per_pair == {}


@pytest.mark.parametrize("run", ["per_client_run", "cohort_run"])
def test_sessions_carry_no_derived_wire_form(request, run):
    deployment, _, _ = request.getfixturevalue(run)
    for browser in deployment.browsers.values():
        session = browser.session
        # Every slot is a constructor field: nothing cached beside them.
        assert set(type(session).__slots__) == {
            field.name for field in dataclasses.fields(session)
            if field.init}
        assert session.to_wire() is not session.to_wire()


@pytest.mark.parametrize("run", ["per_client_run", "cohort_run"])
def test_finished_readers_hold_no_stream_of_their_own(request, run):
    _, workloads, processes = request.getfixturevalue(run)
    assert not any(process.alive for process in processes)
    for workload in workloads:
        assert workload.rng is RELEASED
        assert workload.picker.rng is RELEASED
    with pytest.raises(RuntimeError):
        workloads[0].rng.random()


@pytest.mark.parametrize("run", ["per_client_run", "cohort_run"])
def test_live_events_share_one_cancel_hook(request, run):
    deployment, _, _ = request.getfixturevalue(run)
    sim = deployment.sim
    live = [sim.schedule(1.0, print) for _ in range(3)]
    daemon = sim.schedule(1.0, print, daemon=True)
    assert len({id(event._cancel_hook) for event in live}) == 1
    assert daemon._cancel_hook is None
    for event in live + [daemon]:
        event.cancel()
    assert sim.live_pending == 0
