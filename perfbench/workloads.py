"""The benchmark's three workloads; one call of :func:`run_repeat` is one repeat.

Every repeat runs in a fresh interpreter (``child.py``), so set-up time
covers interpreter start and imports, and peak RSS is the repeat's own.
The program only ever receives generated inputs: the benchmark seed goes
to the tree/workload RNG of each simulation (``run_profile(seed=...)``)
and to the grid's ``base_seed``.

All three workloads are closed loops in virtual time: each simulated
client waits for its reply, then thinks for an exponential time before
its next operation.

- ``fig2-readheavy``: the Fig. 2 tree under the paper's Table 2 strategy
  with 20 caches x 500 readers, each reading 3 times (the
  ``heap+per-client`` configuration of ``benchmarks/bench_sim.py``).
- ``book-table1``: a cold-cache ``python -m repro.report --grid table1``
  with ``--parallel`` equal to the CPU count under the default executor.
- ``fault-churn``: the catalog's ``churn`` fault plan over the Fig. 2
  tree, 20 caches x 500 readers in cohorts of 50, with the fault grid's
  client timeout and retries.  One repeat is :data:`CHURN_RUNS`
  independent simulations: which cohorts split depends on where the
  random reads fall against the crash windows, so one simulation's work
  varies by 7-23% from seed to seed, and summing several keeps a run's
  figure about the program rather than about its seed.  Simulation ``k``
  draws the churn plan from the fixed seed ``k`` and its traffic from
  the benchmark seed, so every seed faces the same crash schedules.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.coherence import checkers
from repro.coherence.models import CoherenceModel, SessionGuarantee
from repro.coherence.trace import coherence_signature
from repro.metrics.faults import unavailable_read_fraction
from repro.metrics.staleness import staleness_summary
from repro.replication.policy import ReplicationPolicy
from repro.report import cli as report_cli
from repro.report.grid import (
    FAULT_REQUEST_RETRIES,
    FAULT_REQUEST_TIMEOUT,
    GRIDS,
    STRATEGIES,
    get_grid,
    grid_spec,
)
from repro.sim.rng import SeededRng
from repro.workload.profiles import WorkloadProfile, get_profile

import ledger as ledger_mod

# ``repro.workload`` and ``repro.faults`` re-export names over their
# submodules; the patch points are the modules themselves.
profiles = importlib.import_module("repro.workload.profiles")
faults_pkg = importlib.import_module("repro.faults")

#: The ``bench_sim.py`` traffic mix: 5 master writes every ~2 s under the
#: reader population, each reader reading 3 times with ~1 s think time.
FIG2_PROFILE = WorkloadProfile(
    name="bench-sim",
    writes=5,
    reads_per_client=3,
    write_interval=2.0,
    read_think=1.0,
)

#: Independent simulations per ``fault-churn`` repeat (see module doc).
CHURN_RUNS = 16

#: Checker per object-based coherence model a policy can claim.
MODEL_CHECKERS: Dict[CoherenceModel, Callable] = {
    CoherenceModel.PRAM: checkers.check_pram,
    CoherenceModel.FIFO: checkers.check_fifo,
    CoherenceModel.CAUSAL: checkers.check_causal,
    CoherenceModel.SEQUENTIAL: checkers.check_sequential,
    CoherenceModel.EVENTUAL: checkers.check_eventual_delivery,
}

#: Checker per session guarantee a client can claim.
SESSION_CHECKERS: Dict[SessionGuarantee, Callable] = {
    SessionGuarantee.READ_YOUR_WRITES: checkers.check_read_your_writes,
    SessionGuarantee.MONOTONIC_READS: checkers.check_monotonic_reads,
    SessionGuarantee.MONOTONIC_WRITES: checkers.check_monotonic_writes,
    SessionGuarantee.WRITES_FOLLOW_READS: checkers.check_writes_follow_reads,
}


@dataclasses.dataclass(frozen=True)
class SimSpec:
    """One simulated workload at one size."""

    policy: Callable[[], ReplicationPolicy]
    profile: WorkloadProfile
    n_caches: int
    readers: int
    cohort: int = 1
    horizon: Optional[float] = None
    fault_plan: Optional[str] = None
    request_timeout: Optional[float] = None
    request_retries: int = 0
    #: Independent simulations per repeat.
    runs: int = 1


@dataclasses.dataclass(frozen=True)
class BookSpec:
    """One results-book regeneration."""

    grid: str


def _fig2(n_caches: int, readers: int) -> SimSpec:
    return SimSpec(
        policy=ReplicationPolicy.conference_example,
        profile=FIG2_PROFILE,
        n_caches=n_caches,
        readers=readers,
    )


def _churn(n_caches: int, readers: int, cohort: int, runs: int) -> SimSpec:
    strategy = STRATEGIES["push-invalidate"]
    return SimSpec(
        policy=strategy.build_policy,
        profile=get_profile("balanced"),
        n_caches=n_caches,
        readers=readers,
        cohort=cohort,
        horizon=strategy.horizon,
        fault_plan="churn",
        request_timeout=FAULT_REQUEST_TIMEOUT,
        request_retries=FAULT_REQUEST_RETRIES,
        runs=runs,
    )


#: Workload name -> scale -> spec.  ``tiny`` is for the benchmark's tests.
SPECS: Dict[str, Dict[str, Any]] = {
    "fig2-readheavy": {"full": _fig2(20, 500), "tiny": _fig2(2, 5)},
    "book-table1": {"full": BookSpec("table1"),
                    "tiny": BookSpec("table1-small")},
    "fault-churn": {"full": _churn(20, 500, 50, CHURN_RUNS),
                    "tiny": _churn(2, 20, 5, 2)},
}


def _reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark from its current RSS.

    The measured phases reset it first, so the benchmark's own output
    checks between them never count as the program's peak.  Without
    ``/proc/self/clear_refs`` the peak is the process lifetime's.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """RSS high-water mark of this process (since the last reset), MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_peak_rss_mb() -> float:
    """Highest RSS of any waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(counts: Mapping[float, int], q: float) -> float:
    """Nearest-rank ``q``-th percentile of a value -> count histogram.

    Returns 0 for an empty histogram.
    """
    total = sum(counts.values())
    if not total:
        return 0.0
    rank = max(1, math.ceil(total * q / 100))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank <= total")


# -- simulated workloads ----------------------------------------------------


def _model_violations(deployment: Any, policy: ReplicationPolicy,
                      clients: List[Any]) -> List[str]:
    """Violations of every model the policy and the clients claim."""
    trace = deployment.site.trace
    stores = [
        address for address, store in deployment.site.dso.stores.items()
        if policy.enforces_at(store.role)
    ]
    problems = [
        f"{policy.model.value}: {v}"
        for v in MODEL_CHECKERS[policy.model](trace, stores=stores)
    ]
    for guarantee, check in SESSION_CHECKERS.items():
        claimants = [c.client_id for c in clients
                     if guarantee in c.session.guarantees]
        if claimants:
            problems += [f"{guarantee.value}: {v}"
                         for v in check(trace, clients=claimants)]
    return problems


def _sim_outputs(deployment: Any, policy: ReplicationPolicy,
                 processes: List[Any]) -> Dict[str, Any]:
    """Deterministic outputs and output checks of one finished simulation.

    ``processes`` are the workload processes in creation order; the first
    is the master's writer (``run_profile`` creates it first), the rest
    are readers.
    """
    clients = [b.bound.replication for b in deployment.browsers.values()]
    # Served-read latencies as a histogram: the simulator's delays take
    # few distinct values, and per-read lists would inflate the RSS of
    # the simulations that follow.
    latencies = collections.Counter(
        lat for c in clients for kind, lat in c.op_latencies if kind == "read"
    )
    served = sum(latencies.values())
    issued = sum(c.reads_issued for c in clients)
    problems: List[str] = []
    failed = 0
    for process in processes[1:]:
        if not process.done.done:
            problems.append(f"workload process {process.name} never ended")
            continue
        try:
            stats = process.done.result()
        except Exception as exc:  # the process died: report, keep checking
            problems.append(f"workload process {process.name} raised {exc!r}")
            continue
        failed += stats.errors + stats.not_found
    if issued != served + failed:
        problems.append(f"reads issued {issued} != served {served} "
                        f"+ failed {failed}")
    stats = deployment.network.stats
    dropped = (stats.datagrams_dropped_loss
               + stats.datagrams_dropped_partition
               + stats.datagrams_dropped_crashed
               + stats.datagrams_dropped_unregistered)
    if deployment.sim.live_pending:
        problems.append(f"{deployment.sim.live_pending} events still live "
                        "at the end of the run")
    elif stats.datagrams_sent != stats.datagrams_delivered + dropped:
        problems.append(f"datagrams sent {stats.datagrams_sent} != "
                        f"delivered {stats.datagrams_delivered} + "
                        f"dropped {dropped}")
    problems += _model_violations(deployment, policy, clients)
    trace = deployment.site.trace
    summary = staleness_summary(trace)
    digest = _digest({
        "network": stats.as_dict(),
        "reads_issued": issued,
        "reads_served": served,
        "staleness": [summary.reads, summary.stale_reads,
                      dataclasses.asdict(summary.version_lag),
                      dataclasses.asdict(summary.time_lag)],
        "signature": coherence_signature(trace),
    })
    return {
        "digest": digest,
        "problems": problems,
        "latencies": latencies,
        "issued": issued,
        "served": served,
        "unavailable": unavailable_read_fraction(clients),
        "stale_reads": summary.stale_reads,
        "staleness_reads": summary.reads,
        "bytes_sent": stats.bytes_sent,
        "events": deployment.sim.events_fired,
        "totals": ledger_mod.deployment_totals(deployment),
    }


def run_sim(spec: SimSpec, seed: int, ledger: Optional[Any],
            spawned_at: float) -> Dict[str, Any]:
    """One repeat of a simulated workload: ``spec.runs`` simulations.

    With a ``ledger`` the simulations run traced.  The output checks
    between them call functions this module bound before the wrappers
    went in, so they add no spans.
    """
    patch = (ledger_mod.install(ledger) if ledger is not None
             else ledger_mod.Patcher())
    builds: List[float] = []
    build_tree = profiles.build_tree

    def timed_build(**kwargs: Any) -> Any:
        deployment = build_tree(**kwargs)
        builds.append(time.monotonic())
        return deployment

    processes: List[Any] = []
    make_process = profiles.Process

    def recorded_process(sim: Any, generator: Any, name: str = "process"):
        process = make_process(sim, generator, name=name)
        processes.append(process)
        return process

    patch.replace(profiles, "build_tree", timed_build)
    patch.replace(profiles, "Process", recorded_process)
    build_fault_plan = faults_pkg.build_fault_plan
    setup_s = phase_s = peak_rss_mb = 0.0
    drives: List[float] = []
    runs: List[Dict[str, Any]] = []
    try:
        for k in range(spec.runs):
            processes.clear()
            patch.replace(faults_pkg, "build_fault_plan",
                          lambda name, nodes, rng, k=k:
                          build_fault_plan(name, nodes, SeededRng(k)))
            policy = spec.policy()
            # Each simulation starts from the same heap: the previous
            # one's cyclic garbage is freed before the peak restarts.
            gc.collect()
            _reset_peak_rss()
            started = time.monotonic()
            deployment = profiles.run_profile(
                policy,
                spec.profile,
                n_caches=spec.n_caches,
                seed=seed * spec.runs + k,
                horizon=spec.horizon,
                fault_plan=spec.fault_plan,
                request_timeout=spec.request_timeout,
                request_retries=spec.request_retries,
                n_readers_per_cache=spec.readers,
                cohort_size=spec.cohort,
            )
            ended = time.monotonic()
            peak_rss_mb = max(peak_rss_mb, _peak_rss_mb())
            if k == 0:
                setup_s = builds[0] - spawned_at
            drives.append(ended - builds[-1])
            phase_s += ended - started
            runs.append(_sim_outputs(deployment, policy, processes))
            del deployment
    finally:
        patch.restore()
    latencies: collections.Counter = collections.Counter()
    for run in runs:
        latencies.update(run["latencies"])
    issued = sum(run["issued"] for run in runs)
    result = {
        "setup_s": setup_s,
        "drive_s": sum(drives),
        "drives": drives,
        "phase_s": phase_s,
        "points": spec.runs,
        "reads": issued,
        "peak_rss_mb": peak_rss_mb,
        "digest": _digest([run["digest"] for run in runs]),
        "problems": [p for run in runs for p in run["problems"]],
        "counts": {
            "events": sum(run["events"] for run in runs),
            "datagrams": sum(run["totals"]["net.datagrams"] for run in runs),
        },
        "outputs": {
            "read_samples": sum(latencies.values()),
            "read_p50_vms": 1000.0 * percentile(latencies, 50),
            "read_p99_vms": 1000.0 * percentile(latencies, 99),
            "stale_read_frac": (
                sum(run["stale_reads"] for run in runs)
                / max(1, sum(run["staleness_reads"] for run in runs))
            ),
            "wire_bytes_per_read": (
                sum(run["bytes_sent"] for run in runs) / max(1, issued)
            ),
            "fail_frac": (
                sum(run["unavailable"] * run["issued"] for run in runs)
                / max(1, issued)
            ),
        },
    }
    if ledger is not None:
        rx_counted = sum(run["totals"]["replication.rx_counted"]
                         for run in runs)
        rx_handled = ledger.calls_of("replication.store_handle_message")
        if rx_counted != rx_handled:
            result["problems"].append(
                f"engines counted {rx_counted} received messages, the "
                f"ledger saw {rx_handled}"
            )
    return result


# -- the results book ---------------------------------------------------------


def _book_reads(grid: Any) -> int:
    """Weighted client reads the grid's simulations issue, all points.

    Each point runs ``run_profile`` with one reader per cache, so it
    issues ``reads_per_client x n_caches`` reads.
    """
    per_rep = sum(
        get_profile(workload).reads_per_client * size
        for _protocol in grid.protocols
        for workload in grid.workloads
        for size in grid.sizes
    )
    return per_rep * grid.replications


def _tree_digest(root: str) -> str:
    """SHA-256 over every file under ``root``: relative path, then bytes."""
    digest = hashlib.sha256()
    for folder, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_book(spec: BookSpec, seed: int, ledger: Optional[Any],
             serial: bool, spawned_at: float,
             workdir: str) -> Dict[str, Any]:
    """One cold-cache regeneration of the results book.

    ``serial`` passes ``--parallel 1`` (the serial executor) instead of
    one worker per CPU; traced runs need it so every span lands in this
    process.
    """
    grid = dataclasses.replace(get_grid(spec.grid), base_seed=seed)
    points = len(grid_spec(grid).points)
    setup_s = time.monotonic() - spawned_at
    cache_dir = os.path.join(workdir, "cache")
    out_dir = os.path.join(workdir, "book")
    parallel = 1 if serial else (os.cpu_count() or 1)
    argv = ["--grid", grid.name, "--parallel", str(parallel),
            "--cache-dir", cache_dir, "--out", out_dir]
    registered = GRIDS[grid.name]
    GRIDS[grid.name] = grid
    patch = (ledger_mod.install(ledger) if ledger is not None
             else ledger_mod.Patcher())
    problems: List[str] = []
    try:
        _reset_peak_rss()
        started = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = report_cli.main(argv)
            except Exception as exc:  # a point raised: report, not crash
                code = None
                problems.append(f"book run raised {exc!r}")
        phase_s = time.monotonic() - started
        peak_rss_mb = max(_peak_rss_mb(), _children_peak_rss_mb())
    finally:
        patch.restore()
        GRIDS[grid.name] = registered
    if code not in (0, None):
        problems.append(f"python -m repro.report exited with {code}")
    records = []
    manifest = os.path.join(cache_dir, "manifest.jsonl")
    if os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
    point_records = [r for r in records if r.get("rec") == "point"]
    failed = sum(1 for r in point_records if r.get("status") != "ok")
    if len(point_records) != points:
        problems.append(f"manifest has {len(point_records)} point records, "
                        f"expected {points}")
    walls = [1000.0 * r["wall_s"] for r in point_records]
    result = {
        "setup_s": setup_s,
        "drive_s": phase_s,
        "drives": [phase_s],
        "phase_s": phase_s,
        "points": points,
        "reads": _book_reads(grid),
        "failed_points": failed,
        "peak_rss_mb": peak_rss_mb,
        "digest": _tree_digest(out_dir) if os.path.isdir(out_dir) else "",
        "problems": problems,
        "outputs": {
            "fail_frac": failed / points,
            "point_wall_samples": len(walls),
            "point_wall_p50_ms": percentile(collections.Counter(walls), 50),
            "point_wall_p90_ms": percentile(collections.Counter(walls), 90),
        },
    }
    if ledger is not None:
        if ledger.counts.get("reads.served") != result["reads"]:
            problems.append(
                f"grid simulations served {ledger.counts.get('reads.served')}"
                f" reads, expected {result['reads']}"
            )
    return result


# -- one repeat --------------------------------------------------------------------


def ledger_report(ledger: Any, phase_s: float) -> Dict[str, Any]:
    """Plain-data summary of a traced repeat's ledger."""
    return {
        "phase_s": phase_s,
        "covered_s": ledger.covered_s(),
        "hook_s": ledger.hook_s,
        "spans": ledger.span_count,
        "layer_self_s": ledger.layer_self_s(),
        "calls": dict(zip(ledger.names, ledger.calls)),
        "total_s": dict(zip(ledger.names, ledger.total_s)),
        "counts": dict(ledger.counts),
    }


def run_repeat(workload: str, scale: str, seed: int, traced: bool,
               serial: bool, spawned_at: float, workdir: str,
               spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Run one repeat of ``workload``; plain-data results.

    With ``traced`` the result carries the ledger summary and the spans
    are written to ``spans_path``.
    """
    spec = SPECS[workload][scale]
    ledger = ledger_mod.Ledger() if traced else None
    os.makedirs(workdir, exist_ok=True)
    try:
        if isinstance(spec, BookSpec):
            result = run_book(spec, seed, ledger, serial, spawned_at,
                              workdir)
        else:
            result = run_sim(spec, seed, ledger, spawned_at)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ledger is not None:
        result["ledger"] = ledger_report(ledger, result["phase_s"])
        if spans_path is not None:
            ledger.write(spans_path)
    return result
