"""The replicated-Web-object simulator benchmark: one workload, one run.

    python3 perfbench/run.py --workload fig2-readheavy --seed 7 --seconds 35 --trace 0

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``fig2-readheavy``, ``book-table1`` and ``fault-churn``; ``--workload
all`` runs each of them untraced, then traced.

With ``--trace 0`` the run repeats the workload, one fresh interpreter
per repeat, until ``--seconds`` are spent (at least :data:`MIN_REPEATS`
repeats), and reports the end-to-end metrics as medians over repeats.
With ``--trace 1`` it runs untraced repeats for half the budget, then one
traced repeat, and reports the per-layer ledger (``ledger.py``).

Every repeat checks the program's outputs: the coherence checkers for
every model the policy and clients claim, read and datagram conservation,
and a digest of the deterministic outputs that must be identical across
repeats (traced ones included) and, at the workload's pinned seed, equal
to the digest in ``pinned.json``.  A run that fails a check prints
``"correct": false`` with no metrics and exits 1.

Stdout is a human-readable report ending in one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller JSON
report goes to ``perfbench/out/report-<workload>-trace<0|1>.json`` and
the traced run's spans to ``perfbench/out/spans-<workload>.bin``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
PINNED = os.path.join(HERE, "pinned.json")

WORKLOADS = ("fig2-readheavy", "book-table1", "fault-churn")

#: Fewest repeats a run makes, however long they take.
MIN_REPEATS = 3
#: Most repeats a run makes, however short they are.
MAX_REPEATS = 25
#: A run starts no repeat it expects to end after this many seconds, so
#: the whole run ends well inside three minutes.
HARD_LIMIT_S = 150.0

#: End-to-end metrics: name -> unit (reported with tracing off).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "reads_per_s": "reads/s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
}

#: Outputs that are exact for a seed, shown next to the end-to-end metrics
#: and repeated in the ledger: name -> (unit, how it is computed).
OUTPUTS: Dict[str, Tuple[str, str]] = {
    "fail_frac": ("fraction", "weighted reads never served "
                  "(unavailable_read_fraction); grid points that raised"),
    "read_p50_vms": ("vms", "nearest-rank p50 of served-read latency"),
    "read_p99_vms": ("vms", "nearest-rank p99 of served-read latency"),
    "stale_read_frac": ("fraction", "staleness_summary stale fraction"),
    "wire_bytes_per_read": ("bytes/read", "NetworkStats.bytes_sent over "
                            "weighted reads issued"),
}

#: Layers whose self-time share of the traced wall time is reported.
SHARE_LAYERS = (
    "sim", "net", "comm", "core", "replication", "web", "coherence",
    "metrics", "workload", "faults", "exec", "report", "unattributed",
)

#: Per-layer metrics: name -> unit (reported by the traced run).
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "net.datagrams": "count",
    "net.bytes": "bytes",
    "net.self_s": "s",
    "net.fault_window_send_frac": "fraction",
    "net.dropped_crashed": "count",
    "net.dropped_partition": "count",
    "comm.messages": "count",
    "comm.self_s": "s",
    "comm.size_walks": "count",
    "comm.size_walks_per_msg": "walks/msg",
    "core.invocations": "count",
    "core.self_s": "s",
    "core.binds": "count",
    "core.bind_s": "s",
    "replication.self_s": "s",
    "replication.rx_msgs": "count",
    "replication.demands_per_read": "demands/read",
    "replication.state_transfers": "count",
    "web.applies": "count",
    "web.self_s": "s",
    "coherence.trace_events": "count",
    "coherence.self_s": "s",
    "metrics.self_s": "s",
    "workload.ops": "count",
    "workload.self_s": "s",
    "workload.build_s": "s",
    "workload.cohort_splits": "count",
    "workload.clients_expanded": "count",
    "faults.events_applied": "count",
    "faults.self_s": "s",
    "exec.points": "count",
    "exec.cache_misses": "count",
    "exec.self_s": "s",
    "exec.encode_s": "s",
    "exec.decode_s": "s",
    "exec.payload_bytes": "bytes",
    "exec.cache_put_s": "s",
    "exec.point_wall_p50_ms": "ms",
    "exec.point_wall_p90_ms": "ms",
    "report.aggregate_s": "s",
    "report.render_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "bytes",
    "unattributed.self_s": "s",
    **{f"{layer}.self_share": "fraction" for layer in SHARE_LAYERS},
    "trace.overhead": "x",
    "trace.spans": "count",
    **{name: unit for name, (unit, _how) in OUTPUTS.items()},
}


def fingerprint() -> Dict[str, Any]:
    """The machine a run was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def spread(values: List[float]) -> Dict[str, Any]:
    """Median and quartiles of ``values`` with the sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Spawns the repeats of one benchmark run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        """Seconds since the run started."""
        return time.monotonic() - self.started

    def repeat(self, traced: bool = False,
               serial: bool = False) -> Dict[str, Any]:
        """Run one repeat in a fresh interpreter; its result dict.

        A repeat that crashes or overruns returns a result whose
        ``problems`` say so.
        """
        self.count += 1
        tag = f"{os.getpid()}-{self.count}"
        result_path = os.path.join(OUT, f"result-{tag}.json")
        spec = {
            "workload": self.args.workload,
            "scale": self.args.scale,
            "seed": self.args.seed,
            "traced": traced,
            "serial": serial,
            "workdir": os.path.join(OUT, f"work-{tag}"),
            "spans_path": (os.path.join(OUT, f"spans-{self.args.workload}.bin")
                           if traced else None),
            "result_path": result_path,
        }
        # Only the program's defaults choose executors and schedulers.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        timeout = max(1.0, HARD_LIMIT_S + 20.0 - self.elapsed())
        spec["spawned_at"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"problems": [f"repeat overran {timeout:.0f} s"],
                    "points": 0}
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        try:
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
            os.unlink(result_path)
        except (OSError, ValueError):
            tail = " | ".join(err.strip().splitlines()[-3:])
            return {"problems": [f"repeat exited {proc.returncode}: {tail}"],
                    "points": 0}
        result["wall_s"] = time.monotonic() - spec["spawned_at"]
        return result

    def repeats(self, budget: float, minimum: int, serial: bool = False
                ) -> List[Dict[str, Any]]:
        """Untraced repeats until ``budget`` seconds of the run are spent."""
        done: List[Dict[str, Any]] = []
        while True:
            done.append(self.repeat(serial=serial))
            if done[-1]["problems"] or len(done) >= MAX_REPEATS:
                return done
            typical = statistics.median(r["wall_s"] for r in done)
            ends_at = self.elapsed() + typical
            if ends_at > HARD_LIMIT_S or (
                    len(done) >= minimum and ends_at > budget):
                return done


def e2e_samples(repeats: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-repeat values of every end-to-end metric."""
    return {
        "setup_s": [r["setup_s"] for r in repeats],
        "reads_per_s": [r["reads"] / r["drive_s"] for r in repeats],
        "points_per_s": [r["points"] / r["drive_s"] for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
    }


def e2e_values(repeats: List[Dict[str, Any]],
               samples: Dict[str, List[float]]) -> Dict[str, float]:
    """The reported value of every end-to-end metric.

    Set-up and memory are medians over repeats.  Throughput is a
    repeat's work over the sum, across its simulations, of each
    simulation's median drive time over repeats: every repeat runs the
    same simulations, and a burst of machine noise then costs one
    simulation's sample, not a whole repeat's.  With one simulation per
    repeat this is the median throughput.
    """
    drive = sum(statistics.median(times)
                for times in zip(*(r["drives"] for r in repeats)))
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "reads_per_s": repeats[0]["reads"] / drive,
        "points_per_s": repeats[0]["points"] / drive,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }


def layer_metrics(traced: Dict[str, Any],
                  bases: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric from one traced repeat and untraced bases."""
    ledger = traced["ledger"]
    calls, total, counts = ledger["calls"], ledger["total_s"], ledger["counts"]
    self_s = ledger["layer_self_s"]
    wall = ledger["phase_s"]

    def called(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def inclusive(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    messages = counts.get("comm.messages", 0)
    reads = counts.get("reads.issued", 0)
    walls = bases[0]["outputs"]
    metrics = {
        "sim.events": counts.get("sim.events", 0),
        "sim.events_per_s": ratio(
            counts.get("sim.events", 0),
            statistics.median(b["drive_s"] for b in bases)),
        "sim.self_s": self_s["sim"],
        "net.datagrams": counts.get("net.datagrams", 0),
        "net.bytes": counts.get("net.bytes", 0),
        "net.self_s": self_s["net"],
        "net.fault_window_send_frac": ratio(
            counts.get("net.fault_window_sends", 0),
            counts.get("net.sends", 0)),
        "net.dropped_crashed": counts.get("net.dropped_crashed", 0),
        "net.dropped_partition": counts.get("net.dropped_partition", 0),
        "comm.messages": messages,
        "comm.self_s": self_s["comm"],
        "comm.size_walks": called("comm.estimate_size"),
        "comm.size_walks_per_msg": ratio(called("comm.estimate_size"),
                                         messages),
        "core.invocations": called("core.invoke"),
        "core.self_s": self_s["core"],
        "core.binds": called("core.bind"),
        "core.bind_s": inclusive("core.bind"),
        "replication.self_s": self_s["replication"],
        "replication.rx_msgs": called("replication.store_handle_message"),
        "replication.demands_per_read": ratio(called("replication.demand"),
                                              reads),
        "replication.state_transfers": called("replication.install_snapshot",
                                              "replication.install_partial"),
        "web.applies": called("web.apply"),
        "web.self_s": self_s["web"],
        "coherence.trace_events": sum(
            n for name, n in calls.items()
            if name.startswith("coherence.record_")),
        "coherence.self_s": self_s["coherence"],
        "metrics.self_s": self_s["metrics"],
        "workload.ops": called("workload.resume"),
        "workload.self_s": self_s["workload"],
        "workload.build_s": inclusive("workload.build_tree"),
        "workload.cohort_splits": called("workload.expand_cohort"),
        "workload.clients_expanded": counts.get("workload.clients_expanded",
                                                0),
        "faults.events_applied": counts.get("faults.events_applied", 0),
        "faults.self_s": self_s["faults"],
        "exec.points": counts.get("exec.points", 0),
        "exec.cache_misses": called("exec.cache_put"),
        "exec.self_s": self_s["exec"],
        "exec.encode_s": inclusive("exec.encode_result"),
        "exec.decode_s": inclusive("exec.decode_result"),
        "exec.payload_bytes": counts.get("exec.payload_bytes", 0),
        "exec.cache_put_s": inclusive("exec.cache_put"),
        "exec.point_wall_p50_ms": walls.get("point_wall_p50_ms", 0.0),
        "exec.point_wall_p90_ms": walls.get("point_wall_p90_ms", 0.0),
        "report.aggregate_s": inclusive("report.aggregate"),
        "report.render_s": inclusive("report.book_artifacts"),
        "report.write_s": inclusive("report.write_book"),
        "report.bytes_written": counts.get("report.bytes_written", 0),
        "unattributed.self_s": wall - ledger["covered_s"] - ledger["hook_s"],
        "trace.overhead": ratio(
            wall, statistics.median(b["phase_s"] for b in bases)),
        "trace.spans": ledger["spans"],
    }
    shares = dict(self_s, unattributed=metrics["unattributed.self_s"])
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = ratio(shares[layer], wall)
    for name in OUTPUTS:
        metrics[name] = traced["outputs"].get(name, 0.0)
    return metrics


def check(repeats: List[Dict[str, Any]], args: argparse.Namespace
          ) -> List[str]:
    """Run-level output checks over every repeat of the run."""
    problems = [p for r in repeats for p in r["problems"]]
    if problems:
        return problems
    digests = {r["digest"] for r in repeats}
    if len(digests) != 1:
        problems.append(f"output digests differ across repeats: "
                        f"{sorted(digests)}")
    exact = [{k: v for k, v in r["outputs"].items() if k in OUTPUTS}
             for r in repeats]
    if any(e != exact[0] for e in exact):
        problems.append("exact outputs differ across repeats")
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)["workloads"][args.workload]
    if args.scale == "full" and args.seed == pinned["seed"]:
        if repeats[0]["digest"] != pinned["digest"]:
            problems.append(f"output digest {repeats[0]['digest']} != "
                            f"pinned {pinned['digest']} at seed {args.seed}")
        for name, value in pinned["counts"].items():
            if repeats[0]["counts"][name] != value:
                problems.append(f"{name} {repeats[0]['counts'][name]} != "
                                f"pinned {value} at seed {args.seed}")
    return problems


def emit(args: argparse.Namespace, report: Dict[str, Any],
         problems: List[str], repeats: List[Dict[str, Any]],
         metrics: Dict[str, Any], units: Dict[str, str]) -> int:
    """Print the report's last line, write the JSON report; exit code."""
    attempted = sum(r["points"] for r in repeats)
    failed = sum(r["points"] for r in repeats if r["problems"])
    correct = not problems
    report.update(correct=correct, problems=problems)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"report-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if correct else max(1, failed),
        "metrics": ({name: {"value": metrics[name], "unit": units[name]}
                     for name in units} if correct else {}),
    }))
    return 0 if correct else 1


def print_header(args: argparse.Namespace, machine: Dict[str, Any]) -> None:
    """Print what is being run, and where."""
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"cpu={machine['cpu']!r}")


def run_e2e(args: argparse.Namespace, runner: Runner,
            report: Dict[str, Any]) -> int:
    """The untraced run: end-to-end metrics; returns the exit code."""
    repeats = runner.repeats(budget=args.seconds, minimum=MIN_REPEATS)
    problems = check(repeats, args)
    good = [r for r in repeats if not r["problems"]]
    metrics: Dict[str, float] = {}
    report["repeats"] = len(repeats)
    if good:
        samples = e2e_samples(good)
        metrics = e2e_values(good, samples)
        print("end-to-end (value, then per-repeat [q1, median, q3] over "
              "n untraced repeats):")
        for name, values in samples.items():
            stats = spread(values)
            report.setdefault("end_to_end", {})[name] = dict(
                stats, value=metrics[name], unit=END_TO_END[name],
                values=values)
            print(f"  {name:<14} {metrics[name]:>14.6g} "
                  f"{END_TO_END[name]:<9} [{stats['q1']:.6g}, "
                  f"{stats['median']:.6g}, {stats['q3']:.6g}] "
                  f"n={stats['n']}")
        print_outputs(good[0], report)
        if "point_wall_samples" in good[0]["outputs"]:
            walls = good[0]["outputs"]
            print(f"  grid point wall (first repeat): nearest-rank p50/p90 "
                  f"of {walls['point_wall_samples']} points "
                  f"{walls['point_wall_p50_ms']:.3f} / "
                  f"{walls['point_wall_p90_ms']:.3f} ms")
    return emit(args, report, problems, repeats, metrics, END_TO_END)


def print_outputs(repeat: Dict[str, Any], report: Dict[str, Any]) -> None:
    """Print the exact-for-a-seed outputs with their sample counts."""
    outputs = repeat["outputs"]
    report["outputs"] = outputs
    print("exact outputs (identical in every repeat):")
    for name, (unit, how) in OUTPUTS.items():
        if name in outputs:
            print(f"  {name:<20} {outputs[name]:>14.6g} {unit:<10} {how}")
    if "read_samples" in outputs:
        print(f"  read latency samples: {outputs['read_samples']} "
              "(p99 has at least ten beyond it when this is >= 1000)")
    print(f"  digest {repeat['digest']}")


def run_traced(args: argparse.Namespace, runner: Runner,
               report: Dict[str, Any]) -> int:
    """The traced run: the per-layer ledger; returns the exit code."""
    # The book's traced repeat runs serially so every span lands in one
    # process; its untraced bases run serially too, so trace.overhead
    # compares like with like.
    serial = args.workload == "book-table1"
    bases = runner.repeats(budget=args.seconds / 2, minimum=1, serial=serial)
    repeats = list(bases)
    if not bases[-1]["problems"]:
        repeats.append(runner.repeat(traced=True, serial=serial))
    problems = check(repeats, args)
    metrics: Dict[str, float] = {}
    report["repeats"] = len(repeats)
    if not problems:
        metrics = layer_metrics(repeats[-1], bases)
        report["per_layer"] = metrics
        report["ledger"] = repeats[-1]["ledger"]
        wall = repeats[-1]["ledger"]["phase_s"]
        print(f"per-layer ledger (one traced repeat, {wall:.3f} s traced "
              f"wall; {len(bases)} untraced base repeat(s)):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
        print_outputs(repeats[-1], report)
    return emit(args, report, problems, repeats, metrics, PER_LAYER)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Benchmark one workload of the replicated-Web-object "
                    "simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="all: every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="workload size; tiny is for the tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            main(["--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(trace),
                  "--scale", args.scale])
            for workload in WORKLOADS for trace in (0, 1)
        ]
        return max(codes)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source at {os.path.join(ROOT, 'src')}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    machine = fingerprint()
    print_header(args, machine)
    runner = Runner(args)
    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "machine": machine,
    }
    if args.trace:
        return run_traced(args, runner, report)
    return run_e2e(args, runner, report)


if __name__ == "__main__":
    raise SystemExit(main())
