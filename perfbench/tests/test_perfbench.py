"""Tests of the benchmark itself, at tiny sizes on a held-out seed.

Each workload runs through the real command (``perfbench/run.py``) with
``--scale tiny``, once untraced and once traced.  The tests check that
every metric ``BENCHMARK.json`` names is emitted with its unit, that the
seed-independent output checks pass, and that the ledger separates the
layers the way the benchmark predicts.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import ledger  # noqa: E402
import run  # noqa: E402

#: Never a pinned seed: the checks that hold here hold for any seed.
HELD_OUT_SEED = 1009


def _bench(*args, cwd=ROOT):
    """Run the benchmark command; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(workload, trace):
    code, lines = _bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                         "--seconds", "0.1", "--trace", str(trace),
                         "--scale", "tiny")
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def test_benchmark_json_matches_the_command():
    """BENCHMARK.json names exactly the metrics and units run.py emits."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of every workload's tiny traced run."""
    return {w: _result(w, trace=1) for w in run.WORKLOADS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    """An untraced run emits every end-to-end metric, non-zero."""
    metrics = _result(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_emitted_with_units(traced, workload):
    """A traced run emits every per-layer metric with its unit."""
    metrics = traced[workload]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    assert metrics["sim.events"]["value"] > 0
    assert metrics["trace.overhead"]["value"] > 0


def test_ledger_separates_the_layers(traced):
    """Fault, cohort, exec and report work shows only where it happens."""
    def value(workload, name):
        return traced[workload][name]["value"]

    assert value("fault-churn", "net.fault_window_send_frac") > 0
    assert value("fig2-readheavy", "net.fault_window_send_frac") == 0
    assert value("book-table1", "net.fault_window_send_frac") == 0
    assert value("fault-churn", "workload.cohort_splits") > 0
    assert value("fig2-readheavy", "workload.cohort_splits") == 0
    assert value("book-table1", "workload.cohort_splits") == 0
    book_only = [n for n in run.PER_LAYER
                 if n.startswith(("exec.", "report."))]
    for name in book_only:
        # A cold-cache sweep encodes every result and decodes none.
        if name != "exec.decode_s":
            assert value("book-table1", name) > 0, name
        assert value("fig2-readheavy", name) == 0, name
        assert value("fault-churn", name) == 0, name


def test_spans_share_their_event_id(traced):
    """Spans nest by call stack and inherit their parent's event id."""
    spans = ledger.read_spans(
        os.path.join(BENCH, "out", "spans-fault-churn.bin"))
    names = spans["names"]
    run_ids = {i for i, n in enumerate(names) if n == "sim.run"}
    assert len(spans["start"]) > 0
    for index, parent in enumerate(spans["parent"]):
        assert parent < index
        assert spans["start"][index] <= spans["end"][index]
        if parent >= 0 and spans["name"][parent] not in run_ids:
            assert spans["event"][index] == spans["event"][parent]


def test_self_times_add_up_to_covered_time():
    """Self times of nested spans sum to the outermost span's duration."""
    book = ledger.Ledger()

    def inner():
        return sum(range(2000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = book.timed("comm.inner", inner)
    wrapped_outer = book.timed("net.outer", outer)
    wrapped_outer()
    assert book.calls_of("comm.inner") == 2
    assert book.span_count == 3
    assert sum(book.self_s) == pytest.approx(book.covered_s())
    assert book.total_of("net.outer") == pytest.approx(book.covered_s())


def test_fails_without_the_program(tmp_path):
    """Without src/ the command exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _bench("--workload", "fig2-readheavy", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
