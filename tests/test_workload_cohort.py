"""Cohort workloads: weighted accounting, expansion, and block draws."""

import pytest

from repro.coherence.trace import ReadEvent, coherence_signature
from repro.metrics.faults import unavailable_read_fraction
from repro.metrics.staleness import staleness_summary
from repro.replication.policy import ReplicationPolicy
from repro.sim.rng import RELEASED, SeededRng, zipf_cumulative
from repro.workload.cohort import CohortReaderWorkload, cohort_sizes
from repro.workload.generator import EPOCH, ReaderWorkload, ZipfPagePicker
from repro.workload import profiles
from repro.workload.profiles import WorkloadProfile, run_profile

PROFILE = WorkloadProfile(
    name="cohort-test",
    writes=4,
    reads_per_client=5,
    write_interval=1.0,
    read_think=0.5,
)


def cohort_run(cohort_size, **kwargs):
    return run_profile(
        ReplicationPolicy.conference_example(),
        PROFILE,
        n_caches=2,
        seed=11,
        n_readers_per_cache=6,
        cohort_size=cohort_size,
        **kwargs,
    )


class TestCohortSizes:
    def test_exact_division(self):
        assert cohort_sizes(12, 4) == [4, 4, 4]

    def test_remainder_goes_last(self):
        assert cohort_sizes(10, 4) == [4, 4, 2]

    def test_degenerate_cases(self):
        assert cohort_sizes(0, 4) == []
        assert cohort_sizes(3, 10) == [3]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cohort_sizes(-1, 4)
        with pytest.raises(ValueError):
            cohort_sizes(4, 0)


class TestWeightedAccounting:
    def test_weighted_reads_match_population(self):
        deployment = cohort_run(cohort_size=3)
        population = 12
        assert sum(deployment.cohorts.values()) == population
        summary = staleness_summary(deployment.site.trace)
        assert summary.reads == population * PROFILE.reads_per_client
        clients = [
            b.bound.replication for b in deployment.browsers.values()
        ]
        issued = sum(c.reads_issued for c in clients)
        # Master's reads are zero in this profile; every reader read
        # counts once per represented client.
        assert issued == population * PROFILE.reads_per_client
        assert unavailable_read_fraction(clients) == 0.0

    def test_read_events_carry_cohort_weight(self):
        deployment = cohort_run(cohort_size=3)
        reads = deployment.site.trace.of_type(ReadEvent)
        assert reads and all(event.weight == 3 for event in reads)

    def test_signature_extends_tuple_only_for_weighted_reads(self):
        deployment = cohort_run(cohort_size=3)
        signature = coherence_signature(deployment.site.trace)
        cohort_lanes = [
            lane for name, lane in signature.items()
            if name.startswith("client:cohort-")
        ]
        assert cohort_lanes
        weighted = [
            entry for lane in cohort_lanes for entry in lane
            if entry[0] == "read"
        ]
        assert weighted and all(entry[-1] == 3 for entry in weighted)

    def test_per_client_build_has_no_cohorts(self):
        deployment = cohort_run(cohort_size=1)
        assert deployment.cohorts == {}
        reads = deployment.site.trace.of_type(ReadEvent)
        assert reads and all(event.weight == 1 for event in reads)


class TestExpansion:
    def test_cohort_expands_on_fault_divergence(self):
        # Request timeouts under a crash plan make batched reads fail,
        # which is exactly the divergence that must split a cohort.
        deployment = cohort_run(
            cohort_size=6,
            fault_plan="crash-restart",
            request_timeout=0.5,
            horizon=60.0,
        )
        expanded = [
            name for name in deployment.browsers
            if "." in name and name.startswith("cohort-")
        ]
        if expanded:  # the crash actually hit a batched read
            # Members are bound to the cohort's own store and visible to
            # metric collection like any client.
            sample = expanded[0]
            parent = sample.rsplit(".", 1)[0]
            assert parent in deployment.cohorts
        clients = [
            b.bound.replication for b in deployment.browsers.values()
        ]
        assert unavailable_read_fraction(clients) >= 0.0

    def test_expand_cohort_binds_members(self):
        deployment = cohort_run(cohort_size=4)
        cohort_id = next(iter(deployment.cohorts))
        members = deployment.expand_cohort(cohort_id)
        assert len(members) == deployment.cohorts[cohort_id]
        for member in members:
            assert member.client_id in deployment.browsers

    def test_workload_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            CohortReaderWorkload(
                browser=None, pages=["p"], rng=SeededRng(0), weight=0
            )


class TestVectorizedDraws:
    def test_exponential_block_matches_single_draws(self):
        a, b = SeededRng(5), SeededRng(5)
        block = a.exponential_block(0.7, 50)
        singles = [b.exponential(0.7) for _ in range(50)]
        assert block == singles

    def test_pick_block_matches_single_picks(self):
        pages = [f"p{i}" for i in range(17)]
        a = ZipfPagePicker(pages, SeededRng(9), skew=0.8)
        b = ZipfPagePicker(pages, SeededRng(9), skew=0.8)
        assert a.pick_block(64) == [b.pick() for _ in range(64)]

    def test_bisect_pick_matches_linear_weighted_index(self):
        pages = [f"p{i}" for i in range(23)]
        picker = ZipfPagePicker(pages, SeededRng(3))
        legacy_rng = SeededRng(3)
        weights = SeededRng.zipf_weights(len(pages), 1.0)
        picks = picker.pick_block(200)
        legacy = [
            pages[legacy_rng.weighted_index(weights)] for _ in range(200)
        ]
        assert picks == legacy

    def test_zipf_weights_are_memoized(self):
        first = zipf_cumulative(101, 1.3)
        assert zipf_cumulative(101, 1.3) is first
        weights = SeededRng.zipf_weights(101, 1.3)
        weights[0] = 99.0  # a caller mutating its copy ...
        assert SeededRng.zipf_weights(101, 1.3)[0] != 99.0  # ... is isolated

    def test_cumulative_matches_weights_accumulation(self):
        weights = SeededRng.zipf_weights(12, 1.0)
        cumulative = zipf_cumulative(12, 1.0)
        running = 0.0
        for weight, total in zip(weights, cumulative):
            running += weight
            assert running == total  # identical left-to-right accumulation

    def test_reader_stream_unchanged_by_epoch_batching(self):
        # The reader draws think times and picks from independent
        # streams; whatever the epoch size, a given seed produces the
        # historical sequence (this is what keeps sweeps cache-valid).
        rng = SeededRng(21)
        reader = ReaderWorkload(
            browser=None, pages=["a", "b", "c"], rng=rng, operations=7
        )
        gen = reader.run()
        delay = gen.send(None)
        legacy = SeededRng(21)
        legacy_picker = ZipfPagePicker(["a", "b", "c"], legacy.fork("pages"))
        assert delay.seconds == legacy.exponential(1.0)


class TestStreamRelease:
    """Readers drop both RNG streams once their last epoch is drawn."""

    @pytest.mark.parametrize("cohort_size, n_workloads", [(1, 100), (10, 10)])
    def test_run_profile_leaves_no_reader_stream_materialized(
        self, monkeypatch, cohort_size, n_workloads
    ):
        made = []
        for name in ("ReaderWorkload", "CohortReaderWorkload"):
            def record(*args, _cls=getattr(profiles, name), **kwargs):
                workload = _cls(*args, **kwargs)
                made.append(workload)
                return workload

            monkeypatch.setattr(profiles, name, record)
        run_profile(
            ReplicationPolicy.conference_example(),
            PROFILE,
            n_caches=2,
            seed=11,
            n_readers_per_cache=50,
            cohort_size=cohort_size,
        )
        assert len(made) == n_workloads
        assert sum(w.stats.operations for w in made) == 100 * 5
        streams = [s for w in made for s in (w.rng, w.picker.rng)]
        assert sum(s._random is not None for s in streams) == 0
        assert all(s._released for s in streams)

    def test_reader_releases_after_its_last_epoch_only(self):
        # 300 operations span two epochs: the streams stay live through
        # the first epoch's reads and are released at the second draw.
        reader = ReaderWorkload(
            browser=None, pages=["a", "b"], rng=SeededRng(4),
            operations=EPOCH + 44,
        )
        # Each epoch is one list of think times and pages, consumed from
        # the end; after the last draw the reader holds the shared
        # released stream instead of its own.
        remaining, first = reader._draw_epoch(reader.operations)
        assert remaining == 44 and len(first) == 2 * EPOCH
        twin = ReaderWorkload(
            browser=None, pages=["a", "b"], rng=SeededRng(4),
            operations=EPOCH + 44,
        )
        expected = list(zip(twin.rng.exponential_block(1.0, EPOCH),
                            twin.picker.pick_block(EPOCH)))
        assert [(first[-1 - 2 * k], first[-2 - 2 * k])
                for k in range(EPOCH)] == expected
        assert not reader.rng._released and not reader.picker.rng._released
        own = (reader.rng, reader.picker.rng)
        remaining, last = reader._draw_epoch(remaining)
        assert remaining == 0 and len(last) == 2 * 44
        assert all(stream._released for stream in own)
        assert reader.rng is reader.picker.rng is RELEASED
        with pytest.raises(RuntimeError):
            reader.rng.random()
