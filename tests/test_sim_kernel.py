"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.kernel import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "latest")
    sim.run_until_idle()
    assert fired == ["early", "late", "latest"]


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, label)
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "no")
    sim.schedule(1.0, fired.append, "yes")
    event.cancel()
    sim.run_until_idle()
    assert fired == ["yes"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()
    assert sim.live_pending == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingInPastError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SchedulingInPastError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_event_budget_enforced():
    sim = Simulator()

    def forever():
        sim.schedule(0.1, forever)

    sim.schedule(0.1, forever)
    with pytest.raises(SimulationLimitExceeded):
        sim.run(max_events=100)


def test_daemon_events_do_not_block_idle():
    sim = Simulator()
    fired = []

    def heartbeat():
        fired.append(sim.now)
        sim.schedule(1.0, heartbeat, daemon=True)

    sim.schedule(1.0, heartbeat, daemon=True)
    sim.schedule(2.5, fired.append, "work")
    sim.run_until_idle()
    # The run ends once the only remaining events are daemons.
    assert "work" in fired
    assert sim.now == 2.5


def test_daemon_events_fire_under_deadline_runs():
    sim = Simulator()
    ticks = []

    def heartbeat():
        ticks.append(sim.now)
        sim.schedule(1.0, heartbeat, daemon=True)

    sim.schedule(1.0, heartbeat, daemon=True)
    sim.run(until=4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]


def test_determinism_same_seed_same_draws():
    values_a = [Simulator(seed=9).rng.random() for _ in range(1)]
    values_b = [Simulator(seed=9).rng.random() for _ in range(1)]
    assert values_a == values_b


def test_step_returns_false_on_empty_queue():
    assert Simulator().step() is False


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert sim.events_fired == 3


def test_cancel_after_fire_is_a_no_op():
    # A fired event's cancel must not decrement the live count a second
    # time, or a drain run would stop before later events fire.
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    early.cancel()
    assert sim.live_pending == 1
    sim.run_until_idle()
    assert fired == ["early", "late"]


def test_cancel_after_step_is_a_no_op():
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    assert sim.step()
    early.cancel()
    assert sim.live_pending == 1
    sim.run_until_idle()
    assert fired == ["early", "late"]
