"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common import EventQueue, SimulationError


def test_events_fire_in_time_order():
    q = EventQueue()
    order = []
    q.schedule(10, lambda: order.append("b"))
    q.schedule(5, lambda: order.append("a"))
    q.schedule(20, lambda: order.append("c"))
    q.run()
    assert order == ["a", "b", "c"]
    assert q.now == 20


def test_simultaneous_events_fire_in_schedule_order():
    q = EventQueue()
    order = []
    for tag in range(5):
        q.schedule(7, lambda t=tag: order.append(t))
    q.run()
    assert order == [0, 1, 2, 3, 4]


def test_nested_scheduling_advances_time():
    q = EventQueue()
    seen = []

    def first():
        seen.append(q.now)
        q.schedule(3, lambda: seen.append(q.now))

    q.schedule(2, first)
    q.run()
    assert seen == [2, 5]


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.schedule(-1, lambda: None)


def test_run_until_stops_before_later_events():
    q = EventQueue()
    fired = []
    q.schedule(5, lambda: fired.append(5))
    q.schedule(50, lambda: fired.append(50))
    q.run(until=10)
    assert fired == [5]
    assert q.now == 10
    assert q.pending == 1


def test_max_events_guard_detects_loops():
    q = EventQueue()

    def respawn():
        q.schedule(1, respawn)

    q.schedule(0, respawn)
    with pytest.raises(SimulationError):
        q.run(max_events=100)


def test_max_events_fires_exactly_n():
    q = EventQueue()
    fired = []
    for tag in range(5):
        q.schedule(tag, lambda t=tag: fired.append(t))
    with pytest.raises(SimulationError):
        q.run(max_events=3)
    assert fired == [0, 1, 2]
    assert q.events_fired == 3
    assert q.pending == 2


def test_max_events_draining_on_last_event_is_not_an_error():
    q = EventQueue()
    fired = []
    for tag in range(3):
        q.schedule(tag, lambda t=tag: fired.append(t))
    q.run(max_events=3)  # queue empties on the Nth event: fine
    assert fired == [0, 1, 2]


def test_schedule_at_absolute_time():
    q = EventQueue()
    fired = []
    q.schedule(4, lambda: q.schedule_at(9, lambda: fired.append(q.now)))
    q.run()
    assert fired == [9]


def test_step_returns_false_when_empty():
    q = EventQueue()
    assert q.step() is False
    q.schedule(1, lambda: None)
    assert q.step() is True
    assert q.events_fired == 1


def test_zero_delay_chain_interleaves_with_heap_events_at_same_cycle():
    """Heap events at the current cycle precede zero-delay chains.

    a and b are both scheduled (earlier) for cycle 5; a schedules c with
    delay 0 while firing.  (time, sequence) order demands a, b, c.
    """
    q = EventQueue()
    order = []

    def a():
        order.append("a")
        q.schedule(0, lambda: order.append("c"))

    q.schedule(5, a)
    q.schedule(5, lambda: order.append("b"))
    q.run()
    assert order == ["a", "b", "c"]
    assert q.now == 5


def test_zero_delay_events_fire_in_schedule_order():
    q = EventQueue()
    order = []

    def spawn():
        for tag in range(4):
            q.schedule(0, lambda t=tag: order.append(t))

    q.schedule(3, spawn)
    q.run()
    assert order == [0, 1, 2, 3]


def test_zero_delay_same_order_under_step_and_run():
    def build():
        q = EventQueue()
        order = []

        def a():
            order.append(("a", q.now))
            q.schedule(0, lambda: order.append(("c", q.now)))
            q.schedule(2, lambda: order.append(("d", q.now)))

        q.schedule(1, a)
        q.schedule(1, lambda: order.append(("b", q.now)))
        return q, order

    q_run, order_run = build()
    q_run.run()
    q_step, order_step = build()
    while q_step.step():
        pass
    assert order_run == order_step == [
        ("a", 1), ("b", 1), ("c", 1), ("d", 3)]


def test_fractional_delay_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError, match="whole number"):
        q.schedule(0.5, lambda: None)
    with pytest.raises(SimulationError, match="whole number"):
        q.schedule_at(q.now + 2.5, lambda: None)
    assert q.pending == 0


def test_integral_float_and_index_delays_accepted():
    class NumpyishInt:
        def __index__(self):
            return 3

    q = EventQueue()
    fired = []
    q.schedule(2.0, lambda: fired.append(q.now))
    q.schedule(NumpyishInt(), lambda: fired.append(q.now))
    q.run()
    assert fired == [2, 3]


def test_non_numeric_delay_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError, match="whole number"):
        q.schedule("5", lambda: None)


def test_cancel_pending_event():
    q = EventQueue()
    fired = []
    keep = q.schedule(5, lambda: fired.append("keep"))
    drop = q.schedule(5, lambda: fired.append("drop"))
    assert q.cancel(drop) is True
    assert q.pending == 1
    q.run()
    assert fired == ["keep"]
    assert q.events_fired == 1
    assert keep != drop


def test_cancel_zero_delay_event():
    q = EventQueue()
    fired = []
    q.schedule(0, lambda: fired.append("keep"))
    drop = q.schedule(0, lambda: fired.append("drop"))
    q.cancel(drop)
    q.run()
    assert fired == ["keep"]


def test_cancel_twice_returns_false():
    q = EventQueue()
    handle = q.schedule(1, lambda: None)
    assert q.cancel(handle) is True
    assert q.cancel(handle) is False


def test_cancel_unknown_handle_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError, match="unknown event handle"):
        q.cancel(99)
    with pytest.raises(SimulationError, match="unknown event handle"):
        q.cancel("nope")


def test_cancelled_head_does_not_stall_run_until():
    """run(until=...) must look past dead entries for the next live time."""
    q = EventQueue()
    fired = []
    dead = q.schedule(4, lambda: fired.append("dead"))
    q.schedule(8, lambda: fired.append("live"))
    q.cancel(dead)
    q.run(until=6)
    assert fired == []
    assert q.now == 6
    assert q.pending == 1
    q.run()
    assert fired == ["live"]


def test_cancelled_events_do_not_count_toward_max_events():
    q = EventQueue()
    fired = []
    handles = [q.schedule(1, lambda t=tag: fired.append(t))
               for tag in range(4)]
    q.cancel(handles[0])
    q.cancel(handles[2])
    q.run(max_events=2)  # exactly the two live events: not an error
    assert fired == [1, 3]
    assert q.events_fired == 2


def test_on_step_hook_fires_per_event():
    q = EventQueue()
    ticks = []
    q.on_step = lambda: ticks.append(q.events_fired)
    for tag in range(3):
        q.schedule(tag, lambda: None)
    q.run()
    assert ticks == [1, 2, 3]


def test_events_fired_flushed_when_callback_raises():
    q = EventQueue()

    def boom():
        raise RuntimeError("handler exploded")

    q.schedule(1, lambda: None)
    q.schedule(2, boom)
    with pytest.raises(RuntimeError):
        q.run()
    assert q.events_fired == 2


def test_cancel_later_event_of_the_cycle_being_drained():
    """A callback cancels an event due in its own cycle: it never fires.

    The fast loop detaches a cycle's bucket before draining it, so the
    cancel cannot find the entry in the wheel; it must still be skipped.
    """
    for instrumented in (False, True):
        q = EventQueue()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            assert q.cancel(handles["second"]) is True

        q.schedule(4, first)
        handles["second"] = q.schedule(4, lambda: fired.append("second"))
        q.schedule(4, lambda: fired.append("third"))
        if instrumented:
            q.on_step = lambda: None
        q.run()
        assert fired == ["first", "third"]
        assert q.events_fired == 2
        assert q.pending == 0


def test_raising_callback_keeps_the_rest_of_its_cycle():
    q = EventQueue()
    fired = []

    def boom():
        fired.append("boom")
        raise RuntimeError("handler exploded")

    q.schedule(3, boom)
    q.schedule(3, lambda: fired.append("after"))
    q.schedule(5, lambda: fired.append("later"))
    with pytest.raises(RuntimeError):
        q.run()
    assert q.events_fired == 1
    assert q.pending == 2
    q.run()
    assert fired == ["boom", "after", "later"]
    assert q.events_fired == 3
    assert q.pending == 0
