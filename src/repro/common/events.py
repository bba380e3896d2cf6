"""A minimal discrete-event simulation kernel.

Components schedule callbacks at future cycle timestamps.  Logically the
kernel is a priority queue keyed on ``(time, sequence)`` so simultaneous
events fire in schedule order, which makes runs fully deterministic.

Structurally it is a three-tier queue that keeps the observable order
identical while skipping almost all heap work:

* **Same-cycle FIFO.**  Zero-delay schedules — the dominant pattern in
  handler-to-handler chains — go to a plain deque drained at the end of
  the current cycle's dispatch.
* **Timing wheel.**  Delays below :data:`_WHEEL_SLOTS` (every TLB, link,
  and walk latency in practice) go to a ring of per-cycle FIFO buckets
  (plain lists): O(1) schedule, O(1) dispatch, no heap churn.  The main
  loop detaches a cycle's bucket and drains it in one pass, because no
  callback can add to it: a wheel delay lies in ``[1, _WHEEL_SLOTS)``, so
  it never lands in the current cycle's slot.
* **Far heap.**  Only delays of ``_WHEEL_SLOTS`` cycles or more fall back
  to the binary heap.

Exactness argument: a bucket only ever holds one target cycle at a time
(targets from cycle ``S`` lie in ``(S, S + W)``, so a second lap cannot
begin before the bucket drains), and within any cycle ``T`` the three
tiers partition events by *schedule* time — heap events were scheduled at
or before ``T - W``, wheel events inside ``(T - W, T)``, and same-cycle
events at ``T`` itself.  Sequence numbers are monotonic in schedule time,
so draining heap-at-``T``, then the bucket, then the FIFO reproduces
``(time, sequence)`` order bit for bit; and no tier can be refilled at
``T`` by a callback once its phase has begun (new delays land strictly
later, except zero-delays, which join the FIFO's tail in order).

Cancellation is lazy: :meth:`EventQueue.schedule` returns an integer
handle, :meth:`EventQueue.cancel` marks it dead in O(1), and dead entries
are dropped when they surface.
"""

from __future__ import annotations

import operator
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable

from repro.common.errors import SimulationError

#: Wheel horizon in cycles (power of two).  Delays >= this use the heap.
_WHEEL_SLOTS = 512
_WHEEL_MASK = _WHEEL_SLOTS - 1


class EventQueue:
    """Cycle-accurate event loop.

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.schedule(5, lambda: fired.append(q.now))
    >>> q.run()
    >>> fired
    [5]
    """

    __slots__ = ("now", "_heap", "_ready", "_wheel", "_wheel_count",
                 "_cancelled", "_removed", "_seq", "_events_fired", "on_step")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[[], Any]]] = []
        #: Zero-delay events for the *current* cycle, in schedule order.
        self._ready: deque[tuple[int, Callable[[], Any]]] = deque()
        self._wheel: list[list[tuple[int, Callable[[], Any]]]] = [
            [] for _ in range(_WHEEL_SLOTS)]
        self._wheel_count = 0
        self._cancelled: set[int] = set()
        self._removed: set[int] = set()
        self._seq = 0
        self._events_fired = 0
        #: Optional per-event hook, called after each fired event (used by
        #: the invariant checker for periodic sweeps).  Must be installed
        #: before :meth:`run` is entered; when set, the run loop takes the
        #: instrumented path.
        self.on_step: Callable[[], Any] | None = None

    def schedule(self, delay: int, callback: Callable[[], Any]) -> int:
        """Run ``callback`` ``delay`` whole cycles from now (``delay >= 0``).

        Returns an integer handle usable with :meth:`cancel`.  ``delay``
        must be a whole number of cycles: integral floats (``2.0``) and
        index-able integer types are accepted, but a fractional delay
        raises :class:`SimulationError` instead of silently truncating.
        """
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        seq = self._seq
        # Most frequent tier first: nearly every delay is a wheel delay.
        if 0 < delay < _WHEEL_SLOTS:
            self._wheel[(self.now + delay) & _WHEEL_MASK].append(
                (seq, callback))
            self._wheel_count += 1
        elif delay == 0:
            self._ready.append((seq, callback))
        elif delay > 0:
            heappush(self._heap, (self.now + delay, seq, callback))
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq + 1
        return seq

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> int:
        """Run ``callback`` at absolute cycle ``time`` (``time >= now``)."""
        return self.schedule(time - self.now, callback)

    def cancel(self, handle: int) -> bool:
        """Cancel a scheduled event by the handle :meth:`schedule` returned.

        Wheel and same-cycle entries are removed eagerly (cancellation is
        rare; dispatch stays check-free on those tiers); heap entries are
        marked dead and dropped lazily when they surface.  Returns
        ``False`` if ``handle`` was already cancelled.  Cancelling a
        handle that has already *fired* is a caller error the kernel
        cannot detect — it leaves a stale mark that skews :attr:`pending`
        until the run drains.
        """
        if not isinstance(handle, int) or not 0 <= handle < self._seq:
            raise SimulationError(f"unknown event handle: {handle!r}")
        if handle in self._cancelled or handle in self._removed:
            return False
        for index, entry in enumerate(self._ready):
            if entry[0] == handle:
                del self._ready[index]
                self._removed.add(handle)
                return True
        if self._wheel_count:
            for bucket in self._wheel:
                for index, entry in enumerate(bucket):
                    if entry[0] == handle:
                        del bucket[index]
                        self._wheel_count -= 1
                        self._removed.add(handle)
                        return True
        self._cancelled.add(handle)
        return True

    @property
    def pending(self) -> int:
        """Number of events not yet fired."""
        return (len(self._heap) + self._wheel_count + len(self._ready)
                - len(self._cancelled))

    @property
    def events_fired(self) -> int:
        """Total events executed since construction."""
        return self._events_fired

    def step(self) -> bool:
        """Fire the next event; return False when the queue is empty."""
        heap, cancelled = self._heap, self._cancelled
        while True:
            if heap and heap[0][0] == self.now:
                _time, seq, callback = heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    self._removed.add(seq)
                    continue
            else:
                bucket = self._wheel[self.now & _WHEEL_MASK]
                if bucket:
                    _seq, callback = bucket.pop(0)
                    self._wheel_count -= 1
                elif self._ready:
                    _seq, callback = self._ready.popleft()
                else:
                    next_time = self._next_live_time()
                    if next_time is None:
                        return False
                    self.now = next_time
                    continue
            break
        self._events_fired += 1
        callback()
        if self.on_step is not None:
            self.on_step()
        return True

    def _next_live_time(self) -> int | None:
        """Cycle of the next live event at a *future* cycle (or ``now`` if
        live events remain at the current one), discarding dead entries
        surfaced along the way."""
        cancelled = self._cancelled
        heap = self._heap
        while heap and cancelled and heap[0][1] in cancelled:
            dead = heappop(heap)[1]
            cancelled.discard(dead)
            self._removed.add(dead)
        if self._ready:
            return self.now
        heap_time = heap[0][0] if heap else None
        if self._wheel_count:
            wheel, now = self._wheel, self.now
            limit = (_WHEEL_SLOTS if heap_time is None
                     else min(_WHEEL_SLOTS, heap_time - now))
            for offset in range(limit):
                if wheel[(now + offset) & _WHEEL_MASK]:
                    return now + offset
        return heap_time

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at cycle ``until``.

        ``max_events`` guards against accidental infinite event loops in
        tests: exactly ``max_events`` events fire, and a further pending
        event raises :class:`SimulationError` (draining on the last
        allowed event is not an error).
        """
        if until is None and max_events is None and self.on_step is None:
            self._run_fast()
            return
        fired = 0
        while True:
            next_time = self._next_live_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self.now = until
                return
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely an event loop")
            self.step()
            fired += 1

    def _run_fast(self) -> None:
        """Uninstrumented drain: the simulator's main loop.

        Fires the identical event sequence as repeated :meth:`step` calls,
        with per-event overhead (method dispatch, property reads, hook
        checks) hoisted out and each cycle dispatched as one batch: heap
        arrivals, then the wheel bucket, then the same-cycle FIFO (see the
        module docstring for why this equals ``(time, sequence)`` order).
        A detached bucket still honours a cancel made while it drains: the
        handle is not found in the wheel, so it is marked lazily and
        skipped here.  ``events_fired`` is flushed even when a callback
        raises, so error contexts still report an accurate count, and the
        unfired rest of a detached bucket is put back.
        """
        heap, ready, cancelled = self._heap, self._ready, self._cancelled
        wheel = self._wheel
        pop, popleft = heappop, self._ready.popleft
        fired = 0
        now = self.now
        bucket = None
        try:
            while True:
                while heap and heap[0][0] == now:
                    _time, seq, callback = pop(heap)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        self._removed.add(seq)
                        continue
                    fired += 1
                    callback()
                bucket = wheel[now & _WHEEL_MASK]
                if bucket:
                    wheel[now & _WHEEL_MASK] = []
                    start = fired
                    for seq, callback in bucket:
                        if cancelled and seq in cancelled:
                            cancelled.discard(seq)
                            self._removed.add(seq)
                            start -= 1
                            continue
                        fired += 1
                        callback()
                    self._wheel_count -= len(bucket)
                bucket = None
                while ready:
                    _seq, callback = popleft()
                    fired += 1
                    callback()
                # This cycle is drained; advance to the next occupied one.
                next_time = heap[0][0] if heap else None
                if self._wheel_count:
                    if wheel[(now + 1) & _WHEEL_MASK]:
                        # Dense traffic advances cycle by cycle; skip the scan.
                        if next_time is None or next_time > now + 1:
                            next_time = now + 1
                    else:
                        limit = (_WHEEL_SLOTS if next_time is None
                                 else min(_WHEEL_SLOTS, next_time - now))
                        for offset in range(2, limit):
                            if wheel[(now + offset) & _WHEEL_MASK]:
                                next_time = now + offset
                                break
                if next_time is None:
                    break
                now = next_time
                self.now = now
        except BaseException:
            if bucket:
                # Entries before the raising one fired or were skipped.
                rest = bucket[fired - start:]
                wheel[now & _WHEEL_MASK] = rest
                self._wheel_count -= len(bucket) - len(rest)
            raise
        finally:
            self._events_fired += fired


def _coerce_delay(delay: Any) -> int:
    """Accept exact-integer delay spellings; reject anything fractional."""
    try:
        return operator.index(delay)
    except TypeError:
        pass
    if isinstance(delay, float) and delay.is_integer():
        return int(delay)
    raise SimulationError(
        f"delay must be a whole number of cycles, got {delay!r} "
        f"(fractional delays would silently warp simulated time)")
