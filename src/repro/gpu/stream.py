"""Access streams: the compute-side request generators.

A stream stands in for a group of CUs executing CTAs in order.  It issues
translation-triggering memory accesses separated by a compute gap, with a
bounded number outstanding (warp-level memory parallelism).  The simulated
runtime of an app is the cycle when every stream has drained — translation
stalls therefore turn directly into lost cycles, exactly the coupling the
paper's speedups measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.events import EventQueue
from repro.common.stats import LatencyHistogram, StatSet
from repro.common.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.memory import MemoryFabric


@dataclass(slots=True)
class TraceAccess:
    """One translation-triggering access.

    Treat it as immutable: points built from one memoized trace share
    these objects.  (Not frozen: a trace builds one per access, and a
    frozen dataclass costs several times as much to construct.)
    """

    pasid: int
    vpn: int
    #: Warp instructions this access represents (for MPKI accounting).
    weight: float
    #: Compute cycles between this access's issue and the next one's.
    gap: int


class AccessStream:
    """Issues a fixed trace through a chiplet's translation + data path."""

    def __init__(self, queue: EventQueue, stream_id: int,
                 accesses: Sequence[TraceAccess], window: int,
                 translate: Callable[[int, int, int, Callable], None],
                 fabric: MemoryFabric, *, chiplet_id: int = 0,
                 tracer=NULL_TRACER) -> None:
        self.queue = queue
        self.stream_id = stream_id
        self.accesses = accesses
        self.window = window
        self.translate = translate
        self.chiplet_id = chiplet_id
        #: Optional ``(chiplet, stream, pasid, vpn, pfn)`` callback run
        #: with every delivered translation, before its data access
        #: (``McmGpuSimulator.pfn_observer`` sets it).
        self.observer: Callable[[int, int, int, int, int], None] | None = None
        self.tracer = tracer
        self.stats = StatSet(f"stream.{stream_id}")
        # Per-issue hot-path caches: the tracer is fixed at construction
        # and the counter bag is live-shared with ``stats`` (see StatSet).
        self._trace_on = tracer.enabled
        self._counters = self.stats.counters
        self._schedule = queue.schedule
        self._translate = translate
        self._access_data = fabric.access
        self._complete_cb = self._complete
        #: Full translation-latency distribution, the one record of it
        #: (always on; log2 buckets keep it cheap and make cross-worker
        #: merges deterministic, and it keeps the exact sum and count).
        self.latency_hist = LatencyHistogram()
        self._next_index = 0
        self._num_accesses = len(accesses)
        self._outstanding = 0
        self._completed = 0
        self._issue_ready = True
        self._cancelled = False
        self.finish_time: int | None = None
        self.instructions = sum(a.weight for a in accesses)

    def start(self) -> None:
        if not self.accesses:
            self.finish_time = self.queue.now
            return
        self.queue.schedule(0, self._try_issue)

    def cancel(self) -> None:
        """Stop issuing and drain immediately (PASID teardown).

        Idempotent.  In-flight translations are abandoned: their
        ``translated`` callbacks become no-ops, which is exactly the
        no-stale-translation property — a cancelled stream never observes
        a PFN delivered after its address space died.
        """
        if self._cancelled:
            return
        self._cancelled = True
        if self.finish_time is None:
            self.finish_time = self.queue.now

    def _try_issue(self) -> None:
        """Issue the next access if the window has room."""
        if self._cancelled:
            return
        if not self._issue_ready or self._next_index >= self._num_accesses:
            return
        if self._outstanding >= self.window:
            self._counters["window_stalls"] += 1
            return  # a completion will re-trigger issue
        access = self.accesses[self._next_index]
        self._next_index += 1
        self._outstanding += 1
        self._issue_ready = False
        self._counters["issued"] += 1
        span = (self.tracer.begin(self.chiplet_id, self.stream_id,
                                  access.pasid, access.vpn)
                if self._trace_on else None)
        self._translate(self.stream_id, access.pasid, access.vpn,
                        partial(self._translated, access, self.queue.now,
                                span))
        # The compute gap separates issues regardless of completion order.
        self._schedule(access.gap, self._issue_gap_over)

    def _translated(self, access: TraceAccess, issued_at: int, span,
                    entry) -> None:
        """The translation of ``access`` arrived: go for its data."""
        if self._cancelled:
            return  # no-stale-translation: drop post-teardown replies
        latency = self.queue.now - issued_at
        # Inlined latency_hist.add (latency is a nonnegative int here,
        # so the method-level guards are moot).
        hist = self.latency_hist
        hist.buckets[latency.bit_length()] += 1
        hist.sum += latency
        if latency > hist.max:
            hist.max = latency
        if span is not None:
            self.tracer.end(span)
        if self.observer is not None:
            self.observer(self.chiplet_id, self.stream_id, access.pasid,
                          access.vpn, entry.global_pfn)
        self._access_data(self.chiplet_id, access.pasid, access.vpn,
                          entry.global_pfn, self._complete_cb)

    def _issue_gap_over(self) -> None:
        self._issue_ready = True
        self._try_issue()

    def _complete(self) -> None:
        if self._cancelled:
            return
        self._outstanding -= 1
        self._completed += 1
        if self._completed == self._num_accesses:
            self.finish_time = self.queue.now
            return
        # A completion frees a window slot, so only the gap or the end of
        # the trace can hold the next issue back: call only when neither.
        if self._issue_ready and self._next_index < self._num_accesses:
            self._try_issue()

    @property
    def drained(self) -> bool:
        return self._cancelled or self._completed == self._num_accesses
