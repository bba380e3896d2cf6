"""Coalescing-aware PTW scheduling (Section V-C).

Every dispatch, the scheduler inspects the request at the front of the
PW-queue: if it is coalescible with any translation currently being walked,
it is de-prioritized (moved to the back of the queue) so the walking PTW's
PEC logic can resolve it by calculation instead of a second walk.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.common.trace import NULL_TRACER
from repro.iommu.ats import AtsRequest
from repro.mapping.coalescing import PecBuffer


def select_next(pending: deque[AtsRequest], walking: Iterable[tuple[int, int]],
                pec_buffer: PecBuffer, tracer=NULL_TRACER) -> AtsRequest:
    """Pop the next request to walk, de-prioritizing coalescible ones.

    ``walking`` holds the (pasid, vpn) pairs currently under translation.
    Rotation is bounded by the queue length: when *every* pending request is
    coalescible to a walking translation, the front one is walked anyway
    (otherwise the queue could starve).  Group keys come from the PEC
    buffer's memo (:meth:`PecBuffer.group_key`), so each request is keyed
    once, not once per dispatch it waits through.
    """
    if not pending:
        raise IndexError("select_next on empty queue")
    group_key = pec_buffer.group_key
    walking_keys = {group_key(pasid, vpn) for pasid, vpn in walking}
    walking_keys.discard(None)
    for _ in range(len(pending)):
        front = pending[0]
        key = group_key(front.pasid, front.vpn)
        if key is None or key not in walking_keys:
            return pending.popleft()
        if tracer.enabled:
            tracer.phase(front.pasid, front.vpn, "walk_deprioritized")
        pending.rotate(-1)  # de-prioritize: move front to the back
    return pending.popleft()
