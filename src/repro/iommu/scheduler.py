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


def group_key(pec_buffer: PecBuffer, pasid: int,
              vpn: int) -> tuple[int, int, int, int] | None:
    """A hashable id of the coalescing group a VPN would belong to.

    Two requests with equal group keys are served by one page-table walk
    (ignoring per-group fallback cases, which only cost a lost optimization,
    never correctness — the PFN calculator re-checks membership).
    """
    desc = pec_buffer.lookup(pasid, vpn)
    if desc is None:
        return None
    rnd, within = divmod(vpn - desc.start_vpn, desc.round_pages)
    return (desc.pasid, desc.data_id, rnd, within % desc.interlv_gran)


def select_next(pending: deque[AtsRequest], walking: Iterable[tuple[int, int]],
                pec_buffer: PecBuffer, tracer=NULL_TRACER) -> AtsRequest:
    """Pop the next request to walk, de-prioritizing coalescible ones.

    ``walking`` holds the (pasid, vpn) pairs currently under translation.
    Rotation is bounded by the queue length: when *every* pending request is
    coalescible to a walking translation, the front one is walked anyway
    (otherwise the queue could starve).
    """
    if not pending:
        raise IndexError("select_next on empty queue")
    walking_keys = {group_key(pec_buffer, pasid, vpn)
                    for pasid, vpn in walking}
    walking_keys.discard(None)
    for _ in range(len(pending)):
        front = pending[0]
        key = group_key(pec_buffer, front.pasid, front.vpn)
        if key is None or key not in walking_keys:
            return pending.popleft()
        if tracer.enabled:
            tracer.phase(front.pasid, front.vpn, "walk_deprioritized")
        pending.rotate(-1)  # de-prioritize: move front to the back
    return pending.popleft()
