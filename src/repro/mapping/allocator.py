"""Per-chiplet physical frame allocators.

The GPU driver's Barre allocation (Section IV-G) iterates the available PFNs
of one chiplet and checks whether the same local PFN is also free in the
sharer chiplets; :meth:`FrameAllocatorGroup.find_common_free` implements that
search, and :meth:`find_common_free_run` the contiguous variant used by
contiguity-aware group expansion (Section V-B).

Each allocator keeps a byte map of its frames (1 = free), so searches are
``bytearray.find`` scans in C: the lowest free frame is ``find(1)`` and a
common free run leapfrogs ``find(b"\x01" * run)`` across the sharers' maps.
Searches start from per-search-key hints, so allocating millions of frames
stays amortized O(1) per frame; any release resets the hints (releases are
rare — data frees and page migrations only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import AllocationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class FrameAllocator:
    """Byte-map allocator for one chiplet's local frames (1 = free)."""

    def __init__(self, num_frames: int) -> None:
        if num_frames <= 0:
            raise AllocationError(f"need positive frame count, got {num_frames}")
        self.num_frames = num_frames
        self.free_map = bytearray(b"\x01") * num_frames
        self._free_count = num_frames
        #: Lower bound on the lowest free frame (scan hint).
        self._hint = 0

    @property
    def free_count(self) -> int:
        return self._free_count

    def is_free(self, local_pfn: int) -> bool:
        return 0 <= local_pfn < self.num_frames and self.free_map[local_pfn] == 1

    def allocate(self, local_pfn: int) -> int:
        """Claim a specific frame; raises if not free."""
        if not self.is_free(local_pfn):
            raise AllocationError(f"local PFN {local_pfn:#x} is not free")
        self.free_map[local_pfn] = 0
        self._free_count -= 1
        return local_pfn

    def allocate_any(self) -> int:
        """Claim the lowest-numbered free frame (default driver path)."""
        return self.allocate_many(1)[0]

    def allocate_many(self, count: int) -> list[int]:
        """Claim the ``count`` lowest free frames, ascending.

        The same frames as ``count`` calls of :meth:`allocate_any`, claimed
        one free run at a time; claims nothing if fewer are free.
        """
        if not 0 <= count <= self._free_count:
            raise AllocationError(
                f"chiplet memory exhausted: {count} frames asked, "
                f"{self._free_count} free")
        free_map = self.free_map
        pfns: list[int] = []
        start = self._hint
        while len(pfns) < count:
            start = free_map.find(1, start)
            want = start + count - len(pfns)
            end = free_map.find(0, start, want)
            if end < 0:
                end = want
            pfns.extend(range(start, end))
            free_map[start:end] = bytes(end - start)
            start = end
        self._free_count -= count
        self._hint = start
        return pfns

    def release(self, local_pfn: int) -> None:
        if not 0 <= local_pfn < self.num_frames:
            raise AllocationError(f"local PFN {local_pfn:#x} out of range")
        if self.free_map[local_pfn]:
            raise AllocationError(f"double free of local PFN {local_pfn:#x}")
        self.free_map[local_pfn] = 1
        self._free_count += 1
        self._hint = min(self._hint, local_pfn)

    def fragment(self, fraction: float, rng: np.random.Generator) -> list[int]:
        """Pre-claim a random ``fraction`` of frames to model fragmentation.

        Draws from the ascending free list; returns the claimed frames so
        tests can release them again.
        """
        import numpy as np
        if not 0.0 <= fraction < 1.0:
            raise AllocationError(f"fraction {fraction} out of [0, 1)")
        free = np.flatnonzero(np.frombuffer(self.free_map, dtype=np.uint8))
        victims = rng.choice(free, size=int(len(free) * fraction),
                             replace=False)
        claimed = [int(v) for v in victims]
        for pfn in claimed:
            self.free_map[pfn] = 0
        self._free_count -= len(claimed)
        return claimed


class FrameAllocatorGroup:
    """All chiplets' allocators, with cross-chiplet common-free searches."""

    def __init__(self, num_chiplets: int, frames_per_chiplet: int) -> None:
        self.allocators = [FrameAllocator(frames_per_chiplet)
                           for _ in range(num_chiplets)]
        self.frames_per_chiplet = frames_per_chiplet
        #: Scan hints keyed by (sharers, run_length); reset on release.
        self._hints: dict[tuple[tuple[int, ...], int], int] = {}

    def __getitem__(self, chiplet: int) -> FrameAllocator:
        return self.allocators[chiplet]

    def __len__(self) -> int:
        return len(self.allocators)

    def reset_hints(self) -> None:
        """Frames were released somewhere: conservative hints restart at 0."""
        self._hints.clear()

    def _scan(self, sharers: tuple[int, ...], run_length: int,
              start_from: int) -> int | None:
        """Leapfrog the sharers' free maps to their lowest common free run.

        Each map jumps ``pfn`` to its own next free run at or above it; the
        answer is the first ``pfn`` every map accepts in turn.
        """
        if not sharers:
            raise AllocationError("common-free search needs at least one sharer")
        if run_length <= 0:
            raise AllocationError(f"run length must be positive, got {run_length}")
        key = (tuple(sorted(sharers)), run_length)
        hint = self._hints.get(key, 0)
        pfn: int | None = max(start_from, hint)
        maps = [self.allocators[c].free_map for c in sharers]
        run = b"\x01" * run_length
        agreed = i = 0
        while agreed < len(maps):
            found = maps[i].find(run, pfn)
            if found < 0:
                pfn = None
                break
            if found == pfn:
                agreed += 1
            else:
                pfn, agreed = found, 1
            i = (i + 1) % len(maps)
        if start_from <= hint:
            self._hints[key] = self.frames_per_chiplet if pfn is None else pfn
        return pfn

    def find_common_free(self, sharers: tuple[int, ...],
                         start_from: int = 0) -> int | None:
        """Lowest local PFN >= ``start_from`` free in *every* sharer."""
        return self._scan(sharers, 1, start_from)

    def find_common_free_run(self, sharers: tuple[int, ...], run_length: int,
                             start_from: int = 0) -> int | None:
        """Lowest start of ``run_length`` *consecutive* common-free PFNs.

        This is the contiguity opportunity that coalescing-group expansion
        exploits (Section V-B); returns None when no such run exists.
        """
        return self._scan(sharers, run_length, start_from)

    def common_free_map(self, sharers: tuple[int, ...]) -> bytearray:
        """Byte map of the frames free on *every* sharer (1 = free): the
        AND of their free maps, for a caller that claims many common frames
        in a row (and zeroes each one it takes)."""
        import numpy as np
        common = bytearray(self.allocators[sharers[0]].free_map)
        view = np.frombuffer(common, dtype=np.uint8)
        for chiplet in sharers[1:]:
            view &= np.frombuffer(self.allocators[chiplet].free_map,
                                  dtype=np.uint8)
        return common

    def claim_common(self, sharers: tuple[int, ...], pfns: np.ndarray) -> None:
        """Claim every frame of ``pfns`` (distinct) on every sharer chiplet;
        raises, claiming nothing, unless all of them are free everywhere."""
        import numpy as np
        views = [np.frombuffer(self.allocators[c].free_map, dtype=np.uint8)
                 for c in sharers]
        if not all(view[pfns].all() for view in views):
            raise AllocationError(
                f"claim of {len(pfns)} frames on chiplets {sharers}: "
                f"not all common-free")
        for chiplet, view in zip(sharers, views):
            view[pfns] = 0
            self.allocators[chiplet]._free_count -= len(pfns)

    def allocate_common(self, sharers: tuple[int, ...], local_pfn: int) -> None:
        """Claim ``local_pfn`` on every sharer chiplet atomically."""
        claimed: list[int] = []
        try:
            for chiplet in sharers:
                self.allocators[chiplet].allocate(local_pfn)
                claimed.append(chiplet)
        except AllocationError:
            for chiplet in claimed:
                self.allocators[chiplet].release(local_pfn)
            raise
