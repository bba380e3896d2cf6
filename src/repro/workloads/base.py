"""Workload model: synthetic trace generators standing in for GPU kernels.

The paper drives its simulator with 19 real GPU applications; what the
translation system observes is each kernel's *page access stream*.  A
:class:`Workload` reproduces that stream synthetically: it declares the
kernel's data objects (footprints + locality hints for LASP) and a memory
access *pattern* (streaming, stencil, strided/transpose, random, zipf,
sparse gather, blocked), calibrated so the baseline L2 TLB MPKI lands in
the paper's low/mid/high class (Table I).

CTAs are the unit of work: CTA *k* processes slice *k* of the main data, and
the mapping policy co-locates it with its pages (Section II-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.mapping.policies import AllocationRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Pattern names understood by :meth:`Workload.build_cta_offsets`.
PATTERNS = ("stream", "stencil", "stride", "random", "zipf", "gather",
            "blocked")


@dataclass(frozen=True)
class DataSpec:
    """One data object (a ``gpuMalloc``), in 4 KB-page units."""

    name: str
    pages: int
    row_pages: int = 0
    irregular: bool = False
    #: Shared data (e.g. an input vector) is accessed by all CTAs over its
    #: whole range rather than sliced per CTA.
    shared: bool = False

    def to_request(self, data_id: int, pasid: int,
                   page_scale: int = 1) -> AllocationRequest:
        """Allocation request at ``page_scale`` x 4 KB pages per page."""
        pages = max(1, -(-self.pages // page_scale))
        row = max(1, -(-self.row_pages // page_scale)) if self.row_pages else 0
        return AllocationRequest(data_id=data_id, pages=pages, row_pages=row,
                                 irregular=self.irregular, pasid=pasid)


@dataclass(frozen=True)
class CtaTrace:
    """One CTA's accesses: parallel arrays of (data index, page offset)."""

    cta_id: int
    pasid: int
    data_index: np.ndarray
    page_offset: np.ndarray

    def __len__(self) -> int:
        return len(self.data_index)


@dataclass
class Workload:
    """A synthetic GPU kernel, calibrated against one Table I app."""

    abbr: str
    app_name: str
    suite: str
    category: str               # "low" | "mid" | "high"
    paper_mpki: float
    data: tuple[DataSpec, ...]
    pattern: str
    #: Instructions each access represents (warp-level, for MPKI).
    weight: float
    #: Compute cycles between consecutive issues in a stream.
    gap: int
    accesses_per_cta: int = 300
    num_ctas: int = 64
    #: Index of the partitioning ("main") data object.
    main_data: int = 0
    #: Fraction of accesses that target shared data objects.
    shared_mix: float = 0.0
    params: dict = field(default_factory=dict)
    pasid: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        if not self.data:
            raise ConfigError(f"workload {self.abbr} needs data objects")
        if not 0 <= self.main_data < len(self.data):
            raise ConfigError(f"main_data index out of range in {self.abbr}")
        if not 0.0 <= self.shared_mix <= 1.0:
            raise ConfigError(f"shared_mix out of [0,1] in {self.abbr}")
        if self.weight <= 0 or self.gap < 0 or self.accesses_per_cta <= 0:
            raise ConfigError(f"bad timing parameters in {self.abbr}")

    # -- derived -----------------------------------------------------------------

    @property
    def main(self) -> DataSpec:
        return self.data[self.main_data]

    def requests(self, page_scale: int = 1) -> list[AllocationRequest]:
        """Allocation requests for every data object, ids are indexes."""
        return [spec.to_request(data_id=i, pasid=self.pasid,
                                page_scale=page_scale)
                for i, spec in enumerate(self.data)]

    def scaled(self, footprint_scale: int) -> "Workload":
        """A copy with all footprints multiplied (Fig 24's 16x inputs)."""
        import dataclasses
        bigger = tuple(dataclasses.replace(
            spec, pages=spec.pages * footprint_scale) for spec in self.data)
        return dataclasses.replace(self, data=bigger)

    # -- trace generation ----------------------------------------------------------

    def build_ctas(self, rng: np.random.Generator,
                   scale: float = 1.0) -> list[CtaTrace]:
        """Generate every CTA's access trace (page offsets, 4 KB units)."""
        n_acc = max(8, int(self.accesses_per_cta * scale))
        traces = []
        for cta in range(self.num_ctas):
            data_idx, offsets = self._cta_arrays(cta, n_acc, rng)
            traces.append(CtaTrace(cta_id=cta, pasid=self.pasid,
                                   data_index=data_idx, page_offset=offsets))
        return traces

    def _cta_slice(self, cta: int, pages: int) -> tuple[int, int]:
        """CTA ``cta``'s page slice [lo, hi) of a non-shared data object."""
        lo = cta * pages // self.num_ctas
        hi = max(lo + 1, (cta + 1) * pages // self.num_ctas)
        return lo, min(hi, pages)

    def _cta_arrays(self, cta: int, n_acc: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        if self.pattern == "gather":
            data_idx, main_offsets = self._gather_arrays(cta, n_acc, rng)
        else:
            main_offsets = self.build_cta_offsets(cta, n_acc, rng)
            data_idx = np.full(len(main_offsets), self.main_data,
                               dtype=np.int16)
        shared_ids = [i for i, s in enumerate(self.data)
                      if s.shared and i != self.main_data]
        if self.shared_mix and shared_ids:
            mask = rng.random(len(main_offsets)) < self.shared_mix
            picks = rng.integers(0, len(shared_ids), size=int(mask.sum()))
            share_idx = np.asarray(shared_ids, dtype=np.int16)[picks]
            data_idx[mask] = share_idx
            spec_pages = np.asarray([self.data[i].pages for i in shared_ids])
            # Shared objects are touched over their full range, with the
            # locality the pattern's shared_locality parameter dictates.
            hot = self.params.get("shared_hot_fraction", 1.0)
            limits = np.maximum(1, (spec_pages * hot).astype(np.int64))
            offs = rng.integers(0, 1 << 30, size=int(mask.sum()))
            main_offsets = main_offsets.copy()
            main_offsets[mask] = offs % limits[picks]
        return data_idx, main_offsets

    def build_cta_offsets(self, cta: int, n_acc: int,
                          rng: np.random.Generator) -> np.ndarray:
        """Main-data page offsets for one CTA under this pattern."""
        import numpy as np
        pages = self.main.pages
        lo, hi = self._cta_slice(cta, pages)
        span = hi - lo
        p = self.params
        if self.pattern == "stream":
            reuse = max(1, int(p.get("touches_per_page", 8)))
            sweep = np.repeat(np.arange(lo, hi, dtype=np.int64), reuse)
            reps = -(-n_acc // len(sweep))
            return np.tile(sweep, reps)[:n_acc]
        if self.pattern == "blocked":
            panel = max(1, int(p.get("panel_pages", 4)))
            touches = max(1, int(p.get("touches_per_page", 4)))
            out = []
            start = lo
            while len(out) < n_acc:
                block = np.arange(start, min(start + panel, hi), dtype=np.int64)
                out.append(np.repeat(block, touches))
                start += panel
                if start >= hi:
                    start = lo
            return np.concatenate(out)[:n_acc]
        if self.pattern == "stencil":
            # ``row_width`` is the page distance between vertically adjacent
            # elements; the mapping hint (row_pages) is the per-chiplet chunk
            # of several rows, so most neighbours stay local (LASP's win).
            width = max(1, int(p.get("row_width",
                                     max(1, self.main.row_pages // 4))))
            touches = max(1, int(p.get("touches_per_page", 1)))
            n_centers = -(-n_acc // (3 * touches)) + 1
            base = np.arange(n_centers, dtype=np.int64)
            center = lo + base % span
            north = np.maximum(0, center - width)
            south = np.minimum(pages - 1, center + width)
            tripled = np.stack([north, center, south], axis=1)
            # Element-level reuse: each halo triple is touched repeatedly
            # (within-page hits absorbed by the L1 TLB).
            repeated = np.repeat(tripled, touches, axis=0).reshape(-1)
            return repeated[:n_acc]
        if self.pattern == "stride":
            stride = max(1, int(p.get("stride_pages", self.main.row_pages or 7)))
            local = bool(p.get("local", False))
            base = np.arange(n_acc, dtype=np.int64)
            phase = cta * max(1, int(p.get("phase_pages", 1)))
            if local:
                return lo + (phase + base * stride) % max(1, span)
            return (phase + base * stride) % pages
        if self.pattern == "random":
            return rng.integers(0, pages, size=n_acc, dtype=np.int64)
        if self.pattern == "zipf":
            a = float(p.get("zipf_a", 1.2))
            draws = rng.zipf(a, size=n_acc).astype(np.int64)
            return (draws - 1) % pages
        raise ConfigError(f"pattern {self.pattern} not implemented")

    def _gather_arrays(self, cta: int, n_acc: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Sparse kernels (SpMV-like): a local row sweep interleaved with
        random gathers into a different data object (the dense vector)."""
        import numpy as np
        p = self.params
        lo, hi = self._cta_slice(cta, self.main.pages)
        span = hi - lo
        target = int(p.get("gather_data", 1))
        touches = max(1, int(p.get("touches_per_page", 2)))
        offsets = lo + (np.arange(n_acc, dtype=np.int64) // touches) % span
        data_idx = np.full(n_acc, self.main_data, dtype=np.int16)
        mask = rng.random(n_acc) < float(p.get("gather_fraction", 0.5))
        target_pages = self.data[target].pages
        if p.get("gather_dist", "uniform") == "zipf":
            draws = rng.zipf(float(p.get("zipf_a", 1.3)), size=n_acc)
            gathers = (draws.astype(np.int64) - 1) % target_pages
        else:
            gathers = rng.integers(0, target_pages, size=n_acc,
                                   dtype=np.int64)
        repeat = max(1, int(p.get("gather_repeat", 1)))
        if repeat > 1:
            # Row-local element reuse: consecutive gathers land on the same
            # vector page ``repeat`` times (L1-absorbed after the first).
            gathers = np.repeat(gathers[::repeat], repeat)[:n_acc]
        offsets = offsets.copy()
        offsets[mask] = gathers[mask]
        data_idx[mask] = target
        return data_idx, offsets
