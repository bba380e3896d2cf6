"""Statistics collection used by every simulated component.

Components own a :class:`StatSet` and bump named counters; experiment runners
read them out as plain dictionaries.  Keeping this untyped-but-uniform avoids
each component inventing its own bookkeeping.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable


class StatSet:
    """A named bag of integer counters and accumulating means."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Counter[str] = Counter()
        self._sums: defaultdict[str, float] = defaultdict(float)
        self._counts: Counter[str] = Counter()

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        self._counters[key] += amount

    @property
    def counters(self) -> Counter[str]:
        """The live Counter behind :meth:`bump`.

        Per-access hot paths cache this and increment it in place, which
        skips a method call per event while keeping every readout
        (:meth:`count`, :meth:`as_dict`) exact and up to date.
        """
        return self._counters

    @property
    def sums(self) -> defaultdict[str, float]:
        """Live sum bag behind :meth:`observe` (see :attr:`counters`)."""
        return self._sums

    @property
    def sample_counts(self) -> Counter[str]:
        """Live sample counts behind :meth:`observe` (see :attr:`counters`)."""
        return self._counts

    def observe(self, key: str, value: float) -> None:
        """Record one sample of a quantity whose mean we report."""
        self._sums[key] += value
        self._counts[key] += 1

    def count(self, key: str) -> int:
        """Current value of counter ``key`` (0 if never bumped)."""
        return self._counters[key]

    def mean(self, key: str) -> float:
        """Mean of observed samples for ``key`` (0.0 if none)."""
        n = self._counts[key]
        return self._sums[key] / n if n else 0.0

    def samples(self, key: str) -> int:
        """Number of samples observed for ``key``."""
        return self._counts[key]

    def as_dict(self) -> dict[str, float]:
        """Flatten counters and means into one dictionary.

        Derived keys (``<obs>_mean`` / ``<obs>_samples``) share the
        namespace with raw counters; a counter that happens to carry such
        a name would be silently overwritten, so that collision is an
        error here rather than a corrupted readout downstream.
        """
        out: dict[str, float] = dict(self._counters)
        for key in self._sums:
            for derived in (f"{key}_mean", f"{key}_samples"):
                if derived in self._counters:
                    raise ValueError(
                        f"StatSet {self.name!r}: derived key {derived!r} for "
                        f"observation {key!r} collides with a counter of the "
                        "same name; rename one of them")
            out[f"{key}_mean"] = self.mean(key)
            out[f"{key}_samples"] = self._counts[key]
        return out


@dataclass
class Histogram:
    """Integer-valued histogram (used for the Fig 5 VPN-gap distribution)."""

    buckets: Counter = field(default_factory=Counter)

    def add(self, value: int) -> None:
        self.buckets[value] += 1

    def total(self) -> int:
        return sum(self.buckets.values())

    def fraction_in(self, values: Iterable[int]) -> float:
        total = self.total()
        if not total:
            return 0.0
        return sum(self.buckets[v] for v in values) / total

    def quantile(self, q: float) -> int:
        """Smallest value v such that P(X <= v) >= q."""
        total = self.total()
        if not total:
            return 0
        target = q * total
        seen = 0
        for value in sorted(self.buckets):
            seen += self.buckets[value]
            if seen >= target:
                return value
        return max(self.buckets)


class LatencyHistogram:
    """Fixed log2-bucket latency histogram with deterministic merges.

    Bucket ``b`` holds the values whose ``int(v).bit_length() == b``:
    bucket 0 is exactly 0, bucket ``b >= 1`` covers ``[2**(b-1), 2**b - 1]``
    cycles.  Because the bucket edges never depend on the data, merging is
    associative and commutative — histograms assembled from a process
    pool's workers in any completion order equal a serial run's, which is
    what lets them ride the sweep engine's result cache.

    The exact sum and maximum are tracked alongside the buckets, so
    ``mean`` is exact and percentiles can be clamped to the true max.
    """

    __slots__ = ("buckets", "sum", "max")

    def __init__(self) -> None:
        self.buckets: Counter[int] = Counter()
        self.sum: int = 0
        self.max: int = 0

    def add(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"latency cannot be negative: {value}")
        self.buckets[value.bit_length()] += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def merge(self, other: "LatencyHistogram") -> None:
        self.buckets.update(other.buckets)
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    def total(self) -> int:
        """Number of recorded samples."""
        return sum(self.buckets.values())

    def mean(self) -> float:
        n = self.total()
        return self.sum / n if n else 0.0

    def percentile(self, q: float) -> int:
        """Upper bound of the smallest bucket with P(X <= bound) >= q.

        Conservative (never under-reports) and clamped to the observed
        maximum; 0 when empty.
        """
        total = self.total()
        if not total:
            return 0
        target = q * total
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                bound = 0 if bucket == 0 else (1 << bucket) - 1
                return min(bound, self.max)
        return self.max

    @property
    def p50(self) -> int:
        return self.percentile(0.50)

    @property
    def p90(self) -> int:
        return self.percentile(0.90)

    @property
    def p99(self) -> int:
        return self.percentile(0.99)

    def as_dict(self) -> dict:
        """JSON-ready form (string bucket keys survive a round trip)."""
        return {"buckets": {str(b): n for b, n in sorted(self.buckets.items())},
                "sum": self.sum, "max": self.max}

    @classmethod
    def from_dict(cls, payload: dict | None) -> "LatencyHistogram":
        hist = cls()
        if payload:
            for bucket, count in payload.get("buckets", {}).items():
                hist.buckets[int(bucket)] = count
            hist.sum = payload.get("sum", 0)
            hist.max = payload.get("max", 0)
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (dict(self.buckets) == dict(other.buckets)
                and self.sum == other.sum and self.max == other.max)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's convention for average speedups."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
        product *= v
    return product ** (1.0 / len(vals))
