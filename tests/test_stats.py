"""Statistics utilities tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Histogram, LatencyHistogram, StatSet, geomean


class TestStatSet:
    def test_bump_and_count(self):
        s = StatSet("x")
        s.bump("hits")
        s.bump("hits", 4)
        assert s.count("hits") == 5
        assert s.count("never") == 0

    def test_observe_and_mean(self):
        s = StatSet("x")
        for v in (10, 20, 30):
            s.observe("lat", v)
        assert s.mean("lat") == 20
        assert s.samples("lat") == 3
        assert s.mean("none") == 0.0

    def test_as_dict(self):
        s = StatSet("x")
        s.bump("c")
        s.observe("m", 2.0)
        d = s.as_dict()
        assert d["c"] == 1
        assert d["m_mean"] == 2.0
        assert d["m_samples"] == 1

    def test_as_dict_rejects_derived_key_collision(self):
        # A counter literally named "lat_mean" would silently shadow the
        # mean derived from observe("lat", ...); that must be an error.
        s = StatSet("x")
        s.bump("lat_mean")
        s.observe("lat", 7.0)
        with pytest.raises(ValueError, match="lat_mean"):
            s.as_dict()

    def test_as_dict_samples_collision_also_rejected(self):
        s = StatSet("x")
        s.bump("lat_samples")
        s.observe("lat", 7.0)
        with pytest.raises(ValueError, match="lat_samples"):
            s.as_dict()


class TestHistogram:
    def test_fractions(self):
        h = Histogram()
        for v in (1, 1, 2, 5):
            h.add(v)
        assert h.total() == 4
        assert h.fraction_in([1, 2]) == 0.75
        assert h.fraction_in([99]) == 0.0

    def test_quantile(self):
        h = Histogram()
        for v in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
            h.add(v)
        assert h.quantile(0.5) == 5
        assert h.quantile(1.0) == 10

    def test_empty(self):
        h = Histogram()
        assert h.total() == 0
        assert h.quantile(0.5) == 0


class TestLatencyHistogram:
    def test_log2_buckets(self):
        h = LatencyHistogram()
        for v in (0, 1, 2, 3, 4, 100):
            h.add(v)
        # bit_length: 0->0, 1->1, {2,3}->2, 4->3, 100->7
        assert dict(h.buckets) == {0: 1, 1: 1, 2: 2, 3: 1, 7: 1}
        assert h.total() == 6
        assert h.sum == 110
        assert h.max == 100
        assert h.mean() == pytest.approx(110 / 6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyHistogram().add(-1)

    def test_percentiles_are_bucket_upper_bounds(self):
        h = LatencyHistogram()
        for v in range(1, 101):
            h.add(v)
        # p50 of 1..100 lands in bucket 6 ([32, 63]); bound is 63.
        assert h.p50 == 63
        assert h.p90 == 100  # bucket 7 bound 127, clamped to max
        assert h.percentile(1.0) == 100

    def test_empty(self):
        h = LatencyHistogram()
        assert h.total() == 0
        assert h.mean() == 0.0
        assert h.p50 == 0 and h.p99 == 0

    def test_merge_order_independent(self):
        parts = []
        for base in (0, 1, 2):
            h = LatencyHistogram()
            for v in range(base, 30, 3):
                h.add(v)
            parts.append(h)
        forward, backward = LatencyHistogram(), LatencyHistogram()
        for p in parts:
            forward.merge(p)
        for p in reversed(parts):
            backward.merge(p)
        serial = LatencyHistogram()
        for v in range(30):
            serial.add(v)
        assert forward == backward == serial

    def test_dict_round_trip(self):
        h = LatencyHistogram()
        for v in (0, 5, 1000):
            h.add(v)
        again = LatencyHistogram.from_dict(h.as_dict())
        assert again == h
        assert LatencyHistogram.from_dict(None) == LatencyHistogram()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6)))
    def test_property_percentiles_bounded(self, values):
        h = LatencyHistogram()
        for v in values:
            h.add(v)
        assert 0 <= h.p50 <= h.p90 <= h.p99 <= (h.max if values else 0)

    def test_empty_percentile_any_quantile_is_zero(self):
        h = LatencyHistogram()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 0

    def test_single_bucket_percentiles_clamp_to_observed_max(self):
        # All samples in one bucket ([32, 63]): every percentile is the
        # bucket bound clamped to the true max, and the mean is exact.
        h = LatencyHistogram()
        for v in (33, 40, 45):
            h.add(v)
        assert h.buckets == {6: 3}
        assert h.p50 == h.p90 == h.p99 == 45
        assert h.mean() == pytest.approx((33 + 40 + 45) / 3)

    def test_overflow_bucket_huge_values(self):
        # Values far past any latency the simulator produces still land
        # in a well-defined log2 bucket, and the sum/max stay exact.
        h = LatencyHistogram()
        big = 10**12
        h.add(0)
        h.add(big)
        assert h.buckets == {0: 1, big.bit_length(): 1}
        assert h.max == big and h.sum == big
        assert h.p99 == big     # bound (2**40 - 1) clamped to the max

    def test_merge_differently_shaped_histograms(self):
        # Disjoint bucket sets: merge must union them, not align them.
        low, high = LatencyHistogram(), LatencyHistogram()
        for v in (0, 1, 2, 3):
            low.add(v)
        for v in (10_000, 20_000):
            high.add(v)
        low.merge(high)
        assert low.total() == 6
        assert low.sum == 0 + 1 + 2 + 3 + 10_000 + 20_000
        assert low.max == 20_000
        assert low.p50 == 3          # still dominated by the low samples
        assert low.p99 == 20_000
        # Merging an empty histogram is the identity.
        before = low.as_dict()
        low.merge(LatencyHistogram())
        assert low.as_dict() == before


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([3]) == pytest.approx(3.0)
        assert geomean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1,
                    max_size=20))
    def test_property_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9
