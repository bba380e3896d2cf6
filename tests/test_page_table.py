"""Page table tests: the flat VPN -> PTE map and its bulk write."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AddressError, TranslationError
from repro.memsim import AddressSpaceRegistry, PageTable, PteFields, encode_pte


def make_fields(pfn: int) -> PteFields:
    return PteFields(present=True, global_pfn=pfn)


def test_map_then_walk():
    pt = PageTable()
    pt.map(0x1234, make_fields(0x75))
    assert pt.walk(0x1234).global_pfn == 0x75
    assert pt.is_mapped(0x1234)
    assert len(pt) == 1


def test_walk_unmapped_raises():
    pt = PageTable()
    with pytest.raises(TranslationError):
        pt.walk(0x1)


def test_unmap_removes_mapping():
    pt = PageTable()
    pt.map(7, make_fields(1))
    pt.unmap(7)
    assert not pt.is_mapped(7)
    assert len(pt) == 0
    with pytest.raises(TranslationError):
        pt.unmap(7)


def test_remap_overwrites_without_growing():
    pt = PageTable()
    pt.map(7, make_fields(1))
    pt.map(7, make_fields(2))
    assert len(pt) == 1
    assert pt.walk(7).global_pfn == 2


def test_mappings_iterates_in_vpn_order():
    pt = PageTable()
    for vpn in [900, 3, 5000, 42]:
        pt.map(vpn, make_fields(vpn + 1))
    assert [v for v, _f in pt.mappings()] == [3, 42, 900, 5000]


def test_layout_mismatch_rejected():
    pt = PageTable(extended_ptes=True)
    with pytest.raises(TranslationError):
        pt.map(1, PteFields(present=True, global_pfn=0, extended=False))


def test_registry_pasid_isolation():
    reg = AddressSpaceRegistry()
    a = reg.create(1)
    b = reg.create(2)
    a.map(5, make_fields(100))
    b.map(5, make_fields(200))
    assert reg.get(1).walk(5).global_pfn == 100
    assert reg.get(2).walk(5).global_pfn == 200


def test_registry_rejects_duplicates_and_unknown():
    reg = AddressSpaceRegistry()
    reg.create(1)
    with pytest.raises(TranslationError):
        reg.create(1)
    with pytest.raises(TranslationError):
        reg.get(9)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=(1 << 40) - 1),
                       st.integers(min_value=0, max_value=(1 << 40) - 1),
                       min_size=1, max_size=50))
def test_property_walk_returns_what_was_mapped(mapping):
    pt = PageTable()
    for vpn, pfn in mapping.items():
        pt.map(vpn, make_fields(pfn))
    for vpn, pfn in mapping.items():
        assert pt.walk(vpn).global_pfn == pfn
    assert len(pt) == len(mapping)


_fields = st.builds(
    PteFields, present=st.just(True),
    global_pfn=st.integers(min_value=0, max_value=(1 << 40) - 1),
    coal_bitmap=st.integers(min_value=0, max_value=15),
    inter_gpu_coal_order=st.integers(min_value=0, max_value=3),
    intra_gpu_coal_order=st.integers(min_value=0, max_value=3),
    merged_groups=st.integers(min_value=1, max_value=4),
    extended=st.just(True))


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=(1 << 40) - 1),
                       _fields, max_size=50))
def test_property_bulk_write_matches_per_page_map(mapping):
    one_by_one = PageTable(extended_ptes=True)
    for vpn, fields in mapping.items():
        one_by_one.map(vpn, fields)
    bulk = PageTable(extended_ptes=True)
    bulk.map_many({vpn: encode_pte(f) for vpn, f in mapping.items()},
                  extended=True)
    assert len(bulk) == len(one_by_one) == len(mapping)
    for vpn in mapping:
        assert bulk.raw_pte(vpn) == one_by_one.raw_pte(vpn)
    assert list(bulk.mappings()) == list(one_by_one.mappings())


@pytest.mark.parametrize("bad_vpn", [-1, 1 << 40])
def test_bulk_write_rejects_bad_vpn_like_map(bad_vpn):
    pt = PageTable()
    raw = encode_pte(make_fields(1))
    with pytest.raises(AddressError):
        pt.map(bad_vpn, make_fields(1))
    with pytest.raises(AddressError):
        pt.map_many({5: raw, bad_vpn: raw}, extended=False)
    assert len(pt) == 0  # checked before anything is written


def test_bulk_write_rejects_layout_mismatch_like_map():
    pt = PageTable(extended_ptes=True)
    raw = encode_pte(make_fields(1))
    with pytest.raises(TranslationError, match="layout mismatch"):
        pt.map(1, make_fields(1))
    with pytest.raises(TranslationError, match="layout mismatch"):
        pt.map_many({1: raw}, extended=False)
    assert len(pt) == 0
