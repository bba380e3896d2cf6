"""PTE codec tests: Fig 8 (standard) and Fig 13 (extended) layouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AddressError
from repro.memsim import (
    MAX_MERGED_GROUPS,
    PteFields,
    coalescing_info_bits,
    decode_pte,
    encode_pte,
)


def test_standard_roundtrip_example2():
    """Example 2: gray group, first three chiplets, 2nd VPN."""
    fields = PteFields(present=True, global_pfn=0xB6,
                       coal_bitmap=0b00000111, inter_gpu_coal_order=2)
    assert decode_pte(encode_pte(fields)) == fields
    assert fields.is_coalesced
    assert fields.num_sharers == 3


def test_uncoalesced_page_has_zero_bitmap():
    fields = PteFields(present=True, global_pfn=0x1234)
    assert not fields.is_coalesced
    assert decode_pte(encode_pte(fields)) == fields


def test_extended_roundtrip():
    fields = PteFields(present=True, global_pfn=0xD075,
                       coal_bitmap=0b1111, inter_gpu_coal_order=3,
                       intra_gpu_coal_order=1, merged_groups=2, extended=True)
    assert decode_pte(encode_pte(fields), extended=True) == fields


def test_pfn_occupies_bits_12_to_51():
    fields = PteFields(present=True, global_pfn=0xABCDE)
    raw = encode_pte(fields)
    assert (raw >> 12) & ((1 << 40) - 1) == 0xABCDE
    assert raw & 1  # present bit


def test_coalescing_bits_live_above_bit_52():
    """Coalescing info must not disturb the architectural PTE fields."""
    plain = encode_pte(PteFields(present=True, global_pfn=0x99))
    coalesced = encode_pte(PteFields(present=True, global_pfn=0x99,
                                     coal_bitmap=0xFF, inter_gpu_coal_order=7))
    assert plain & ((1 << 52) - 1) == coalesced & ((1 << 52) - 1)


def test_standard_rejects_extended_fields():
    with pytest.raises(AddressError):
        PteFields(present=True, global_pfn=0, intra_gpu_coal_order=1)
    with pytest.raises(AddressError):
        PteFields(present=True, global_pfn=0, merged_groups=2)


def test_extended_rejects_wide_bitmap():
    with pytest.raises(AddressError):
        PteFields(present=True, global_pfn=0, coal_bitmap=0b10000,
                  extended=True)


def test_extended_merged_groups_bounds():
    with pytest.raises(AddressError):
        PteFields(present=True, global_pfn=0, merged_groups=0, extended=True)
    with pytest.raises(AddressError):
        PteFields(present=True, global_pfn=0,
                  merged_groups=MAX_MERGED_GROUPS + 1, extended=True)


def test_pfn_width_enforced():
    with pytest.raises(AddressError):
        PteFields(present=True, global_pfn=1 << 40)


def test_coalescing_info_is_10_bits_extended():
    """Section V-A3: ATS responses carry 10-bit coalescing info (extended)."""
    assert coalescing_info_bits(extended=True) == 10
    assert coalescing_info_bits(extended=False) == 11


@settings(max_examples=200, deadline=None)
@given(
    present=st.booleans(),
    pfn=st.integers(min_value=0, max_value=(1 << 40) - 1),
    bitmap=st.integers(min_value=0, max_value=255),
    order=st.integers(min_value=0, max_value=7),
)
def test_property_standard_roundtrip(present, pfn, bitmap, order):
    fields = PteFields(present=present, global_pfn=pfn,
                       coal_bitmap=bitmap, inter_gpu_coal_order=order)
    assert decode_pte(encode_pte(fields)) == fields


@settings(max_examples=200, deadline=None)
@given(
    pfn=st.integers(min_value=0, max_value=(1 << 40) - 1),
    bitmap=st.integers(min_value=0, max_value=15),
    inter=st.integers(min_value=0, max_value=3),
    intra=st.integers(min_value=0, max_value=3),
    merged=st.integers(min_value=1, max_value=4),
)
def test_property_extended_roundtrip(pfn, bitmap, inter, intra, merged):
    fields = PteFields(present=True, global_pfn=pfn, coal_bitmap=bitmap,
                       inter_gpu_coal_order=inter, intra_gpu_coal_order=intra,
                       merged_groups=merged, extended=True)
    assert decode_pte(encode_pte(fields), extended=True) == fields
