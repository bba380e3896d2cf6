"""Unit tests for address arithmetic."""

import pytest

from repro.common import (
    AddressError,
    MAX_VPN,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    check_vpn,
    pages_for_bytes,
    vpn_of,
)


def test_check_vpn_accepts_bounds():
    assert check_vpn(0) == 0
    assert check_vpn(MAX_VPN) == MAX_VPN


@pytest.mark.parametrize("bad", [-1, MAX_VPN + 1])
def test_check_vpn_rejects_out_of_range(bad):
    with pytest.raises(AddressError):
        check_vpn(bad)


def test_pages_for_bytes_rounds_up():
    assert pages_for_bytes(0) == 0
    assert pages_for_bytes(1) == 1
    assert pages_for_bytes(PAGE_SIZE_4K) == 1
    assert pages_for_bytes(PAGE_SIZE_4K + 1) == 2
    assert pages_for_bytes(10 * PAGE_SIZE_2M, PAGE_SIZE_2M) == 10


def test_pages_for_bytes_rejects_bad_input():
    with pytest.raises(AddressError):
        pages_for_bytes(-1)
    with pytest.raises(AddressError):
        pages_for_bytes(100, page_size=1234)


def test_vpn_of_page_sizes():
    assert vpn_of(0) == 0
    assert vpn_of(PAGE_SIZE_4K) == 1
    assert vpn_of(PAGE_SIZE_2M - 1, PAGE_SIZE_2M) == 0
    with pytest.raises(AddressError):
        vpn_of(-5)
