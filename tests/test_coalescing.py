"""Coalescing-group math tests, anchored on the paper's worked examples.

The Fig 7a setup: data 1 has 12 pages (VPNs 0x1..0xC) over 4 chiplets with
interlv_gran 3; the driver finds common local PFNs 0x75, 0x88, 0x114; the
chiplet base PFNs are 0xA000, 0xB000, 0xC000, 0xD000.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AddressError, TranslationError
from repro.iommu import PecLogic
from repro.mapping import (
    DataDescriptor,
    PEC_ENTRY_BITS,
    PecBuffer,
    calculate_pending_pfn,
    merged_group_vpns,
)
from repro.memsim import PteFields

BASES = (0xA000, 0xB000, 0xC000, 0xD000)


def data1() -> DataDescriptor:
    """Fig 7a data 1 — matches Example 3's PEC buffer entry."""
    return DataDescriptor(data_id=1, pasid=0, start_vpn=0x1, end_vpn=0xC,
                          interlv_gran=3, gpu_map=(0, 1, 2, 3))


class TestExample3PecEntry:
    def test_fields(self):
        d = data1()
        assert d.start_vpn == 0x1 and d.end_vpn == 0xC
        assert d.interlv_gran == 3
        assert d.gpu_map == (0, 1, 2, 3)
        assert d.num_pages == 12

    def test_vpn_to_chiplet(self):
        d = data1()
        # 0x1-0x3 -> GPU0, 0x4-0x6 -> GPU1, 0x7-0x9 -> GPU2, 0xA-0xC -> GPU3
        assert [d.chiplet_of(v) for v in range(0x1, 0xD)] == \
            [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_entry_is_118_bits(self):
        assert PEC_ENTRY_BITS == 118
        assert data1().encoded_bits() == 118


class TestGroupMembership:
    def test_groups_partition_data1(self):
        d = data1()
        assert d.group_vpns(0x1) == [0x1, 0x4, 0x7, 0xA]
        assert d.group_vpns(0x2) == [0x2, 0x5, 0x8, 0xB]
        assert d.group_vpns(0x3) == [0x3, 0x6, 0x9, 0xC]

    def test_every_member_sees_same_group(self):
        d = data1()
        for vpn in d.group_vpns(0x2):
            assert d.group_vpns(vpn) == [0x2, 0x5, 0x8, 0xB]

    def test_partial_group_at_data_end(self):
        # 3-page data over 4 chiplets: only 3 members (Fig 7a data 3).
        d = DataDescriptor(data_id=3, pasid=0, start_vpn=0xB1, end_vpn=0xB3,
                           interlv_gran=1, gpu_map=(0, 1, 2, 3))
        assert d.group_vpns(0xB1) == [0xB1, 0xB2, 0xB3]

    def test_multi_round_groups_stay_within_round(self):
        # 24 pages, gran 3, 4 chiplets: two rounds of 12.
        d = DataDescriptor(data_id=9, pasid=0, start_vpn=0, end_vpn=23,
                           interlv_gran=3, gpu_map=(0, 1, 2, 3))
        assert d.group_vpns(0) == [0, 3, 6, 9]
        assert d.group_vpns(12) == [12, 15, 18, 21]  # second round
        assert 12 not in d.group_vpns(0)

    def test_position_rejects_foreign_vpn(self):
        with pytest.raises(TranslationError):
            data1().position(0x100)


class TestExample4PfnCalculation:
    """The paper's Example 4, end to end."""

    def setup_method(self):
        self.desc = data1()
        # PTW finished VPN 0x4 -> PFN 0xB075 (GPU1, local 0x75).
        self.fields = PteFields(present=True, global_pfn=0xB075,
                                coal_bitmap=0b1111, inter_gpu_coal_order=1)

    def test_pending_0xa_resolves_to_0xd075(self):
        pfn = calculate_pending_pfn(self.desc, 0x4, self.fields, 0xA, BASES)
        assert pfn == 0xD075

    def test_all_group_members_resolve(self):
        expect = {0x1: 0xA075, 0x7: 0xC075, 0xA: 0xD075}
        for vpn, pfn in expect.items():
            assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                         vpn, BASES) == pfn

    def test_same_vpn_returns_pte_pfn(self):
        assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                     0x4, BASES) == 0xB075

    def test_non_member_returns_none(self):
        # 0x5 is data 1 but a different coalescing group.
        assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                     0x5, BASES) is None

    def test_foreign_vpn_returns_none(self):
        assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                     0x100, BASES) is None

    def test_nonparticipant_chiplet_rejected(self):
        fields = PteFields(present=True, global_pfn=0xB075,
                           coal_bitmap=0b0011, inter_gpu_coal_order=1)
        assert calculate_pending_pfn(self.desc, 0x4, fields,
                                     0xA, BASES) is None  # GPU3 not in bitmap
        assert calculate_pending_pfn(self.desc, 0x4, fields,
                                     0x1, BASES) == 0xA075


class TestMergedGroups:
    """Section V-B formulas on a merged (2-group) coalescing group."""

    def setup_method(self):
        # Data of 12 pages starting at 0x1, gran 3; groups for intra 0 and 1
        # are merged: local PFNs 0x75 and 0x76.
        self.desc = data1()
        # PTE for VPN 0x5 = GPU1 (inter 1), intra 1, merged span 2.
        self.fields = PteFields(present=True, global_pfn=0xB076,
                                coal_bitmap=0b1111, inter_gpu_coal_order=1,
                                intra_gpu_coal_order=1, merged_groups=2,
                                extended=True)

    def test_vpn_first_formula(self):
        # VPN_first = VPN - intra - gran*inter = 0x5 - 1 - 3 = 0x1.
        members = merged_group_vpns(self.desc, 0x5, self.fields)
        assert members == [0x1, 0x2, 0x4, 0x5, 0x7, 0x8, 0xA, 0xB]

    def test_pending_pfn_formula(self):
        # 0xB = GPU3 intra 1 -> 0xD000 + 0x76; 0xA = GPU3 intra 0 -> 0xD075.
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0xB, BASES) == 0xD076
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0xA, BASES) == 0xD075
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0x1, BASES) == 0xA075

    def test_outside_merged_span_returns_none(self):
        # intra 2 (VPN 0x6) is not in the 2-merged span {0,1}.
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0x6, BASES) is None

    def test_unmerged_extended_pte_behaves_like_standard(self):
        fields = PteFields(present=True, global_pfn=0xB075,
                           coal_bitmap=0b1111, inter_gpu_coal_order=1,
                           merged_groups=1, extended=True)
        assert merged_group_vpns(self.desc, 0x4, fields) == [0x1, 0x4, 0x7, 0xA]


class TestCompactBitmap:
    """Section VI scalability: bitmap holds a sharer count, not a mask."""

    def test_count_semantics(self):
        desc = DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=15,
                              interlv_gran=1,
                              gpu_map=tuple(range(16)))
        fields = PteFields(present=True, global_pfn=5, coal_bitmap=16,
                           inter_gpu_coal_order=0)
        bases = tuple(i * 1000 for i in range(16))
        assert calculate_pending_pfn(desc, 0, fields, 15, bases,
                                     compact=True) == 15 * 1000 + 5

    def test_count_excludes_tail(self):
        desc = DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=15,
                              interlv_gran=1, gpu_map=tuple(range(16)))
        fields = PteFields(present=True, global_pfn=5, coal_bitmap=8,
                           inter_gpu_coal_order=0)
        bases = tuple(i * 1000 for i in range(16))
        assert calculate_pending_pfn(desc, 0, fields, 9, bases,
                                     compact=True) is None


class TestPecBuffer:
    def make(self, data_id, pages, pasid=0):
        return DataDescriptor(data_id=data_id, pasid=pasid, start_vpn=data_id * 1000,
                              end_vpn=data_id * 1000 + pages - 1,
                              interlv_gran=1, gpu_map=(0, 1))

    def test_lookup_by_vpn(self):
        buf = PecBuffer(capacity=5)
        buf.insert(self.make(1, 10))
        assert buf.lookup(0, 1005).data_id == 1
        assert buf.lookup(0, 2005) is None
        assert buf.lookup(9, 1005) is None  # wrong pasid

    def test_full_buffer_evicts_smallest(self):
        buf = PecBuffer(capacity=2)
        buf.insert(self.make(1, 5))
        buf.insert(self.make(2, 50))
        evicted = buf.insert(self.make(3, 20))
        assert evicted is not None and evicted.data_id == 1
        assert buf.lookup(0, 2000 + 3) is not None
        assert buf.lookup(0, 3000 + 3) is not None

    def test_smaller_newcomer_is_dropped(self):
        buf = PecBuffer(capacity=1)
        buf.insert(self.make(1, 50))
        dropped = buf.insert(self.make(2, 5))
        assert dropped is not None and dropped.data_id == 2
        assert buf.lookup(0, 1000).data_id == 1

    def test_reinsert_replaces(self):
        buf = PecBuffer(capacity=1)
        buf.insert(self.make(1, 5))
        assert buf.insert(self.make(1, 5)) is None
        assert len(buf) == 1

    def test_size_bits_matches_paper(self):
        assert PecBuffer(capacity=5).size_bits() == 590

    def test_memoized_group_keys_follow_every_change(self):
        """A tenant's data arriving, replacing, evicting or departing
        re-keys the VPNs it covers; nothing else does."""
        buf = PecBuffer(capacity=2)
        assert buf.group_key(0, 1003) is None
        buf.insert(self.make(1, 10))
        assert buf.group_key(0, 1003) == (0, 1, 1, 0)
        assert buf.group_key(0, 1005) == (0, 1, 2, 0)
        buf.insert(self.make(1, 4))             # replaced: ends at 1003
        assert buf.group_key(0, 1003) == (0, 1, 1, 0)
        assert buf.group_key(0, 1005) is None
        buf.insert(self.make(2, 50))
        buf.insert(self.make(3, 20))            # evicts data 1
        assert buf.group_key(0, 1003) is None
        assert buf.group_key(0, 3003) == (0, 3, 1, 0)
        buf.insert(self.make(4, 5))             # smallest: dropped
        assert buf.group_key(0, 3003) == (0, 3, 1, 0)
        buf.remove_pasid(0)
        assert buf.group_key(0, 3003) is None
        buf.insert(self.make(3, 20))
        buf.clear()
        assert buf.group_key(0, 3003) is None


class TestDescriptorValidation:
    def test_rejects_empty_range(self):
        with pytest.raises(AddressError):
            DataDescriptor(data_id=1, pasid=0, start_vpn=10, end_vpn=5,
                           interlv_gran=1, gpu_map=(0,))

    def test_rejects_duplicate_gpu_map(self):
        with pytest.raises(AddressError):
            DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=5,
                           interlv_gran=1, gpu_map=(0, 0))

    def test_rejects_zero_gran(self):
        with pytest.raises(AddressError):
            DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=5,
                           interlv_gran=0, gpu_map=(0,))


@settings(max_examples=100, deadline=None)
@given(
    gran=st.integers(min_value=1, max_value=8),
    sharers=st.integers(min_value=2, max_value=4),
    rounds=st.integers(min_value=1, max_value=3),
    pte_pick=st.integers(min_value=0, max_value=10_000),
    pending_pick=st.integers(min_value=0, max_value=10_000),
)
def test_property_calculated_pfn_matches_direct_mapping(
        gran, sharers, rounds, pte_pick, pending_pick):
    """PFN calculation must agree with the enforced mapping, for any group.

    We build the ground-truth mapping the driver would enforce (same local
    PFN per group across sharers) and check calculate_pending_pfn against it
    for arbitrary member pairs.
    """
    bases = tuple(i * 100_000 for i in range(sharers))
    pages = gran * sharers * rounds
    desc = DataDescriptor(data_id=1, pasid=0, start_vpn=50,
                          end_vpn=50 + pages - 1, interlv_gran=gran,
                          gpu_map=tuple(range(sharers)))
    # Ground truth: group (round r, intra k) gets local PFN 1000 + r*gran + k.
    def true_pfn(vpn):
        rnd, inter, intra = desc.position(vpn)
        return bases[desc.gpu_map[inter]] + 1000 + rnd * gran + intra

    vpns = list(range(desc.start_vpn, desc.end_vpn + 1))
    pte_vpn = vpns[pte_pick % len(vpns)]
    pending_vpn = vpns[pending_pick % len(vpns)]
    bitmap = 0
    for c in range(sharers):
        bitmap |= 1 << c
    _rnd, inter, _intra = desc.position(pte_vpn)
    fields = PteFields(present=True, global_pfn=true_pfn(pte_vpn),
                       coal_bitmap=bitmap, inter_gpu_coal_order=inter)
    result = calculate_pending_pfn(desc, pte_vpn, fields, pending_vpn, bases)
    if pending_vpn in desc.group_vpns(pte_vpn):
        assert result == true_pfn(pending_vpn)
    else:
        assert result is None


# -- exactness of the inlined group arithmetic ---------------------------------
#
# The hot paths (``calculate_pending_pfn``, ``PecLogic.candidate_vpns``,
# ``PecBuffer.group_key``) do their round/intra arithmetic inline, and the
# IOMMU screens its PW-queue scan by group membership.  The reference copies
# below are the straightforward versions written with ``position()``,
# ``vpn_at()`` and ``contains()``; the properties pin the fast paths to them.

def _outcome(fn, *args, **kwargs):
    """A call's value, or its exception type, so raising paths compare too."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(exc))


def _ref_participates(fields, inter_order, chiplet, compact):
    if compact:
        return inter_order < fields.coal_bitmap
    return bool(fields.coal_bitmap >> chiplet & 1)


def _ref_calculate_pending_pfn(desc, pte_vpn, fields, pending_vpn,
                               chiplet_bases, compact=False):
    if not (desc.contains(pte_vpn) and desc.contains(pending_vpn)):
        return None
    if pending_vpn == pte_vpn:
        return fields.global_pfn
    gran = desc.interlv_gran
    pte_base = chiplet_bases[desc.chiplet_of(pte_vpn)]
    if fields.extended and fields.merged_groups > 1:
        first = (pte_vpn - fields.intra_gpu_coal_order
                 - gran * fields.inter_gpu_coal_order)
        j, i = divmod(pending_vpn - first, gran)
        if not (0 <= j < desc.num_sharers and 0 <= i < fields.merged_groups):
            return None
        pending_chiplet = desc.gpu_map[j]
        if not _ref_participates(fields, j, pending_chiplet, compact):
            return None
        return (fields.global_pfn - pte_base - fields.intra_gpu_coal_order
                + chiplet_bases[pending_chiplet] + i)
    if (pending_vpn - pte_vpn) % gran:
        return None
    rnd, _inter, intra = desc.position(pte_vpn)
    pending_rnd, pending_inter, pending_intra = desc.position(pending_vpn)
    if pending_rnd != rnd or pending_intra != intra:
        return None
    pending_chiplet = desc.gpu_map[pending_inter]
    if not _ref_participates(fields, pending_inter, pending_chiplet, compact):
        return None
    return chiplet_bases[pending_chiplet] + fields.global_pfn - pte_base


def _ref_merged_group_vpns(desc, vpn, fields):
    rnd, _inter, intra = desc.position(vpn)
    if not fields.extended or fields.merged_groups == 1:
        return [v for v in (desc.vpn_at(rnd, j, intra)
                            for j in range(desc.num_sharers))
                if desc.contains(v)]
    first = (vpn - fields.intra_gpu_coal_order
             - desc.interlv_gran * fields.inter_gpu_coal_order)
    return [v for j in range(desc.num_sharers)
            for i in range(fields.merged_groups)
            if desc.contains(v := first + desc.interlv_gran * j + i)]


def _ref_candidate_vpns(pec_buffer, pasid, vpn, max_merge):
    desc = pec_buffer.lookup(pasid, vpn)
    if desc is None:
        return []
    rnd, _inter, intra = desc.position(vpn)
    intra_lo = max(0, intra - (max_merge - 1))
    intra_hi = min(desc.interlv_gran - 1, intra + (max_merge - 1))
    candidates = []
    for j in range(desc.num_sharers):
        for i in range(intra_lo, intra_hi + 1):
            candidate = desc.vpn_at(rnd, j, i)
            if desc.contains(candidate):
                candidates.append(candidate)
    return candidates


def _ref_group_key(pec_buffer, pasid, vpn):
    desc = pec_buffer.lookup(pasid, vpn)
    if desc is None:
        return None
    rnd, _inter, intra = desc.position(vpn)
    return (desc.pasid, desc.data_id, rnd, intra)


_BASES16 = tuple(0x10000 * (i + 1) for i in range(16))

descriptors = st.builds(
    lambda start, pages, gran, gpu_map: DataDescriptor(
        data_id=7, pasid=0, start_vpn=start, end_vpn=start + pages - 1,
        interlv_gran=gran, gpu_map=tuple(gpu_map)),
    start=st.integers(min_value=0, max_value=300),
    pages=st.integers(min_value=1, max_value=90),
    gran=st.integers(min_value=1, max_value=9),
    gpu_map=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                     max_size=16, unique=True),
)

standard_fields = st.builds(
    PteFields, present=st.just(True),
    global_pfn=st.integers(min_value=0x100000, max_value=0x200000),
    coal_bitmap=st.integers(min_value=0, max_value=0xFF),
    inter_gpu_coal_order=st.integers(min_value=0, max_value=7))

merged_fields = st.builds(
    PteFields, present=st.just(True),
    global_pfn=st.integers(min_value=0x100000, max_value=0x200000),
    coal_bitmap=st.integers(min_value=0, max_value=0xF),
    inter_gpu_coal_order=st.integers(min_value=0, max_value=3),
    intra_gpu_coal_order=st.integers(min_value=0, max_value=3),
    merged_groups=st.integers(min_value=1, max_value=4),
    extended=st.just(True))

any_fields = st.one_of(standard_fields, merged_fields)


@settings(max_examples=300, deadline=None)
@given(desc=descriptors, fields=any_fields, compact=st.booleans(),
       pte_pick=st.integers(min_value=0, max_value=10_000))
def test_property_screen_group_is_a_superset_of_answers(desc, fields, compact,
                                                        pte_pick):
    """No VPN outside ``merged_group_vpns ∪ {pte_vpn}`` is ever answered
    (and the group itself matches its ``position()``-based reference).

    This is what lets the IOMMU's PW-queue scan skip the PFN calculator for
    non-members and count them as rejections in bulk.
    """
    pte_vpn = desc.start_vpn + pte_pick % desc.num_pages
    members = merged_group_vpns(desc, pte_vpn, fields)
    assert members == _ref_merged_group_vpns(desc, pte_vpn, fields)
    group = set(members) | {pte_vpn}
    for pending in range(desc.start_vpn - 12, desc.end_vpn + 13):
        if pending in group:
            continue
        assert calculate_pending_pfn(desc, pte_vpn, fields, pending,
                                     _BASES16, compact=compact) is None


@settings(max_examples=300, deadline=None)
@given(desc=descriptors, fields=any_fields, compact=st.booleans(),
       pte_off=st.integers(min_value=-6, max_value=100),
       pending_offs=st.lists(st.integers(min_value=-12, max_value=110),
                             min_size=1, max_size=12),
       short_bases=st.booleans())
def test_property_inline_pfn_matches_reference(desc, fields, compact, pte_off,
                                               pending_offs, short_bases):
    """Same PFN, same None and same exception as the position()-based code,
    for members, non-members and VPNs outside the data alike."""
    bases = _BASES16[:4] if short_bases else _BASES16
    pte_vpn = desc.start_vpn + pte_off
    for off in pending_offs:
        pending = desc.start_vpn + off
        assert _outcome(calculate_pending_pfn, desc, pte_vpn, fields, pending,
                        bases, compact=compact) == \
            _outcome(_ref_calculate_pending_pfn, desc, pte_vpn, fields,
                     pending, bases, compact=compact)


@settings(max_examples=300, deadline=None)
@given(desc=descriptors, offs=st.lists(st.integers(min_value=-8,
                                                     max_value=100),
                                       min_size=1, max_size=12),
       max_merge=st.integers(min_value=0, max_value=5))
def test_property_inline_candidates_and_group_key_match_reference(
        desc, offs, max_merge):
    buf = PecBuffer()
    buf.insert(desc)
    pec = PecLogic(buf, _BASES16)
    for off in offs:
        vpn = desc.start_vpn + off
        assert pec.candidate_vpns(0, vpn, max_merge) == \
            _ref_candidate_vpns(buf, 0, vpn, max_merge)
        assert buf.group_key(0, vpn) == _ref_group_key(buf, 0, vpn)
        assert buf.group_key(1, vpn) is None  # other PASID
    assert pec.candidate_vpns(0, desc.start_vpn, max_merge) == \
        _ref_candidate_vpns(buf, 0, desc.start_vpn, max_merge)


@settings(max_examples=200, deadline=None)
@given(desc=descriptors)
def test_property_descriptor_identity_is_its_six_fields(desc):
    """``round_pages`` is derived once and stays out of repr, eq and hash."""
    values = (desc.data_id, desc.pasid, desc.start_vpn, desc.end_vpn,
              desc.interlv_gran, desc.gpu_map)
    assert desc.round_pages == desc.interlv_gran * len(desc.gpu_map)
    assert repr(desc) == (
        f"DataDescriptor(data_id={desc.data_id}, pasid={desc.pasid}, "
        f"start_vpn={desc.start_vpn}, end_vpn={desc.end_vpn}, "
        f"interlv_gran={desc.interlv_gran}, gpu_map={desc.gpu_map!r})")
    assert hash(desc) == hash(values)
    twin = DataDescriptor(*values)
    assert twin == desc and hash(twin) == hash(desc)
    wider = dataclasses.replace(desc, interlv_gran=desc.interlv_gran + 1)
    assert wider != desc
    assert wider.round_pages == (desc.interlv_gran + 1) * len(desc.gpu_map)


def test_round_pages_is_derived_and_frozen():
    d = data1()
    assert d.round_pages == 12
    assert repr(d) == ("DataDescriptor(data_id=1, pasid=0, start_vpn=1, "
                       "end_vpn=12, interlv_gran=3, gpu_map=(0, 1, 2, 3))")
    with pytest.raises(TypeError):
        DataDescriptor(data_id=1, pasid=0, start_vpn=1, end_vpn=12,
                       interlv_gran=3, gpu_map=(0, 1), round_pages=6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.round_pages = 5
