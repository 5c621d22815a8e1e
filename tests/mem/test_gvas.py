"""Tests for the global virtual address space allocator (§6.1.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.errors import ResourceError
from repro.mem.gvas import BLOCK_SIZE, GVAS_BASE, GlobalVAS


def test_block_base_and_ownership():
    gvas = GlobalVAS()
    block = gvas.alloc_block(pid=7)
    assert block.base == GVAS_BASE
    assert block.owner_pid == 7
    assert gvas.blocks_of(7) == [block]


def test_blocks_do_not_overlap():
    gvas = GlobalVAS()
    a = gvas.alloc_block(1)
    b = gvas.alloc_block(2)
    assert a.end <= b.base


def test_suballoc_is_page_aligned_and_within_block():
    gvas = GlobalVAS()
    addr = gvas.suballoc(pid=1, size=100)
    assert addr % units.PAGE_SIZE == 0
    block = gvas.blocks_of(1)[0]
    assert block.contains(addr)


def test_suballoc_reuses_block_until_full():
    gvas = GlobalVAS()
    gvas.suballoc(1, 4096)
    gvas.suballoc(1, 4096)
    assert len(gvas.blocks_of(1)) == 1
    assert gvas.global_allocs == 1


def test_suballoc_grabs_new_block_when_needed():
    gvas = GlobalVAS(block_size=3 * units.PAGE_SIZE)
    gvas.suballoc(1, 2 * units.PAGE_SIZE)
    gvas.suballoc(1, 2 * units.PAGE_SIZE)
    assert len(gvas.blocks_of(1)) == 2


def test_oversized_allocation_rejected():
    gvas = GlobalVAS()
    with pytest.raises(ResourceError):
        gvas.suballoc(1, BLOCK_SIZE + 1)


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        GlobalVAS().suballoc(1, 0)


def test_exhaustion():
    gvas = GlobalVAS(total_blocks=1)
    gvas.alloc_block(1)
    with pytest.raises(ResourceError):
        gvas.alloc_block(2)


def test_owner_lookup_simplistic_and_fast_agree():
    gvas = GlobalVAS()
    gvas.alloc_block(10)
    gvas.alloc_block(20)
    addr = gvas.blocks_of(20)[0].base + 12345
    assert gvas.owner_of(addr, simplistic=True) == 20
    assert gvas.owner_of(addr, simplistic=False) == 20

    # §7.4's many-process case: the simplistic lookup iterates all 1024
    # processes, the direct one indexes the block; both must agree
    gvas = GlobalVAS(total_blocks=4096)
    for pid in range(1, 1025):
        gvas.alloc_block(pid)
    assert gvas.owner_of(gvas.blocks[-1].base + 5, simplistic=True) == 1024
    for block in gvas.blocks[::97]:
        addr = block.base + 123
        assert gvas.owner_of(addr, simplistic=True) == \
            gvas.owner_of(addr, simplistic=False)


def test_owner_lookup_miss():
    gvas = GlobalVAS()
    gvas.alloc_block(1)
    assert gvas.owner_of(GVAS_BASE - 1) is None
    assert gvas.owner_of(GVAS_BASE - 1, simplistic=False) is None


def test_release_pid_frees_blocks():
    gvas = GlobalVAS()
    gvas.alloc_block(1)
    gvas.alloc_block(1)
    gvas.alloc_block(2)
    assert gvas.release_pid(1) == 2
    assert gvas.blocks_of(1) == []
    assert len(gvas.blocks) == 1


@given(st.lists(st.integers(min_value=1, max_value=64 * units.KB),
                min_size=1, max_size=40))
def test_property_suballocations_never_overlap(sizes):
    gvas = GlobalVAS(block_size=16 * units.MB)
    spans = []
    for size in sizes:
        addr = gvas.suballoc(1, size)
        spans.append((addr, addr + size))
    spans.sort()
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert prev_end <= next_start
