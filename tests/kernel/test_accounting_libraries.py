"""Tests for per-process resource accounting (§5.2.1) and shared-library
virtual copies (§6.1.3)."""

import pytest

from repro import units
from repro.core.api import DipcManager
from repro.errors import LoaderError
from repro.kernel import Kernel

from tests.core.conftest import wire_up_call


@pytest.fixture
def kernel():
    k = Kernel(num_cpus=2)
    DipcManager(k)
    return k


class TestCpuAccounting:
    def test_plain_thread_bills_its_own_process(self, kernel):
        proc = kernel.spawn_process("p")

        def body(t):
            yield from t.compute(1000)

        kernel.spawn(proc, body)
        kernel.run()
        assert proc.cpu_ns == pytest.approx(1000)

    def test_dipc_call_bills_the_callee(self, kernel):
        """Time-slice donation: a web thread executing inside the
        database bills the database's CPU account."""
        manager = kernel.dipc
        web = kernel.spawn_process("web", dipc=True)
        database = kernel.spawn_process("database", dipc=True)

        def heavy_query(t, key):
            yield from t.compute(50_000)
            return key

        address, _ = wire_up_call(manager, web, database,
                                  func=heavy_query)

        def body(t):
            yield from t.compute(10_000)
            yield from t.kernel.dipc.call(t, address, "k")
            yield from t.compute(5_000)

        kernel.spawn(web, body, pin=0)
        kernel.run()
        kernel.check()
        assert database.cpu_ns >= 50_000
        assert web.cpu_ns >= 15_000
        assert web.cpu_ns < 30_000  # the 50us query was not billed to web

    def test_memory_accounting(self, kernel):
        proc = kernel.spawn_process("p")
        proc.alloc_pages(3)
        proc.alloc_bytes(5000)
        assert proc.pages_allocated == 5


class TestSharedLibraries:
    def test_register_and_map(self, kernel):
        kernel.libraries.register("libphp", code_pages=4, rodata_pages=2,
                                  data_pages=1)
        proc = kernel.spawn_process("p", dipc=True)
        mapped = kernel.libraries.map_into(proc, "libphp")
        assert mapped.total_pages == 7
        assert proc.pages_allocated == 7

    def test_double_register_rejected(self, kernel):
        kernel.libraries.register("libm")
        with pytest.raises(LoaderError):
            kernel.libraries.register("libm")

    def test_map_unknown_rejected(self, kernel):
        proc = kernel.spawn_process("p", dipc=True)
        with pytest.raises(LoaderError):
            kernel.libraries.map_into(proc, "libghost")

    def test_virtual_copies_share_code_frames(self, kernel):
        """§6.1.3: code and read-only data of all virtual copies point
        to the same physical memory."""
        image = kernel.libraries.register("libc", code_pages=2,
                                          rodata_pages=1, data_pages=1)
        a = kernel.spawn_process("a", dipc=True)
        b = kernel.spawn_process("b", dipc=True)
        map_a = kernel.libraries.map_into(a, "libc")
        map_b = kernel.libraries.map_into(b, "libc")
        assert map_a.base != map_b.base  # distinct virtual copies
        frame_a = kernel.shared_table.lookup(
            map_a.base // units.PAGE_SIZE).frame
        frame_b = kernel.shared_table.lookup(
            map_b.base // units.PAGE_SIZE).frame
        assert frame_a is frame_b is image.code_frames[0]
        assert frame_a.refcount == 3  # canonical + two copies

    def test_writable_data_is_private(self, kernel):
        kernel.libraries.register("libdata", code_pages=1,
                                  rodata_pages=0, data_pages=1)
        a = kernel.spawn_process("a", dipc=True)
        b = kernel.spawn_process("b", dipc=True)
        map_a = kernel.libraries.map_into(a, "libdata")
        map_b = kernel.libraries.map_into(b, "libdata")
        data_a = map_a.base + units.PAGE_SIZE  # after the code page
        data_b = map_b.base + units.PAGE_SIZE
        a.space.write(data_a, b"AAAA")
        b.space.write(data_b, b"BBBB")
        assert a.space.read(data_a, 4) == b"AAAA"
        assert b.space.read(data_b, 4) == b"BBBB"

    def test_code_pages_are_read_only_executable_and_tagged(self, kernel):
        kernel.libraries.register("libx", code_bytes=b"\x90" * 100)
        proc = kernel.spawn_process("p", dipc=True)
        mapped = kernel.libraries.map_into(proc, "libx")
        pte = kernel.shared_table.lookup(mapped.base // units.PAGE_SIZE)
        assert pte.execute and pte.read and not pte.write
        assert pte.tag == proc.default_tag
        assert bytes(pte.frame.data[:4]) == b"\x90" * 4


class TestGvasPools:
    def test_pools_reduce_global_phase_traffic(self):
        from repro.mem.gvas import GlobalVAS
        pooled = GlobalVAS(per_cpu_pools=4)
        for pid in range(1, 9):
            pooled.alloc_block(pid, cpu=pid % 4)
        # same allocations without pools
        unpooled = GlobalVAS()
        for pid in range(1, 9):
            unpooled.alloc_block(pid)
        # both did 8 carves here (pool of depth 1 refills each time), but
        # pooled ownership bookkeeping still works
        assert len(pooled.blocks_of(3)) == 1
        assert pooled.blocks_of(3)[0].owner_pid == 3

    def test_pooled_blocks_are_reset_before_reuse(self):
        from repro.mem.gvas import GlobalVAS
        gvas = GlobalVAS(per_cpu_pools=2)
        block = gvas.alloc_block(1, cpu=0)
        addr = block.suballoc(4096)
        assert block.contains(addr)
        assert block.cursor > block.base
