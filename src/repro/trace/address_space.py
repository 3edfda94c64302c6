"""Address-space layout and virtual-to-physical page mapping.

The tracer places every logical object the engine touches — code,
buffer frames, metadata arrays, private PGAs, the log buffer, kernel
structures — into one flat virtual address space, then scatters
virtual pages across "physical" memory with a deterministic hash.

That scatter is load-bearing: commercial workloads see effectively
random page colouring, so hot lines collide in cache sets
statistically.  This is exactly the conflict-miss population the paper
shows a large *direct-mapped* off-chip cache struggling with and a
small *associative* on-chip cache absorbing (Sections 3 and 8); we get
the effect from the same mechanism rather than by construction.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet

import numpy as np

from repro.cpu.events import FLAG_BITS, FLAG_MASK
from repro.oltp.config import WorkloadConfig
from repro.oltp.locks import NUM_LATCH_SLOTS
from repro.oltp.schema import BLOCK_SIZE
from repro.params import LINE_SHIFT, LINE_SIZE, PAGE_SIZE

#: SGA metadata element strides in bytes.
HASH_BUCKET_BYTES = 16
BUF_HEADER_BYTES = 128
LOCK_SLOT_BYTES = 64
LATCH_BYTES = 64
TXNSLOT_BYTES = 64
NUM_TXNSLOTS = 16

#: Kernel structure strides.
PROC_STRUCT_BYTES = 256
PIPE_BUFFER_BYTES = 512
RUNQUEUE_BYTES = 256
KGLOBAL_BYTES = 1024


def _mix(x: int) -> int:
    """SplitMix64 finalizer: a high-quality deterministic page hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _mix_array(x: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a uint64 array (multiplications wrap mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class Region:
    """A named, page-aligned range of the virtual address space."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"Region({self.name!r}, base={self.base:#x}, size={self.size})"


class MemoryModel:
    """Places engine objects in memory and hashes pages to frames.

    The ``*_addr`` helpers return virtual byte addresses.
    ``page_table[vpage]`` is the first physical line of the frame
    backing each virtual page, so :meth:`line_of` and :meth:`translate`
    give *physical line numbers* ready for the cache simulator.
    ``page_bytes`` (scaled with the workload) is also the granularity
    of home-node assignment, and ``text_pages`` is the physical-page
    set used for OS instruction replication.
    """

    #: Servers per CPU that share a PGA page colour (see
    #: :meth:`_colour_pga_pages`).  With the paper's 8 servers per
    #: processor this gives an aliasing depth of ~3 per group.
    NUM_ALIAS_GROUPS = 3

    def __init__(self, config: WorkloadConfig, seed: int = 0):
        self.config = config
        page = PAGE_SIZE // config.scale
        # Page must hold a power-of-two number of lines, at least 4.
        page_lines = max(4, page // LINE_SIZE)
        page_lines = 1 << (page_lines.bit_length() - 1)
        self.page_bytes = page_lines * LINE_SIZE
        self._page_lines = page_lines
        self._page_shift = page_lines.bit_length() - 1
        self._salt = _mix(seed + 0x5EED)

        num_procs = config.num_servers + 2  # servers + LGWR + DBWR
        buckets = max(16, config.buffer_frames // 4)
        self.num_hash_buckets = buckets

        cursor = self.page_bytes  # keep page 0 unused
        self.regions: Dict[str, Region] = {}

        def alloc(name: str, size: int) -> Region:
            nonlocal cursor
            size = max(size, LINE_SIZE)
            # Page-align every region and leave a guard page between
            # regions so unrelated structures never share a page.
            aligned = -(-size // self.page_bytes) * self.page_bytes
            region = Region(name, cursor, size)
            self.regions[name] = region
            cursor += aligned + self.page_bytes
            return region

        alloc("text_hot", config.text_hot_bytes)
        alloc("text_cold", config.text_cold_bytes)
        alloc("ktext_hot", config.ktext_hot_bytes)
        alloc("ktext_cold", config.ktext_cold_bytes)
        alloc("sga_buffer", config.buffer_frames * BLOCK_SIZE)
        alloc("sga_hash", buckets * HASH_BUCKET_BYTES)
        alloc("sga_headers", config.buffer_frames * BUF_HEADER_BYTES)
        alloc("sga_locks", config.lock_slots * LOCK_SLOT_BYTES)
        alloc("sga_latch", NUM_LATCH_SLOTS * LATCH_BYTES)
        alloc("sga_txnslot", NUM_TXNSLOTS * TXNSLOT_BYTES)
        alloc("log", config.log_buffer_bytes)
        pga_bytes = config.pga_hot_bytes + config.pga_cold_bytes
        pga_regions = [alloc(f"pga{i}", pga_bytes) for i in range(num_procs)]
        alloc("kproc", num_procs * PROC_STRUCT_BYTES)
        alloc("kpipe", config.num_servers * PIPE_BUFFER_BYTES)
        alloc("krunq", config.ncpus * RUNQUEUE_BYTES)
        alloc("kglobal", KGLOBAL_BYTES)
        alloc("kcold", max(4096, 64 * 1024 // config.scale))
        self.virtual_size = cursor

        # 40-bit physical page numbers: vastly larger than any cache,
        # so hash collisions between distinct pages are negligible.
        vpages = np.arange(cursor // self.page_bytes, dtype=np.uint64)
        ppages = _mix_array(vpages ^ np.uint64(self._salt)) & np.uint64(0xFFFFFFFFFF)
        self.page_table = ppages.astype(np.int64) * page_lines
        self._colour_pga_pages(pga_regions)
        self.text_pages: FrozenSet[int] = self._collect_text_pages()

    def _colour_pga_pages(self, pga_regions) -> None:
        """Give server PGAs correlated physical page colours.

        Every dedicated server runs the same binary with the same PGA
        layout, and the OS's page allocator hands out physically
        correlated pages — so in real OLTP systems the servers' private
        hot pages systematically alias in the cache index.  This is the
        population of conflict misses that a direct-mapped cache of
        *any* size keeps paying for and that modest associativity
        wipes out (paper Sections 3 and 8).

        We model it by mapping the PGAs of servers in the same *alias
        group* to identical set-index bits (identical low physical-page
        bits), with only high bits distinguishing them.  Groups are
        formed per node — ``NUM_ALIAS_GROUPS`` servers per CPU collide
        — so the aliasing depth per cache is scale-independent.
        """
        ncpus = self.config.ncpus
        for pga_id, region in enumerate(pga_regions):
            group = (pga_id // ncpus) % self.NUM_ALIAS_GROUPS
            vpage0, vpage1 = self.page_span(region)
            j = np.arange(vpage1 - vpage0, dtype=np.uint64)
            # Low bits (set index): a *random* colour shared by the
            # whole group, so group members alias exactly while the
            # group's pages spread evenly over the index space.
            # High bits: unique per PGA, invisible to the index.
            key = np.uint64((group << 20) ^ self._salt)
            colour = _mix_array(key ^ (j * np.uint64(0x9E37))) & np.uint64(0xFFFFF)
            ppage = colour.astype(np.int64) | ((1 << 42) | (pga_id << 24))
            self.page_table[vpage0:vpage1] = ppage * self._page_lines

    def page_span(self, region: Region) -> tuple:
        """[first, last + 1) virtual pages of ``region``."""
        return (region.base // self.page_bytes,
                (region.end - 1) // self.page_bytes + 1)

    # -- virtual to physical ----------------------------------------------------

    def line_of(self, byte_addr: int) -> int:
        """Physical line number backing a virtual byte address."""
        if not 0 <= byte_addr < self.virtual_size:
            raise IndexError(f"address {byte_addr:#x} outside the address space")
        vpage, off = divmod(byte_addr, self.page_bytes)
        return int(self.page_table[vpage]) + (off >> LINE_SHIFT)

    def translate(self, refs) -> array:
        """Packed virtual-line refs -> packed physical-line refs.

        ``refs`` holds ``(virtual line << FLAG_BITS) | flags`` integers,
        as the trace builder records them; the result keeps each ref's
        flags and replaces its line through :attr:`page_table`.
        """
        v = np.array(refs, dtype=np.int64)
        vline = v >> FLAG_BITS
        line = self.page_table[vline >> self._page_shift] + (vline & (self._page_lines - 1))
        return array("q", ((line << FLAG_BITS) | (v & FLAG_MASK)).tobytes())

    def _collect_text_pages(self) -> FrozenSet[int]:
        pages = set()
        for name in ("text_hot", "text_cold", "ktext_hot", "ktext_cold"):
            vpage0, vpage1 = self.page_span(self.regions[name])
            pages.update((self.page_table[vpage0:vpage1] // self._page_lines).tolist())
        return frozenset(pages)

    @property
    def page_lines(self) -> int:
        return self._page_lines

    def is_text_page(self, ppage: int) -> bool:
        return ppage in self.text_pages

    # -- object placement helpers -------------------------------------------------

    def frame_addr(self, frame_id: int, offset: int = 0) -> int:
        if not 0 <= frame_id < self.config.buffer_frames:
            raise IndexError(f"frame {frame_id} out of range")
        return self.regions["sga_buffer"].base + frame_id * BLOCK_SIZE + offset

    def meta_addr(self, struct: str, index: int) -> int:
        if struct == "buf_hash":
            return self.regions["sga_hash"].base + index * HASH_BUCKET_BYTES
        if struct == "buf_header":
            return self.regions["sga_headers"].base + index * BUF_HEADER_BYTES
        if struct == "lock":
            return self.regions["sga_locks"].base + index * LOCK_SLOT_BYTES
        if struct == "latch":
            return self.regions["sga_latch"].base + index * LATCH_BYTES
        if struct == "txnslot":
            return self.regions["sga_txnslot"].base + (index % NUM_TXNSLOTS) * TXNSLOT_BYTES
        raise KeyError(f"unknown metadata structure {struct!r}")

    def pga_addr(self, pga_id: int, offset: int) -> int:
        region = self.regions[f"pga{pga_id}"]
        if offset >= region.size:
            offset %= region.size
        return region.base + offset

    def log_addr(self, offset: int) -> int:
        return self.regions["log"].base + (offset % self.config.log_buffer_bytes)

    def kproc_addr(self, pid: int) -> int:
        return self.regions["kproc"].base + pid * PROC_STRUCT_BYTES

    def kpipe_addr(self, pipe_id: int, offset: int = 0) -> int:
        return self.regions["kpipe"].base + pipe_id * PIPE_BUFFER_BYTES + offset

    def krunq_addr(self, cpu: int) -> int:
        return self.regions["krunq"].base + cpu * RUNQUEUE_BYTES

    def kglobal_addr(self, slot: int) -> int:
        return self.regions["kglobal"].base + (slot * LINE_SIZE) % KGLOBAL_BYTES
