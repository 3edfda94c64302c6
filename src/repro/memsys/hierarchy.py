"""Per-node cache hierarchy: split L1s over a shared, inclusive L2.

A *node* is one coherence endpoint: the unit the directory tracks.
In the paper's baseline every node has one core; the chip-multiprocessor
extension (Section 8 names CMP as the next step) puts several cores —
each with private L1s — over one shared L2.  An optional victim buffer
(the 21364's "L2 Victim Buffers", Figure 1) catches L2 evictions.

The hierarchy enforces inclusion (an L2 eviction or external
invalidation removes the line from every core's L1s), keeps dirty
status at the L2 (write-back L1s propagate only the status bit), and
for multi-core nodes write-invalidates the other cores' L1 copies.

All methods speak line numbers, not byte addresses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.memsys.cache import SetAssocCache
from repro.memsys.victim import VictimBuffer
from repro.params import L1_ASSOC, L1_SIZE, LINE_SIZE


class HierarchyLevel(enum.Enum):
    """Where in the local hierarchy an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    VICTIM = "victim"
    MISS = "miss"


@dataclass
class HierarchyResult:
    """Result of a local cache-hierarchy access.

    ``level`` says where the access hit.  On an L2 miss (or a victim-
    buffer overflow), ``victim``/``victim_dirty`` describe the line
    that left the node entirely, so the coherence layer can update the
    directory and write data back to the home node.
    """

    level: HierarchyLevel
    victim: Optional[int] = None
    victim_dirty: bool = False


class NodeCaches:
    """The caches of one coherence node (1+ cores over a shared L2).

    Parameters
    ----------
    l2_size, l2_assoc:
        Geometry of the (possibly scaled) second-level cache.
    l1_size, l1_assoc:
        Geometry of each core's L1 caches; defaults follow Figure 2.
    num_cores:
        Cores sharing this node's L2 (1 = the paper's baseline).
    victim_entries:
        Size of the L2 victim buffer; 0 disables it.
    node_id:
        Diagnostic label only.
    """

    __slots__ = ("node_id", "num_cores", "l1is", "l1ds", "l2", "victim")

    def __init__(
        self,
        l2_size: int,
        l2_assoc: int,
        *,
        l1_size: int = L1_SIZE,
        l1_assoc: int = L1_ASSOC,
        line_size: int = LINE_SIZE,
        num_cores: int = 1,
        victim_entries: int = 0,
        node_id: int = 0,
    ):
        if num_cores <= 0:
            raise ValueError("a node needs at least one core")
        self.node_id = node_id
        self.num_cores = num_cores
        self.l1is = [
            SetAssocCache(l1_size, l1_assoc, line_size, name=f"n{node_id}c{c}.l1i")
            for c in range(num_cores)
        ]
        self.l1ds = [
            SetAssocCache(l1_size, l1_assoc, line_size, name=f"n{node_id}c{c}.l1d")
            for c in range(num_cores)
        ]
        self.l2 = SetAssocCache(l2_size, l2_assoc, line_size, name=f"n{node_id}.l2")
        self.victim = VictimBuffer(victim_entries) if victim_entries else None

    # -- compatibility accessors (single-core common case) -------------------

    @property
    def l1i(self) -> SetAssocCache:
        return self.l1is[0]

    @property
    def l1d(self) -> SetAssocCache:
        return self.l1ds[0]

    # -- internal helpers ------------------------------------------------------

    def _purge_l1s(self, line: int, except_core: int = -1) -> bool:
        """Drop ``line`` from every core's L1s; True if any copy existed
        in a data cache (instruction copies are always clean)."""
        found = False
        for core in range(self.num_cores):
            if core == except_core:
                continue
            self.l1is[core].invalidate(line)
            if self.l1ds[core].invalidate(line):
                found = True
        return found

    # -- the access path ----------------------------------------------------------

    def access(self, line: int, write: bool, is_instr: bool,
               core: int = 0) -> HierarchyResult:
        """Perform a demand access from ``core``.

        On an L2 miss the line is filled into both the L2 and the
        core's L1; inclusion is maintained by purging L1 copies of any
        L2 victim.  A write invalidates the *other* cores' L1 copies
        (intra-node write-invalidate coherence).
        """
        l1 = self.l1is[core] if is_instr else self.l1ds[core]
        if l1.probe(line, write):
            if write:
                # Keep the L2's dirty bit in sync so evictions write
                # back; an L1 hit does not generate an L2 access, so
                # the L2's LRU order is left untouched.
                self.l2.mark_dirty(line)
                if self.num_cores > 1:
                    self._purge_l1s(line, except_core=core)
            return HierarchyResult(HierarchyLevel.L1)

        # The L1 fills *last*, after any L2-victim inclusion purge: the
        # fill data only arrives once the miss is serviced, so the
        # purge must not find (and the fill must not race) a
        # just-installed line.  Filling first would evict an extra L1
        # line whenever the L2 victim sits in the same full L1 set as
        # the incoming line — a state the scalar replay loop never
        # enters.
        r2 = self.l2.access(line, write)
        if write and self.num_cores > 1:
            self._purge_l1s(line, except_core=core)
        if r2.hit:
            l1.fill(line, dirty=bool(write))
            return HierarchyResult(HierarchyLevel.L2)

        # L2 miss: handle the eviction, then try the victim buffer.
        result = None
        if r2.victim is not None:
            if self._purge_l1s(r2.victim):
                r2.victim_dirty = True
            if self.victim is None:
                result = HierarchyResult(HierarchyLevel.MISS, r2.victim, r2.victim_dirty)
            else:
                displaced = self.victim.insert(r2.victim, r2.victim_dirty)
                if displaced is not None:
                    result = HierarchyResult(HierarchyLevel.MISS, *displaced)

        if self.victim is not None:
            was_dirty = self.victim.extract(line)
            if was_dirty is not None:
                # Swap-back: the line never left the node (the earlier
                # l2.access already reinstalled it).
                if was_dirty:
                    self.l2.mark_dirty(line)
                l1.fill(line, dirty=bool(write))
                if result is not None:
                    # Rare: the swap-back displaced another buffer entry.
                    return HierarchyResult(
                        HierarchyLevel.VICTIM, result.victim, result.victim_dirty
                    )
                return HierarchyResult(HierarchyLevel.VICTIM)

        l1.fill(line, dirty=bool(write))
        return result if result is not None else HierarchyResult(HierarchyLevel.MISS)

    # -- external (coherence) operations --------------------------------------------

    def invalidate(self, line: int) -> bool:
        """Externally invalidate ``line`` everywhere; True if dirty data lost."""
        dirty = self.l2.invalidate(line)
        if self._purge_l1s(line):
            dirty = True
        if self.victim is not None and self.victim.invalidate(line):
            dirty = True
        return dirty

    def downgrade(self, line: int) -> bool:
        """Demote ``line`` to shared/clean (3-hop read intervention).

        Returns True when the line was dirty (data must be forwarded).
        """
        dirty = self.l2.clean(line)
        for l1d in self.l1ds:
            if l1d.clean(line):
                dirty = True
        if self.victim is not None and self.victim.clean(line):
            dirty = True
        return dirty

    def holds(self, line: int) -> bool:
        """True when the node has the line anywhere in its hierarchy."""
        if self.l2.contains(line):
            return True
        return self.victim is not None and self.victim.holds(line)

    def holds_dirty(self, line: int) -> bool:
        """True when the node holds a modified copy of the line."""
        if self.l2.is_dirty(line):
            return True
        return self.victim is not None and self.victim.is_dirty(line)

    def reset_stats(self) -> None:
        for cache in self.l1is + self.l1ds:
            cache.reset_stats()
        self.l2.reset_stats()
        if self.victim is not None:
            self.victim.hits = 0
            self.victim.probes = 0
            self.victim.inserts = 0
