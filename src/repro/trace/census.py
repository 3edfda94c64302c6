"""Workload census: attribute trace references and misses to regions.

When calibrating a synthetic workload (or extending this one), the
question is always *which structure* is generating the traffic: is the
direct-mapped cache thrashing on code, private PGAs, or the log?  The
census answers it by rebuilding the trace's address-space model
(placement is deterministic given the workload config and seed) and
classifying every physical line back to its region.

Three levels of analysis:

* :func:`census` — reference-stream composition per region (touches,
  distinct lines, read/write/instruction mix);
* :func:`attribute_misses` — replay the measured window through a
  stand-alone L2 model per node and attribute the misses per region.
  This deliberately ignores L1s and coherence (they do not change
  *which lines* miss much), making it fast and machine-independent
  enough for workload tuning.
* :func:`sharing_census` — the replay pipeline's pre-pass: classify
  every line as provably private to one coherence node or potentially
  shared.  A private line is touched by exactly one node over the
  *whole* trace (warmup included), so the directory can never send it
  an invalidation or downgrade; the batched multiprocessor engine
  (:mod:`repro.memsys.vectorized_mp`) replays such lines without
  consulting the directory at all.  Classification depends only
  on the *set* of (line, node) pairs, never on interleaving order, so
  it is stable under any re-interleaving of the trace's quanta — the
  property tests in ``tests/trace/test_census_properties.py`` enforce
  both facts.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.core.machine import MachineConfig
from repro.trace.address_space import MemoryModel
from repro.trace.generator import OltpTrace


def _region_of_line(model: MemoryModel) -> Dict[int, str]:
    """Physical-page -> region-name map, with PGAs collapsed to 'pga'."""
    page_map: Dict[int, str] = {}
    for name, region in model.regions.items():
        group = "pga" if name.startswith("pga") else name
        vpage0, vpage1 = model.page_span(region)
        ppages = model.page_table[vpage0:vpage1] // model.page_lines
        page_map.update(dict.fromkeys(ppages.tolist(), group))
    return page_map


def rebuild_model(trace: OltpTrace) -> MemoryModel:
    """Reconstruct the address-space model the trace was built with."""
    if trace.config is None:
        raise ValueError("trace carries no workload config (synthetic trace?)")
    return MemoryModel(trace.config, seed=trace.config.seed)


@dataclass
class RegionStats:
    """Per-region reference composition over the measured window."""

    touches: int = 0
    distinct_lines: int = 0
    writes: int = 0
    instr: int = 0
    kernel: int = 0

    @property
    def write_fraction(self) -> float:
        return self.writes / self.touches if self.touches else 0.0


@dataclass
class TraceCensus:
    """Reference-stream composition of a trace, per region."""

    per_region: Dict[str, RegionStats] = field(default_factory=dict)
    total_refs: int = 0
    measured_txns: int = 0

    def render(self) -> str:
        lines = [
            "Workload census (measured window)",
            f"{'region':14s} {'refs/txn':>9s} {'lines':>7s} {'write%':>7s} "
            f"{'instr%':>7s} {'kernel%':>8s}",
        ]
        txns = max(1, self.measured_txns)
        ordered = sorted(
            self.per_region.items(), key=lambda kv: kv[1].touches, reverse=True
        )
        for name, s in ordered:
            lines.append(
                f"{name:14s} {s.touches / txns:9.1f} {s.distinct_lines:7d} "
                f"{100 * s.writes / max(1, s.touches):6.1f}% "
                f"{100 * s.instr / max(1, s.touches):6.1f}% "
                f"{100 * s.kernel / max(1, s.touches):7.1f}%"
            )
        lines.append(f"total: {self.total_refs:,} measured references")
        return "\n".join(lines)


def census(trace: OltpTrace) -> TraceCensus:
    """Compute the per-region composition of the measured window."""
    model = rebuild_model(trace)
    page_map = _region_of_line(model)
    page_lines = model.page_lines
    stats: Dict[str, RegionStats] = defaultdict(RegionStats)
    seen: Dict[str, set] = defaultdict(set)
    total = 0
    for quantum in trace.quanta[trace.warmup_quanta:]:
        for ref in quantum.refs:
            flags = ref & 15
            line = ref >> 4
            region = page_map.get(line // page_lines, "?")
            s = stats[region]
            s.touches += 1
            total += 1
            if flags & 1:
                s.writes += 1
            if flags & 2:
                s.instr += 1
            if flags & 4:
                s.kernel += 1
            seen[region].add(line)
    for region, lines_set in seen.items():
        stats[region].distinct_lines = len(lines_set)
    return TraceCensus(dict(stats), total, trace.measured_txns)


@dataclass
class MissAttribution:
    """Per-region L2 miss counts for one cache geometry."""

    machine_label: str
    misses: Dict[str, int]
    total: int
    measured_txns: int

    def render(self) -> str:
        lines = [
            f"L2 miss attribution — {self.machine_label} "
            f"({self.total / max(1, self.measured_txns):.1f} misses/txn)",
            f"{'region':14s} {'misses':>8s} {'per txn':>9s} {'share':>7s}",
        ]
        for region, count in Counter(self.misses).most_common():
            lines.append(
                f"{region:14s} {count:8d} "
                f"{count / max(1, self.measured_txns):9.2f} "
                f"{100 * count / max(1, self.total):6.1f}%"
            )
        return "\n".join(lines)


def attribute_misses(trace: OltpTrace, machine: MachineConfig) -> MissAttribution:
    """Replay through a stand-alone L2 model and classify the misses.

    The model is one LRU set-associative cache per node at the
    machine's scaled L2 geometry — no L1 filtering and no coherence,
    so absolute counts differ slightly from a full simulation, but the
    per-region attribution (the tuning signal) matches.
    """
    if trace.ncpus != machine.ncpus:
        raise ValueError("machine/trace CPU count mismatch")
    model = rebuild_model(trace)
    page_map = _region_of_line(model)
    page_lines = model.page_lines
    nsets = machine.scaled_l2_size // (machine.l2_assoc * 64)
    assoc = machine.l2_assoc
    cores = machine.cores_per_node
    sets: List[Dict[int, list]] = [
        defaultdict(list) for _ in range(machine.num_nodes)
    ]
    misses: Counter = Counter()
    total = 0
    for qi, quantum in enumerate(trace.quanta):
        measured = qi >= trace.warmup_quanta
        node_sets = sets[quantum.cpu // cores]
        for ref in quantum.refs:
            line = ref >> 4
            ways = node_sets[line % nsets]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                continue
            if measured:
                misses[page_map.get(line // page_lines, "?")] += 1
                total += 1
            if len(ways) >= assoc:
                ways.pop()
            ways.insert(0, line)
    return MissAttribution(machine.label, dict(misses), total, trace.measured_txns)


@dataclass
class SharingCensus:
    """Flattened per-reference view of a trace plus sharing classes.

    Phase 1 of the staged replay pipeline.  Every array is aligned
    with the flattened reference stream (all quanta, warmup included,
    in trace order):

    * ``lines`` / ``flags`` — the unpacked reference stream;
    * ``nodes`` — issuing coherence node per reference;
    * ``q_offsets`` — length ``len(quanta) + 1``; quantum *q* owns the
      half-open slice ``[q_offsets[q], q_offsets[q + 1])``;
    * ``q_nodes`` — issuing node per quantum;
    * ``uniq`` / ``uniq_private`` — sorted distinct lines and their
      classification;
    * ``private`` — per-reference boolean, True iff the line is only
      ever touched by a single node.

    The classification is conservative-exact: it is independent of the
    home map (a private line is private under *any* home assignment),
    and a line flagged private provably never receives an
    invalidation, downgrade or intervention from the directory.  It
    costs a sort of the whole stream, so it is computed on first use:
    replays that ignore the private bit (RAC machines, out-of-order
    CPUs, one-node machines) never pay for it.

    ``derived`` is a scratch cache for engine-side projections of
    these arrays (python lists, effective flags, per-geometry set
    indices).  It rides on the census MRU cache so repeated replays of
    one trace — engine sweeps, benchmark rounds, campaign grids — pay
    the array-to-list conversions once; it never affects equality or
    classification.
    """

    lines: np.ndarray
    flags: np.ndarray
    nodes: np.ndarray
    q_offsets: np.ndarray
    q_nodes: np.ndarray
    cores_per_node: int
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def _classes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(uniq, uniq_private)`` from one stable sort by line."""
        lines = self.lines
        if not len(lines):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        order = np.argsort(lines, kind="stable")
        ls = lines[order]
        ns = self.nodes[order]
        starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
        nmin = np.minimum.reduceat(ns, starts)
        nmax = np.maximum.reduceat(ns, starts)
        return ls[starts], nmin == nmax

    @property
    def uniq(self) -> np.ndarray:
        return self._classes[0]

    @property
    def uniq_private(self) -> np.ndarray:
        return self._classes[1]

    @cached_property
    def private(self) -> np.ndarray:
        uniq, uniq_private = self._classes
        if not len(uniq):
            return np.empty(0, dtype=bool)
        return uniq_private[np.searchsorted(uniq, self.lines)]

    def is_private(self, line: int) -> bool:
        """Whether ``line`` is provably private to one node."""
        i = int(np.searchsorted(self.uniq, line))
        return (
            i < len(self.uniq)
            and int(self.uniq[i]) == line
            and bool(self.uniq_private[i])
        )

    def private_lines(self) -> np.ndarray:
        return self.uniq[self.uniq_private]

    def shared_lines(self) -> np.ndarray:
        return self.uniq[~self.uniq_private]


# Small MRU cache so repeated replays of one trace (engine sweeps,
# differential tests, per-machine experiment grids) share one census.
# Entries are keyed by identity plus a weakref liveness check, because
# traces are not hashable.
_CENSUS_CACHE: List[Tuple[int, int, object, "SharingCensus"]] = []
_CENSUS_CACHE_SIZE = 2


def sharing_census(trace: OltpTrace, cores_per_node: int = 1) -> SharingCensus:
    """Flatten ``trace`` and classify every line as node-private or
    shared (on first use of the classification).

    The scan covers *all* quanta — warmup included — because privacy
    must hold over the whole replay for the batched engine to skip the
    directory.  Classification is order-insensitive: it depends
    only on the set of (line, node) pairs, so any re-interleaving of
    the quanta yields the same result.
    """
    for i, (tid, cpn, ref, cached) in enumerate(_CENSUS_CACHE):
        if tid == id(trace) and cpn == cores_per_node and ref() is trace:
            if i:
                _CENSUS_CACHE.insert(0, _CENSUS_CACHE.pop(i))
            return cached

    parts = [
        np.frombuffer(q.refs, dtype=np.int64) for q in trace.quanta
    ]
    counts = np.array([len(p) for p in parts], dtype=np.int64)
    refs = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    lines = refs >> 4
    flags = refs & 15
    q_nodes = np.array(
        [q.cpu // cores_per_node for q in trace.quanta], dtype=np.int64
    )
    nodes = np.repeat(q_nodes, counts)
    q_offsets = np.concatenate(
        ([0], np.cumsum(counts))
    ).astype(np.int64)

    sc = SharingCensus(
        lines=lines,
        flags=flags,
        nodes=nodes,
        q_offsets=q_offsets,
        q_nodes=q_nodes,
        cores_per_node=cores_per_node,
    )
    _CENSUS_CACHE.insert(
        0, (id(trace), cores_per_node, weakref.ref(trace), sc)
    )
    del _CENSUS_CACHE[_CENSUS_CACHE_SIZE:]
    return sc
