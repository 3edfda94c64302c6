"""Machine configurations for every design point the paper studies.

A :class:`MachineConfig` captures one bar of one figure: processor
count, integration level, L2 geometry and technology, optional remote
access cache, optional OS code replication, and the CPU model.  Sizes
are given in *logical* (paper) bytes; the simulator scales them down
by the workload's scale factor (DESIGN.md Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.integrity.errors import ConfigError
from repro.params import (
    BASE_L2_ASSOC,
    BASE_L2_SIZE,
    KB,
    L1_ASSOC,
    L1_SIZE,
    LINE_SIZE,
    MB,
    IntegrationLevel,
    L2Technology,
    LatencyTable,
    latencies,
)
from repro.scenario.topology import UNIFORM, TopologySpec


def _valid_capacity(size: int, assoc: int) -> bool:
    """A cache capacity must divide evenly into ``assoc``-way sets and
    be a power of two or a multiple of 256 KB (the paper's fractional
    megabyte points, e.g. the 1.25 MB L2 of Figure 12)."""
    if size % (assoc * LINE_SIZE):
        return False
    return size & (size - 1) == 0 or size % (MB // 4) == 0


def _size_label(size: int) -> str:
    if size % MB == 0:
        return f"{size // MB}M"
    if size * 4 % MB == 0:
        return f"{size / MB:g}M"
    return f"{size // KB}K"


def cache_label(size: int, assoc: int) -> str:
    """Paper-style shorthand, e.g. ``2M8w`` for 2 MB 8-way."""
    return f"{_size_label(size)}{assoc}w"


@dataclass(frozen=True)
class MachineConfig:
    """One simulated machine design point."""

    label: str
    ncpus: int = 1
    integration: IntegrationLevel = IntegrationLevel.BASE
    l2_size: int = BASE_L2_SIZE
    l2_assoc: int = BASE_L2_ASSOC
    l2_technology: L2Technology = L2Technology.OFF_CHIP_SRAM
    cpu_model: str = "inorder"
    rac_size: Optional[int] = None
    rac_assoc: int = 8
    replicate_code: bool = False
    cores_per_node: int = 1
    victim_entries: int = 0
    #: Unified TLB entries per core; 0 models a perfect TLB (the
    #: paper's figures fold MMU behaviour into the base CPI).
    tlb_entries: int = 0
    scale: int = 32
    #: Inter-node latency structure; the uniform default reproduces
    #: the paper's flat ccNUMA bit-identically.  Also carries the
    #: base-table override hook (latency-sensitivity ablations).
    topology: TopologySpec = UNIFORM

    def __post_init__(self):
        if not self.label or not str(self.label).strip():
            raise ConfigError("label must be a non-empty string")
        if self.ncpus <= 0:
            raise ConfigError("ncpus must be positive")
        if self.l2_size <= 0 or self.l2_assoc <= 0:
            raise ConfigError("L2 geometry must be positive")
        if self.l2_size < self.l2_assoc * LINE_SIZE:
            raise ConfigError(
                f"L2 of {self.l2_size} B cannot hold {self.l2_assoc} ways "
                f"of {LINE_SIZE} B lines"
            )
        if not _valid_capacity(self.l2_size, self.l2_assoc):
            raise ConfigError(
                f"L2 size {self.l2_size} is not a power of two or a "
                f"multiple of 256 KB divisible into {self.l2_assoc}-way sets"
            )
        if self.cpu_model not in ("inorder", "ooo"):
            raise ConfigError(f"unknown cpu_model {self.cpu_model!r}")
        if self.integration.l2_on_chip and self.l2_technology is L2Technology.OFF_CHIP_SRAM:
            raise ConfigError("integrated L2 must use on-chip SRAM or DRAM")
        if not self.integration.l2_on_chip and self.l2_technology is not L2Technology.OFF_CHIP_SRAM:
            raise ConfigError("off-chip L2 must use off-chip SRAM")
        if self.cores_per_node <= 0:
            raise ConfigError("cores_per_node must be positive")
        if self.ncpus % self.cores_per_node:
            raise ConfigError(
                f"ncpus ({self.ncpus}) must be a multiple of "
                f"cores_per_node ({self.cores_per_node})"
            )
        if self.cores_per_node > 1 and not self.integration.l2_on_chip:
            raise ConfigError("chip multiprocessing requires an on-chip L2")
        if self.victim_entries < 0:
            raise ConfigError("victim_entries must be non-negative")
        if self.tlb_entries < 0:
            raise ConfigError("tlb_entries must be non-negative")
        if self.scale < 1:
            raise ConfigError("scale must be at least 1")
        if not isinstance(self.topology, TopologySpec):
            raise ConfigError(
                f"topology must be a TopologySpec, got "
                f"{type(self.topology).__name__}"
            )
        self.topology.validate_for(self.num_nodes)
        if self.rac_size is not None:
            if self.num_nodes == 1:
                raise ConfigError("a RAC only makes sense in a multiprocessor")
            if self.rac_assoc <= 0:
                raise ConfigError("rac_assoc must be positive")
            if self.rac_size < self.rac_assoc * LINE_SIZE:
                raise ConfigError(
                    f"RAC of {self.rac_size} B cannot hold {self.rac_assoc} "
                    f"ways of {LINE_SIZE} B lines"
                )
            if not _valid_capacity(self.rac_size, self.rac_assoc):
                raise ConfigError(
                    f"RAC size {self.rac_size} is not a power of two or a "
                    f"multiple of 256 KB divisible into "
                    f"{self.rac_assoc}-way sets"
                )

    @property
    def num_nodes(self) -> int:
        """Coherence nodes (chips); equals ncpus unless CMP is enabled."""
        return self.ncpus // self.cores_per_node

    @property
    def vectorizable(self) -> bool:
        """True when the machine itself permits the vectorized replay
        engine: a single coherence node with one core and none of the
        structures the numpy kernel does not model (victim buffer, TLB,
        RAC).  Run options (fault plans, per-quantum checking) can still
        veto it; :meth:`repro.core.system.System.select_engine` folds
        both in and is the dispatch's single source of truth.
        """
        return (
            self.num_nodes == 1
            and self.cores_per_node == 1
            and not self.victim_entries
            and not self.tlb_entries
            and self.rac_size is None
        )

    @property
    def mp_vectorizable(self) -> bool:
        """True when the machine permits the staged multiprocessor
        engine: several coherence nodes, one core each, and none of the
        structures the pipeline does not model (victim buffer, TLB).
        As with :attr:`vectorizable`, run options can still veto it in
        :meth:`repro.core.system.System.select_engine`.
        """
        return (
            self.num_nodes > 1
            and self.cores_per_node == 1
            and not self.victim_entries
            and not self.tlb_entries
        )

    # -- derived parameters -----------------------------------------------------

    @property
    def latencies(self) -> LatencyTable:
        """The base (intra-node) latency table: the topology's override
        when one is set, otherwise the Figure-3 lookup.  This is the
        single latency-resolution path — per-hop topology extras layer
        on top inside the interconnect model."""
        if self.topology.base_table is not None:
            return self.topology.base_table
        return latencies(
            self.integration,
            l2_assoc=self.l2_assoc,
            l2_technology=self.l2_technology,
        )

    def _scaled_cache(self, size: int, assoc: int) -> int:
        """Scale a capacity down, keeping it a valid multiple of ways."""
        unit = assoc * LINE_SIZE
        scaled = max(unit, size // self.scale)
        return (scaled // unit) * unit

    @property
    def scaled_l2_size(self) -> int:
        return self._scaled_cache(self.l2_size, self.l2_assoc)

    #: L1 capacities are floor-dominated at small scaled sizes (a 2 KB
    #: 2-way cache is 16 sets), which understates L1 effectiveness and
    #: overstates L2-hit traffic.  Scaling the L1 by scale/2 restores
    #: the paper's hot-footprint-to-L1 ratio; DESIGN.md Section 6.
    L1_SCALE_RELIEF = 2

    @property
    def scaled_l1_size(self) -> int:
        unit = L1_ASSOC * LINE_SIZE
        scaled = max(unit, L1_SIZE * self.L1_SCALE_RELIEF // self.scale)
        return (scaled // unit) * unit

    @property
    def scaled_rac_size(self) -> Optional[int]:
        if self.rac_size is None:
            return None
        return self._scaled_cache(self.rac_size, self.rac_assoc)

    def with_(self, **changes) -> "MachineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # -- serialization (campaign result cache; exact round trip) ----------------

    def to_dict(self) -> dict:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "ncpus": self.ncpus,
            "integration": self.integration.value,
            "l2_size": self.l2_size,
            "l2_assoc": self.l2_assoc,
            "l2_technology": self.l2_technology.value,
            "cpu_model": self.cpu_model,
            "rac_size": self.rac_size,
            "rac_assoc": self.rac_assoc,
            "replicate_code": self.replicate_code,
            "cores_per_node": self.cores_per_node,
            "victim_entries": self.victim_entries,
            "tlb_entries": self.tlb_entries,
            "scale": self.scale,
            "topology": self.topology.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Runs the full ``__post_init__`` validation, so a tampered or
        stale payload raises :class:`~repro.integrity.errors.ConfigError`
        rather than producing an unsimulatable machine.
        """
        topology = data.get("topology")
        return cls(
            label=data["label"],
            ncpus=data["ncpus"],
            integration=IntegrationLevel(data["integration"]),
            l2_size=data["l2_size"],
            l2_assoc=data["l2_assoc"],
            l2_technology=L2Technology(data["l2_technology"]),
            cpu_model=data["cpu_model"],
            rac_size=data["rac_size"],
            rac_assoc=data["rac_assoc"],
            replicate_code=data["replicate_code"],
            cores_per_node=data["cores_per_node"],
            victim_entries=data["victim_entries"],
            tlb_entries=data["tlb_entries"],
            scale=data["scale"],
            topology=(
                UNIFORM if topology is None
                else TopologySpec.from_dict(topology)
            ),
        )

    # -- factories for the paper's named configurations ----------------------------

    @classmethod
    def conservative_base(cls, ncpus: int = 1, *, l2_size: int = BASE_L2_SIZE,
                          l2_assoc: int = 4, scale: int = 32,
                          cpu_model: str = "inorder") -> "MachineConfig":
        """'Conservative Base': off-chip everything, unoptimized latencies."""
        return cls(
            label=f"Cons {cache_label(l2_size, l2_assoc)}",
            ncpus=ncpus,
            integration=IntegrationLevel.CONSERVATIVE_BASE,
            l2_size=l2_size,
            l2_assoc=l2_assoc,
            scale=scale,
            cpu_model=cpu_model,
        )

    @classmethod
    def base(cls, ncpus: int = 1, *, l2_size: int = BASE_L2_SIZE,
             l2_assoc: int = BASE_L2_ASSOC, scale: int = 32,
             cpu_model: str = "inorder") -> "MachineConfig":
        """'Base': aggressive off-chip design (Figure 2 defaults)."""
        return cls(
            label=f"Base {cache_label(l2_size, l2_assoc)}",
            ncpus=ncpus,
            integration=IntegrationLevel.BASE,
            l2_size=l2_size,
            l2_assoc=l2_assoc,
            scale=scale,
            cpu_model=cpu_model,
        )

    @classmethod
    def integrated_l2(cls, ncpus: int = 1, *, l2_size: int = 2 * MB,
                      l2_assoc: int = 8,
                      technology: L2Technology = L2Technology.ON_CHIP_SRAM,
                      scale: int = 32, cpu_model: str = "inorder") -> "MachineConfig":
        """On-chip L2 (SRAM ~2 MB or embedded DRAM ~8 MB), MC/CC off-chip."""
        return cls(
            label=f"L2 {cache_label(l2_size, l2_assoc)} {technology.value}",
            ncpus=ncpus,
            integration=IntegrationLevel.L2,
            l2_size=l2_size,
            l2_assoc=l2_assoc,
            l2_technology=technology,
            scale=scale,
            cpu_model=cpu_model,
        )

    @classmethod
    def integrated_l2_mc(cls, ncpus: int = 1, *, l2_size: int = 2 * MB,
                         l2_assoc: int = 8, scale: int = 32,
                         cpu_model: str = "inorder") -> "MachineConfig":
        """On-chip L2 + memory controller; CC/NR still off-chip."""
        return cls(
            label=f"L2+MC {cache_label(l2_size, l2_assoc)}",
            ncpus=ncpus,
            integration=IntegrationLevel.L2_MC,
            l2_size=l2_size,
            l2_assoc=l2_assoc,
            l2_technology=L2Technology.ON_CHIP_SRAM,
            scale=scale,
            cpu_model=cpu_model,
        )

    @classmethod
    def fully_integrated(cls, ncpus: int = 1, *, l2_size: int = 2 * MB,
                         l2_assoc: int = 8, rac_size: Optional[int] = None,
                         replicate_code: bool = False, scale: int = 32,
                         cpu_model: str = "inorder", victim_entries: int = 0,
                         ) -> "MachineConfig":
        """Alpha 21364-style full integration (L2 + MC + CC/NR on chip)."""
        return cls(
            label=f"All {cache_label(l2_size, l2_assoc)}"
            + (" +RAC" if rac_size else "")
            + (f" +VB{victim_entries}" if victim_entries else ""),
            ncpus=ncpus,
            integration=IntegrationLevel.FULL,
            l2_size=l2_size,
            l2_assoc=l2_assoc,
            l2_technology=L2Technology.ON_CHIP_SRAM,
            rac_size=rac_size,
            replicate_code=replicate_code,
            victim_entries=victim_entries,
            scale=scale,
            cpu_model=cpu_model,
        )

    @classmethod
    def chip_multiprocessor(cls, num_nodes: int = 8, *, cores_per_node: int = 2,
                            l2_size: int = 2 * MB, l2_assoc: int = 8,
                            scale: int = 32,
                            cpu_model: str = "inorder") -> "MachineConfig":
        """Fully integrated CMP: several cores share each on-chip L2.

        The paper's Section 8 points to chip multiprocessing as the
        next step after integration ("the next logical step seems to
        be to tolerate the remaining latencies by exploiting ...
        thread-level parallelism ... through techniques such as chip
        multiprocessing").  This configuration models it: the machine
        keeps ``num_nodes`` coherence nodes, each now carrying
        ``cores_per_node`` cores over the shared L2.
        """
        return cls(
            label=f"CMP{cores_per_node}x{num_nodes} {cache_label(l2_size, l2_assoc)}",
            ncpus=num_nodes * cores_per_node,
            integration=IntegrationLevel.FULL,
            l2_size=l2_size,
            l2_assoc=l2_assoc,
            l2_technology=L2Technology.ON_CHIP_SRAM,
            cores_per_node=cores_per_node,
            scale=scale,
            cpu_model=cpu_model,
        )
