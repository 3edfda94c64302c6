"""Interconnect traffic counters.

The paper folds router, link, and controller-crossing delays into the
per-class latencies of Figure 3, and we do the same: the latencies are
charged once, when a run's memory profile is retimed
(:func:`repro.core.profile.event_costs`).  This module keeps the
message counters experiments report as traffic (e.g. the paper's
invalidation-rate observation in Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MessageCounters:
    """Coarse interconnect traffic counters (requests, not flits)."""

    requests_2hop: int = 0
    requests_3hop: int = 0
    invalidations: int = 0
    local_requests: int = 0

    def reset(self) -> None:
        """Zero all counters (warmup/measurement boundary)."""
        self.requests_2hop = 0
        self.requests_3hop = 0
        self.invalidations = 0
        self.local_requests = 0

    def as_dict(self) -> dict:
        return {
            "local": self.local_requests,
            "2hop": self.requests_2hop,
            "3hop": self.requests_3hop,
            "invalidations": self.invalidations,
        }
