"""Coherence substrate: home map, directory, protocol, message counters."""

from repro.coherence.directory import DirectoryState
from repro.coherence.homemap import HomeMap
from repro.coherence.network import MessageCounters
from repro.coherence.protocol import DirectoryProtocol, ServiceOutcome

__all__ = [
    "DirectoryState",
    "HomeMap",
    "MessageCounters",
    "DirectoryProtocol",
    "ServiceOutcome",
]
