"""The correctness table: job content hash -> digest of its result.

A digest is the SHA-256 of the canonical JSON of ``RunResult.to_dict()``
(every counter of every statistic), so a speed-up that changes a single
counter fails the run instead of posting a number.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List


def result_digest(result_dict: dict) -> str:
    """SHA-256 of a ``RunResult.to_dict()`` payload, canonically encoded."""
    from repro.runner import canonical_json

    return hashlib.sha256(canonical_json(result_dict).encode()).hexdigest()


class DigestTable:
    """Checks results against the recorded table, or records them."""

    def __init__(self, table: Dict[str, str] = None, recording: bool = False):
        self.table: Dict[str, str] = dict(table or {})
        self.recording = recording
        #: ``(job hash, reason)`` for every failed check, in order.
        self.mismatches: List[tuple] = []

    @classmethod
    def load(cls, path: str) -> "DigestTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh)["digests"])

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"digests": dict(sorted(self.table.items()))}, fh,
                      indent=0, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def check(self, job_hash: str, result_dict: dict) -> bool:
        """True when ``result_dict`` matches the recorded digest."""
        digest = result_digest(result_dict)
        if self.recording:
            self.table[job_hash] = digest
            return True
        expected = self.table.get(job_hash)
        if expected == digest:
            return True
        reason = "no recorded digest" if expected is None else "digest differs"
        self.mismatches.append((job_hash, reason))
        return False
