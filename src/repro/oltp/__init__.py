"""Miniature Oracle-style OLTP engine running TPC-B (the workload substrate)."""

from repro.oltp.bufferpool import BufferPool, BufferPoolStats
from repro.oltp.config import WorkloadConfig
from repro.oltp.database import TpcbDatabase
from repro.oltp.engine import EngineStats, OracleEngine
from repro.oltp.locks import LATCHES, LockConflictError, LockManager
from repro.oltp.log import RedoLog
from repro.oltp.schema import BLOCK_SIZE, TpcbScale
from repro.oltp.tracing import EngineTracer, NullTracer, ProcessContext
from repro.oltp.txn import TpcbTransaction, generate_transaction

__all__ = [
    "BufferPool",
    "BufferPoolStats",
    "WorkloadConfig",
    "TpcbDatabase",
    "EngineStats",
    "OracleEngine",
    "LATCHES",
    "LockConflictError",
    "LockManager",
    "RedoLog",
    "BLOCK_SIZE",
    "TpcbScale",
    "EngineTracer",
    "NullTracer",
    "ProcessContext",
    "TpcbTransaction",
    "generate_transaction",
]
