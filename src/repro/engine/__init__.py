"""The shared analysis engine: derivation-keyed memoization + worker pool.

See :mod:`repro.engine.engine` for the design discussion and
``docs/ENGINE.md`` for the cache-key and invalidation contract.
"""

from .cache import CacheStats, LRUCache
from .engine import AnalysisEngine, forget_everywhere, get_engine
from .parallel import WorkerPool, default_worker_count

__all__ = [
    "AnalysisEngine", "CacheStats", "LRUCache", "WorkerPool",
    "default_worker_count", "forget_everywhere", "get_engine",
]
