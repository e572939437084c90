"""ProfStore: a persistent, queryable profile repository.

The continuous-profiling layer under the viewer: profiles are *ingested*
(any supported format), logged durably in a CRC-checked write-ahead log,
flushed into content-addressed immutable segments with per-segment string
dedup, indexed by service/type/labels/time, and *served* by query — a
merge-on-read aggregation routed through the analysis engine's
digest-keyed cache.

Entry points: :class:`ProfileStore` (the API), ``easyview store ...`` (the
CLI), and the ``store/ingest`` / ``store/query`` / ``view/openQuery``
requests of the Profile View Protocol.  On-disk layout and the crash
contract are documented in ``docs/STORE.md``.
"""

from .index import LabelTimeIndex, Manifest, RecordEntry, SegmentInfo
from .query import Query, parse_age, parse_query, parse_time
from .segment import (RecordMeta, Segment, build_segment, load_profile,
                      parse_segment, read_segment, segment_address,
                      write_segment)
from .store import (DEFAULT_FLUSH_RECORDS, DEFAULT_SMALL_SEGMENT_RECORDS,
                    IngestResult, LintedProfile, ProfileStore, QueryResult)
from .wal import WalRecord, WriteAheadLog, scan

__all__ = [
    "ProfileStore", "IngestResult", "LintedProfile", "QueryResult",
    "DEFAULT_FLUSH_RECORDS", "DEFAULT_SMALL_SEGMENT_RECORDS",
    "Query", "parse_age", "parse_query", "parse_time",
    "RecordEntry", "SegmentInfo", "Manifest", "LabelTimeIndex",
    "Segment", "RecordMeta", "build_segment", "parse_segment",
    "read_segment", "write_segment", "segment_address", "load_profile",
    "WalRecord", "WriteAheadLog", "scan",
]
