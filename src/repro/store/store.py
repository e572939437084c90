"""ProfStore: the persistent, queryable profile repository.

One :class:`ProfileStore` owns a directory::

    store/
      MANIFEST.json      root pointer: live segments + ingest cursor
      wal.log            write-ahead log (records since the last flush)
      <address>.seg      content-addressed immutable segments

**Ingest** accepts anything the converters understand (a path, raw bytes,
or a built :class:`~repro.core.profile.Profile`), normalizes to the
EasyView CCT representation, lints the time metadata (rule ``EV312`` —
records with no wall-clock stamp get the ingest clock, never epoch zero),
and appends to the WAL.  The record is durable the moment ``ingest``
returns.

**Flush** drains the WAL into one immutable segment.  The crash ordering
is: segment written (atomic rename) → manifest updated (atomic rename) →
WAL truncated.  A crash between any two steps is safe: the WAL still
holds the records, and because segments are content-addressed the re-flush
reproduces the *same* file name, so nothing is duplicated.

**Query** runs merge-on-read: the label/time index selects records, their
profiles load (fanning out through the engine's worker pool), and the
merge routes through :class:`~repro.engine.AnalysisEngine`, so a repeated
query is a digest-keyed cache hit rather than a recomputation.

**Compaction** merges small segments into one (same merge-on-read
contract before and after — the CI smoke test asserts the merged tree is
byte-identical across a compact).  **GC** applies retention and removes
orphan segment files left by crashes.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..analysis.viewtree import ViewTree
from ..core import serialize
from ..core.digest import viewtree_digest
from ..core.profile import Profile
from ..engine import AnalysisEngine, get_engine
from ..errors import StoreError
from ..obs import get_tracer
from .index import LabelTimeIndex, Manifest, RecordEntry, SegmentInfo
from .query import Query, parse_query
from .segment import (Segment, load_profile, read_segment, to_wal_record,
                      write_segment, SEGMENT_SUFFIX)
from .wal import WalRecord, WriteAheadLog

WAL_NAME = "wal.log"

#: Provenance-key namespaces of loaded records (:meth:`ProfileStore.load`).
WAL_SOURCE = "store-wal"
SEGMENT_SOURCE = "store-segment"

#: Spans cover the durability pipeline end to end — ingest, WAL append,
#: segment write, query planning, merge-on-read — so a dogfooded profile
#: answers "where does a slow ``store query`` spend its time?".
_tracer = get_tracer()

#: Flush automatically once this many records accumulate in the WAL.
DEFAULT_FLUSH_RECORDS = 64

#: A segment with fewer records than this is "small" — compaction bait.
DEFAULT_SMALL_SEGMENT_RECORDS = 32


@dataclass
class IngestResult:
    """What one ingest produced: the index entry plus any diagnostics."""

    entry: RecordEntry
    diagnostics: List[Any] = field(default_factory=list)
    #: True when the profile carried no wall-clock stamp and the store
    #: assigned its ingest time instead (EV312's remediation).
    assigned_time: bool = False


@dataclass
class LintedProfile:
    """A profile with the ingest lint's diagnostics for it
    (:meth:`ProfileStore.lint`)."""

    profile: Profile
    diagnostics: List[Any]


@dataclass
class QueryResult:
    """A merge-on-read answer: matched records and their merged view."""

    query: Query
    entries: List[RecordEntry]
    tree: Optional[ViewTree]
    shape: str

    @property
    def count(self) -> int:
        return len(self.entries)

    def digest(self) -> str:
        """Content digest of the merged tree (empty string when no match);
        equal digests mean byte-identical merged results."""
        return viewtree_digest(self.tree) if self.tree is not None else ""


class ProfileStore:
    """A durable, queryable repository of profiles under one directory."""

    def __init__(self, root: str,
                 engine: Optional[AnalysisEngine] = None,
                 flush_records: int = DEFAULT_FLUSH_RECORDS,
                 fsync: bool = True,
                 clock=time.time_ns) -> None:
        self.root = root
        self.engine = engine if engine is not None else get_engine()
        self.flush_records = flush_records
        self.clock = clock
        self._lock = threading.RLock()
        self._segments: Dict[str, Segment] = {}  # address -> parsed segment
        os.makedirs(root, exist_ok=True)

        self.manifest = Manifest(root)
        self.manifest.load()
        self.index = LabelTimeIndex()
        for info in self.manifest.segments:
            path = self._segment_path(info.address)
            if not os.path.exists(path):
                raise StoreError(
                    "manifest names segment %s but %s is missing"
                    % (info.address, path))
            for entry in info.records:
                self.index.add(entry)

        # Replay-on-open: whatever the WAL holds was ingested but never
        # flushed (or flushed without the manifest update — handled by the
        # content-address dedup at the next flush).
        self.wal = WriteAheadLog(os.path.join(root, WAL_NAME), fsync=fsync)
        for record in self.wal.records:
            self.index.add(self._wal_entry(record))
            if record.seq >= self.manifest.next_seq:
                self.manifest.next_seq = record.seq + 1

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self.wal.close()

    def __enter__(self) -> "ProfileStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _segment_path(self, address: str) -> str:
        return os.path.join(self.root, address + SEGMENT_SUFFIX)

    @staticmethod
    def _wal_entry(record: WalRecord) -> RecordEntry:
        return RecordEntry(service=record.service, ptype=record.ptype,
                           labels=dict(record.labels),
                           time_nanos=record.time_nanos,
                           duration_nanos=record.duration_nanos,
                           seq=record.seq, segment=None)

    # -- ingest ------------------------------------------------------------

    def ingest(self, source: Union[str, bytes, Profile, LintedProfile],
               service: str, ptype: str = "cpu",
               labels: Optional[Dict[str, str]] = None,
               format: Optional[str] = None) -> IngestResult:
        """Normalize, lint, and durably log one profile.

        ``source`` may be a file path, raw profile bytes in any supported
        format, an already-built :class:`Profile`, or what :meth:`lint`
        returned for one — a caller that gates on the diagnostics (the
        collector) lints first and hands that over, so the profile is
        linted once.  Returns once the record is fsynced into the WAL.
        Auto-flushes to a segment when the WAL reaches ``flush_records``.
        """
        with _tracer.span("store.ingest", service=service,
                          type=ptype) as span:
            if not isinstance(source, LintedProfile):
                if isinstance(source, Profile):
                    profile = source
                else:
                    from ..converters import open_profile, parse_bytes
                    if isinstance(source, bytes):
                        profile = parse_bytes(source, format=format)
                    else:
                        profile = open_profile(source, format=format)
                source = self.lint(profile, subject=service or "<ingest>")
            profile = source.profile
            assigned = False
            time_nanos = profile.meta.time_nanos
            if time_nanos <= 0:
                # EV312's contract: the time index never gets epoch-zero
                # entries — a stampless profile is indexed at its ingest
                # time.
                time_nanos = self.clock()
                assigned = True

            with self._lock:
                record = WalRecord(service=service, ptype=ptype,
                                   labels=dict(labels or {}),
                                   time_nanos=time_nanos,
                                   duration_nanos=max(
                                       0, profile.meta.duration_nanos),
                                   blob=serialize.dumps(profile),
                                   seq=self.manifest.next_seq)
                self.manifest.next_seq += 1
                self.wal.append(record)
                entry = self._wal_entry(record)
                self.index.add(entry)
                if span is not None:
                    span.set("seq", record.seq)
                if len(self.wal) >= self.flush_records:
                    self.flush()
            return IngestResult(entry=entry,
                                diagnostics=list(source.diagnostics),
                                assigned_time=assigned)

    def lint(self, profile: Profile,
             subject: str = "<ingest>") -> LintedProfile:
        """The ingest lint: the profile rules plus EV312's time check.

        The first of ingest's two steps; hand the result to
        :meth:`ingest` to log the profile without linting it again.
        """
        from ..lint import lint_profile
        with _tracer.span("store.ingest.lint"):
            return LintedProfile(profile, lint_profile(
                profile, require_time=True, subject=subject))

    # -- flush -------------------------------------------------------------

    def flush(self) -> Optional[str]:
        """Drain the WAL into one immutable segment.

        Returns the new segment's content address, or None when the WAL is
        empty.  Ordering (segment → manifest → WAL truncate) plus content
        addressing makes every prefix of this sequence crash-safe.
        """
        with self._lock:
            if not len(self.wal):
                return None
            with _tracer.span("store.flush",
                              records=len(self.wal)) as span:
                with _tracer.span("store.segment.write"):
                    segment = write_segment(self.root, self.wal.records,
                                            created_nanos=self.clock())
                if span is not None:
                    span.set("segment", segment.address)
                return self._finish_flush(segment)

    def _finish_flush(self, segment: Segment) -> str:
        """Post-segment-write bookkeeping (manifest, WAL, index).

        Takes the store lock itself (reentrant under :meth:`flush`) so
        the manifest/WAL/index transition is atomic however it is
        reached.
        """
        with self._lock:
            self._segments[segment.address] = segment
            self.manifest.add_segment(SegmentInfo.from_segment(segment))
            self.manifest.save()
            self.wal.reset()
            self.index.remove_wal_entries()
            for meta in segment.records:
                self.index.add(RecordEntry.from_meta(meta, segment.address))
            return segment.address

    # -- read path ---------------------------------------------------------

    def _segment(self, address: str) -> Segment:
        """The parsed segment for ``address``, reading it on first use.

        ``query`` fans :meth:`load` out across the worker pool, so this
        cache is hit from several threads at once.  The disk read happens
        *outside* the lock — two threads may both parse a cold segment,
        but segments are immutable so either result is correct, and
        ``setdefault`` keeps exactly one.  Holding the lock across
        ``read_segment`` would serialize every cold load in a batch.
        """
        with self._lock:
            segment = self._segments.get(address)
        if segment is None:
            loaded = read_segment(self._segment_path(address))
            with self._lock:
                segment = self._segments.setdefault(address, loaded)
        return segment

    def load(self, entry: RecordEntry) -> Profile:
        """Materialize the profile behind one index entry.

        The profile carries a provenance key, so the engine keys it
        without digesting its content: a WAL record is keyed by its blob
        plus the time and duration this load writes into the profile's
        meta, a segment record by (segment address, seq) — the address
        hashes the record's blob and the footer holding its meta.  The
        same record after a flush or a compaction gets a new key and the
        same content digest.
        """
        profile, source = self._read(entry)
        profile.set_source(*source)
        return profile

    def _read(self, entry: RecordEntry):
        """``(profile, provenance key parts)`` of one index entry."""
        if entry.segment is None:
            with self._lock:
                records = list(self.wal.records)
            for record in records:
                if record.seq == entry.seq:
                    profile = serialize.loads(record.blob)
                    profile.meta.time_nanos = record.time_nanos
                    profile.meta.duration_nanos = record.duration_nanos
                    return profile, (WAL_SOURCE, record.blob,
                                     b"%d" % record.time_nanos,
                                     b"%d" % record.duration_nanos)
            # A concurrent flush may have drained the WAL between the
            # query plan and this load; the index already knows which
            # segment the record moved to.
            with self._lock:
                entry = next((current for current in self.index.entries()
                              if current.seq == entry.seq
                              and current.segment is not None), entry)
            if entry.segment is None:
                raise StoreError("record #%d is gone from the WAL"
                                 % entry.seq)
        segment = self._segment(entry.segment)
        for meta in segment.records:
            if meta.seq == entry.seq:
                return load_profile(segment, meta), (
                    SEGMENT_SOURCE, segment.address.encode("ascii"),
                    b"%d" % meta.seq)
        raise StoreError("segment %s does not hold record #%d"
                         % (entry.segment, entry.seq))

    def select(self, query: Union[str, Query]) -> List[RecordEntry]:
        """Index-only query: matching records, newest first."""
        with _tracer.span("store.query.plan"):
            if isinstance(query, str):
                query = parse_query(query, now_nanos=self.clock())
            with self._lock:
                return self.index.match(query)

    def query(self, query: Union[str, Query],
              shape: str = "top_down") -> QueryResult:
        """Merge-on-read: select, load, and aggregate matching profiles.

        Profile loads fan out through the engine's worker pool; the merge
        itself is the engine's memoized ``aggregate_profiles``.  Unlike
        :meth:`load`, these loads carry no provenance key (a flush or a
        compaction would change it), so the merge is keyed by content
        digests, each computed once per loaded profile — so re-running a
        query over unchanged data is a cache hit, whichever segments the
        records live in (compaction does not change the answer *or* the
        key).
        """
        with _tracer.span("store.query") as span:
            if isinstance(query, str):
                query = parse_query(query, now_nanos=self.clock())
            with _tracer.span("store.query.plan"):
                # Only the planning section holds the lock: the load
                # fan-out below must run lock-free (each pooled load
                # re-acquires it briefly for its WAL/segment lookup).
                with self._lock:
                    entries = self.index.match(query)
            if span is not None:
                span.set("matches", len(entries))
            if not entries:
                return QueryResult(query=query, entries=[], tree=None,
                                   shape=shape)
            with _tracer.span("store.query.load", records=len(entries)):
                profiles = self.engine.pool.map(
                    lambda entry: self._read(entry)[0], entries)
            tree = self.engine.aggregate_profiles(profiles, shape=shape)
            return QueryResult(query=query, entries=entries, tree=tree,
                               shape=shape)

    def window_key(self, entries: Sequence[RecordEntry]) -> str:
        """A digest identifying a window's membership *and* content.

        Sequence numbers are append-only and the blob behind a seq never
        changes (flush and compaction move records between WAL and
        segments but preserve bytes), so ``(store root, sorted seqs)``
        pins both which records are in the window and what they contain —
        without loading or hashing any profile data.  Used to key the
        engine's windowed-aggregate cache.
        """
        h = hashlib.blake2b(self.root.encode("utf-8"), digest_size=16)
        for seq in sorted(entry.seq for entry in entries):
            h.update(b"%d," % seq)
        return h.hexdigest()

    def query_window(self, query: Union[str, Query],
                     shape: str = "top_down") -> QueryResult:
        """Merge-on-read keyed by window identity instead of content.

        Same answer as :meth:`query`, but a repeat over an unchanged
        window (the regression-watch cadence) is a cache hit keyed by
        :meth:`window_key` — no profile loads, no content re-digesting.
        A changed window misses here and falls through to the ordinary
        aggregation over :meth:`load`'s provenance-keyed profiles, so
        correctness never depends on this cache and a miss digests no
        profile either.
        """
        with _tracer.span("store.query.window") as span:
            if isinstance(query, str):
                query = parse_query(query, now_nanos=self.clock())
            with self._lock:
                entries = self.index.match(query)
            if span is not None:
                span.set("matches", len(entries))
            if not entries:
                return QueryResult(query=query, entries=[], tree=None,
                                   shape=shape)
            tree = self.engine.aggregate_window(
                self.window_key(entries),
                lambda: self.engine.pool.map(self.load, entries),
                shape=shape)
            return QueryResult(query=query, entries=entries, tree=tree,
                               shape=shape)

    # -- maintenance -------------------------------------------------------

    def compact(self,
                small_records: int = DEFAULT_SMALL_SEGMENT_RECORDS
                ) -> Optional[str]:
        """Merge small segments into one larger segment.

        Segments holding fewer than ``small_records`` records are
        candidates; two or more are rewritten (record loads fan out
        through the engine's worker pool) into a single segment, the
        manifest flips atomically, and only then are the old files
        removed.  Returns the new segment's address, or None when there
        was nothing to merge.
        """
        with self._lock, _tracer.span("store.compact") as span:
            small = [info for info in self.manifest.segments
                     if len(info.records) < small_records]
            if span is not None:
                span.set("candidates", len(small))
            if len(small) < 2:
                return None
            jobs = []
            for info in small:
                segment = self._segment(info.address)
                jobs.extend((segment, meta) for meta in segment.records)
            records = self.engine.pool.map(
                lambda job: to_wal_record(job[0], job[1]), jobs)
            records.sort(key=lambda record: record.seq)
            merged = write_segment(self.root, records,
                                   created_nanos=self.clock())
            old = [info.address for info in small
                   if info.address != merged.address]
            self.manifest.remove_segments([info.address for info in small])
            self.manifest.add_segment(SegmentInfo.from_segment(merged))
            self.manifest.save()
            self._segments[merged.address] = merged
            for address in old:
                self.index.remove_segment(address)
                self._segments.pop(address, None)
                try:
                    os.unlink(self._segment_path(address))
                except OSError:
                    pass  # already gone; gc sweeps strays
            for meta in merged.records:
                self.index.add(RecordEntry.from_meta(meta, merged.address))
            return merged.address

    def gc(self, max_age_nanos: Optional[int] = None,
           max_total_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Apply retention and sweep orphan segment files.

        A segment is dropped when *every* record in it ended before the
        retention cutoff, or (oldest first) while the store exceeds
        ``max_total_bytes``.  Orphans — ``.seg`` files the manifest does
        not name, left by a crash between segment write and manifest
        update whose WAL records were since re-flushed — are deleted too.
        """
        with self._lock, _tracer.span("store.gc"):
            removed: List[str] = []
            if max_age_nanos is not None:
                cutoff = self.clock() - max_age_nanos
                removed.extend(
                    info.address for info in self.manifest.segments
                    if info.records and all(e.end_nanos < cutoff
                                            for e in info.records))
            if max_total_bytes is not None:
                live = [info for info in self.manifest.segments
                        if info.address not in set(removed)]
                total = sum(info.size_bytes for info in live)
                for info in sorted(live, key=lambda i: i.created_nanos):
                    if total <= max_total_bytes:
                        break
                    removed.append(info.address)
                    total -= info.size_bytes
            self.manifest.remove_segments(removed)
            if removed:
                self.manifest.save()
            for address in removed:
                self.index.remove_segment(address)
                self._segments.pop(address, None)
                try:
                    os.unlink(self._segment_path(address))
                except OSError:
                    pass
            orphans = []
            live_names = {address + SEGMENT_SUFFIX
                          for address in self.manifest.addresses()}
            for name in os.listdir(self.root):
                if name.endswith(SEGMENT_SUFFIX) and name not in live_names:
                    orphans.append(name[:-len(SEGMENT_SUFFIX)])
                    try:
                        os.unlink(os.path.join(self.root, name))
                    except OSError:
                        pass
            return {"removedSegments": removed, "orphansSwept": orphans}

    def verify(self) -> List[str]:
        """Integrity check: re-hash every live segment's content address.

        Returns a list of problems (empty = everything checks out).  A
        half-written or bit-flipped segment cannot masquerade as healthy:
        its re-hashed address no longer matches its name.
        """
        problems: List[str] = []
        with self._lock:
            infos = list(self.manifest.segments)
        # Re-hashing reads whole segment files; do it outside the lock.
        for info in infos:
            path = self._segment_path(info.address)
            try:
                read_segment(path, verify=True)
            except (StoreError, OSError) as exc:
                problems.append(str(exc))
        return problems

    def stats(self, verify: bool = False) -> Dict[str, Any]:
        """Occupancy, per-service counts, time range, engine counters."""
        with self._lock:
            entries = self.index.entries()
            segments = list(self.manifest.segments)
            wal_records = len(self.wal)
            torn_bytes = self.wal.recovered_torn_bytes
            next_seq = self.manifest.next_seq
            start, end = self.index.time_range()
        per_service: Dict[str, int] = {}
        for entry in entries:
            per_service[entry.service] = per_service.get(entry.service, 0) + 1
        payload: Dict[str, Any] = {
            "root": self.root,
            "segments": len(segments),
            "segmentBytes": sum(info.size_bytes for info in segments),
            "records": len(entries),
            "walRecords": wal_records,
            "walRecoveredTornBytes": torn_bytes,
            "services": per_service,
            "timeRange": {"startNanos": start, "endNanos": end},
            "nextSeq": next_seq,
        }
        if verify:
            problems = self.verify()
            payload["integrity"] = {"ok": not problems, "problems": problems}
        return payload
