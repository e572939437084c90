"""The capture envelope: one profile plus its shipping metadata.

A :class:`CaptureEnvelope` is the unit both halves of the loop agree on.
The agent wraps every capture in one; the collector unwraps it from an
HTTP request; the spool persists it byte-for-byte between the two when
the collector is unreachable.

Two serializations, same fields:

* **HTTP** — the profile blob travels as the POST body and the metadata
  as ``X-Easyview-*`` headers (labels JSON-encoded in one header), so
  the collector can admission-check and dedup an upload *before*
  parsing the body;
* **spool** — ``EVSPOOL1 <json metadata>\\n<blob>``, a self-describing
  single-file record (magic + one metadata line + raw bytes) that
  replays losslessly after an outage.

The ``digest`` is the BLAKE2b of the serialized profile bytes.  Content
digests, not sequence numbers, drive deduplication: a spool replay that
races a late success, or a retry whose response was lost, re-sends the
same bytes and therefore the same digest — the collector stores one
record either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..errors import EasyViewError

SPOOL_MAGIC = b"EVSPOOL1"

#: HTTP header names for every metadata field (the labels header carries
#: a JSON object; everything else is a scalar).
HEADER_SERVICE = "X-Easyview-Service"
HEADER_HOST = "X-Easyview-Host"
HEADER_TYPE = "X-Easyview-Type"
HEADER_SEQ = "X-Easyview-Seq"
HEADER_FORMAT = "X-Easyview-Format"
HEADER_TIME = "X-Easyview-Time-Nanos"
HEADER_LABELS = "X-Easyview-Labels"
HEADER_DIGEST = "X-Easyview-Digest"


class EnvelopeError(EasyViewError):
    """A malformed envelope (bad spool record or upload headers)."""


def blob_digest(blob: bytes) -> str:
    """Content digest of a capture's profile bytes."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass
class CaptureEnvelope:
    """One captured profile, addressed for shipping."""

    service: str
    host: str
    ptype: str
    seq: int
    blob: bytes
    format: str = "easyview"
    time_nanos: int = 0
    labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.service:
            raise EnvelopeError("an envelope needs a service name")
        if not isinstance(self.blob, bytes) or not self.blob:
            raise EnvelopeError("an envelope needs a non-empty blob")
        self.seq = int(self.seq)
        self.time_nanos = int(self.time_nanos)

    @property
    def digest(self) -> str:
        return blob_digest(self.blob)

    # -- metadata ----------------------------------------------------------

    def meta(self) -> Dict[str, object]:
        """The shipping metadata as plain JSON-ready data."""
        return {
            "service": self.service,
            "host": self.host,
            "type": self.ptype,
            "seq": self.seq,
            "format": self.format,
            "timeNanos": self.time_nanos,
            "labels": dict(self.labels),
            "digest": self.digest,
        }

    def store_labels(self) -> Dict[str, str]:
        """Ingest labels for the ProfStore record.

        The agent's identity labels plus the content digest — the digest
        label is what lets a restarted collector re-prime its dedup set
        from the store index alone.
        """
        labels = dict(self.labels)
        labels.setdefault("host", self.host)
        labels["agent_seq"] = str(self.seq)
        labels["digest"] = self.digest
        return labels

    # -- HTTP form ---------------------------------------------------------

    def to_headers(self) -> Dict[str, str]:
        """The metadata as HTTP request headers (body carries the blob)."""
        return {
            HEADER_SERVICE: self.service,
            HEADER_HOST: self.host,
            HEADER_TYPE: self.ptype,
            HEADER_SEQ: str(self.seq),
            HEADER_FORMAT: self.format,
            HEADER_TIME: str(self.time_nanos),
            HEADER_LABELS: json.dumps(self.labels, sort_keys=True),
            HEADER_DIGEST: self.digest,
        }

    @classmethod
    def from_headers(cls, headers: Mapping[str, str],
                     blob: bytes) -> "CaptureEnvelope":
        """Rebuild an envelope from upload headers plus the body.

        Raises :class:`EnvelopeError` on missing/malformed metadata —
        including a digest header that does not match the body, which
        catches truncated or corrupted uploads before they reach the
        store.
        """
        def get(name: str, default: Optional[str] = None) -> str:
            value = headers.get(name, default)
            if value is None:
                raise EnvelopeError("missing upload header %s" % name)
            return value

        try:
            labels_raw = json.loads(get(HEADER_LABELS, "{}"))
        except (ValueError, RecursionError) as exc:
            raise EnvelopeError("unparseable %s header: %s"
                                % (HEADER_LABELS, exc))
        if not isinstance(labels_raw, dict):
            raise EnvelopeError("%s must be a JSON object" % HEADER_LABELS)
        try:
            envelope = cls(
                service=get(HEADER_SERVICE),
                host=get(HEADER_HOST, ""),
                ptype=get(HEADER_TYPE, "cpu"),
                seq=int(get(HEADER_SEQ, "0")),
                blob=blob,
                format=get(HEADER_FORMAT, "easyview"),
                time_nanos=int(get(HEADER_TIME, "0")),
                labels={str(k): str(v) for k, v in labels_raw.items()},
            )
        except ValueError as exc:
            raise EnvelopeError("malformed upload header: %s" % exc)
        claimed = headers.get(HEADER_DIGEST)
        if claimed is not None and claimed != envelope.digest:
            raise EnvelopeError(
                "digest mismatch: header says %s, body hashes to %s"
                % (claimed, envelope.digest))
        return envelope

    # -- spool form --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The single-file spool record."""
        meta = json.dumps(self.meta(), sort_keys=True).encode("utf-8")
        return SPOOL_MAGIC + b" " + meta + b"\n" + self.blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "CaptureEnvelope":
        """Parse a spool record; raises :class:`EnvelopeError` if invalid."""
        prefix = SPOOL_MAGIC + b" "
        if not data.startswith(prefix):
            raise EnvelopeError("not a spool record (bad magic)")
        newline = data.find(b"\n", len(prefix))
        if newline < 0:
            raise EnvelopeError("truncated spool record (no metadata line)")
        try:
            meta = json.loads(data[len(prefix):newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            raise EnvelopeError("unparseable spool metadata: %s" % exc)
        blob = data[newline + 1:]
        try:
            envelope = cls(
                service=str(meta["service"]),
                host=str(meta.get("host", "")),
                ptype=str(meta.get("type", "cpu")),
                seq=int(meta.get("seq", 0)),
                blob=blob,
                format=str(meta.get("format", "easyview")),
                time_nanos=int(meta.get("timeNanos", 0)),
                labels={str(k): str(v)
                        for k, v in dict(meta.get("labels") or {}).items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EnvelopeError("malformed spool metadata: %s" % exc)
        claimed = meta.get("digest")
        if claimed is not None and claimed != envelope.digest:
            raise EnvelopeError(
                "spool record corrupt: metadata digest %s, blob hashes to %s"
                % (claimed, envelope.digest))
        return envelope


def sort_key(envelope: CaptureEnvelope) -> Tuple[str, int]:
    """Replay order: by service, then capture sequence."""
    return (envelope.service, envelope.seq)
