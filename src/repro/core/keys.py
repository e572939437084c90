"""Engine cache keys: where a profile or a view tree came from.

:class:`~repro.engine.AnalysisEngine` keys its inputs and results by how
they were derived instead of hashing their content on every request.  A
key lives in one of three namespaces, told apart by its prefix, so a key
of one kind can never equal a key of another:

* ``source:`` — a profile parsed from bytes: BLAKE2b over the converter
  name and the raw bytes, or over a store record's provenance
  (:func:`source_key`).  It holds only while the profile's mutation
  stamp matches the one taken at parse
  (:meth:`~repro.core.profile.Profile.cache_key`).
* ``derived:`` — a view tree the engine computed, or one an in-place
  mutator re-keyed: BLAKE2b over the operation, its input keys and its
  canonical options (:func:`derived_key`).
* ``content:`` — the fallback: a content digest from
  :mod:`repro.core.digest`, for profiles and trees built in process or
  changed in a way no derivation describes.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

SOURCE = "source:"
DERIVED = "derived:"
CONTENT = "content:"

#: Same width as the content digests (:mod:`repro.core.digest`).
_DIGEST_SIZE = 16


def source_key(format: str, *parts: bytes) -> str:
    """The provenance key of a profile parsed from bytes.

    ``format`` names the reader: a converter, whose one part is the raw
    bytes, or a store reader, whose parts are the record's bytes and
    whatever else the load writes into the profile.  Every part is
    hashed with its length, so no two part lists share a key.  The cache
    never outlives the process, so the reader's name alone pins the parse
    that produced the profile.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in (format.encode("utf-8"),) + parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return SOURCE + h.hexdigest()


def derived_key(parts: Tuple) -> str:
    """The key of a result computed from ``parts``.

    ``parts`` is the operation name, its input keys and its canonical
    options: strings, bytes, numbers, booleans, None and tuples of them,
    whose ``repr`` is exact and tells every type apart.
    """
    data = repr(parts).encode("utf-8")
    return DERIVED + hashlib.blake2b(data,
                                     digest_size=_DIGEST_SIZE).hexdigest()
