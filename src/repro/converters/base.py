"""Converter infrastructure: the registry and format sniffing.

A converter turns one foreign profile format into EasyView's representation
(§IV-B's second integration path).  Each converter declares a name, file
extensions, and a ``sniff`` predicate; :func:`open_profile` picks one by
explicit name, extension, or content sniffing, in that order.

Converting fails closed: the converters that :func:`get` and
:func:`detect` hand out (and so :func:`parse_bytes`) raise nothing but
:class:`~repro.errors.EasyViewError`, whatever the payload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..core.profile import Profile
from ..errors import ConversionError, EasyViewError, FormatError

ParseFn = Callable[[bytes], Profile]
SniffFn = Callable[[bytes, str], bool]


@dataclass(frozen=True)
class Converter:
    """One registered format converter."""

    name: str
    parse: ParseFn
    sniff: SniffFn
    extensions: Sequence[str] = ()
    description: str = ""


_REGISTRY: Dict[str, Converter] = {}
_ORDER: List[str] = []


def register(converter: Converter) -> Converter:
    """Add a converter to the registry (insertion order = sniff priority)."""
    if converter.name in _REGISTRY:
        raise ConversionError("converter %r already registered"
                              % converter.name)
    _REGISTRY[converter.name] = converter
    _ORDER.append(converter.name)
    return converter


def _fail_closed(converter: Converter) -> Converter:
    """``converter`` with a ``parse`` that raises only
    :class:`~repro.errors.EasyViewError`.

    The converter's own errors pass through with their messages; anything
    else a malformed payload provokes — a ``TypeError`` from a mistyped
    JSON field, a ``ValueError`` from a garbled number, a
    ``RecursionError`` from deeply nested JSON — becomes a
    :class:`~repro.errors.FormatError` naming the format, chained to the
    original exception.
    """
    name, parse = converter.name, converter.parse

    def fail_closed(data: bytes) -> Profile:
        try:
            return parse(data)
        except EasyViewError:
            raise
        except Exception as exc:  # the ingress boundary: fail closed
            raise FormatError("malformed %s profile: %s: %s"
                              % (name, type(exc).__name__, exc)) from exc

    return replace(converter, parse=fail_closed)


def get(name: str) -> Converter:
    """Look up a converter by name."""
    try:
        converter = _REGISTRY[name]
    except KeyError:
        raise ConversionError(
            "unknown format %r (supported: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))) from None
    return _fail_closed(converter)


def names() -> List[str]:
    """All registered converter names, in registration order."""
    return list(_ORDER)


def detect(data: bytes, path: str = "") -> Converter:
    """Pick a converter by extension first, then by content sniffing."""
    lowered = path.lower()
    for name in _ORDER:
        converter = _REGISTRY[name]
        if any(lowered.endswith(ext) for ext in converter.extensions):
            if converter.sniff(data, path):
                return _fail_closed(converter)
    for name in _ORDER:
        converter = _REGISTRY[name]
        if converter.sniff(data, path):
            return _fail_closed(converter)
    raise FormatError("cannot detect the format of %r (%d bytes); "
                      "pass format= explicitly" % (path or "<data>",
                                                   len(data)))


def parse_bytes(data: bytes, format: Optional[str] = None,
                path: str = "") -> Profile:
    """Convert raw bytes with an explicit or detected format.

    The conversion runs under the :func:`~repro.core.gcguard.no_gc` guard:
    bulk CCT construction allocates millions of acyclic containers, and
    suppressing generational collections during the build is one of the
    §V-C efficiency levers.

    The profile is keyed by (converter name, ``data``) for the analysis
    engine's cache (:meth:`~repro.core.profile.Profile.set_source`): one
    hash of the bytes here instead of a content digest per request.
    """
    from ..core.gcguard import no_gc
    from ..obs import get_tracer
    converter = get(format) if format else detect(data, path)
    with get_tracer().span("convert.parse", format=converter.name,
                           bytes=len(data)):
        with no_gc():
            profile = converter.parse(data)
    if not profile.meta.tool:
        profile.meta.tool = converter.name
    profile.set_source(converter.name, data)
    return profile


def open_profile(path: str, format: Optional[str] = None) -> Profile:
    """Open a profile file of any supported format."""
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_bytes(data, format=format, path=path)
