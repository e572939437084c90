"""EasyView's own open pipeline wrapped in the baseline interface.

This is the measured configuration of §V-C: interned frames, prefix-merged
CCT, one-pass inclusive metrics, and lazy flame layout with a sub-pixel
minimum-width cutoff.  The wrapper delegates to the same
:class:`~repro.ide.session.ViewerSession` the IDE integration uses, so the
benchmark times the real product path, not a special-cased one.
"""

from __future__ import annotations

from ..converters.pprof import parse as parse_pprof
from ..ide.session import ViewerSession
from .common import BaselineViewer, OpenResult


class EasyViewViewer(BaselineViewer):
    """EasyView's open pipeline (the paper's system)."""

    name = "easyview"

    has_bottom_up_flame = True
    has_bottom_up_table = True
    has_multi_profile = True

    def __init__(self, min_width: float = 0.5) -> None:
        self.min_width = min_width

    def open_profile(self, data: bytes) -> OpenResult:
        from ..core.gcguard import no_gc
        session = ViewerSession()
        with no_gc():
            (profile, parse_s) = self._timed(lambda: parse_pprof(data))
        (opened, open_s) = self._timed(lambda: session.open(profile))
        flame = session.flame_layout(opened.id, "top_down")  # open built it
        stats = opened.stats
        return OpenResult(
            viewer=self.name,
            seconds=parse_s + open_s,
            nodes=profile.node_count(),
            blocks=flame.laid_out_nodes,
            detail={"parse": parse_s,
                    "analyze": stats.analyze_seconds,
                    "render": stats.render_seconds})
