"""From-scratch Protocol Buffers wire codec plus the two schemas EasyView
speaks: its own generic profile representation and pprof's profile.proto."""

from . import easyview_pb, pprof_pb
from .fastwire import WireError

__all__ = ["pprof_pb", "easyview_pb", "WireError"]
