"""A scriptable IDE host speaking the Profile View Protocol.

The mock IDE plays the editor's role end-to-end: it holds a workspace of
source documents, receives every ``ide/*`` action the viewer emits (opening
documents, highlighting lines, rendering lenses/hovers/windows), and drives
the viewer with ``view/*`` requests over real serialized JSON-RPC messages.
Tests and the user-study simulation use it to exercise the same protocol
path the VSCode extension would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ProtocolError
from .actions import Capabilities
from .protocol import (Request, Response, parse_message, IDE_OPEN_DOCUMENT,
                       IDE_CODE_LENS, IDE_HOVER, IDE_FLOATING_WINDOW,
                       IDE_SET_DECORATIONS, IDE_PUBLISH_DIAGNOSTICS)
from .session import ViewerSession


@dataclass
class EditorState:
    """What the simulated editor currently shows."""

    open_file: str = ""
    cursor_line: int = 0
    highlighted: List[Tuple[str, int]] = field(default_factory=list)
    code_lenses: List[Dict[str, Any]] = field(default_factory=list)
    hovers: List[Dict[str, Any]] = field(default_factory=list)
    floating_windows: List[Dict[str, Any]] = field(default_factory=list)
    decorations: List[Dict[str, Any]] = field(default_factory=list)
    #: Lint findings last published by the viewer (rendered as squiggles).
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)


class MockIDE:
    """A headless editor hosting one viewer session."""

    def __init__(self, capabilities: Optional[Capabilities] = None,
                 workspace: Optional[Dict[str, str]] = None) -> None:
        self.capabilities = capabilities or Capabilities.full()
        #: path → document text; the select action verifies links resolve.
        self.workspace: Dict[str, str] = dict(workspace or {})
        self.state = EditorState()
        self.action_log: List[Tuple[str, Dict[str, Any]]] = []
        self.session = ViewerSession(sink=self._receive_action,
                                     capabilities=self.capabilities)
        self._next_request_id = 1

    # -- viewer → IDE ------------------------------------------------------------

    def _receive_action(self, method: str, params: Dict[str, Any]) -> None:
        self.action_log.append((method, params))
        if method == IDE_OPEN_DOCUMENT:
            self.state.open_file = params["file"]
            self.state.cursor_line = params["line"]
            if params.get("highlight"):
                self.state.highlighted.append((params["file"],
                                               params["line"]))
        elif method == IDE_CODE_LENS:
            self.state.code_lenses.append(params)
        elif method == IDE_HOVER:
            self.state.hovers.append(params)
        elif method == IDE_FLOATING_WINDOW:
            self.state.floating_windows.append(params)
        elif method == IDE_SET_DECORATIONS:
            self.state.decorations.append(params)
        elif method == IDE_PUBLISH_DIAGNOSTICS:
            # Like LSP's publishDiagnostics: each notification replaces the
            # previously shown set rather than appending to it.
            self.state.diagnostics = list(params.get("diagnostics", []))
        else:
            raise ProtocolError("viewer emitted unknown action %r" % method)

    # -- IDE → viewer -------------------------------------------------------------

    def request(self, method: str, **params: Any) -> Any:
        """Send one request through real JSON-RPC serialization.

        The request is serialized to JSON, parsed back (as a separate
        process would), dispatched, and the response likewise round-trips —
        so tests cover the wire format, not just the Python API.
        """
        request = Request(method=method, params=params,
                          id=self._next_request_id)
        self._next_request_id += 1
        parsed = parse_message(request.to_json())
        assert isinstance(parsed, Request)
        response = self.session.handle(parsed)
        wire = parse_message(response.to_json())
        assert isinstance(wire, Response)
        if not wire.ok:
            raise ProtocolError("request %s failed: %s"
                                % (method, wire.error))
        return wire.result

    # -- conveniences used by tests and the study simulation -------------------------

    def open_profile(self, path: str, format: Optional[str] = None) -> int:
        """Open a profile; returns its profile id."""
        result = self.request("view/open", path=path,
                              **({"format": format} if format else {}))
        return int(result["profileId"])

    def actions_of(self, method: str) -> List[Dict[str, Any]]:
        """All received actions of one kind."""
        return [params for m, params in self.action_log if m == method]

    def document_exists(self, path: str) -> bool:
        """Whether a code link's target exists in the workspace."""
        return path in self.workspace
