"""Minimal HTTP/1.1 plumbing for the archive server.

Stdlib-only on purpose: request parsing over asyncio streams, a small
response renderer, and :class:`HTTPError` — the one way a request fails
with a chosen status.  What a handler raises instead is mapped in one
place, :meth:`repro.serve.server.ArchiveServer._dispatch`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

__all__ = ["HTTPError", "MAX_BODY_BYTES", "Request", "Response",
           "error_response", "read_request"]

#: Request bodies above this are refused with 413 before buffering.
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class HTTPError(Exception):
    """A request failure with an HTTP status and JSON-able detail.

    Deliberately *not* a :class:`SAGeError`: raising one is how a
    handler says "already mapped" — the dispatch loop renders it
    directly.
    """

    def __init__(self, status: int, message: str, **detail) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.detail = detail


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True

    def json(self) -> dict:
        """The body parsed as a JSON object, or :class:`HTTPError` 400."""
        try:
            payload = json.loads(self.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "JSON body must be an object")
        return payload


@dataclass
class Response:
    """One response, rendered by :meth:`render`."""

    status: int = 200
    content_type: str = "application/json"
    body: bytes = b""

    @classmethod
    def json(cls, payload, status: int = 200) -> "Response":
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def text(cls, text: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status=status, content_type=content_type,
                   body=text.encode("utf-8"))

    def render(self, *, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        head = (f"HTTP/1.1 {self.status} {reason}\r\n"
                f"Content-Type: {self.content_type}\r\n"
                f"Content-Length: {len(self.body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        return head.encode("ascii") + self.body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request/header line; an over-long one is the client's error
    (``StreamReader.readline`` reports its limit as ``ValueError``)."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise HTTPError(400, f"request line or header too long "
                             f"({exc})") from exc


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a closed peer.

    Whatever the peer sends, the outcome is a :class:`Request`,
    ``None``, or an :class:`HTTPError`: 400 on a malformed or over-long
    request/header line, an invalid ``Content-Length`` and a body that
    ends early, 413 when the declared body exceeds
    :data:`MAX_BODY_BYTES` (checked before buffering a single body
    byte).
    """
    try:
        line = await _read_line(reader)
        if not line:
            return None
        parts = line.decode("ascii", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HTTPError(400, f"malformed request line: {line!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await _read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("ascii", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not declared.isdigit():
            raise HTTPError(400, f"invalid Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise HTTPError(413, f"request body of {length} bytes exceeds "
                                 f"the {MAX_BODY_BYTES}-byte limit")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise HTTPError(
                400, f"request body cut short: {len(exc.partial)} of "
                     f"{length} bytes") from exc
    except ConnectionError:
        return None
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    keep_alive = headers.get(
        "connection", "keep-alive" if version == "HTTP/1.1" else "close"
    ).lower() != "close"
    return Request(method=method.upper(), path=split.path, query=query,
                   headers=headers, body=body, keep_alive=keep_alive)


def error_response(exc: HTTPError) -> Response:
    """The JSON error envelope every failure path renders."""
    payload = {"error": exc.message, "status": exc.status}
    for key, value in exc.detail.items():
        if value is not None:
            payload[key] = value
    return Response.json(payload, status=exc.status)
