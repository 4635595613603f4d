"""A small keep-alive HTTP client for the archive server.

Shared by the serve tests, the ``bench/`` ``serve_zipf`` workload, and
``examples/serve_client.py`` so they all exercise the server the same
way: one persistent connection per client (the server's keep-alive
path), JSON helpers, and a reconnect-once retry for the race where the
server closed an idle connection between requests.
"""

from __future__ import annotations

import http.client
import json

__all__ = ["ServeClient"]


class ServeClient:
    """One persistent connection to an :class:`ArchiveServer`."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(self, method: str, target: str,
                 body: bytes | None = None,
                 headers: dict | None = None) -> "tuple[int, bytes]":
        try:
            conn = self._connection()
            conn.request(method, target, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        except (ConnectionError, http.client.HTTPException, OSError):
            # The server may have dropped an idle keep-alive connection;
            # retry exactly once on a fresh one.
            self.close()
            conn = self._connection()
            conn.request(method, target, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()

    def get(self, target: str) -> "tuple[int, bytes]":
        """``GET target`` → ``(status, body_bytes)``."""
        return self._request("GET", target)

    def get_text(self, target: str) -> str:
        """``GET target`` asserting 200; returns the body as text."""
        status, body = self.get(target)
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}: "
                               f"{body[:200]!r}")
        return body.decode("utf-8")

    def get_json(self, target: str) -> dict:
        """``GET target`` asserting 200; returns the parsed JSON body."""
        return json.loads(self.get_text(target))

    def post_json(self, target: str,
                  payload: dict) -> "tuple[int, dict]":
        """``POST target`` with a JSON body → ``(status, parsed_body)``."""
        body = json.dumps(payload).encode("utf-8")
        status, raw = self._request(
            "POST", target, body=body,
            headers={"Content-Type": "application/json"})
        return status, json.loads(raw.decode("utf-8"))
