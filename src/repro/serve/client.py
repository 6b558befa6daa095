"""A small blocking HTTP client for the evaluation service.

Built on :mod:`http.client` so the tests and the smoke script can
exercise the real wire protocol (status codes, headers, raw body
bytes — the byte-identity guarantee is checked on exactly what arrived)
without any dependency beyond the stdlib.

Retry behavior
--------------
By default the client performs exactly one exchange and never raises on
non-2xx statuses — error handling stays the caller's assertion, which is
what the test suites rely on. Passing ``max_retries > 0`` opts into
backpressure handling: a 429 is retried up to ``max_retries`` times,
sleeping the server's ``Retry-After`` (clamped to ``max_retry_after``)
plus bounded random jitter so synchronized clients do not re-stampede,
and a 503 whose body carries the ``draining`` error code raises the
typed :class:`ServerDrainingError` instead of burning retries on a
server that will not come back — callers redirect to another replica.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional


@dataclass(frozen=True)
class ServeResponse:
    """One HTTP exchange: status, headers (lower-cased keys), raw body."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON."""
        return json.loads(self.body)

    @property
    def batch_size(self) -> int:
        """The ``X-Batch-Size`` header, or 0 when absent."""
        return int(self.headers.get("x-batch-size", "0") or "0")

    @property
    def request_id(self) -> str:
        """The ``X-Request-Id`` header, or '' when absent."""
        return self.headers.get("x-request-id", "")

    @property
    def trace_id(self) -> str:
        """The ``X-Trace-Id`` header ('' when the server isn't tracing
        or logging): the key to fetch this request's stitched spans
        from ``GET /debug/trace``."""
        return self.headers.get("x-trace-id", "")

    @property
    def error_code(self) -> str:
        """The structured error code of a non-2xx body ('' when none)."""
        try:
            payload = self.json()
        except ValueError:
            return ""
        if isinstance(payload, dict) and isinstance(
            payload.get("error"), dict
        ):
            return str(payload["error"].get("code", ""))
        return ""


class ServeClientError(Exception):
    """Base class for typed client-side failures; carries the response."""

    def __init__(self, message: str, response: ServeResponse) -> None:
        super().__init__(message)
        self.response = response


class ServerDrainingError(ServeClientError):
    """The server answered 503/draining: it is shutting down.

    Raised only when retries are enabled (``max_retries > 0``) — a
    draining server never recovers, so retrying against it is wasted
    work; callers should fail over instead.
    """


class ServeClient:
    """Blocking client for one server; one connection per call.

    A fresh connection per request keeps concurrent use trivially safe
    (``http.client`` connections are not thread-safe) and exercises the
    server's accept path the way independent tenants would.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        max_retries: int = 0,
        max_retry_after: float = 5.0,
        _sleep: Callable[[float], None] = time.sleep,
        _rng: Optional[random.Random] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_retry_after = max_retry_after
        self._sleep = _sleep
        self._rng = _rng or random.Random()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> ServeResponse:
        """One logical exchange (plus opted-in 429 retries).

        With the default ``max_retries=0`` this is exactly one wire
        exchange and never raises on non-2xx statuses. With retries
        enabled, 429 responses are retried after the jittered
        ``Retry-After`` and a draining 503 raises
        :class:`ServerDrainingError`.
        """
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            response = self._exchange(method, path, body, headers)
            if self.max_retries == 0:
                return response
            if (
                response.status == 503
                and response.error_code == "draining"
            ):
                raise ServerDrainingError(
                    "server is draining; fail over to another replica",
                    response,
                )
            if response.status != 429 or attempt == attempts - 1:
                return response
            self._sleep(self._backoff_seconds(response))
        return response  # pragma: no cover - loop always returns

    def _backoff_seconds(self, response: ServeResponse) -> float:
        """The jittered, clamped Retry-After of one 429 response."""
        try:
            retry_after = float(response.headers.get("retry-after", "1"))
        except ValueError:
            retry_after = 1.0
        retry_after = min(max(retry_after, 0.0), self.max_retry_after)
        # Full jitter (0.5x-1.5x) decorrelates synchronized clients
        # without ever waiting longer than 1.5x the clamped hint.
        return retry_after * (0.5 + self._rng.random())

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Mapping[str, str]],
    ) -> ServeResponse:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                method, path, body=body, headers=dict(headers or {})
            )
            raw = connection.getresponse()
            payload = raw.read()
            return ServeResponse(
                status=raw.status,
                headers={
                    name.lower(): value for name, value in raw.getheaders()
                },
                body=payload,
            )
        finally:
            connection.close()

    def get(self, path: str) -> ServeResponse:
        return self.request("GET", path)

    def post(
        self,
        path: str,
        payload: Any,
        deadline_ms: Optional[float] = None,
    ) -> ServeResponse:
        """POST ``payload`` as JSON; ``deadline_ms`` sets ``X-Deadline-Ms``."""
        headers = {"Content-Type": "application/json"}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = str(deadline_ms)
        return self.request(
            "POST", path, body=json.dumps(payload).encode("utf-8"),
            headers=headers,
        )


__all__ = [
    "ServeClient",
    "ServeClientError",
    "ServeResponse",
    "ServerDrainingError",
]
