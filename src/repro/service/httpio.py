"""The HTTP/1.1 keep-alive loop behind ``repro serve`` and ``repro balance``.

A deliberately small, dependency-free HTTP/1.1 server side: request
line + headers + ``Content-Length`` body, keep-alive connections, JSON
(or plain-text) responses.  Each front end passes :func:`serve_connection`
its own route coroutine and the counter that tallies torn connections;
the balancer also reads its replicas' responses with :func:`read_headers`
and :func:`content_length`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable

from repro.telemetry import MetricsRegistry

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body accepted (a batch of a few thousand specs).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: ``route(method, target, body, headers) -> (status, payload, extra headers)``.
Route = Callable[
    [str, str, bytes, dict[str, str]],
    Awaitable[tuple[int, object, list[tuple[str, str]]]],
]


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    route: Route,
    registry: MetricsRegistry,
    error_counter: str,
    idle_timeout: float,
    connections: set[asyncio.Task],
) -> None:
    """Serve one keep-alive connection until the peer closes it, idles
    past *idle_timeout*, asks to close, or sends a request that cannot
    be framed (answered with a 400).  The serving task sits in
    *connections* while it runs, so a shutdown can cancel it; a torn
    connection counts as *error_counter* in *registry*."""
    task = asyncio.current_task()
    if task is not None:
        connections.add(task)
        task.add_done_callback(connections.discard)
    try:
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(), idle_timeout)
            except asyncio.TimeoutError:
                break
            if not line.strip():
                if not line:
                    break  # peer closed
                continue
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                await respond(
                    writer, 400, {"error": "bad request line"}, close=True
                )
                break
            method, target, version = parts
            headers = await read_headers(reader)
            if headers is None:
                break
            length = content_length(headers)
            if length is None or length > MAX_BODY_BYTES:
                error = "bad Content-Length" if length is None else "body too large"
                await respond(writer, 400, {"error": error}, close=True)
                break
            body = await reader.readexactly(length) if length else b""
            try:
                status, payload, extra = await route(
                    method.upper(), target, body, headers
                )
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                status, payload, extra = (
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    [],
                )
            close = (
                headers.get("connection", "").lower() == "close"
                or version == "HTTP/1.0"
            )
            await respond(writer, status, payload, extra, close)
            if close:
                break
    except (asyncio.IncompleteReadError, ConnectionError, ValueError):
        # A torn connection (or an over-long header line) only ends this
        # keep-alive session; the counter keeps churn visible in /metrics.
        registry.inc(error_counter)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - peer already gone
            pass


async def read_headers(reader: asyncio.StreamReader) -> dict[str, str] | None:
    """Header block as a lower-cased name -> value map; ``None`` if the
    stream ends first."""
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            return None
        if line in (b"\r\n", b"\n"):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def content_length(headers: dict[str, str]) -> int | None:
    """The declared body length (0 when absent); ``None`` when the value
    is not a non-negative decimal integer."""
    value = headers.get("content-length") or "0"
    if not (value.isascii() and value.isdigit()):
        return None
    return int(value)


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    extra_headers: list[tuple[str, str]] | None = None,
    close: bool = False,
) -> None:
    """Write one response: a ``str`` payload as plain text (the
    Prometheus exposition), anything else as JSON."""
    if isinstance(payload, str):
        body = payload.encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode()
        content_type = "application/json"
    head = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: " + ("close" if close else "keep-alive"),
    ]
    for name, value in extra_headers or []:
        head.append(f"{name}: {value}")
    writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
    await writer.drain()


def wants_prometheus(query: dict, headers: dict[str, str]) -> bool:
    """``?format=prom`` or an Accept preferring text/plain selects the
    Prometheus exposition; JSON stays the default."""
    requested = query.get("format", [""])[0].lower()
    if requested in ("prom", "prometheus", "text"):
        return True
    if requested:  # explicit ?format=json (or anything else)
        return False
    accept = headers.get("accept", "")
    return "text/plain" in accept and "application/json" not in accept
