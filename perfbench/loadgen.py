"""Open-loop HTTP load generator for ``repro serve`` (stdlib only).

One process, one thread, a ``selectors`` loop and at most ``max_conns``
connections open at once (the server answers one request per
connection and then closes it).  Request ``i`` of a phase is *due* at
``t0 + i / rate`` whatever happened to earlier requests, and its
latency is measured from that due time to the last byte of the
response, so time a request spends waiting for a free connection (a
stall anywhere) counts against it.  How late the generator itself
started each request is recorded separately as ``lateness``.
"""

from __future__ import annotations

import errno
import json
import selectors
import socket
import time
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One request's fate within a phase."""

    index: int
    due: float
    started: float = 0.0
    finished: float = 0.0
    status: int = 0
    record_line: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """Due time to last response byte, in milliseconds."""
        return (self.finished - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        """How long after its due time the request was started."""
        return (self.started - self.due) * 1000.0


@dataclass
class Phase:
    """The outcomes of one fixed-rate phase plus its wall window."""

    rate: float
    outcomes: list[Outcome] = field(default_factory=list)
    t0: float = 0.0
    t_end: float = 0.0


def request_bytes(name: str, xml: str, request_id: str) -> bytes:
    """A ``POST /v1/disambiguate`` with a JSON envelope body."""
    body = json.dumps({"name": name, "xml": xml}).encode("utf-8")
    head = (
        "POST /v1/disambiguate HTTP/1.1\r\nHost: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"X-Request-Id: {request_id}\r\nX-Bench-Name: {name}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def parse_response(raw: bytes) -> tuple[int, bytes]:
    """``(status, record line)`` of a chunked NDJSON response.

    The record line is the one before the trailing ``DocOutcome``
    envelope line — byte for byte what ``repro batch`` writes.
    """
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, b""
    if b"chunked" not in head.lower():
        return status, b""
    data = bytearray()
    pos = 0
    while True:
        eol = body.find(b"\r\n", pos)
        try:
            size = int(body[pos:eol], 16) if eol >= 0 else -1
        except ValueError:
            size = -1
        if size < 0:
            return status, b""  # broken chunk framing
        if size == 0:
            break
        data += body[eol + 2:eol + 2 + size]
        pos = eol + 2 + size + 2
    lines = bytes(data).rstrip(b"\n").split(b"\n")
    return status, (lines[-2] if len(lines) >= 2 else b"")


class _Conn:
    __slots__ = ("sock", "outcome", "payload", "sent", "buf")

    def __init__(self, sock: socket.socket, outcome: Outcome,
                 payload: bytes):
        self.sock = sock
        self.outcome = outcome
        self.payload = payload
        self.sent = 0
        self.buf = bytearray()


def run_phase(
    address: tuple[str, int],
    payloads: list[bytes],
    rate: float,
    max_conns: int,
    timeout_s: float = 10.0,
) -> Phase:
    """Send ``payloads`` open-loop at ``rate`` per second; collect outcomes.

    A request still unanswered ``timeout_s`` after it started is closed
    and recorded as a failure (``error="timeout"``).
    """
    selector = selectors.DefaultSelector()
    phase = Phase(rate=rate)
    n = len(payloads)
    t0 = time.perf_counter() + 0.005
    phase.t0 = t0
    outcomes = [Outcome(i, t0 + i / rate) for i in range(n)]
    phase.outcomes = outcomes
    active: dict[int, _Conn] = {}
    next_i = 0

    def close(conn: _Conn, error: str = "") -> None:
        selector.unregister(conn.sock)
        conn.sock.close()
        del active[id(conn)]
        out = conn.outcome
        out.finished = time.perf_counter()
        if error:
            out.error = error
            return
        out.status, out.record_line = parse_response(bytes(conn.buf))
        if out.status == 0:
            out.error = "malformed response"

    try:
        while next_i < n or active:
            now = time.perf_counter()
            while next_i < n and len(active) < max_conns and \
                    outcomes[next_i].due <= now:
                out = outcomes[next_i]
                out.started = now
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setblocking(False)
                err = sock.connect_ex(address)
                conn = _Conn(sock, out, payloads[next_i])
                active[id(conn)] = conn
                next_i += 1
                if err not in (0, errno.EINPROGRESS):
                    selector.register(sock, selectors.EVENT_WRITE, conn)
                    close(conn, f"connect: {errno.errorcode.get(err, err)}")
                    continue
                selector.register(sock, selectors.EVENT_WRITE, conn)
                now = time.perf_counter()
            if next_i < n and len(active) < max_conns:
                wait = max(0.0, outcomes[next_i].due - now)
            else:
                wait = 0.05
            if not active:
                time.sleep(wait)
                continue
            oldest = min(c.outcome.started for c in active.values())
            wait = min(wait, max(0.0, oldest + timeout_s - now))
            for key, _mask in selector.select(wait):
                conn = key.data
                try:
                    if conn.sent < len(conn.payload):
                        conn.sent += conn.sock.send(conn.payload[conn.sent:])
                        if conn.sent == len(conn.payload):
                            selector.modify(conn.sock, selectors.EVENT_READ,
                                            conn)
                        continue
                    chunk = conn.sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError as exc:
                    close(conn, f"socket: {exc}")
                    continue
                if chunk:
                    conn.buf += chunk
                else:
                    close(conn)
            now = time.perf_counter()
            for conn in [c for c in active.values()
                         if now - c.outcome.started > timeout_s]:
                close(conn, "timeout")
    finally:
        for conn in list(active.values()):
            close(conn, "aborted")
        selector.close()
    phase.t_end = time.perf_counter()
    return phase


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def get_json(address: tuple[str, int], path: str) -> dict:
    """A blocking ``GET`` of a fixed-length JSON endpoint."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode("ascii")
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return json.loads(data.partition(b"\r\n\r\n")[2])
