"""Load generation over keep-alive loopback HTTP/1.1 connections.

One process, at most ``conns`` connections (``nproc``), one thread per
connection.  The open loop sends each request when it is due and times
it from the due time, so waiting for a busy connection counts;
the closed loop sends each connection's next request as soon as its
previous answer arrives (zero think time).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import zlib
from dataclasses import dataclass

_now = time.perf_counter_ns

#: Seconds before a request with no answer counts as timed out.
REQUEST_TIMEOUT_S = 20.0


@dataclass
class Response:
    """One request's outcome; times are ``perf_counter_ns`` values."""

    phase: str
    path: str
    body: bytes
    due: int
    dispatched: int
    sent: int = 0
    done: int = 0
    status: int = 0
    cache: str = ""
    data: bytes = b""
    error: str | None = None
    #: Open loop: a connection was free before the request was due, so
    #: ``dispatched - due`` is the generator's own lateness.
    on_time: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) / 1e6

    @property
    def crc(self) -> int:
        return zlib.crc32(self.body)


class Connection:
    """A minimal HTTP/1.1 keep-alive client (one request in one write)."""

    def __init__(self, address: tuple[str, int]):
        self.address = address
        self.sock: socket.socket | None = None
        self.rfile = None

    def _open(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        if self.rfile is not None:
            self.rfile.close()
        if self.sock is not None:
            self.sock.close()
        self.sock = self.rfile = None

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, dict, bytes]:
        if self.sock is None:
            self._open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.sock.sendall(head + body)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = self.rfile.read(int(headers.get("content-length", 0)))
        return status, headers, data

    def send(self, response: Response) -> None:
        """Issue ``response``'s request and fill in the outcome."""
        response.sent = _now()
        try:
            status, headers, data = self.request("POST", response.path, response.body)
        except (OSError, ValueError, IndexError) as exc:
            response.error = f"{type(exc).__name__}: {exc}"
            self.close()  # reconnect for the next request
        else:
            response.status = status
            response.cache = headers.get("x-cache", "")
            response.data = data
        response.done = _now()


def open_loop(
    address: tuple[str, int],
    bodies: list[bytes],
    offsets_s,
    conns: int,
    phase: str = "open",
    path: str = "/aggregate",
) -> list[Response]:
    """Send ``bodies[i]`` at ``start + offsets_s[i]``, timed from that due time.

    Each connection's thread takes the next request in due order as soon
    as it is free and sleeps until the request is due; a request that no
    connection is free for when due is sent as soon as one frees up.
    """
    lock = threading.Lock()
    order = itertools.count()
    out: list[Response | None] = [None] * len(bodies)
    start = _now() + 20_000_000  # 20 ms for the workers to connect

    def worker() -> None:
        connection = Connection(address)
        try:
            while True:
                with lock:
                    index = next(order)
                if index >= len(bodies):
                    return
                due = start + int(offsets_s[index] * 1e9)
                early = due - _now()
                if early > 0:
                    time.sleep(early / 1e9)
                response = Response(phase, path, bodies[index], due=due, dispatched=_now())
                response.on_time = early > 0
                connection.send(response)
                out[index] = response
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def closed_loop(
    address: tuple[str, int],
    bodies: list[bytes],
    conns: int,
    seconds: float | None = None,
    phase: str = "closed",
    path: str = "/aggregate",
) -> tuple[list[Response], float]:
    """Zero-think-time loop over ``bodies``, optionally stopped after ``seconds``.

    Returns the responses and the wall seconds from start to the last
    completion.
    """
    lock = threading.Lock()
    order = itertools.count()
    out: list[Response] = []
    start = _now()
    deadline = None if seconds is None else start + int(seconds * 1e9)

    def worker() -> None:
        connection = Connection(address)
        try:
            while True:
                with lock:
                    index = next(order)
                if index >= len(bodies) or (deadline is not None and _now() >= deadline):
                    return
                now = _now()
                response = Response(phase, path, bodies[index], due=now, dispatched=now)
                connection.send(response)
                with lock:
                    out.append(response)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    last = max((r.done for r in out), default=start)
    return out, (last - start) / 1e9
