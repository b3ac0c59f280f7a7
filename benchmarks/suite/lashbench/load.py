"""Load generation: keep-alive HTTP clients and the closed loop."""

from __future__ import annotations

import gzip
import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Iterator
from urllib.parse import quote

from lashbench.gen import Request

_HEADERS = {"Accept-Encoding": "gzip", "Connection": "keep-alive"}


@dataclass
class Sample:
    request: Request
    start: float  # seconds since the loop started
    latency: float
    status: int  # 0 = transport failure
    payload: dict | None
    wire_bytes: int
    #: set when the response has been checked against its oracle
    correct: bool = False

    @property
    def end(self) -> float:
        return self.start + self.latency


class HttpClient:
    """One keep-alive connection; reconnects after a transport error or
    a ``Connection: close`` answer."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0) -> None:
        self._address = address
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self._address, timeout=self._timeout
            )
        return self._conn

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def fetch(self, method: str, path: str, body: bytes | None = None):
        """``(status, payload, wire_bytes)``; status 0 and a ``None``
        payload on a transport failure."""
        headers = dict(_HEADERS)
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, None, 0
        if response.will_close:
            self.close()
        if response.getheader("Content-Encoding") == "gzip":
            data = gzip.decompress(raw)
        else:
            data = raw
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        return response.status, payload, len(raw)

    def get_json(self, path: str) -> dict:
        status, payload, _ = self.fetch("GET", path)
        if status != 200 or not isinstance(payload, dict):
            raise RuntimeError(f"GET {path} answered {status}")
        return payload

    def send(self, request: Request):
        if request.kind == "batch":
            body = json.dumps(
                {"queries": list(request.queries), "limit": request.limit}
            ).encode("utf-8")
            return self.fetch("POST", "/batch", body)
        path = f"/{request.kind}?q={quote(request.queries[0])}"
        if request.limit is not None:
            path += f"&limit={request.limit}"
        return self.fetch("GET", path)


def closed_loop(
    address: tuple[str, int],
    streams: list[Iterator[Request]],
    seconds: float,
    max_requests: int | None = None,
    stop: threading.Event | None = None,
    origin: float | None = None,
) -> list[Sample]:
    """One closed-loop client per stream, each on its own keep-alive
    connection: the next request goes out when the previous answer is
    in.  Runs for ``seconds``, or until every client sent
    ``max_requests`` or ``stop`` is set; returns the samples ordered by
    completion, timed from ``origin`` (a ``time.monotonic`` reading,
    one clock for every process of the machine; now by default)."""
    if origin is None:
        origin = time.monotonic()
    deadline = time.monotonic() + seconds
    collected: list[list[Sample]] = [[] for _ in streams]

    def client(samples: list[Sample], stream: Iterator[Request]) -> None:
        with HttpClient(address) as http_client:
            while time.monotonic() < deadline:
                if max_requests is not None and len(samples) >= max_requests:
                    break
                if stop is not None and stop.is_set():
                    break
                request = next(stream)
                start = time.monotonic()
                status, payload, wire = http_client.send(request)
                samples.append(
                    Sample(
                        request,
                        start - origin,
                        time.monotonic() - start,
                        status,
                        payload,
                        wire,
                    )
                )

    threads = [
        threading.Thread(target=client, args=(samples, stream), daemon=True)
        for samples, stream in zip(collected, streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load client did not finish")
    return sorted(
        (s for samples in collected for s in samples), key=lambda s: s.end
    )
