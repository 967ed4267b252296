"""HTTP load generator for the serve-mixed workload.

A fixed pool of keep-alive connections, each driven by one thread.  The
open loop sends request ``i`` at ``start + i / rate`` whatever the
server's state, so a stall shows up as latency of the requests queued
behind it: every latency is timed from when its request was *due*, not
from when it was sent.  The closed loop sends each connection's next
request as soon as its previous reply arrives; it warms the server up.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: One request: (kind, method, path, JSON body).
Request = Tuple[str, str, str, dict]


@dataclass
class Record:
    index: int
    kind: str
    due: float
    sent: float
    done: float
    status: int
    body: Optional[dict]
    #: Send delay the generator itself caused: time between the request
    #: being both due and on a free connection, and being sent.
    lateness: float

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int, timeout_s: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout_s
        )

    def send(self, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, Optional[dict]]:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw) if raw else None
        except ValueError:
            decoded = None
        return response.status, decoded

    def close(self) -> None:
        self._conn.close()


def _drive(connections: Sequence[Connection], requests: Sequence[Request],
           first: int, count: int, rate: Optional[float]) -> List[Record]:
    """Send ``requests[first:first + count]`` over ``connections``.

    With ``rate`` the requests follow the open-loop schedule; without it
    each connection sends back to back.
    """
    lock = threading.Lock()
    cursor = [first]
    end = min(first + count, len(requests))
    records: List[Record] = []
    errors: List[Exception] = []
    start = time.perf_counter()

    def worker(conn: Connection) -> None:
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= end:
                        return
                    cursor[0] += 1
                free = time.perf_counter()
                due = free
                if rate is not None:
                    due = start + (index - first) / rate
                    if due > free:
                        time.sleep(due - free)
                sent = time.perf_counter()
                kind, method, path, body = requests[index]
                status, reply = conn.send(method, path, body)
                done = time.perf_counter()
                record = Record(index, kind, due, sent, done, status, reply,
                                sent - max(due, free))
                with lock:
                    records.append(record)
        except Exception as error:  # re-raised by the caller below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    records.sort(key=lambda record: record.index)
    return records


def open_loop(connections: Sequence[Connection], requests: Sequence[Request],
              first: int, count: int, rate: float) -> List[Record]:
    """Open-loop phase: ``count`` requests at ``rate`` per second."""
    return _drive(connections, requests, first, count, rate)


def closed_loop(connections: Sequence[Connection],
                requests: Sequence[Request]) -> List[Record]:
    """Closed loop: every request, each connection sending back to back."""
    return _drive(connections, requests, 0, len(requests), None)
