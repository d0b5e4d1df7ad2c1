"""HTTP/1.1 keep-alive client and the open-loop load generator.

One asyncio loop in the benchmark process drives at most ``nproc``
keep-alive connections.  The generator releases each request at its due
time whatever the replies do; a connection that is free takes the next
released request.  Latency counts from the due time, so time a request
spends waiting for a busy connection is part of it.  How late the
generator itself released requests is reported separately
(``loadgen.late_ms_p99``): a run where it fell behind is invalid, not
slow.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple


class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the door")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Door:
    """A front door subprocess started from ``perfbench/door.py``."""

    def __init__(self, root: str, serve_args: Sequence[str],
                 trace_dir: Optional[str] = None, env: Optional[Dict] = None):
        command = [sys.executable, os.path.join(root, "perfbench", "door.py")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        command += list(serve_args)
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"door failed to start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def pids(self) -> List[int]:
        """The door's pid and its shards' pids."""
        pids = [self.process.pid]
        path = f"/proc/{self.process.pid}/task/{self.process.pid}/children"
        try:
            with open(path) as handle:
                pids += [int(p) for p in handle.read().split()]
        except OSError:
            pass
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the door and its shards."""
        total = 0.0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


async def get(port: int, path: str) -> bytes:
    """One GET on a fresh connection; raises unless the answer is 200."""
    conn = await Connection.open(port)
    try:
        status, payload = await conn.request("GET", path)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return payload


async def wait_healthy(port: int, shards: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            reply = json.loads(await get(port, "/v1/healthz"))
            alive = [s for s in reply.get("shards", []) if s.get("alive")]
            if reply.get("status") == "ok" and len(alive) == shards:
                return
        except (ConnectionError, OSError, RuntimeError, ValueError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("door did not become healthy")
        await asyncio.sleep(0.01)


async def closed_loop(port: int, jobs: Sequence[Tuple[str, bytes]]) -> List[Tuple[int, int, int, bytes]]:
    """Send jobs one at a time on one connection: ``(start_ns, end_ns, status, body)``."""
    conn = await Connection.open(port)
    out = []
    try:
        for path, body in jobs:
            start = time.monotonic_ns()
            status, payload = await conn.request("POST", path, body)
            out.append((start, time.monotonic_ns(), status, payload))
    finally:
        await conn.close()
    return out


async def open_loop(
    port: int,
    jobs: Sequence[Tuple[float, str, bytes]],
    connections: int,
    max_backlog: int,
) -> List[Optional[Tuple[int, int, int, int, int, bytes]]]:
    """Release ``(due_offset_s, path, body)`` jobs on schedule.

    Returns one row per job: ``(due_ns, released_ns, sent_ns, done_ns,
    status, body)``, or ``None`` for jobs never released because the
    backlog of released-but-unsent jobs passed ``max_backlog`` (the
    system fell so far behind that the rest of the ladder is moot).
    """
    conns = [await Connection.open(port) for _ in range(connections)]
    queue: asyncio.Queue = asyncio.Queue()
    rows: List[Optional[Tuple]] = [None] * len(jobs)
    t0 = time.monotonic_ns() + 20_000_000

    async def generator() -> None:
        for index, (due, _path, _body) in enumerate(jobs):
            due_ns = t0 + int(due * 1e9)
            delay = (due_ns - time.monotonic_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            if queue.qsize() > max_backlog:
                break
            queue.put_nowait((index, due_ns, time.monotonic_ns()))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while True:
            job = await queue.get()
            if job is None:
                return
            index, due_ns, released = job
            _due, path, body = jobs[index]
            sent = time.monotonic_ns()
            status, payload = await conn.request("POST", path, body)
            rows[index] = (due_ns, released, sent, time.monotonic_ns(), status, payload)

    try:
        await asyncio.gather(generator(), *(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return rows
