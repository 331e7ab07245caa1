"""Unix-socket JSON-lines front end for the plan-compilation daemon.

Protocol: one JSON object per line, one reply line per request, over a
persistent connection.  Ops:

- ``{"op": "ping"}`` → ``{"ok": true, "op": "ping"}``
- ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}`` (ServiceStats)
- ``{"op": "compile", "model": ..., "device": ..., ...}`` (op defaults to
  compile; remaining fields are :meth:`CompileRequest.to_payload` fields,
  and any other key is refused) →
  ``{"ok": true, "plan": {...}, "source": ..., "coalesced": ..., ...}``

Errors come back as ``{"ok": false, "error": "..."}`` on the same line; a
malformed or failing request never takes the connection (or the daemon)
down.  Concurrent requests from many connections coalesce in the daemon
exactly like in-process submissions.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from typing import Any, Dict, Optional

from repro.service.daemon import PlanCompilationService, ServiceError
from repro.service.request import CompileRequest

#: Default rendezvous path for ``repro serve`` / ``repro compile --via-service``.
DEFAULT_SOCKET = ".repro-service.sock"


def _reply_payload(reply) -> Dict[str, Any]:
    """Wire form of one ServiceReply (plan as parsed JSON, not a string)."""
    return {
        "ok": True,
        "model": reply.request.model,
        "device": reply.request.device,
        "source": reply.source,
        "coalesced": reply.coalesced,
        "wall_s": round(reply.wall_s, 4),
        "worker_pid": reply.worker_pid,
        "preload_ratio": reply.plan.preload_ratio,
        "solver_status": reply.plan.stats.solver_status,
        "plan": json.loads(reply.plan.to_json()),
    }


class ServiceServer:
    """Asyncio unix-socket server wrapping one :class:`PlanCompilationService`."""

    def __init__(self, service: PlanCompilationService, socket_path: str) -> None:
        self.service = service
        self.socket_path = str(socket_path)
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
            op = payload.pop("op", "compile")
            if op == "ping":
                return {"ok": True, "op": "ping", "pid": os.getpid()}
            if op == "stats":
                return {"ok": True, "stats": self.service.stats.snapshot()}
            if op != "compile":
                raise ValueError(f"unknown op {op!r}")
            request = CompileRequest.from_payload(payload)
            reply = await self.service.submit(request)
            return _reply_payload(reply)
        except (ServiceError, ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


async def run_server(socket_path: str, *, workers: int = 1,
                     cache_dir: Optional[str] = None, max_batch: int = 64,
                     ready: Optional[Any] = None,
                     stop: Optional[asyncio.Event] = None) -> None:
    """Run the daemon + socket server until cancelled (or ``stop`` is set).

    ``ready`` is an optional callable invoked once the socket is listening
    (the CLI prints its banner there; tests use it to synchronize).
    """
    async with PlanCompilationService(
        workers=workers, cache_dir=cache_dir, max_batch=max_batch
    ) as service:
        server = ServiceServer(service, socket_path)
        await server.start()
        if ready is not None:
            ready()
        try:
            if stop is None:
                await asyncio.Event().wait()  # serve forever (until cancelled)
            else:
                await stop.wait()
        finally:
            await server.close()


class ServiceClient:
    """Blocking JSON-lines client over one persistent unix-socket connection."""

    def __init__(self, socket_path: str, *, timeout: float = 600.0) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)
        self._file = self._sock.makefile("rwb")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("service closed the connection")
        return json.loads(line)

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def compile(self, request: CompileRequest) -> Dict[str, Any]:
        """Request one compilation; raises :class:`ServiceError` on failure."""
        response = self.request({"op": "compile", **request.to_payload()})
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown service error"))
        return response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()
