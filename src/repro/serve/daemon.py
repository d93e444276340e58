"""The asyncio estimate-serving daemon behind ``repro serve``.

Transports: a unix stream socket speaking JSON lines (many requests per
connection) and/or a minimal localhost HTTP endpoint (one JSON request
per POST) - both carrying the vocabulary of
:mod:`repro.serve.protocol`.  The event loop only parses requests and
shuttles bytes; everything that touches a tape happens on worker
threads: opening, fingerprinting and the one-time conversion of text
inputs to tapes in :meth:`TapeRegistry.entry_for`, and
the sweeps themselves on each tape's
:class:`~repro.serve.scheduler.SweepScheduler` thread, with request
handlers parked on ``asyncio.to_thread(job.wait)`` until their job
completes.

Knobs (flag wins, then environment, then default):

* ``REPRO_SERVE_SOCKET`` - unix socket path (``--socket``);
* ``REPRO_SERVE_PORT`` - localhost TCP port for HTTP (``--port``;
  ``0`` picks an ephemeral port);
* ``REPRO_SERVE_CACHE_SIZE`` - result-cache entries (``--cache-size``,
  default 256);
* ``REPRO_SERVE_BATCH_WINDOW`` - seconds an idle tape waits for
  co-riding requests before its first sweep (``--batch-window``,
  default 0.05).

The result cache is in-memory only: a restarted daemon is cleanly cold
(the restart test pins this), and every miss recomputes through the
sweep scheduler - where concurrent identical requests still share their
traversals.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import threading
from typing import Dict, List, Optional

from ..core.driver import estimate_program
from ..errors import ReproError, ProtocolError, ServeError
from .cache import DEFAULT_CACHE_SIZE, ResultCache, cache_key
from .jobs import Job
from .protocol import (
    decode_request,
    encode_response,
    error_document,
    estimate_params,
    result_document,
)
from .registry import TapeRegistry
from .scheduler import next_job_id

DEFAULT_BATCH_WINDOW = 0.05
_MAX_HTTP_BODY = 1 << 20

#: Failures converted into ``{"ok": false}`` responses; anything else is
#: a daemon bug and propagates (closing the connection, not the daemon).
_REQUEST_ERRORS = (ReproError, OSError)


def _env_int(name: str, default: Optional[int]) -> Optional[int]:
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        return int(value)
    except ValueError as exc:
        raise ServeError(f"{name} must be an integer, got {value!r}") from exc


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        return float(value)
    except ValueError as exc:
        raise ServeError(f"{name} must be a number, got {value!r}") from exc


class EstimateServer:
    """The serving daemon: registry + cache + per-tape sweep schedulers."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
        cache_size: Optional[int] = None,
        batch_window: Optional[float] = None,
    ) -> None:
        if socket_path is None:
            socket_path = os.environ.get("REPRO_SERVE_SOCKET", "").strip() or None
        if port is None:
            port = _env_int("REPRO_SERVE_PORT", None)
        if cache_size is None:
            cache_size = _env_int("REPRO_SERVE_CACHE_SIZE", DEFAULT_CACHE_SIZE)
        if batch_window is None:
            batch_window = _env_float("REPRO_SERVE_BATCH_WINDOW", DEFAULT_BATCH_WINDOW)
        self.socket_path = socket_path
        self.port = port
        self.host = host
        self.registry = TapeRegistry(batch_window=batch_window)
        self.cache = ResultCache(cache_size)
        self._servers: List[asyncio.AbstractServer] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_requested: Optional[asyncio.Event] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the configured transports (at least one is required)."""
        if self.socket_path is None and self.port is None:
            raise ServeError(
                "no endpoint configured: pass --socket/--port or set "
                "REPRO_SERVE_SOCKET/REPRO_SERVE_PORT"
            )
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        if self.socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(self._serve_unix, path=self.socket_path)
            )
        if self.port is not None:
            http_server = await asyncio.start_server(
                self._serve_http, self.host, self.port
            )
            self.port = http_server.sockets[0].getsockname()[1]
            self._servers.append(http_server)

    def endpoints(self) -> List[str]:
        described = []
        if self.socket_path is not None:
            described.append(f"unix socket {self.socket_path} (JSON lines)")
        if self.port is not None:
            described.append(f"http://{self.host}:{self.port}/ (POST JSON)")
        return described

    def request_shutdown(self) -> None:
        """Ask the daemon to stop; safe from any thread or signal handler."""
        loop, event = self._loop, self._shutdown_requested
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def serve_until_shutdown(self) -> None:
        await self._shutdown_requested.wait()
        await self.stop()

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers = []
        # Scheduler shutdown joins sweep threads - off the event loop.
        await asyncio.to_thread(self.registry.shutdown)

    # -- transports -------------------------------------------------------

    async def _serve_unix(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line.strip():
                    break
                shutdown = False
                try:
                    request = decode_request(line)
                    shutdown = request.get("op") == "shutdown"
                    document = await self._dispatch(request)
                except _REQUEST_ERRORS as exc:
                    document = error_document(exc)
                writer.write(encode_response(document))
                await writer.drain()
                if shutdown:
                    self.request_shutdown()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            method = request_line.split(b" ", 1)[0].upper()
            content_length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.partition(b":")
                if name.strip().lower() == b"content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        content_length = -1
            shutdown = False
            if method != b"POST":
                document = error_document(
                    ProtocolError(f"only POST is accepted, got {method.decode()!r}")
                )
            elif not 0 <= content_length <= _MAX_HTTP_BODY:
                document = error_document(
                    ProtocolError(f"bad Content-Length (max {_MAX_HTTP_BODY})")
                )
            else:
                body = await reader.readexactly(content_length)
                try:
                    request = decode_request(body)
                    shutdown = request.get("op") == "shutdown"
                    document = await self._dispatch(request)
                except _REQUEST_ERRORS as exc:
                    document = error_document(exc)
            payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + payload
            )
            await writer.drain()
            if shutdown:
                self.request_shutdown()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- request handling -------------------------------------------------

    async def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request["op"]
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return self._stats()
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        return await self._estimate(request)

    async def _estimate(self, request: Dict[str, object]) -> Dict[str, object]:
        path, kappa, config = estimate_params(request)
        entry = await asyncio.to_thread(self.registry.entry_for, path)
        key = cache_key(entry.fingerprint_hex, config, kappa)
        hit = self.cache.get(key)
        if hit is not None:
            cached = dict(hit)
            cached["cached"] = True
            return cached
        job_id = next_job_id()
        job = Job(
            job_id,
            estimate_program(
                entry.stream, kappa, config, owner_prefix=f"{job_id}/"
            ),
        )
        entry.jobs_submitted += 1
        entry.scheduler.submit(job)
        await asyncio.to_thread(job.wait)
        if job.error is not None:
            if isinstance(job.error, _REQUEST_ERRORS):
                return error_document(job.error)
            raise job.error
        document = result_document(
            job.outcome,
            job.accounting,
            cached=False,
            fingerprint_hex=entry.fingerprint_hex,
            job_id=job_id,
        )
        # The cached copy drops the per-job fields: a hit served zero
        # sweeps, so replaying the original job's share would mislead.
        self.cache.put(
            key, {k: v for k, v in document.items() if k not in ("job", "accounting")}
        )
        return document

    def _stats(self) -> Dict[str, object]:
        return {
            "ok": True,
            "tapes": [
                {
                    "fingerprint": entry.fingerprint_hex,
                    "path": entry.path,
                    "source": entry.source,
                    "convert_s": entry.convert_s,
                    "jobs_submitted": entry.jobs_submitted,
                    "jobs_completed": entry.scheduler.jobs_completed,
                    "jobs_failed": entry.scheduler.jobs_failed,
                    "sweeps_physical": entry.scheduler.sweeps_physical,
                }
                for entry in self.registry.entries()
            ],
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
        }


# ---------------------------------------------------------------------------
# embedding helpers


@contextlib.contextmanager
def background_server(**kwargs):
    """Run an :class:`EstimateServer` on a background thread.

    The embedding surface for tests and the bench suite: yields the
    started server (``server.port`` holds the resolved ephemeral port),
    and shuts it down - draining its sweep schedulers - on exit.
    """
    server = EstimateServer(**kwargs)
    started = threading.Event()
    failures: List[BaseException] = []

    def _run() -> None:
        async def _main() -> None:
            try:
                await server.start()
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)
                started.set()
                return
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(30.0):
        raise ServeError("server did not start within 30s")
    if failures:
        raise failures[0]
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(30.0)


def serve_forever(
    socket_path: Optional[str] = None,
    port: Optional[int] = None,
    cache_size: Optional[int] = None,
    batch_window: Optional[float] = None,
    echo=print,
) -> int:
    """Run the daemon until SIGINT/SIGTERM or a ``shutdown`` request.

    The blocking entry point behind the ``repro serve`` CLI verb.
    """
    server = EstimateServer(
        socket_path=socket_path,
        port=port,
        cache_size=cache_size,
        batch_window=batch_window,
    )

    async def _main() -> None:
        await server.start()
        for endpoint in server.endpoints():
            echo(f"serving on {endpoint}")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.add_signal_handler(signum, server.request_shutdown)
        await server.serve_until_shutdown()

    asyncio.run(_main())
    echo("server stopped")
    return 0
