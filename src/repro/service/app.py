"""The HTTP front door: an asyncio server over the job store.

Pure stdlib — ``asyncio.start_server`` plus a ~hundred lines of
HTTP/1.1 framing — so the service adds no dependency the simulator
does not already have, and nothing about the job model leaks into the
transport (the route handlers produce plain dicts; swapping in a real
ASGI framework later would reuse every layer below this module).

Routes (full reference with schemas and curl examples: ``docs/service.md``):

====== ================== ===========================================
GET    /healthz            liveness + version
GET    /meta               apps, schemes, figures
POST   /jobs               submit a job (points | figure | validate)
GET    /jobs               list jobs (``?state=``, ``?limit=``;
                           newest first)
GET    /jobs/{id}          one job: state, progress, result
DELETE /jobs/{id}          cancel (point-boundary deterministic)
GET    /results/{key}      raw cached payload by point digest
GET    /stats              uptime + job counts
GET    /metrics            Prometheus text exposition of the registry
GET    /sweeps             result-cache catalog (decoded points)
GET    /sweeps/{digest}    one cached point: key components + payload
====== ================== ===========================================

``GET /results/{key}`` streams the cache file *bytes verbatim* — the
same bytes a CLI sweep wrote (or would read), which is what makes the
HTTP path byte-identical to the local one and lets service clients and
CLI users share one cache under the existing lockfile discipline.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
import threading
import urllib.parse
from dataclasses import dataclass, field

from repro.common import metrics
from repro.service.jobs import JobStore, StoreClosing
from repro.service.schemas import SchemaError, parse_job_request

#: Client identity header naming a job's owner; absent means "anonymous".
TOKEN_HEADER = "x-repro-token"

#: Largest accepted request body (a 2048-point job is ~200 KB of JSON).
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass
class Route:
    """One routing entry — kept introspectable for the docs-drift gate."""

    method: str
    template: str           #: human path template, e.g. "/jobs/{id}"
    handler: str            #: ServiceApp method name
    description: str
    regex: re.Pattern = field(init=False)

    def __post_init__(self):
        pattern = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", self.template)
        self.regex = re.compile(f"^{pattern}$")


#: The service's complete route table.  ``scripts/check_docs_drift.py``
#: asserts every template here is documented under ``docs/``.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "handle_healthz", "liveness and version"),
    Route("GET", "/meta", "handle_meta",
          "apps, schemes, figures the server accepts"),
    Route("POST", "/jobs", "handle_submit", "submit a job"),
    Route("GET", "/jobs", "handle_list_jobs", "list all jobs"),
    Route("GET", "/jobs/{id}", "handle_get_job",
          "one job's state, progress, and result"),
    Route("DELETE", "/jobs/{id}", "handle_cancel_job", "cancel a job"),
    Route("GET", "/results/{key}", "handle_get_result",
          "raw cached result payload by point digest"),
    Route("GET", "/stats", "handle_stats",
          "uptime and job counts by state"),
    Route("GET", "/metrics", "handle_metrics",
          "metrics registry in Prometheus text exposition format"),
    Route("GET", "/sweeps", "handle_sweeps",
          "result-cache catalog: every cached point, decoded"),
    Route("GET", "/sweeps/{digest}", "handle_sweep_detail",
          "one cached point: key components, latency, payload"),
)

_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"

    @classmethod
    def json(cls, payload, status: int = 200) -> "Response":
        return cls(status=status,
                   body=(json.dumps(payload, default=str) + "\n").encode())

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)

    def encode(self) -> bytes:
        head = [f"HTTP/1.1 {self.status} "
                f"{_STATUS_TEXT.get(self.status, 'Unknown')}",
                f"Content-Type: {self.content_type}",
                f"Content-Length: {len(self.body)}",
                "Connection: close"]
        return ("\r\n".join(head) + "\r\n\r\n").encode() + self.body


class ServiceApp:
    """Routing + handlers; owns a :class:`JobStore`.

    Construction enables the process metrics registry by default (so
    ``GET /metrics`` is live out of the box); pass
    ``enable_metrics=False`` to keep the zero-overhead null registry —
    the route then serves an empty exposition.
    """

    def __init__(self, store: JobStore | None = None,
                 enable_metrics: bool = True):
        self.store = store or JobStore()
        if enable_metrics:
            metrics.enable()

    # -- dispatch -----------------------------------------------------------

    async def dispatch(self, method: str, path: str, headers: dict,
                       body: bytes, query: dict | None = None) -> Response:
        query = query or {}
        path_matched = False
        for route in ROUTES:
            match = route.regex.match(path)
            if match is None:
                continue
            path_matched = True
            if route.method != method:
                continue
            response = await self._invoke(route, headers, body, query,
                                          match.groupdict())
            metrics.METRICS.counter(
                "repro_http_requests_total",
                "HTTP requests by route, method, and status").inc(
                route=route.template, method=method,
                status=response.status)
            return response
        if path_matched:
            return Response.error(405, f"method {method} not allowed on "
                                       f"{path}")
        return Response.error(404, f"no route for {path}")

    async def _invoke(self, route: Route, headers: dict, body: bytes,
                      query: dict, params: dict) -> Response:
        try:
            return getattr(self, route.handler)(
                headers, body, query, **params)
        except SchemaError as exc:
            return Response.error(400, str(exc))
        except StoreClosing as exc:
            return Response.error(503, str(exc))

    @staticmethod
    def _token(headers: dict) -> str:
        return headers.get(TOKEN_HEADER, "").strip() or "anonymous"

    # -- handlers -----------------------------------------------------------

    def handle_healthz(self, headers, body, query) -> Response:
        from repro.experiments.runner import SIM_VERSION
        return Response.json({
            "status": "shutting-down" if self.store.closing else "ok",
            "sim_version": SIM_VERSION,
        })

    def handle_meta(self, headers, body, query) -> Response:
        from repro.cli import SCHEMES
        from repro.experiments.registry import FIGURES
        from repro.workloads.suite import APP_ORDER
        return Response.json({
            "apps": list(APP_ORDER),
            "schemes": sorted(SCHEMES),
            "figures": sorted(FIGURES),
        })

    def handle_submit(self, headers, body, query) -> Response:
        try:
            payload = json.loads(body or b"")
        except json.JSONDecodeError as exc:
            return Response.error(400, f"request body is not JSON: {exc}")
        spec = parse_job_request(payload)       # SchemaError -> 400
        job = self.store.submit(spec, self._token(headers))
        return Response.json(job.to_dict(verbose=False), status=202)

    def handle_list_jobs(self, headers, body, query) -> Response:
        from repro.service.jobs import JOB_STATES
        state = query.get("state")
        if state is not None and state not in JOB_STATES:
            return Response.error(
                400, f"unknown state {state!r} "
                     f"(choose from {', '.join(JOB_STATES)})")
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                return Response.error(
                    400, f"limit must be an integer, got {query['limit']!r}")
            if limit < 0:
                return Response.error(400, "limit must be >= 0")
        jobs = list(reversed(self.store.list()))    # newest first
        if state is not None:
            jobs = [job for job in jobs if job.state == state]
        total = len(jobs)
        if limit is not None:
            jobs = jobs[:limit]
        return Response.json(
            {"jobs": [job.to_dict(verbose=False) for job in jobs],
             "total": total})

    def handle_get_job(self, headers, body, query, id: str) -> Response:
        job = self.store.get(id)
        if job is None:
            return Response.error(404, f"no such job {id!r}")
        return Response.json(job.to_dict())

    def handle_cancel_job(self, headers, body, query, id: str) -> Response:
        job = self.store.cancel(id)
        if job is None:
            return Response.error(404, f"no such job {id!r}")
        return Response.json(job.to_dict(verbose=False))

    def handle_get_result(self, headers, body, query, key: str) -> Response:
        from repro.experiments.runner import result_path_by_digest
        path = result_path_by_digest(key)
        if path is None:
            return Response.error(
                404, f"no cached result for digest {key!r} (not yet "
                     f"simulated, malformed digest, or caching is off)")
        # Verbatim cache-file bytes: byte-identical to the CLI path.
        return Response(status=200, body=path.read_bytes())

    def handle_stats(self, headers, body, query) -> Response:
        import time
        return Response.json({
            "uptime_seconds": round(time.time() - self.store.started_at, 3),
            "closing": self.store.closing,
            "jobs": self.store.counts(),
        })

    def handle_metrics(self, headers, body, query) -> Response:
        return Response(
            status=200, body=metrics.METRICS.render().encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    def handle_sweeps(self, headers, body, query) -> Response:
        from repro.obs.catalog import catalog_index
        return Response.json(catalog_index())

    def handle_sweep_detail(self, headers, body, query,
                            digest: str) -> Response:
        from repro.obs.catalog import entry_by_digest
        entry = entry_by_digest(digest)
        if entry is None:
            return Response.error(
                404, f"no cached point for digest {digest!r} (not yet "
                     f"simulated, malformed digest, or caching is off)")
        return Response.json(entry.to_dict(verbose=True))


# --------------------------------------------------------------------------
# HTTP/1.1 framing over asyncio streams
# --------------------------------------------------------------------------

async def _read_request(reader) -> tuple[str, str, dict, bytes] | None:
    """Parse one request; None on a closed/garbled connection."""
    try:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return method, target, headers, b"\x00" * 0   # handled below
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body
    except (asyncio.IncompleteReadError, ConnectionError, ValueError,
            UnicodeDecodeError):
        return None


async def handle_connection(app: ServiceApp, reader, writer) -> None:
    try:
        parsed = await _read_request(reader)
        if parsed is None:
            return
        method, target, headers, body = parsed
        if int(headers.get("content-length", "0") or "0") > MAX_BODY_BYTES:
            response = Response.error(413, "request body too large")
        else:
            path, _, raw_query = target.partition("?")
            # Last value wins for repeated keys — the routes take scalars.
            query = {name: values[-1] for name, values
                     in urllib.parse.parse_qs(raw_query,
                                              keep_blank_values=True).items()}
            try:
                response = await app.dispatch(method, path, headers, body,
                                              query=query)
            except Exception as exc:   # a handler bug must not kill the server
                response = Response.error(
                    500, f"internal error: {type(exc).__name__}: {exc}")
        writer.write(response.encode())
        await writer.drain()
    except ConnectionError:
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# --------------------------------------------------------------------------
# Server runners
# --------------------------------------------------------------------------

class BackgroundServer:
    """Run a :class:`ServiceApp` on its own loop in a daemon thread.

    The in-process harness used by the route tests and the CI smoke
    script: ``start()`` returns once the socket is bound (``.port`` holds
    the ephemeral port), ``stop()`` closes the listener and stops the
    loop.  Job threads belong to the store, so callers that need a clean
    drain call ``store.begin_shutdown(...)`` / ``store.drain()`` around
    ``stop()``.
    """

    def __init__(self, app: ServiceApp, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(asyncio.start_server(
                lambda r, w: handle_connection(self.app, r, w),
                self.host, self.port))
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)


def serve_forever(app: ServiceApp, host: str, port: int,
                  on_shutdown: str = "drain") -> int:
    """Foreground server with signal-driven graceful shutdown (the CLI).

    SIGINT/SIGTERM stop the listener, then either drain in-flight jobs
    (``on_shutdown="drain"``) or cancel them at the next point boundary
    (``"cancel"``) before returning — either way the result cache is left
    consistent (all fills are atomic).
    """

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        server = await asyncio.start_server(
            lambda r, w: handle_connection(app, r, w), host, port)
        bound = server.sockets[0].getsockname()
        print(f"[serve] listening on http://{bound[0]}:{bound[1]} "
              f"(Ctrl-C to stop; shutdown mode: {on_shutdown})",
              file=sys.stderr, flush=True)
        await stop.wait()
        print(f"[serve] shutting down ({on_shutdown}) ...",
              file=sys.stderr, flush=True)
        server.close()
        await server.wait_closed()
        app.store.begin_shutdown(on_shutdown)
        await asyncio.to_thread(app.store.drain)
        counts = app.store.counts()
        print(f"[serve] done: {counts}", file=sys.stderr, flush=True)

    asyncio.run(_main())
    return 0
