"""Localhost HTTP endpoint for the live observation plane.

:class:`TelemetryServer` bridges one session's live stream to anything
that speaks HTTP, using only the standard library:

* ``/metrics`` — Prometheus exposition text
  (:meth:`~repro.telemetry.metrics.MetricsRegistry.prometheus_text`),
  ready for a scrape config pointed at the simulation host;
* ``/frame`` — the latest ``multinoc-live/1`` frame as one JSON object;
* ``/frames`` — the frame stream, as Server-Sent Events by default
  (``data: <json>\\n\\n``) or as JSON Lines with ``?format=jsonl``;
  ``?limit=N`` closes the stream after N frames (handy for ``curl`` in
  CI).  A newly connected client immediately receives the latest frame,
  so a scrape that lands after the run finished still sees data.
* ``/alerts`` — the alert engine's ``multinoc-alerts/1`` document
  (firing/pending instances, SLO budgets, transition history) when one
  is attached via :meth:`TelemetryServer.attach_alerts`;
* ``/healthz`` — liveness: status, uptime and frames seen;
* ``/`` — a JSON endpoint directory for discoverability.

Served frames are the stream's frames verbatim.  Comparing runs is the
run registry's job (``multinoc runs list|trend``), not the server's.

All error bodies — including stdlib-generated ones like 501 for an
unsupported method — are JSON with ``Content-Type: application/json``.
Every response carries a ``Server: multinoc/<version>`` header, and
unknown paths return a JSON error body with status 404.

Thread-safety: the HTTP server runs on daemon threads, but *all*
telemetry state is read on the simulation thread — the server
subscribes to the stream and snapshots each frame (with the registry's
exposition text and the alert document) into immutable byte strings at
frame time.  Handler threads only ever serve those snapshots, so the
simulator's hot-path dicts are never iterated concurrently with
mutation.

Every send to a slow client goes through a bounded per-client queue
with drop-oldest semantics: a stalled dashboard loses intermediate
frames, never the simulation's pace.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from .live import LiveStream

#: frames buffered per streaming client before drop-oldest kicks in
CLIENT_QUEUE_DEPTH = 16


def server_version() -> str:
    """The ``Server:`` header value (lazy: avoids an import cycle)."""
    try:
        from .. import __version__
    except ImportError:  # pragma: no cover - partial package init
        __version__ = "0"
    return f"multinoc/{__version__}"


class TelemetryServer:
    """Serve one live stream and its metrics over localhost HTTP."""

    def __init__(
        self,
        live: LiveStream,
        registry=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        """*registry* is the metrics registry scraped at ``/metrics``."""
        self.live = live
        self.registry = registry
        self._lock = threading.Lock()
        self._latest_frame: Optional[bytes] = None
        self._metrics_text = b"# no frames emitted yet\n"
        self._clients: List["queue.Queue[bytes]"] = []
        self._alerts = None
        self._alerts_doc: Optional[bytes] = None
        self._frames_seen = 0
        self._started_wall = time.time()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        live.subscribe(self._on_frame)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "TelemetryServer":
        """Serve on a daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="multinoc-telemetry-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self.live.unsubscribe(self._on_frame)
        # shutdown() waits for a serve_forever loop, so only stop one
        # that was started
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def attach_alerts(self, engine) -> "TelemetryServer":
        """Serve *engine*'s document at ``/alerts``.

        Like frames, the document is snapshotted to bytes on the
        simulation thread each time the stream publishes a frame —
        the engine evaluates on frames, so its state only changes at
        frame boundaries and handler threads never race it.
        """
        doc = json.dumps(engine.document(), separators=(",", ":")).encode()
        with self._lock:
            self._alerts = engine
            self._alerts_doc = doc
        return self

    # -- frame intake (simulation thread) ----------------------------------

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        """Snapshot a frame (and metrics text) and fan out to clients."""
        payload = json.dumps(frame, separators=(",", ":")).encode()
        metrics = (
            self.registry.prometheus_text().encode()
            if self.registry is not None
            else None
        )
        alerts_doc = (
            json.dumps(self._alerts.document(), separators=(",", ":")).encode()
            if self._alerts is not None
            else None
        )
        with self._lock:
            self._latest_frame = payload
            self._frames_seen += 1
            if metrics is not None:
                self._metrics_text = metrics
            if alerts_doc is not None:
                self._alerts_doc = alerts_doc
            clients = list(self._clients)
        for q in clients:
            _offer(q, payload)

    # -- handler-side accessors (HTTP threads) -----------------------------

    def latest_frame(self) -> Optional[bytes]:
        with self._lock:
            return self._latest_frame

    def metrics_text(self) -> bytes:
        with self._lock:
            return self._metrics_text

    def alerts_document(self) -> Optional[bytes]:
        """The ``/alerts`` document, or None when no engine is attached."""
        with self._lock:
            return self._alerts_doc

    def health_document(self) -> Dict[str, Any]:
        with self._lock:
            frames = self._frames_seen
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started_wall, 3),
            "frames_seen": frames,
        }

    def add_client(self) -> "queue.Queue[bytes]":
        q: "queue.Queue[bytes]" = queue.Queue(maxsize=CLIENT_QUEUE_DEPTH)
        with self._lock:
            latest = self._latest_frame
            self._clients.append(q)
        if latest is not None:
            _offer(q, latest)
        return q

    def remove_client(self, q) -> None:
        with self._lock:
            try:
                self._clients.remove(q)
            except ValueError:
                pass


def _offer(q: "queue.Queue[bytes]", payload: bytes) -> None:
    """Enqueue, dropping the oldest frame when the client lags."""
    while True:
        try:
            q.put_nowait(payload)
            return
        except queue.Full:
            try:
                q.get_nowait()
            except queue.Empty:
                pass


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def telemetry(self) -> TelemetryServer:
        return self.server.telemetry  # type: ignore[attr-defined]

    def version_string(self) -> str:  # the ``Server:`` header value
        return server_version()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep the simulation's stdout clean

    def do_GET(self):  # noqa: N802 - stdlib casing
        try:
            self._route_get()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - one client, not the sim
            try:
                self._send_json(
                    500, {"error": f"{type(exc).__name__}: {exc}", "status": 500}
                )
            except OSError:
                self.close_connection = True

    def _route_get(self):
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        params = parse_qs(parsed.query)
        if route == "/metrics":
            self._send(200, "text/plain; version=0.0.4", self.telemetry.metrics_text())
        elif route == "/frame":
            frame = self.telemetry.latest_frame()
            if frame is None:
                self._send_json(404, {"error": "no frames emitted yet"})
            else:
                self._send(200, "application/json", frame + b"\n")
        elif route == "/frames":
            self._stream_frames(params)
        elif route == "/alerts":
            document = self.telemetry.alerts_document()
            if document is None:
                self._send_json(
                    404, {"error": "no alert engine attached", "status": 404}
                )
            else:
                self._send(200, "application/json", document + b"\n")
        elif route == "/healthz":
            self._send_json(200, self.telemetry.health_document())
        elif route == "/":
            self._send_json(
                200,
                {
                    "server": server_version(),
                    "endpoints": {
                        "/metrics": "Prometheus exposition text",
                        "/frame": "latest multinoc-live/1 frame (JSON)",
                        "/frames": "frame stream (SSE; ?format=jsonl, ?limit=N)",
                        "/alerts": "alert/SLO engine state (multinoc-alerts/1)",
                        "/healthz": "server liveness",
                    },
                },
            )
        else:
            self._send_json(
                404,
                {"error": "unknown endpoint", "path": parsed.path, "status": 404},
            )

    def _send(self, status: int, ctype: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, document: Dict[str, Any]) -> None:
        body = json.dumps(document, separators=(",", ":")).encode() + b"\n"
        self._send(status, "application/json", body)

    def send_error(self, code, message=None, explain=None):  # noqa: D102
        # stdlib send_error emits HTML bodies (unsupported methods,
        # malformed requests); keep every error body JSON instead
        short = message
        if short is None:
            short = self.responses.get(code, ("error",))[0]
        try:
            self._send_json(code, {"error": short, "status": int(code)})
        except OSError:
            self.close_connection = True

    def _stream_frames(self, params: Dict[str, List[str]]) -> None:
        fmt = params.get("format", ["sse"])[0]
        limit = None
        if "limit" in params:
            try:
                limit = max(int(params["limit"][0]), 1)
            except ValueError:
                self._send_json(400, {"error": "limit must be an integer"})
                return
        if fmt == "jsonl":
            ctype = "application/x-ndjson"
        elif fmt == "sse":
            ctype = "text/event-stream"
        else:
            self._send_json(400, {"error": "format must be sse or jsonl"})
            return

        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()

        client = self.telemetry.add_client()
        sent = 0
        try:
            while limit is None or sent < limit:
                try:
                    payload = client.get(timeout=1.0)
                except queue.Empty:
                    continue
                if fmt == "sse":
                    self.wfile.write(b"data: " + payload + b"\n\n")
                else:
                    self.wfile.write(payload + b"\n")
                self.wfile.flush()
                sent += 1
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            self.telemetry.remove_client(client)
            self.close_connection = True
