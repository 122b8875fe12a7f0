"""Loopback stub for the benchmark: chat completions, search and pages in
one process, with injected latency and request counters.

Run as ``python3 stub.py --world world.json --llm-ms 16 ...``; it prints
``READY <port>`` once every page is rendered and the socket listens, then
serves until terminated.  ``GET /_ctl/stats`` returns the counters,
``POST /_ctl/reset`` clears them and ``GET /_ctl/calibration`` returns the
benchmark's fixed calibration page, with the ``time.monotonic()`` of the
latest counted request in its ``X-Last-Request`` header; control requests
are not counted.

Keep-alive responses go out in one write with Nagle off: a response split
into header and body writes stalls a keep-alive client on delayed ACK for
tens of milliseconds.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import world as world_mod

_QUERY_ID_RE = re.compile(r"(c\d+-q\d+)")
_REASONS = {200: "OK", 404: "Not Found"}
_ROBOTS = b"User-agent: *\nAllow: /\n"


class Counters:
    def __init__(self, min_search_gap: float) -> None:
        self.lock = threading.Lock()
        self.min_search_gap = min_search_gap
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = {"llm": 0, "search": 0, "page": 0, "robots": 0, "other": 0}
            self.connections = 0
            self.search_arrivals: list[float] = []
            self.last_request = 0.0

    def request(self, route: str, new_connection: bool) -> None:
        now = time.monotonic()
        with self.lock:
            self.requests[route] += 1
            self.connections += new_connection
            self.last_request = now
            if route == "search":
                self.search_arrivals.append(now)

    def snapshot(self) -> dict:
        with self.lock:
            arrivals = sorted(self.search_arrivals)
            gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
            return {
                "requests": dict(self.requests),
                "connections": self.connections,
                "search_gap_violations": sum(1 for g in gaps if g < self.min_search_gap),
            }


class StubApp:
    def __init__(self, world: dict, args) -> None:
        self.world = world
        self.llm_s = args.llm_ms / 1000.0
        self.llm_s_per_char = args.llm_us_per_char / 1e6
        self.search_s = args.search_ms / 1000.0
        self.page_s = args.page_ms / 1000.0
        self.counters = Counters(1.0 / args.rps if args.rps > 0 else 0.0)
        pool = world_mod.FragmentPool.build(world["seed"])
        self.pages = {pid: world_mod.render_page(spec, pool, world["seed"], pid)
                      for pid, spec in world["pages"].items()}
        self.calibration_page = world_mod.calibration_page()
        self.base = ""

    def llm(self, body: bytes) -> tuple[int, str, bytes]:
        payload = json.loads(body)
        messages = payload["messages"]
        chars = sum(len(m["content"]) for m in messages)
        reply = world_mod.llm_reply(messages)
        time.sleep(self.llm_s + chars * self.llm_s_per_char)
        out = {
            "choices": [{"message": {"role": "assistant", "content": reply}}],
            "usage": {"prompt_tokens": chars // 4, "completion_tokens": len(reply) // 4},
        }
        return 200, "application/json", json.dumps(out).encode()

    def search(self, body: bytes) -> tuple[int, str, bytes]:
        payload = json.loads(body)
        m = _QUERY_ID_RE.search(payload.get("q", ""))
        ranked = self.world["results"].get(m.group(1), []) if m else []
        organic = [{"title": r["title"], "link": self.base + r["path"], "snippet": r["snippet"]}
                   for r in ranked[: int(payload.get("num", 10))]]
        time.sleep(self.search_s)
        return 200, "application/json", json.dumps({"organic": organic}).encode()

    def page(self, path: str) -> tuple[int, str, bytes]:
        time.sleep(self.page_s)
        found = self.pages.get(path[len("/page/"):])
        return found if found else (404, "text/html", b"not found")


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def _send(self, status: int, content_type: str, body: bytes, extra: str = "") -> None:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n{extra}"
                f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n")
        self.wfile.write(head.encode("latin-1") + body)

    def _dispatch(self) -> None:
        app: StubApp = self.server.app  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        path = self.path.split("?", 1)[0]
        if path.startswith("/_ctl/"):
            if path == "/_ctl/calibration":
                with app.counters.lock:
                    last = app.counters.last_request
                self._send(200, "text/html; charset=utf-8", app.calibration_page,
                           f"X-Last-Request: {last!r}\r\n")
                return
            if path == "/_ctl/reset":
                app.counters.reset()
            self._send(200, "application/json", json.dumps(app.counters.snapshot()).encode())
            return
        if path.endswith("/chat/completions"):
            route, handler = "llm", lambda: app.llm(body)
        elif path == "/search":
            route, handler = "search", lambda: app.search(body)
        elif path.startswith("/page/"):
            route, handler = "page", lambda: app.page(path)
        elif path == "/robots.txt":
            route, handler = "robots", lambda: (200, "text/plain", _ROBOTS)
        else:
            route, handler = "other", lambda: (404, "text/plain", b"no such route")
        app.counters.request(route, not self.counted)
        self.counted = True
        self._send(*handler())

    do_GET = _dispatch
    do_POST = _dispatch

    def log_message(self, *args) -> None:
        pass


class Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", required=True)
    parser.add_argument("--llm-ms", type=float, default=0.0)
    parser.add_argument("--llm-us-per-char", type=float, default=0.0)
    parser.add_argument("--search-ms", type=float, default=0.0)
    parser.add_argument("--page-ms", type=float, default=0.0)
    parser.add_argument("--rps", type=float, default=0.0,
                        help="client search rate limit; closer arrivals count as violations")
    args = parser.parse_args(argv)
    with open(args.world, encoding="utf-8") as fh:
        world = json.load(fh)
    server = Server(("127.0.0.1", 0), Handler)
    server.app = StubApp(world, args)  # type: ignore[attr-defined]
    port = server.server_address[1]
    server.app.base = f"http://127.0.0.1:{port}"  # type: ignore[attr-defined]
    print(f"READY {port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
