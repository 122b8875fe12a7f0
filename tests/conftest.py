"""Shared test doubles: stub HTTP servers, a scripted LLM gateway, and
in-memory search/page fakes for exercising the pipeline offline."""
from __future__ import annotations

import json
import socket
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

import pytest

from claimcheck.agents import HelpfulnessJudgment
from claimcheck.llm import ChatRequest, ChatResponse, LlmGateway
from claimcheck.model import (
    Acquisition,
    Claim,
    Document,
    EvidenceSet,
    SearchQuery,
    SearchResultMeta,
    Verdict,
)
from claimcheck.pages import PageReader, Unusable
from claimcheck.pipeline import Verifier
from claimcheck.websearch import SearchClient


# ---------------------------------------------------------------------------
# stub HTTP server


class _StubHandler(BaseHTTPRequestHandler):
    def _respond(self) -> None:
        handler = self.server.app  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        status, headers, payload = handler(self.command, self.path, body, dict(self.headers))
        try:
            self.send_response(status)
            for key, value in headers.items():
                self.send_header(key, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            # the client closed the connection first; there is no one to answer
            self.close_connection = True

    do_GET = _respond
    do_POST = _respond

    def log_message(self, *args) -> None:  # quiet
        pass


class _KeepAliveStubHandler(_StubHandler):
    """HTTP/1.1: the connection stays open for the client's next request."""

    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; with Nagle on, the second
    # waits for the client's delayed ACK
    disable_nagle_algorithm = True


class StubServer(ThreadingHTTPServer):
    """A stub server that counts and keeps the connections it accepts."""

    def __init__(self, app: Callable, handler: type) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.app = app
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.accepted: list[socket.socket] = []

    @property
    def connections(self) -> int:
        return len(self.accepted)

    def process_request(self, request, client_address) -> None:
        self.accepted.append(request)  # runs on the serving thread only
        super().process_request(request, client_address)

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        # end idle keep-alive connections too, so no client pool keeps one
        # to a port that a later server may get
        for conn in self.accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


@pytest.fixture
def stub_servers():
    """Start StubServers handled by app(method, path, body, headers) ->
    (status, headers, bytes); yields a factory start(app, keep_alive=False).
    Without keep_alive the server speaks HTTP/1.0 and closes the
    connection after every response."""
    servers: list[StubServer] = []

    def start(app: Callable, keep_alive: bool = False) -> StubServer:
        server = StubServer(app, _KeepAliveStubHandler if keep_alive else _StubHandler)
        # a short poll lets shutdown() return promptly at teardown
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def http_stub(stub_servers):
    """Like stub_servers, but the factory returns the HTTP/1.0 server's base URL."""
    return lambda app: stub_servers(app).url


@pytest.fixture
def drip_server():
    """Start raw HTTP servers that answer every request with its status
    line and headers at once, then the body one byte every ``interval``
    seconds; yields a factory start(body, interval, slow_head=False) ->
    base URL.  With slow_head, the status line and headers drip too."""
    stop = threading.Event()
    threads: list[threading.Thread] = []
    listeners: list[socket.socket] = []

    def answer(conn: socket.socket, body: bytes, interval: float, slow_head: bool) -> None:
        with conn:
            try:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(65536) or b"\r\n\r\n"
                head = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body))
                if slow_head:
                    body = head + body
                else:
                    conn.sendall(head)
                for i in range(len(body)):
                    if stop.wait(interval):
                        return
                    conn.sendall(body[i:i + 1])
            except OSError:  # the client gave up on the body
                pass

    def serve(listener: socket.socket, *answer_args) -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:  # closed at teardown
                return
            thread = threading.Thread(target=answer, args=(conn, *answer_args), daemon=True)
            thread.start()
            threads.append(thread)

    def start(body: bytes, interval: float, slow_head: bool = False) -> str:
        listener = socket.create_server(("127.0.0.1", 0))
        listeners.append(listener)
        thread = threading.Thread(target=serve, args=(listener, body, interval, slow_head),
                                  daemon=True)
        thread.start()
        threads.append(thread)
        return f"http://127.0.0.1:{listener.getsockname()[1]}"

    yield start
    stop.set()
    for listener in listeners:
        try:
            listener.shutdown(socket.SHUT_RDWR)  # close() alone does not wake accept()
        except OSError:
            pass
        listener.close()
    for thread in threads:
        thread.join(timeout=5)


def openai_reply(text: str) -> tuple[int, dict, bytes]:
    body = json.dumps({
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }).encode()
    return 200, {"Content-Type": "application/json"}, body


def standard_llm_rules(n_results: int = 1) -> list:
    """A deterministic end-to-end world: every claim searches for its own
    text, every page is comprehensible and helpful, evidence is always
    sufficient, and claims containing 'never' classify as False."""

    def helpful_reply(messages):
        user = messages[-1]["content"]
        claim = next(line for line in user.splitlines() if line.startswith("Claim:"))
        return f"HELPFUL: {claim[len('Claim:'):].strip()} according to the source."

    def classify_reply(messages):
        text = "\n".join(m["content"] for m in messages)
        return "False" if "never" in text.lower() else "True"

    return [
        ("list of new web search queries", "no further queries come to mind"),
        ("numbered list of web search queries", "just search for the claim directly"),
        ("Sort the results", "[" + ", ".join(str(i + 1) for i in range(n_results)) + "]"),
        ("Is the document comprehensible", "YES, it is readable on its own."),
        ("adds helpful new information", helpful_reply),
        ("Is this evidence sufficient", "YES, that settles it."),
        ("Is the claim true or false", classify_reply),
    ]


def serper_stub_app(n_results: int = 1, seen: Optional[list] = None) -> Callable:
    """Search stub: each query yields n_results results whose URLs point at
    an unreachable host, so the page reader falls back to the snippet."""

    def app(method, path, body, headers):
        payload = json.loads(body)
        if seen is not None:
            seen.append(payload)
        q = payload["q"]
        slug = "".join(c if c.isalnum() else "-" for c in q.lower())[:40]
        organic = [
            {
                "title": f"Source {i} for {q}",
                "link": f"http://127.0.0.1:9/{slug}/{i}",
                "snippet": f"{q} — supporting details, variant {i}.",
            }
            for i in range(n_results)
        ]
        return 200, {"Content-Type": "application/json"}, json.dumps({"organic": organic}).encode()

    return app


def scripted_llm_app(rules: list[tuple[str, str | Callable[[list], str]]],
                     seen: Optional[list] = None) -> Callable:
    """LLM stub: first rule whose substring occurs in any message wins."""

    def app(method, path, body, headers):
        payload = json.loads(body)
        messages = payload["messages"]
        if seen is not None:
            seen.append(payload)
        haystack = "\n".join(m["content"] for m in messages)
        for needle, reply in rules:
            if needle in haystack:
                text = reply(messages) if callable(reply) else reply
                return openai_reply(text)
        return openai_reply("I cannot help with that.")

    return app


def stub_verifier(http_stub, tmp_path, mode, rules, pages, search_app):
    """The pipeline as the CLI builds it for `mode`, over stub LLM and
    search servers (in replay, the fixtures of an earlier record run).
    `rules` are scripted_llm_app's, or the LLM stub app itself."""
    fixtures = tmp_path / "fixtures"
    stored = mode != "live"
    llm_app = rules if callable(rules) else scripted_llm_app(rules)
    gateway = LlmGateway(mode=mode, base_url=http_stub(llm_app), api_key="k",
                         fixture_dir=str(fixtures / "llm") if stored else None)
    search = SearchClient(mode=mode, endpoint=http_stub(search_app), api_key="k",
                          fixture_dir=str(fixtures / "search") if stored else None,
                          requests_per_second=0)
    return Verifier(gateway=gateway, search=search, reader=PageReader(http_get=pages),
                    clock=lambda: 0.0)


# ---------------------------------------------------------------------------
# scripted gateway (no HTTP at all)


class FakeGateway:
    """Queue-driven gateway; records every request it answers."""

    def __init__(self, replies: Optional[list[str]] = None,
                 responder: Optional[Callable[[ChatRequest], str]] = None) -> None:
        self.replies = list(replies or [])
        self.responder = responder
        self.requests: list[ChatRequest] = []

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.requests.append(req)
        if self.responder is not None:
            return ChatResponse(text=self.responder(req))
        if not self.replies:
            raise AssertionError("FakeGateway ran out of scripted replies")
        return ChatResponse(text=self.replies.pop(0))


# ---------------------------------------------------------------------------
# pipeline-level fakes


def make_result(url: str, title: str = "t", snippet: str = "s",
                query: str = "q") -> SearchResultMeta:
    """A search result; `query` names the query it answers, for the reader
    of a test only (a result does not record its query)."""
    return SearchResultMeta(title=title, url=url, snippet=snippet)


def make_doc(url: str, body: str = "some sufficiently long page body text",
             title: str = "t") -> Document:
    return Document(meta=make_result(url, title=title), body=body,
                    acquisition=Acquisition.FETCHED_PAGE)


class FakeSearch:
    """query text -> list of SearchResultMeta; unknown queries yield []."""

    def __init__(self, worlds: Optional[dict[str, list[SearchResultMeta]]] = None) -> None:
        self.worlds = worlds or {}
        self.calls: list[tuple[str, int]] = []

    def search(self, query: SearchQuery, k: int, abandoned=None) -> list[SearchResultMeta]:
        self.calls.append((query.text, k))
        return list(self.worlds.get(query.text, []))[:k]


class FakeReader:
    """url -> document body; urls in `unusable` raise Unusable."""

    def __init__(self, bodies: Optional[dict[str, str]] = None,
                 unusable: Optional[set[str]] = None) -> None:
        self.bodies = bodies or {}
        self.unusable = unusable or set()
        self.acquired: list[str] = []

    def acquire_document(self, result: SearchResultMeta) -> Document:
        self.acquired.append(result.url)
        if result.url in self.unusable:
            raise Unusable(result.url)
        body = self.bodies.get(result.url, f"page text for {result.url} " * 3)
        return Document(meta=result, body=body, acquisition=Acquisition.FETCHED_PAGE)


class ScriptedAgents:
    """Programmable stand-in for the agent suite; counts every call.

    Behaviors may be constants or callables receiving the natural
    arguments of each agent.
    """

    def __init__(
        self,
        initial: list[str] | None = None,
        rank: Callable | str = "keep",          # "keep", "reverse", or callable
        scc: Callable | bool = True,
        helpful: Callable | HelpfulnessJudgment | None = None,
        sufficient: Callable | bool = False,
        verdict: Callable | Verdict = Verdict.TRUE,
        additional: Callable | list[str] | None = None,
    ) -> None:
        self.initial = initial if initial is not None else ["q1"]
        self.rank = rank
        self.scc = scc
        self.helpful = helpful if helpful is not None else HelpfulnessJudgment(True, "a note")
        self.sufficient = sufficient
        self.verdict = verdict
        self.additional = additional if additional is not None else []
        self.calls: Counter[str] = Counter()
        self.scc_urls: list[str] = []

    @staticmethod
    def _value(behavior, *args):
        return behavior(*args) if callable(behavior) else behavior

    def initial_query_gen(self, claim: Claim) -> list[SearchQuery]:
        self.calls["initial_query_gen"] += 1
        return [SearchQuery(t) for t in self.initial]

    def search_rank(self, query, results):
        self.calls["search_rank"] += 1
        if callable(self.rank):
            return self.rank(query, results)
        return list(reversed(results)) if self.rank == "reverse" else list(results)

    def self_contained_check(self, claim, evidence, doc) -> bool:
        self.calls["self_contained_check"] += 1
        self.scc_urls.append(doc.meta.url)
        return bool(self._value(self.scc, claim, evidence, doc))

    def det_helpful(self, claim, evidence, doc) -> HelpfulnessJudgment:
        self.calls["det_helpful"] += 1
        return self._value(self.helpful, claim, evidence, doc)

    def sufficient_evidence(self, claim, evidence: EvidenceSet) -> bool:
        assert len(evidence), "the loop asks for sufficiency only after an add"
        self.calls["sufficient_evidence"] += 1
        return bool(self._value(self.sufficient, claim, evidence))

    def classify(self, claim, evidence) -> Verdict:
        self.calls["classify"] += 1
        return self._value(self.verdict, claim, evidence)

    def additional_query_gen(self, claim, evidence):
        self.calls["additional_query_gen"] += 1
        return [SearchQuery(t) for t in self._value(self.additional, claim, evidence)]

    def total_llm_like_calls(self) -> int:
        return sum(self.calls.values())
