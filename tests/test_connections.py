"""Every external call reuses a keep-alive connection: one pooled session
per client and thread, which keeps no cookie from one call to the next and
never reuses a connection whose response body was left unread."""
import threading

import pytest

from claimcheck.llm import ChatRequest, LlmGateway
from claimcheck.model import SearchQuery
from claimcheck.pages import PageReader
from claimcheck.replaystore import USER_AGENT, TransportError
from claimcheck.websearch import SearchClient

from conftest import openai_reply, serper_stub_app

PAGE = b"<html><body><p>" + b"A page body long enough to keep as text. " * 4 + b"</p></body></html>"


def page_app(method, path, body, headers):
    if path == "/robots.txt":
        return 200, {"Content-Type": "text/plain"}, b"User-agent: *\nAllow: /\n"
    return 200, {"Content-Type": "text/html"}, PAGE


def llm_app(method, path, body, headers):
    return openai_reply("YES")


def ask(n: int) -> ChatRequest:
    return ChatRequest("m", (("user", f"question {n}"),), 0.0)


def run_calls(llm_url: str, search_url: str, page_url: str, threads: int, calls: int) -> None:
    """`calls` LLM, search and page calls from each of `threads` new threads,
    all sharing one client of each kind."""
    gateway = LlmGateway(base_url=llm_url, sleep=lambda s: None)
    search = SearchClient(endpoint=f"{search_url}/search", requests_per_second=0,
                          sleep=lambda s: None)
    reader = PageReader(respect_robots=True)
    errors: list[BaseException] = []

    def work(t: int) -> None:
        try:
            for i in range(calls):
                gateway.complete(ask(i))
                search.search(SearchQuery(f"thread {t} query {i}"), 1)
                reader.fetch(f"{page_url}/page/{t}/{i}")
        except BaseException as exc:  # reported by the test thread
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive()
    assert errors == []


@pytest.mark.parametrize("threads", [1, 4])
def test_each_client_opens_one_connection_per_thread(stub_servers, threads):
    llm_stub = stub_servers(llm_app, keep_alive=True)
    search_stub = stub_servers(serper_stub_app(), keep_alive=True)
    page_stub = stub_servers(page_app, keep_alive=True)
    run_calls(llm_stub.url, search_stub.url, page_stub.url, threads, calls=5)
    # without reuse: one connection per call, plus one for robots.txt
    opened = {"llm": llm_stub.connections, "search": search_stub.connections,
              "page": page_stub.connections}
    assert all(n <= threads for n in opened.values()), opened


def test_no_cookie_carries_over_between_calls(stub_servers):
    seen: list[tuple[str, str | None]] = []

    def app(method, path, body, headers):
        seen.append((path, headers.get("Cookie")))
        if path == "/hop":
            return 302, {"Location": "/page", "Set-Cookie": "hop=1; Path=/"}, b""
        if path.endswith("/chat/completions"):
            status, head, payload = openai_reply("YES")
            return status, {**head, "Set-Cookie": "llm=1; Path=/"}, payload
        return 200, {"Content-Type": "text/html", "Set-Cookie": "page=1; Path=/"}, PAGE

    stub = stub_servers(app, keep_alive=True)
    gateway = LlmGateway(base_url=stub.url, sleep=lambda s: None)
    reader = PageReader()
    gateway.complete(ask(1))
    gateway.complete(ask(2))
    reader.fetch(f"{stub.url}/page")
    reader.fetch(f"{stub.url}/page")
    reader.fetch(f"{stub.url}/hop")
    reader.fetch(f"{stub.url}/page")
    assert [cookie for _, cookie in seen] == [None, None, None, None, None, "hop=1", None]


def test_abandoned_bodies_are_never_read_as_the_next_response(stub_servers, monkeypatch):
    big = b"<p>" + b"x" * 200_000 + b"</p>"

    def app(method, path, body, headers):
        if path == "/big":
            return 200, {"Content-Type": "text/html"}, big
        if path == "/doc.pdf":
            return 200, {"Content-Type": "application/pdf"}, b"%PDF" + b"0" * 100_000
        if path == "/missing":
            return 404, {"Content-Type": "text/html"}, b"<p>not here</p>" * 1000
        return 200, {"Content-Type": "text/html"}, PAGE

    stub = stub_servers(app, keep_alive=True)
    monkeypatch.setattr(PageReader, "MAX_BYTES", 100_000)
    reader = PageReader()
    for path in ("/big", "/doc.pdf", "/missing"):
        with pytest.raises(TransportError):
            reader.fetch(f"{stub.url}{path}")
        body, _ = reader.fetch(f"{stub.url}/page")
        assert body == PAGE.decode()


def test_a_small_error_or_wrong_type_body_keeps_the_connection(stub_servers):
    def app(method, path, body, headers):
        if path == "/missing":
            return 404, {"Content-Type": "text/html"}, b"<p>not here</p>"
        if path == "/doc.pdf":
            return 200, {"Content-Type": "application/pdf"}, b"%PDF" + b"0" * 4096
        return 200, {"Content-Type": "text/html"}, PAGE

    stub = stub_servers(app, keep_alive=True)
    reader = PageReader()
    with pytest.raises(TransportError, match="HTTP 404"):
        reader.fetch(f"{stub.url}/missing")
    assert reader.fetch(f"{stub.url}/page")[0] == PAGE.decode()
    with pytest.raises(TransportError, match="content-type"):
        reader.fetch(f"{stub.url}/doc.pdf")
    assert reader.fetch(f"{stub.url}/page")[0] == PAGE.decode()
    # the error bodies are read, so no call needs a new connection
    assert stub.connections == 1


def test_every_request_carries_the_transport_user_agent(http_stub):
    seen: dict[str, set] = {}
    search_app = serper_stub_app()

    def app(method, path, body, headers):
        seen.setdefault(path.rsplit("/", 1)[-1], set()).add(headers.get("User-Agent"))
        if path.endswith("/chat/completions"):
            return llm_app(method, path, body, headers)
        if path == "/search":
            return search_app(method, path, body, headers)
        return page_app(method, path, body, headers)

    base = http_stub(app)
    LlmGateway(base_url=base, sleep=lambda s: None).complete(ask(1))
    SearchClient(endpoint=f"{base}/search", requests_per_second=0).search(SearchQuery("q"), 1)
    PageReader(respect_robots=True).fetch(f"{base}/page")
    assert seen == {name: {USER_AGENT}
                    for name in ("completions", "search", "robots.txt", "page")}


def test_server_closing_each_connection_costs_no_retry(http_stub):
    sleeps: list[float] = []
    gateway = LlmGateway(base_url=http_stub(llm_app), sleep=sleeps.append)
    for i in range(5):
        assert gateway.complete(ask(i)).text == "YES"
    assert sleeps == []
