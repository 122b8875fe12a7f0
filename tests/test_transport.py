"""The HTTP transport of every external call (replaystore.open_url):
content decoding, redirects, URL quoting, charsets, dropped keep-alive
connections, proxies and TLS settings."""
import gzip
import json
import logging
import socket
import ssl
import threading
import time
import zlib
from pathlib import Path
from urllib.parse import urlsplit

import certifi
import pytest

from claimcheck import replaystore
from claimcheck.llm import ChatRequest, LlmGateway
from claimcheck.model import Acquisition, SearchResultMeta
from claimcheck.pages import PageReader
from claimcheck.replaystore import TransportError, post_json

from conftest import openai_reply

TEXT = "<p>" + "Plain page text, repeated to compress well. " * 200 + "</p>"


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy",
                 "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestContentEncoding:
    @pytest.mark.parametrize("encoding, compress", [("gzip", gzip.compress),
                                                    ("deflate", zlib.compress)])
    def test_compressed_page_decodes_to_the_text(self, http_stub, encoding, compress):
        seen = []

        def app(method, path, body, headers):
            seen.append(headers.get("Accept-Encoding"))
            return (200, {"Content-Type": "text/html", "Content-Encoding": encoding},
                    compress(TEXT.encode()))

        text, _ = PageReader().fetch(f"{http_stub(app)}/page")
        assert text == TEXT
        assert seen == ["gzip, deflate"]

    def test_max_bytes_counts_decoded_bytes(self, http_stub, monkeypatch):
        packed = gzip.compress(TEXT.encode())
        assert len(packed) < 1000 < len(TEXT)
        base = http_stub(lambda m, p, b, h: (
            200, {"Content-Type": "text/html", "Content-Encoding": "gzip"}, packed))
        monkeypatch.setattr(PageReader, "MAX_BYTES", 1000)
        with pytest.raises(TransportError, match="over 1000 bytes"):
            PageReader().fetch(f"{base}/page")
        monkeypatch.setattr(PageReader, "MAX_BYTES", len(TEXT))
        assert PageReader().fetch(f"{base}/page")[0] == TEXT


class TestRedirects:
    def test_relative_location_and_303_become_a_get(self, http_stub):
        seen = []

        def app(method, path, body, headers):
            seen.append((method, path))
            if path == "/a/start":
                return 303, {"Location": "next"}, b""
            if path == "/a/next":
                return 301, {"Location": "../b/end?x=1"}, b""
            return 200, {"Content-Type": "text/html"}, TEXT.encode()

        text, _ = PageReader().fetch(f"{http_stub(app)}/a/start")
        assert text == TEXT
        assert seen == [("GET", "/a/start"), ("GET", "/a/next"), ("GET", "/b/end?x=1")]

    def test_post_does_not_follow_a_redirect(self, http_stub):
        seen = []

        def app(method, path, body, headers):
            seen.append(method)
            return 307, {"Location": "/elsewhere"}, b"moved"

        assert post_json(f"{http_stub(app)}/v1", {}, {"q": 1}, timeout=5.0) == (307, "moved")
        assert seen == ["POST"]


def test_non_ascii_path_is_percent_encoded_and_escapes_kept(http_stub):
    seen = []

    def app(method, path, body, headers):
        seen.append(path)
        return 200, {"Content-Type": "text/html"}, TEXT.encode()

    PageReader().fetch(f"{http_stub(app)}/café/a%20b c?q=ü%2F#frag")
    assert seen == ["/caf%C3%A9/a%20b%20c?q=%C3%BC%2F"]


class TestCharset:
    @pytest.mark.parametrize("content_type, payload, text", [
        # text/* without a charset is UTF-8 when its bytes are, else ISO-8859-1
        ("text/html", "café".encode("latin-1"), "café"),
        # the media type is compared in any case
        ("Text/HTML", "café".encode("latin-1"), "café"),
        ("TEXT/PLAIN", "café".encode("latin-1"), "café"),
        ("text/html", "café".encode("utf-8"), "café"),
        ("text/html; charset=utf-8", "café".encode("utf-8"), "café"),
        ('text/html; charset="windows-1252"', b"caf\xe9", "café"),
        ("text/html; charset=bogus", "café".encode("utf-8"), "café"),
        ("", "café".encode("utf-8"), "café"),
    ])
    def test_page_charset(self, http_stub, content_type, payload, text):
        headers = {"Content-Type": content_type} if content_type else {}
        base = http_stub(lambda m, p, b, h: (200, headers, payload))
        assert PageReader().fetch(f"{base}/page")[0] == text

    def test_json_without_charset_is_utf8(self, http_stub):
        body = json.dumps({"text": "été"}, ensure_ascii=False).encode("utf-8")
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "application/json"}, body))
        assert post_json(f"{base}/v1", {}, {}, timeout=5.0) == (200, body.decode("utf-8"))


def test_connection_the_server_closed_while_idle_costs_no_retry(stub_servers):
    stub = stub_servers(lambda m, p, b, h: openai_reply("YES"), keep_alive=True)
    sleeps: list[float] = []
    gateway = LlmGateway(base_url=stub.url, sleep=sleeps.append)
    for i in range(3):
        assert gateway.complete(ChatRequest("m", (("user", f"q{i}"),), 0.0)).text == "YES"
        # the server ends the idle keep-alive connection between calls
        for conn in stub.accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        time.sleep(0.05)
    assert sleeps == []
    assert stub.connections == 3


@pytest.fixture
def cut_server():
    """Start a raw HTTP/1.1 server whose first response says Content-Length:
    1000, sends 100 bytes and closes the connection; every later request
    gets ``body`` whole, and its connection stays open.  Yields
    start(body, content_type) -> (base URL, the number of the connection
    that carried each request, from 1)."""
    sockets: list[socket.socket] = []
    threads: list[threading.Thread] = []

    def answer(conn: socket.socket, number: int, body: bytes, head: bytes,
               seen: list[int]) -> None:
        with conn, conn.makefile("rb") as reader:
            while reader.readline():
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                seen.append(number)
                if len(seen) == 1:
                    conn.sendall(head % 1000 + b"x" * 100)
                    return
                conn.sendall(head % len(body) + body)

    def serve(listener: socket.socket, *answer_args) -> None:
        for number in range(1, 100):
            try:
                conn, _ = listener.accept()
            except OSError:  # closed at teardown
                return
            sockets.append(conn)
            thread = threading.Thread(target=answer, args=(conn, number, *answer_args),
                                      daemon=True)
            thread.start()
            threads.append(thread)

    def start(body: bytes, content_type: str) -> tuple[str, list[int]]:
        listener = socket.create_server(("127.0.0.1", 0))
        sockets.append(listener)
        head = (b"HTTP/1.1 200 OK\r\nContent-Type: " + content_type.encode()
                + b"\r\nContent-Length: %d\r\n\r\n")
        seen: list[int] = []
        thread = threading.Thread(target=serve, args=(listener, body, head, seen), daemon=True)
        thread.start()
        threads.append(thread)
        return f"http://127.0.0.1:{listener.getsockname()[1]}", seen

    yield start
    for sock in sockets:
        try:
            sock.shutdown(socket.SHUT_RDWR)  # wakes accept() and the readers
        except OSError:
            pass
        sock.close()
    for thread in threads:
        thread.join(timeout=5)


class TestBodyCutShort:
    """A response whose connection closes before its Content-Length is in."""

    def test_page_falls_back_to_its_snippet(self, cut_server, caplog):
        base, seen = cut_server(TEXT.encode(), "text/html")
        reader = PageReader()
        with caplog.at_level(logging.DEBUG, logger="claimcheck.pages"):
            doc = reader.acquire_document(SearchResultMeta("Title", f"{base}/page", "Snippet."))
        assert doc.acquisition is Acquisition.SNIPPET_FALLBACK
        assert doc.body == "Title\nSnippet."
        assert "body incomplete when the connection closed" in caplog.text
        # the next fetch opens a new connection rather than reuse the cut one
        assert reader.fetch(f"{base}/page")[0] == TEXT
        assert seen == [1, 2]

    def test_llm_post_is_retried_and_answered(self, cut_server):
        _, _, body = openai_reply("YES")
        base, seen = cut_server(body, "application/json")
        sleeps: list[float] = []
        gateway = LlmGateway(base_url=base, sleep=sleeps.append)
        assert gateway.complete(ChatRequest("m", (("user", "q"),), 0.0)).text == "YES"
        assert sleeps == [1.0]
        assert seen == [1, 2]


def test_robots_txt_error_page_keeps_the_connection(stub_servers):
    def app(method, path, body, headers):
        if path == "/robots.txt":
            return 404, {"Content-Type": "text/html"}, b"<p>no robots.txt here</p>"
        return 200, {"Content-Type": "text/html"}, TEXT.encode()

    stub = stub_servers(app, keep_alive=True)
    reader = PageReader(respect_robots=True)
    for i in range(3):
        assert reader.fetch(f"{stub.url}/page/{i}")[0] == TEXT
    assert stub.connections == 1


class TestProxy:
    @pytest.mark.parametrize("credentials, url, expected", [
        # base64 of "user:p@ss"
        ("user:p%40ss@", "http://example.invalid/p?q=1",
         ("http://example.invalid/p?q=1", "example.invalid", "Basic dXNlcjpwQHNz")),
        # no credentials, no Proxy-Authorization; the host goes out IDNA-encoded
        ("", "http://bücher.invalid/p",
         ("http://xn--bcher-kva.invalid/p", "xn--bcher-kva.invalid", None)),
    ], ids=["credentials", "no-credentials-idna-host"])
    def test_http_proxy_gets_the_absolute_form_target(self, http_stub, no_proxy_env,
                                                      credentials, url, expected):
        seen = []

        def app(method, path, body, headers):
            seen.append((path, headers.get("Host"), headers.get("Proxy-Authorization")))
            return 200, {"Content-Type": "text/html"}, TEXT.encode()

        proxy = http_stub(app).replace("http://", f"http://{credentials}")
        no_proxy_env.setenv("HTTP_PROXY", proxy)
        assert PageReader().fetch(url)[0] == TEXT
        assert seen == [expected]

    def test_no_proxy_host_is_reached_directly(self, http_stub, no_proxy_env):
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "text/html"}, TEXT.encode()))
        no_proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
        assert PageReader().fetch(f"{base}/page")[0] == TEXT

    def test_https_goes_through_a_connect_tunnel(self):
        conn = replaystore._open_connection("https", "example.invalid", 443,
                                            urlsplit("http://u:pw@proxy.invalid:3128"), 1.0)
        assert (conn.host, conn.port) == ("proxy.invalid", 3128)
        assert (conn._tunnel_host, conn._tunnel_port) == ("example.invalid", 443)
        assert conn._tunnel_headers == {"Proxy-Authorization": "Basic dTpwdw=="}


def test_https_context_verifies_with_the_requests_ca_bundle(tmp_path, monkeypatch):
    # no handshake runs: the test only inspects the context a connection gets
    bundle = tmp_path / "one-ca.pem"
    pem = Path(certifi.where()).read_text(encoding="ascii")
    end = "-----END CERTIFICATE-----"
    bundle.write_text(pem[pem.index("-----BEGIN"):pem.index(end) + len(end)] + "\n")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
    conn = replaystore._open_connection("https", "example.invalid", 443, None, 1.0)
    context = conn._context
    assert context.verify_mode == ssl.CERT_REQUIRED
    assert context.check_hostname
    assert len(context.get_ca_certs()) == 1

    monkeypatch.delenv("REQUESTS_CA_BUNDLE")
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    default = replaystore._open_connection("https", "example.invalid", 443, None, 1.0)._context
    assert default.verify_mode == ssl.CERT_REQUIRED
    assert len(default.get_ca_certs()) > 1


def test_malformed_url_is_fetch_error(no_proxy_env):
    for url in ("ftp://example.invalid/x", "http:///nohost", "http://example.invalid:99999/"):
        with pytest.raises(TransportError):
            PageReader().fetch(url)
