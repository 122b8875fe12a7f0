"""Record/replay and retry layer shared by the LLM and search clients,
and the HTTP transport of every external call.

Fixtures are one UTF-8 JSON file per key so they stay reviewable in diffs.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import io
import json
import os
import select
import ssl
import threading
import time
import zlib
from http.cookiejar import CookieJar
from pathlib import Path
from typing import Any, Callable, Optional
from urllib.parse import SplitResult, quote, unquote, urljoin, urlsplit
from urllib.request import Request, proxy_bypass

import certifi

RETRY_DELAYS = (1.0, 2.0, 4.0)

# redirects a GET follows; a POST follows none
MAX_REDIRECTS = 5
_REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})
# characters a URL's path and query keep as they are: requests' requote_uri
# set, so existing %XX escapes stay and everything else is percent-encoded
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"
USER_AGENT = "claimcheck/0.1"
_DEFAULT_HEADERS = {"Accept": "*/*", "Accept-Encoding": "gzip, deflate", "User-Agent": USER_AGENT}
# hosts a thread keeps an idle connection to; the least recently used goes first
_MAX_HOSTS = 10
# cap on an LLM or search response body: a 128k-token completion is about
# 0.5 MB, and a search answer a few KB, so 8 MiB refuses only a runaway body
MAX_RESPONSE_BYTES = 8 * 1024 * 1024


class StorageError(Exception):
    """The fixture store could not be read or written."""


class FixtureMiss(StorageError):
    """Replay mode was asked for a key that was never recorded."""


class TransportError(Exception):
    """A live call failed: network error, retries exhausted, an HTTP 4xx,
    or a malformed body.  Whether that ends the run is up to the caller."""


class BodyOverCap(TransportError):
    """A response body over its cap: asking again would get it again."""


class _OpenConnections(dict):
    """One thread's keep-alive connections, one per (scheme, host, port,
    proxy), least recently used first; closed when the thread ends."""

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


class _Connections(threading.local):
    """threading.local runs ``__init__`` again in each thread that reads
    ``.by_origin``, and drops that thread's value when the thread ends."""

    def __init__(self) -> None:
        self.by_origin = _OpenConnections()


_CONNECTIONS = _Connections()


@functools.lru_cache(maxsize=4)
def _ssl_context(ca_bundle: str) -> ssl.SSLContext:
    """A verifying context (CERT_REQUIRED, hostname checked) trusting ca_bundle."""
    if os.path.isdir(ca_bundle):
        return ssl.create_default_context(capath=ca_bundle)
    return ssl.create_default_context(cafile=ca_bundle)


def _open_connection(scheme: str, host: str, port: int, via: Optional[SplitResult],
                     timeout: float) -> http.client.HTTPConnection:
    """A connection not yet opened: to the host itself, or to the proxy
    ``via``, through a CONNECT tunnel for an https URL."""
    if via is not None and (via.scheme != "http" or not via.hostname):
        raise ValueError(f"unsupported proxy {via.geturl()!r}")
    address = (host, port) if via is None else (via.hostname, via.port or 80)
    if scheme == "http":
        return http.client.HTTPConnection(*address, timeout=timeout)
    conn = http.client.HTTPSConnection(
        *address, timeout=timeout,
        context=_ssl_context(os.environ.get("REQUESTS_CA_BUNDLE")
                             or os.environ.get("CURL_CA_BUNDLE") or certifi.where()))
    if via is not None:
        conn.set_tunnel(host, port, _proxy_auth(via))
    return conn


def _proxy_auth(via: SplitResult) -> dict[str, str]:
    """Proxy-Authorization for the credentials in a proxy URL, if any."""
    if via.username is None:
        return {}
    user_pass = f"{unquote(via.username)}:{unquote(via.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(user_pass.encode()).decode()}


def _env_proxy(scheme: str) -> str:
    """The proxy URL that the environment names for scheme, with
    getproxies()'s precedence: <scheme>_proxy, else <SCHEME>_PROXY (not
    HTTP_PROXY in a CGI request), then the same for all_proxy; "" when
    none.  getproxies() itself decodes the whole environment twice per
    call, which costs more than a loopback request."""
    for name in (f"{scheme}_proxy", "all_proxy"):
        value = os.environ.get(name)
        if value is None and not (name == "http_proxy" and "REQUEST_METHOD" in os.environ):
            value = os.environ.get(name.upper())
        if value:
            return value
    return ""


def _dropped(sock) -> bool:
    """Whether the peer closed an idle connection: it is readable (EOF, or
    bytes no request asked for) before a request is sent, as urllib3 checks."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _DeadlineReader(io.RawIOBase):
    """The socket as ``http.client.HTTPResponse`` reads it (through
    ``makefile``), each read waiting no longer than the time left before
    the deadline, so that a server sending the status line, headers or
    body slowly cannot hold the call past it: a socket timeout alone
    bounds each read, not their sum."""

    def __init__(self, sock, deadline: float) -> None:
        self._sock = sock
        # a reference to the socket as makefile() counts it: closing the
        # connection early leaves the socket open until the body is read
        self._io = sock.makefile("rb", buffering=0)
        self._deadline = deadline

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> Optional[int]:
        left = self._deadline - time.monotonic()
        try:
            if left <= 0:
                raise TimeoutError
            self._sock.settimeout(left)
            return self._io.readinto(buffer)
        except TimeoutError:
            raise TimeoutError("response not complete within the timeout") from None

    def close(self) -> None:
        self._io.close()
        super().close()


class _DeadlineResponse(http.client.HTTPResponse):
    def __init__(self, sock, *args, deadline: float, **kwargs) -> None:
        super().__init__(_DeadlineReader(sock, deadline), *args, **kwargs)


def _send(method: str, url: str, headers: dict[str, str], body: Optional[bytes],
          deadline: float) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
    """Send one request over this thread's connection to the URL's origin
    (replacing it first if the peer has closed it) and read the response
    head, all before ``deadline`` (time.monotonic()).  ValueError for a
    URL that is not http(s), TimeoutError once the deadline passes."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = parts.hostname or ""
    if scheme not in ("http", "https") or not host:
        raise ValueError(f"not an http(s) URL: {url!r}")
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    port = parts.port or (443 if scheme == "https" else 80)
    target = quote(parts.path or "/", safe=_URL_SAFE)
    if parts.query:
        target += "?" + quote(parts.query, safe=_URL_SAFE)
    proxy = _env_proxy(scheme)
    via = None
    if proxy and not proxy_bypass(host):
        via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if scheme == "http":
            # the proxy gets the absolute-form target and the credentials
            netloc = f"[{host}]" if ":" in host else host
            target = f"http://{netloc}{f':{parts.port}' if parts.port else ''}{target}"
            headers = {**headers, **_proxy_auth(via)}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("response not complete within the timeout")
    pool = _CONNECTIONS.by_origin
    key = (scheme, host, port, via)
    conn = pool.pop(key, None)
    if conn is None:
        conn = _open_connection(scheme, host, port, via, timeout)
    elif conn.sock is not None and _dropped(conn.sock):
        conn.close()
    pool[key] = conn
    if len(pool) > _MAX_HOSTS:
        pool.pop(next(iter(pool))).close()
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    # read this response (and a proxy's answer to CONNECT) against the deadline
    conn.response_class = functools.partial(_DeadlineResponse, deadline=deadline)
    try:
        conn.request(method, target, body, headers)
        return conn, conn.getresponse()
    except BaseException:
        conn.close()
        raise


class Response:
    """An HTTP response whose body is still unread.  Leaving its ``with``
    block keeps the connection for the thread's next call to the same
    origin only if the body was read to the end; otherwise it closes it,
    so no unread bytes are taken for the next response."""

    def __init__(self, url: str, conn: http.client.HTTPConnection,
                 raw: http.client.HTTPResponse) -> None:
        self.url = url
        self.status = raw.status
        self.headers = raw.headers
        # the Content-Type's media type, lower-cased, and its charset parameter
        kind, *params = raw.headers.get("Content-Type", "").split(";")
        self.media_type = kind.strip().lower()
        self.charset: Optional[str] = None
        for param in params:
            name, eq, value = param.partition("=")
            if eq and name.strip("\"' ").lower() == "charset":
                self.charset = value.strip("\"' ")
        self._conn = conn
        self._raw = raw
        self._complete = False

    def __enter__(self) -> "Response":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._complete:
            self._raw.close()
            self._conn.close()

    def read(self, max_bytes: int) -> bytearray:
        """The body, gzip or deflate encoding undone.  TransportError when
        the call's deadline passes or a read fails, BodyOverCap when the
        decoded body grows over ``max_bytes``.  A body sent as it is, whose
        Content-Length is over ``max_bytes``, is refused unread."""
        encoding = self.headers.get("Content-Encoding", "").strip().lower()
        inflate = (zlib.decompressobj(16 + zlib.MAX_WBITS) if encoding in ("gzip", "x-gzip")
                   else zlib.decompressobj() if encoding == "deflate" else None)
        if inflate is None and (self._raw.length or 0) > max_bytes:
            raise BodyOverCap(f"body over {max_bytes} bytes for {self.url}")
        body = bytearray()
        try:
            while chunk := self._raw.read1(65536):
                if inflate is not None:
                    # at most one byte over the cap: enough to reject the body
                    chunk = inflate.decompress(chunk, max_bytes - len(body) + 1)
                body += chunk
                if len(body) > max_bytes:
                    raise BodyOverCap(f"body over {max_bytes} bytes for {self.url}")
            if self._raw.length:
                raise TransportError(f"body incomplete when the connection closed for {self.url}")
            if inflate is not None:
                body += inflate.flush()
                if len(body) > max_bytes:
                    raise BodyOverCap(f"body over {max_bytes} bytes for {self.url}")
        except (OSError, http.client.HTTPException, zlib.error) as exc:
            raise TransportError(f"body read failed for {self.url}: {exc}") from exc
        self._raw.close()
        self._complete = True
        return body

    def discard(self) -> None:
        """Read and drop a body of up to 64 KB, so that the connection
        serves the thread's next call; a longer body, or one that fails to
        arrive, goes with the connection when the ``with`` block ends."""
        try:
            self.read(65536)
        except TransportError:
            pass

    def text(self, max_bytes: int) -> str:
        """read(), decoded by the charset (UTF-8 when unknown); without one,
        UTF-8, except that a text/* body whose bytes are not valid UTF-8
        decodes as ISO-8859-1."""
        raw = self.read(max_bytes)
        if self.charset is None and self.media_type.startswith("text/"):
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError:
                return raw.decode("ISO-8859-1")
        try:
            return raw.decode(self.charset or "utf-8", errors="replace")
        except LookupError:
            return raw.decode("utf-8", errors="replace")


def open_url(method: str, url: str, headers: dict[str, str], body: Optional[bytes] = None,
             *, timeout: float) -> Response:
    """Send one request over the calling thread's keep-alive connection to
    the URL's origin, through the proxy that the environment names for it
    (HTTP_PROXY, HTTPS_PROXY, ALL_PROXY, NO_PROXY).  A GET follows up to
    MAX_REDIRECTS redirects, a POST none; a cookie one hop sets is sent on
    the later hops of that chain and never after it.  ``timeout`` bounds
    the connect and each read, and the whole call: its redirects, the
    response head and the body (see Response.read) end within ``timeout``
    seconds.
    TransportError for a malformed URL, a failed connection or request,
    the timeout, or a redirect chain that is too long."""
    deadline = time.monotonic() + timeout
    headers = {**_DEFAULT_HEADERS, **headers}
    first_url = url
    jar: Optional[CookieJar] = None
    for _ in range(MAX_REDIRECTS + 1):
        hop_headers = headers
        if jar is not None:
            request = Request(url)
            jar.add_cookie_header(request)
            if request.has_header("Cookie"):
                hop_headers = {**headers, "Cookie": request.get_header("Cookie")}
        try:
            resp = Response(url, *_send(method, url, hop_headers, body, deadline))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(f"{method} {url} failed: {exc}") from exc
        location = resp.headers.get("Location")
        if method != "GET" or resp.status not in _REDIRECT_STATUSES or not location:
            return resp
        with resp:
            if resp.headers.get("Set-Cookie"):
                if jar is None:
                    jar = CookieJar()
                jar.extract_cookies(resp._raw, Request(url))
            resp.discard()
        try:
            # http.client decodes header values as ISO-8859-1
            location = location.encode("latin-1").decode("utf-8")
        except UnicodeError:
            pass
        url = urljoin(url, location)
    raise TransportError(f"redirect chain too long for {first_url}")


def post_json(url: str, headers: dict[str, str], payload: dict[str, Any],
              timeout: float) -> tuple[int, str]:
    """(status, body text) of one POST; TransportError once the response
    is still arriving ``timeout`` seconds after the call began, or its
    body is over MAX_RESPONSE_BYTES."""
    body = json.dumps(payload).encode("utf-8")
    with open_url("POST", url, {"Content-Type": "application/json", **headers}, body,
                  timeout=timeout) as resp:
        return resp.status, resp.text(MAX_RESPONSE_BYTES)


def fixture_key(material: Any) -> str:
    """The key of the fixture recorded for a request: the sha256 of
    ``material``, the request's canonical form, as JSON."""
    blob = json.dumps(material, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class FixtureStore:
    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def get(self, key: str, malformed: Callable[[dict[str, Any]], Optional[str]]
            = lambda record: None) -> Optional[dict[str, Any]]:
        """The record stored under key, or None.  StorageError when its file
        cannot be read, is not a JSON object, or ``malformed(record)`` names
        what is wrong with its fields."""
        path = os.path.join(self.root, f"{key}.json")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            # decoded first: json.loads(bytes) would also accept UTF-16 and UTF-32
            record = json.loads(data.decode("utf-8"))
        except FileNotFoundError:
            return None
        # ValueError: not UTF-8, or not JSON; RecursionError: nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise StorageError(f"unreadable fixture {path}: {exc}") from exc
        problem = malformed(record) if isinstance(record, dict) else "not a JSON object"
        if problem:
            raise StorageError(f"malformed fixture {path}: {problem}")
        return record

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Write a fixture whole, through a temporary file that replaces any
        file there, so a reader or a concurrent put never meets half of one."""
        path = self.root / f"{key}.json"
        payload = json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.root / f".{key}.{os.urandom(8).hex()}.tmp"
            # mode 0o666 less the umask, as a plain write gives the file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with open(fd, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
        except OSError as exc:
            raise StorageError(f"cannot write fixture {path}: {exc}") from exc


class RecordedClient:
    """Base of the external-call clients, in one of three modes: live,
    record (live, and store each record) or replay (stored records only,
    never the network).  Every subclass sets TIMEOUT and ``_malformed``,
    which names what is wrong with a stored record's fields (None when
    nothing is).  A live call (``_post``) makes 1 + len(RETRY_DELAYS) tries
    at most.  A retry first sleeps the next of RETRY_DELAYS, then raises
    instead if ``abandoned`` is set.  Every try then waits, holding the
    client's lock, until 1/requests_per_second has passed since its last
    try (a late wake-up pushes the next back; rate 0, the LLM's, never
    waits), and may take TIMEOUT seconds.  Transport errors, HTTP 429 and
    5xx are retried; a body over its cap, another 4xx or a non-object fails."""

    TIMEOUT: float
    _malformed: Callable[[dict[str, Any]], Optional[str]]

    def __init__(self, mode: str, fixture_dir: Optional[str],
                 transport: Callable[..., tuple[int, str]],
                 sleep: Callable[[float], None], requests_per_second: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown mode: {mode!r}")
        if mode in ("record", "replay") and not fixture_dir:
            raise ValueError("fixture_dir required for record/replay mode")
        self.mode = mode
        self.store = FixtureStore(fixture_dir) if fixture_dir else None
        self._transport = transport
        self._sleep = sleep
        self._clock = clock
        self._min_interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._last_try = float("-inf")
        self._throttle_lock = threading.Lock()

    def _recorded(self, key: Callable[[], str], live: Callable[[], dict[str, Any]],
                  miss: Callable[[], str]) -> dict[str, Any]:
        """The record for ``key()``: from the store in replay mode (FixtureMiss
        with message ``miss()`` when absent), else from ``live()``, stored
        in record mode.  Live mode never computes the key."""
        if self.mode == "replay":
            record = self.store.get(key(), self._malformed)
            if record is None:
                raise FixtureMiss(miss())
            return record
        record = live()
        if self.mode == "record":
            self.store.put(key(), record)
        return record

    def _post(self, url: str, headers: dict[str, str], payload: dict[str, Any],
              abandoned: Optional[threading.Event] = None) -> dict[str, Any]:
        """The JSON object in the body of the first answer that is not a 429
        or 5xx; TransportError for any other HTTP error, a body that is not
        a JSON object or is over its cap, once the retries run out, or in
        place of a back-off or retry once ``abandoned`` is set: the caller no
        longer needs the answer."""
        abandoned = abandoned or threading.Event()
        last_error: object = None
        for attempt in range(1 + len(RETRY_DELAYS)):
            if attempt:
                if not abandoned.is_set():
                    self._sleep(RETRY_DELAYS[attempt - 1])
                if abandoned.is_set():
                    raise TransportError(f"not retried, answer no longer needed: {last_error}")
            self._throttle()
            try:
                status, body = self._transport(url, headers, payload, self.TIMEOUT)
            except BodyOverCap:
                raise
            except TransportError as exc:
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = f"HTTP {status} from {url}"
                continue
            if status >= 400:
                raise TransportError(f"HTTP {status} from {url}: {body[:200]}")
            try:
                data = json.loads(body)
            except (ValueError, RecursionError) as exc:
                raise TransportError(f"malformed response from {url}: {exc}") from exc
            if not isinstance(data, dict):
                raise TransportError(f"malformed response from {url}: not a JSON object")
            return data
        raise TransportError(f"giving up after retries: {last_error}")

    def _throttle(self) -> None:
        if self._min_interval <= 0:
            return
        with self._throttle_lock:
            wait = self._last_try + self._min_interval - self._clock()
            if wait > 0:
                self._sleep(wait)
            self._last_try = self._clock()
