"""Record/replay and retry layer shared by the LLM and search clients,
and the keep-alive HTTP sessions of every external call.

Fixtures are one UTF-8 JSON file per key so they stay reviewable in diffs.
"""
from __future__ import annotations

import json
import threading
import time
from http.cookiejar import DefaultCookiePolicy
from pathlib import Path
from typing import Any, Callable, Optional

import requests
import urllib3

RETRY_DELAYS = (1.0, 2.0, 4.0)


class FixtureMiss(Exception):
    """Replay mode was asked for a key that was never recorded."""


class StorageError(Exception):
    """The fixture store could not be read or written."""


class TransportError(Exception):
    """A live call failed: network error, retries exhausted, an HTTP 4xx,
    or a malformed body.  Whether that ends the run is up to the caller."""


class ThreadSession(threading.local):
    """One pooled keep-alive ``requests.Session`` per thread: threading.local
    runs ``__init__`` again, with the same arguments, in each thread that
    reads ``.session``.  Its jar stores no cookie, so every call starts
    without cookies as a fresh session would; cookies set inside one
    redirect chain still apply to it, since they live in the request's own
    jar."""

    def __init__(self, max_redirects: int = requests.models.DEFAULT_REDIRECT_LIMIT) -> None:
        self.session = requests.Session()
        self.session.max_redirects = max_redirects
        # no allowed domain: the policy refuses every cookie
        self.session.cookies.set_policy(DefaultCookiePolicy(allowed_domains=[]))


def read_body(resp: requests.Response, deadline: float,
              max_bytes: Optional[int] = None) -> bytes:
    """The body of a streamed response, content encoding undone, read one
    socket read at a time so that a server sending it slowly cannot hold
    the call past ``deadline`` (a ``time.monotonic()`` value): a requests
    timeout bounds each read, not their sum.  TransportError when the
    deadline passes, the body grows over ``max_bytes`` or a read fails."""
    chunks, size = [], 0
    try:
        while chunk := resp.raw.read1(65536, decode_content=True):
            size += len(chunk)
            if max_bytes is not None and size > max_bytes:
                raise TransportError(f"body over {max_bytes} bytes")
            if time.monotonic() > deadline:
                raise TransportError("body not complete within the timeout")
            chunks.append(chunk)
    except urllib3.exceptions.HTTPError as exc:
        raise TransportError(f"body read failed: {exc}") from exc
    return b"".join(chunks)


_POST_SESSIONS = ThreadSession()


def post_json(url: str, headers: dict[str, str], payload: dict[str, Any],
              timeout: float) -> tuple[int, str]:
    """(status, body text) of one POST; TransportError once the body is
    still arriving ``timeout`` seconds after the call began."""
    deadline = time.monotonic() + timeout
    try:
        resp = _POST_SESSIONS.session.post(url, headers=headers, json=payload,
                                           timeout=timeout, stream=True)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    with resp:
        body = read_body(resp, deadline)
    return resp.status_code, body.decode(resp.encoding or "utf-8", errors="replace")


class FixtureStore:
    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict[str, Any]]:
        path = self._path(key)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise StorageError(f"unreadable fixture {path}: {exc}") from exc

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Write a fixture; idempotent for identical records."""
        path = self._path(key)
        payload = json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        try:
            try:
                if path.read_text(encoding="utf-8") == payload:
                    return
            except FileNotFoundError:
                pass
            self.root.mkdir(parents=True, exist_ok=True)
            path.write_text(payload, encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise StorageError(f"cannot write fixture {path}: {exc}") from exc

    def keys(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))


class RecordedClient:
    """Base of the external-call clients, in one of three modes: live,
    record (live, and store each record) or replay (stored records only,
    never the network).  Live calls go through ``transport`` with one
    retry policy: transport errors, HTTP 429 and 5xx are retried after
    each of RETRY_DELAYS."""

    def __init__(self, mode: str, fixture_dir: Optional[str],
                 transport: Callable[..., tuple[int, str]],
                 sleep: Callable[[float], None], timeout: float) -> None:
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown mode: {mode!r}")
        if mode in ("record", "replay") and not fixture_dir:
            raise ValueError("fixture_dir required for record/replay mode")
        self.mode = mode
        self.store = FixtureStore(fixture_dir) if fixture_dir else None
        self._transport = transport
        self._sleep = sleep
        self._timeout = timeout

    def _recorded(self, key: Callable[[], str], live: Callable[[], dict[str, Any]],
                  miss: Callable[[], str]) -> dict[str, Any]:
        """The record for ``key()``: from the store in replay mode (FixtureMiss
        with message ``miss()`` when absent), else from ``live()``, stored
        in record mode.  Live mode never computes the key."""
        if self.mode == "replay":
            record = self.store.get(key())
            if record is None:
                raise FixtureMiss(miss())
            return record
        record = live()
        if self.mode == "record":
            self.store.put(key(), record)
        return record

    def _post(self, url: str, headers: dict[str, str], payload: dict[str, Any]) -> str:
        """The body of the first answer that is not a 429 or 5xx;
        TransportError for any other HTTP error, or once the retries run out."""
        last_error: object = None
        for attempt in range(1 + len(RETRY_DELAYS)):
            if attempt:
                self._sleep(RETRY_DELAYS[attempt - 1])
            try:
                status, body = self._transport(url, headers, payload, self._timeout)
            except TransportError as exc:
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = f"HTTP {status} from {url}"
                continue
            if status >= 400:
                raise TransportError(f"HTTP {status} from {url}: {body[:200]}")
            return body
        raise TransportError(f"giving up after retries: {last_error}")
