"""Web-search client (serper-style JSON API) with record/replay fixtures."""
from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from typing import Any, Callable, Optional

import requests

from .model import SearchQuery, SearchResultMeta, is_valid_http_url
from .replaystore import FixtureMiss, FixtureStore

__all__ = ["SearchClient", "SearchTransportError", "QuotaError", "FixtureMiss", "search_fixture_key"]

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://google.serper.dev/search"


class SearchTransportError(Exception):
    """Network failure or HTTP error that survived the retry budget."""


class QuotaError(Exception):
    """Provider 429 beyond the retry budget."""


def search_fixture_key(query_text: str, k: int) -> str:
    blob = json.dumps([query_text, k], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _requests_transport(url: str, headers: dict[str, str], payload: dict[str, Any],
                        timeout: float) -> tuple[int, str]:
    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise SearchTransportError(str(exc)) from exc
    return resp.status_code, resp.text


class SearchClient:
    """Returns (title, url, snippet) results; at most k, in provider order.

    Results with unparseable URLs are dropped and logged rather than
    failing the call.  Fixture mode performs zero network operations.
    """

    RETRY_DELAYS = (1.0, 2.0, 4.0)

    def __init__(
        self,
        mode: str = "live",
        endpoint: str = DEFAULT_ENDPOINT,
        api_key: Optional[str] = None,
        fixture_dir: Optional[str] = None,
        locale: str = "en",
        requests_per_second: float = 5.0,
        transport: Callable[..., tuple[int, str]] = _requests_transport,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        timeout: float = 30.0,
    ) -> None:
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown search mode: {mode!r}")
        if mode in ("record", "replay") and not fixture_dir:
            raise ValueError("fixture_dir required for record/replay mode")
        self.mode = mode
        self.endpoint = endpoint
        self.api_key = api_key
        self.locale = locale
        self.store = FixtureStore(fixture_dir) if fixture_dir else None
        self._transport = transport
        self._sleep = sleep
        self._clock = clock
        self._timeout = timeout
        self._min_interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._last_call = float("-inf")
        self._throttle_lock = threading.Lock()

    @classmethod
    def from_env(cls, mode: Optional[str] = None, fixture_dir: Optional[str] = None,
                 **kwargs: Any) -> "SearchClient":
        return cls(
            mode=mode or os.environ.get("CLAIMCHECK_SEARCH_MODE", "live"),
            endpoint=kwargs.pop("endpoint", None)
            or os.environ.get("CLAIMCHECK_SEARCH_ENDPOINT", DEFAULT_ENDPOINT),
            api_key=kwargs.pop("api_key", None) or os.environ.get("CLAIMCHECK_SEARCH_API_KEY"),
            fixture_dir=fixture_dir or os.environ.get("CLAIMCHECK_SEARCH_FIXTURES"),
            **kwargs,
        )

    def search(self, query: SearchQuery, k: int) -> list[SearchResultMeta]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.mode == "replay":
            assert self.store is not None
            record = self.store.get(search_fixture_key(query.text, k))
            if record is None:
                raise FixtureMiss(f"no search fixture for query {query.text!r} (k={k})")
            raw = record["results"]
        else:
            raw = self._search_live(query, k)
            if self.mode == "record":
                self.store.put(search_fixture_key(query.text, k),
                               {"query": query.text, "k": k, "results": raw})
        return self._parse_results(raw, query, k)

    def _search_live(self, query: SearchQuery, k: int) -> list[dict[str, Any]]:
        self._throttle()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["X-API-KEY"] = self.api_key
        payload = {"q": query.text, "num": k, "hl": self.locale}
        last_error: Exception | None = None
        saw_quota = False
        for attempt in range(1 + len(self.RETRY_DELAYS)):
            if attempt:
                self._sleep(self.RETRY_DELAYS[attempt - 1])
            try:
                status, body = self._transport(self.endpoint, headers, payload, self._timeout)
            except SearchTransportError as exc:
                last_error = exc
                continue
            if status == 429:
                saw_quota = True
                last_error = SearchTransportError("HTTP 429")
                continue
            if status >= 500:
                last_error = SearchTransportError(f"HTTP {status}")
                continue
            if status >= 400:
                raise SearchTransportError(f"HTTP {status} from {self.endpoint}: {body[:200]}")
            try:
                data = json.loads(body)
            except json.JSONDecodeError as exc:
                raise SearchTransportError(f"malformed search response: {exc}") from exc
            organic = data.get("organic", [])
            return organic if isinstance(organic, list) else []
        if saw_quota:
            raise QuotaError(f"rate-limited beyond retry budget: {last_error}")
        raise SearchTransportError(f"giving up after retries: {last_error}")

    def _parse_results(self, raw: list[dict[str, Any]], query: SearchQuery,
                       k: int) -> list[SearchResultMeta]:
        results: list[SearchResultMeta] = []
        for entry in raw:
            if len(results) >= k:
                break
            if not isinstance(entry, dict):
                continue
            url = str(entry.get("link") or entry.get("url") or "")
            if not is_valid_http_url(url):
                log.warning("dropping search result with unusable URL: %r", url)
                continue
            results.append(SearchResultMeta(
                title=str(entry.get("title") or ""),
                url=url,
                snippet=str(entry.get("snippet") or ""),
                source_query=query,
            ))
        return results

    def _throttle(self) -> None:
        """Reserve the next free call slot under the lock, then sleep until it."""
        if self._min_interval <= 0:
            return
        with self._throttle_lock:
            slot = max(self._clock(), self._last_call + self._min_interval)
            self._last_call = slot
        wait = slot - self._clock()
        if wait > 0:
            self._sleep(wait)
