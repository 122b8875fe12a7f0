"""Web-search client (serper-style JSON API) in live, record or replay mode."""
from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from typing import Any, Callable, Optional

from .model import SearchQuery, SearchResultMeta, is_valid_http_url
from .replaystore import RecordedClient, post_json

__all__ = ["SearchClient", "search_fixture_key"]

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://google.serper.dev/search"


def search_fixture_key(query_text: str, k: int) -> str:
    blob = json.dumps([query_text, k], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SearchClient(RecordedClient):
    """Returns (title, url, snippet) results; at most k, in provider order.

    Results with unparseable URLs are dropped and logged rather than
    failing the call.  Replay mode performs zero network operations.
    """

    TIMEOUT = 30.0

    def __init__(
        self,
        mode: str = "live",
        endpoint: str = DEFAULT_ENDPOINT,
        api_key: Optional[str] = None,
        fixture_dir: Optional[str] = None,
        requests_per_second: float = 5.0,
        transport: Callable[..., tuple[int, str]] = post_json,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(mode, fixture_dir, transport, sleep)
        self.endpoint = endpoint
        self.api_key = api_key
        self._clock = clock
        self._min_interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._last_call = float("-inf")
        self._throttle_lock = threading.Lock()

    def search(self, query: SearchQuery, k: int,
               abandoned: Optional[threading.Event] = None) -> list[SearchResultMeta]:
        """At most k results; a live search is not retried once ``abandoned``
        is set (see RecordedClient._post)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        record = self._recorded(
            lambda: search_fixture_key(query.text, k),
            lambda: {"query": query.text, "k": k,
                     "results": self._search_live(query, k, abandoned)},
            lambda: f"no search fixture for query {query.text!r} (k={k})")
        return self._parse_results(record["results"], k)

    def _search_live(self, query: SearchQuery, k: int,
                     abandoned: Optional[threading.Event]) -> list[dict[str, Any]]:
        self._throttle()
        headers = {"X-API-KEY": self.api_key} if self.api_key else {}
        data = self._post(self.endpoint, headers, {"q": query.text, "num": k, "hl": "en"},
                          abandoned)
        organic = data.get("organic", [])
        return organic if isinstance(organic, list) else []

    @staticmethod
    def _malformed(record: dict[str, Any]) -> Optional[str]:
        return None if isinstance(record.get("results"), list) else "results is not a list"

    def _parse_results(self, raw: list[dict[str, Any]], k: int) -> list[SearchResultMeta]:
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
            ))
        return results

    def _throttle(self) -> None:
        """Wait, holding the lock, until min_interval has passed since the
        last call was let through.  The time of this call is read after the
        sleep, so a sleep that overruns pushes the next call back with it."""
        if self._min_interval <= 0:
            return
        with self._throttle_lock:
            wait = self._last_call + self._min_interval - self._clock()
            if wait > 0:
                self._sleep(wait)
            self._last_call = self._clock()
