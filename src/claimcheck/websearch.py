"""Web-search client (serper-style JSON API) in live, record or replay mode."""
from __future__ import annotations

import logging
import time
from typing import Any, Callable, Optional

from .model import SearchQuery, SearchResultMeta, is_valid_http_url
from .replaystore import RecordedClient, fixture_key, post_json

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://google.serper.dev/search"


def search_fixture_key(query_text: str, k: int, scope: str) -> str:
    return fixture_key(scope, query_text, str(k))


class SearchClient(RecordedClient):
    """Returns (title, url, snippet) results; at most k, in provider order.

    Results with unparseable URLs are dropped and logged rather than
    failing the call.  Replay mode performs zero network operations.
    """

    TIMEOUT = 30.0
    REQUESTS_PER_SECOND = 5.0

    def __init__(
        self,
        mode: str = "live",
        endpoint: str = DEFAULT_ENDPOINT,
        api_key: Optional[str] = None,
        fixture_dir: Optional[str] = None,
        requests_per_second: float = REQUESTS_PER_SECOND,
        transport: Callable[..., tuple[int, str]] = post_json,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(mode, fixture_dir, transport, sleep, requests_per_second, clock)
        self.endpoint = endpoint
        self.api_key = api_key

    def search(self, query: SearchQuery, k: int, scope: str = "") -> list[SearchResultMeta]:
        """At most k results.  A live search's tries and rate limit follow
        RecordedClient's per-try policy.  ``scope`` names the claim whose
        fixtures hold the search's record; the provider never sees it."""
        if k < 1:
            raise ValueError("k must be >= 1")
        record = self._recorded(
            lambda: search_fixture_key(query.text, k, scope),
            lambda: {"query": query.text, "k": k, "scope": scope,
                     "results": self._search_live(query, k)},
            lambda: f"no search fixture for query {query.text!r} (k={k}, claim {scope!r})")
        return self._parse_results(record["results"], k)

    def _search_live(self, query: SearchQuery, k: int) -> list[dict[str, Any]]:
        headers = {"X-API-KEY": self.api_key} if self.api_key else {}
        data = self._post(self.endpoint, headers, {"q": query.text, "num": k, "hl": "en"})
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
            url = str(entry.get("link") or "")
            if not is_valid_http_url(url):
                log.warning("dropping search result with unusable URL: %r", url)
                continue
            results.append(SearchResultMeta(
                title=str(entry.get("title") or ""),
                url=url,
                snippet=str(entry.get("snippet") or ""),
            ))
        return results
