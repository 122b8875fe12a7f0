"""Shared domain types: claims, queries, search results, evidence, budget config."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from urllib.parse import urlparse

EMPTY_EVIDENCE_MARKER = "NO EVIDENCE COLLECTED YET"


class Verdict(Enum):
    TRUE = "True"
    FALSE = "False"


class Acquisition(Enum):
    FETCHED_PAGE = "fetched_page"
    SNIPPET_FALLBACK = "snippet_fallback"


def is_valid_http_url(url: str) -> bool:
    try:
        parts = urlparse(url)
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


def url_dedupe_key(url: str) -> str:
    """Dedupe key for evidence sources: scheme and host lowercased, rest verbatim."""
    parts = urlparse(url)
    return parts._replace(scheme=parts.scheme.lower(), netloc=parts.netloc.lower()).geturl()


@dataclass(frozen=True)
class Claim:
    text: str
    id: str = ""

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("claim text must be non-empty")
        object.__setattr__(self, "text", self.text.strip())


@dataclass(frozen=True)
class SearchQuery:
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("query text must be non-empty")
        object.__setattr__(self, "text", self.text.strip())


@dataclass(frozen=True)
class SearchResultMeta:
    title: str
    url: str
    snippet: str

    def __post_init__(self) -> None:
        if not is_valid_http_url(self.url):
            raise ValueError(f"not an absolute http(s) URL: {self.url!r}")


@dataclass(frozen=True)
class Document:
    meta: SearchResultMeta
    body: str
    acquisition: Acquisition

    def __post_init__(self) -> None:
        if not self.body.strip():
            raise ValueError("document body must be non-empty")


@dataclass(frozen=True)
class EvidenceItem:
    note: str
    source_url: str

    def __post_init__(self) -> None:
        if not self.note.strip():
            raise ValueError("evidence note must be non-empty")
        if not is_valid_http_url(self.source_url):
            raise ValueError(f"invalid evidence source url: {self.source_url!r}")


@dataclass(frozen=True)
class EvidenceSet:
    """Insertion-ordered memory bank; one item per source URL."""

    items: tuple[EvidenceItem, ...] = ()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def add(self, item: EvidenceItem) -> tuple["EvidenceSet", bool]:
        """Append item unless its URL is already present.

        Returns (new_set, added); on a duplicate URL the set is returned
        unchanged with added=False.
        """
        key = url_dedupe_key(item.source_url)
        if any(url_dedupe_key(existing.source_url) == key for existing in self.items):
            return self, False
        return EvidenceSet(self.items + (item,)), True

    def render(self, char_budget: int) -> str:
        """Numbered plain-text block for prompts, at most char_budget chars.

        Newest items are dropped first when the full render exceeds the
        budget.  An empty set renders as a fixed marker so prompts are
        well-formed before any evidence exists.
        """
        if char_budget <= 0:
            raise ValueError("char_budget must be positive")
        if not self.items:
            return EMPTY_EVIDENCE_MARKER[:char_budget]
        lines = [f"{i}. {item.note} (source: {item.source_url})"
                 for i, item in enumerate(self.items, start=1)]
        size = sum(map(len, lines)) + len(lines) - 1  # the joined length
        while size > char_budget and len(lines) > 1:
            size -= len(lines.pop()) + 1
        # a single item over budget is hard-truncated
        return "\n".join(lines)[:char_budget]


@dataclass(frozen=True)
class BudgetConfig:
    max_search_queries: int = 4
    max_results_per_query: int = 2
    model_id: str = "gpt-4.1"
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.max_search_queries < 1:
            raise ValueError("max_search_queries must be >= 1")
        if self.max_results_per_query < 1:
            raise ValueError("max_results_per_query must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
