"""Fetch result pages and extract readable text, falling back to snippets."""
from __future__ import annotations

import logging
import re
import threading
import urllib.robotparser
from html.parser import HTMLParser
from typing import Callable, Optional
from urllib.parse import urlparse

from .model import Acquisition, Document, SearchResultMeta
from .replaystore import USER_AGENT, TransportError, open_url

log = logging.getLogger(__name__)

__all__ = ["PageReader", "EmptyExtraction", "Unusable", "extract_text"]

# tags whose content is boilerplate or invisible, never page text
_SKIP_TAGS = frozenset(
    {"script", "style", "noscript", "template", "head", "nav", "header",
     "footer", "aside", "form", "iframe", "svg", "button"}
)
# tags that terminate the current paragraph
_BLOCK_TAGS = frozenset(
    {"p", "div", "br", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6",
     "tr", "table", "section", "article", "blockquote", "pre", "main", "figure"}
)

# Markup inside a skipped element that HTMLParser would tokenize one token
# at a time, matched at regex speed instead.  Text is dropped there, and a
# block tag breaks no paragraph once none is open, so only skip tags and
# script/style bodies change state.  The grammar is conservative: ASCII tag
# names, start tags with whitespace-separated attributes whose quoted values
# hold no '<' or '>', end tags with no attributes.  Anything else ('<!',
# '<?', a comment, an unusual tag) ends the match, and HTMLParser sees it as
# before.  An unquoted value may hold '/', as HTMLParser reads it: <a b=c/>
# is a start tag, not a self-closing one.
_WS = r"[ \t\n\r\f]"
_SKIP_NAME = r"(?:%s)(?![a-zA-Z0-9-])" % "|".join(sorted(_SKIP_TAGS))
_ATTRS = (r"""(?:%s+[a-zA-Z_:][-a-zA-Z0-9_:.]*"""
          r"""(?:%s*=%s*(?:"[^"<>]*"|'[^'<>]*'|[-a-zA-Z0-9_:.#%%&+,;?!@~()/]+))?)*%s*"""
          % (_WS, _WS, _WS, _WS))
# text and tags that are not skip tags
_PLAIN_RUN = re.compile(
    r"(?:[^<]+|<(?!{0})[a-zA-Z][a-zA-Z0-9-]*{1}/?>|</(?!{0})[a-zA-Z][a-zA-Z0-9-]*{2}*>)*"
    .format(_SKIP_NAME, _ATTRS, _WS), re.ASCII | re.IGNORECASE)
# one skip tag: groups (end tag name, start tag name, "/" when self-closing)
_SKIP_TAG = re.compile(r"</({0}){1}*>|<({0}){2}(/?)>".format(_SKIP_NAME, _WS, _ATTRS),
                       re.ASCII | re.IGNORECASE)
# Outside skipped elements, text and the tags that change no state (inline
# tags such as <a>, <b>, <em>, <span>) are matched the same way, one piece
# of text and one tag at a time, so that each piece still goes to
# handle_data.  Text holds no '&', so HTMLParser still converts charrefs;
# tag names exclude skip and block tags, whose handlers act, and every
# element some Python version's HTMLParser reads as raw text or plaintext.
_NOT_INLINE = r"(?:%s)(?![a-zA-Z0-9-])" % "|".join(sorted(
    _SKIP_TAGS | _BLOCK_TAGS | {"title", "textarea", "plaintext", "xmp", "noembed", "noframes"}))
# groups: (text before the tag)
_INLINE_RUN = re.compile(
    r"([^<&]*)(?:<(?!{0})[a-zA-Z][a-zA-Z0-9-]*{1}/?>|</(?!{0})[a-zA-Z][a-zA-Z0-9-]*{2}*>)"
    .format(_NOT_INLINE, _ATTRS, _WS), re.ASCII | re.IGNORECASE)
# HTMLParser's end of a script or style body (HTMLParser.set_cdata_mode)
_CDATA_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I)
              for tag in HTMLParser.CDATA_CONTENT_ELEMENTS}

_BLANK_LINE = re.compile(r"\n[ \t]*\n")
_SPACES = re.compile(r"\s+")

_ACCEPTED_CONTENT_TYPES = ("text/html", "application/xhtml", "text/plain")


class EmptyExtraction(Exception):
    """Post-strip text too short to be a usable page body."""


class Unusable(Exception):
    """Neither the page nor the snippet yielded any text; skip the result."""


class _Covered(Exception):
    """The closed paragraphs already cover the text the caller will keep."""


class _TextExtractor(HTMLParser):
    """Collects normalized paragraphs; with stop_at set, raises _Covered
    once the closed paragraphs joined reach stop_at characters.  Closed
    paragraphs never change, so the text so far is a prefix of the full one."""

    def __init__(self, stop_at: Optional[int] = None) -> None:
        super().__init__(convert_charrefs=True)
        self._skip_depth = 0
        self._stop_at = stop_at
        self._chunks: list[str] = []
        self._paragraphs: list[str] = []
        self._length = 0  # len("\n\n".join(self._paragraphs))

    def parse_starttag(self, i: int) -> int:
        return self._skip_run(super().parse_starttag(i))

    def parse_endtag(self, i: int) -> int:
        return self._skip_run(super().parse_endtag(i))

    def _skip_run(self, k: int) -> int:
        """Where HTMLParser resumes after the tag that ended at k: inside a
        skipped element with no paragraph open, past all markup up to the
        element's end (or the first token outside the grammar of _SKIP_TAG
        and _PLAIN_RUN), keeping _skip_depth as the handlers would; outside
        one, past text and inline tags (_INLINE_RUN), passing each piece of
        text to handle_data as HTMLParser would."""
        if k < 0 or self.cdata_elem or (self._skip_depth and self._chunks):
            return k
        rawdata = self.rawdata
        while self._skip_depth:
            k = _PLAIN_RUN.match(rawdata, k).end()
            tag = _SKIP_TAG.match(rawdata, k)
            if tag is None:
                return k
            end_name, name, self_closing = tag.groups()
            k = tag.end()
            if end_name:
                self._skip_depth -= 1
            elif self_closing:
                pass
            elif name.lower() in _CDATA_END:
                body_end = _CDATA_END[name.lower()].search(rawdata, k)
                if body_end is None:
                    return tag.start()
                k = body_end.end()
            else:
                self._skip_depth += 1
        handle_data = self.handle_data
        while run := _INLINE_RUN.match(rawdata, k):
            if run.end(1) > k:
                handle_data(run[1])
            k = run.end()
        return k

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self._break_paragraph()

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS and self._skip_depth:
            self._skip_depth -= 1
        elif tag in _BLOCK_TAGS:
            self._break_paragraph()

    def handle_data(self, data: str) -> None:
        if self._skip_depth or not data.strip():
            return
        # blank lines in text content are paragraph breaks in their own right
        pieces = _BLANK_LINE.split(data)
        for i, piece in enumerate(pieces):
            if i:
                self._break_paragraph()
            if piece.strip():
                self._chunks.append(piece)

    def _close_paragraph(self) -> None:
        para = _SPACES.sub(" ", " ".join(self._chunks)).strip()
        self._chunks = []
        if para:
            self._length += len(para) + (2 if self._paragraphs else 0)
            self._paragraphs.append(para)

    def _break_paragraph(self) -> None:
        if self._chunks:
            self._close_paragraph()
            if self._stop_at is not None and self._length >= self._stop_at:
                raise _Covered

    def text(self) -> str:
        self._close_paragraph()
        return "\n\n".join(self._paragraphs)


def extract_text(raw: str, min_chars: int = 40, max_chars: Optional[int] = None) -> str:
    """Strip tags, scripts, and boilerplate; collapse whitespace; keep
    paragraph breaks as blank lines.  Plain-text input passes through with
    whitespace normalization.

    With max_chars set, parsing stops as soon as the text is known to reach
    max(max_chars, min_chars) characters.  The result may then be shorter
    than the full extraction, but its first max_chars characters and the
    EmptyExtraction decision are the same.

    Raises EmptyExtraction when the result is shorter than min_chars.
    """
    stop_at = None if max_chars is None else max(max_chars, min_chars)
    parser = _TextExtractor(stop_at)
    try:
        parser.feed(raw)
        parser.close()
    except _Covered:
        pass
    text = parser.text()
    if len(text) < min_chars:
        raise EmptyExtraction(f"extracted only {len(text)} characters")
    return text


class PageReader:
    """fetch + extract with a snippet fallback when pages are unusable.

    body_char_cap bounds both the kept document body and the extraction
    work: parsing a page stops once its first body_char_cap characters of
    text are known.  max_bytes still applies to the whole download.

    Pages and robots.txt go over ``replaystore.open_url``: one keep-alive
    connection per host and thread, closed when a response is dropped
    before its body is read, with the transport's User-Agent.
    """

    def __init__(
        self,
        timeout: float = 15.0,
        max_redirects: int = 5,
        max_bytes: int = 2_000_000,
        body_char_cap: int = 12_000,
        respect_robots: bool = False,
        http_get: Optional[Callable[[str], tuple[str, str]]] = None,
    ) -> None:
        self.timeout = timeout
        self.max_redirects = max_redirects
        self.max_bytes = max_bytes
        self.body_char_cap = body_char_cap
        self.respect_robots = respect_robots
        self._http_get = http_get or self._get
        self._robots_cache: dict[str, urllib.robotparser.RobotFileParser] = {}
        self._robots_locks: dict[str, threading.Lock] = {}
        self._robots_locks_guard = threading.Lock()

    def fetch(self, url: str) -> tuple[str, str]:
        """Return (decoded body, content-type).  TransportError for a page
        that robots.txt disallows, a non-2xx status, an unsupported content
        type or a failed transfer."""
        if self.respect_robots and not self._robots_allowed(url):
            raise TransportError(f"disallowed by robots.txt: {url}")
        return self._http_get(url)

    def _get(self, url: str) -> tuple[str, str]:
        with open_url("GET", url, {}, timeout=self.timeout,
                      max_redirects=self.max_redirects) as resp:
            if not 200 <= resp.status < 300:
                raise TransportError(f"HTTP {resp.status} for {url}")
            content_type = resp.headers.get("Content-Type", "").split(";")[0].strip().lower()
            if content_type and not content_type.startswith(_ACCEPTED_CONTENT_TYPES):
                raise TransportError(f"unsupported content-type {content_type!r} for {url}")
            return resp.text(self.max_bytes), content_type

    def extract_text(self, raw: str) -> str:
        """Page text whose first body_char_cap characters are exact; parsing
        stops once they are covered."""
        return extract_text(raw, max_chars=self.body_char_cap)

    def acquire_document(self, result: SearchResultMeta) -> Document:
        """Fetched page body (truncated to the cap), else title + snippet,
        else Unusable."""
        try:
            raw, _ = self.fetch(result.url)
            body = self.extract_text(raw)
            return Document(meta=result, body=body[: self.body_char_cap],
                            acquisition=Acquisition.FETCHED_PAGE)
        except (TransportError, EmptyExtraction) as exc:
            log.debug("falling back to snippet for %s: %s", result.url, exc)
        if result.snippet.strip():
            body = f"{result.title}\n{result.snippet}".strip()
            return Document(meta=result, body=body[: self.body_char_cap],
                            acquisition=Acquisition.SNIPPET_FALLBACK)
        raise Unusable(f"no page text and no snippet for {result.url}")

    def _robots_allowed(self, url: str) -> bool:
        netloc = urlparse(url).netloc
        with self._robots_locks_guard:
            lock = self._robots_locks.setdefault(netloc, threading.Lock())
        # one request per host; threads reaching other hosts do not wait
        with lock:
            parser = self._robots_cache.get(netloc)
            if parser is None:
                parser = self._read_robots(f"{urlparse(url).scheme}://{netloc}/robots.txt")
                self._robots_cache[netloc] = parser
        return parser.can_fetch(USER_AGENT, url)

    def _read_robots(self, robots_url: str) -> urllib.robotparser.RobotFileParser:
        """RobotFileParser.read() with a timeout and lenient decoding: 2xx is
        parsed, 401/403 disallow all, other 4xx and network errors allow
        all; anything else leaves the parser unread, so can_fetch is False."""
        parser = urllib.robotparser.RobotFileParser()
        try:
            with open_url("GET", robots_url, {}, timeout=self.timeout,
                          max_redirects=self.max_redirects) as resp:
                # read every body, so the connection stays open for the pages
                body = resp.read()
                if 200 <= resp.status < 300:
                    parser.parse(body.decode("utf-8", errors="replace").splitlines())
                elif resp.status in (401, 403):
                    parser.disallow_all = True
                elif 400 <= resp.status < 500:
                    parser.allow_all = True
        except TransportError:
            parser.allow_all = True
        return parser
