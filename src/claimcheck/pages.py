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
#
# Every repeat below is possessive: what follows it never begins with a
# character it consumed (a name is followed by whitespace, '=', '/' or '>';
# a quoted value by its quote; text by '<'; a bare value may end in '/',
# and '/?>' still matches after it), so giving characters back could never
# make a match, and sre keeps no backtracking state for them.  Names list
# both cases, so no pattern needs re.IGNORECASE, which folds every character
# tested.
_WS = r"[ \t\n\r\f]"


def _whole_name(names) -> str:
    """A regex for a whole tag name in names, in any ASCII case.  It tests
    the first letter before the alternatives, so that most other names fail
    at once."""
    first = "".join(sorted({name[0] for name in names}))
    spelled = ("".join(f"[{c}{c.upper()}]" for c in name) for name in sorted(names))
    return r"(?=[%s%s])(?:%s)(?![a-zA-Z0-9-])" % (first, first.upper(), "|".join(spelled))


_SKIP_NAME = _whole_name(_SKIP_TAGS)
_ATTRS = (r"""(?:%s++[a-zA-Z_:][-a-zA-Z0-9_:.]*+"""
          r"""(?:%s*+=%s*+(?:"[^"<>]*+"|'[^'<>]*+'|[-a-zA-Z0-9_:.#%%&+,;?!@~()/]++))?+)*+%s*+"""
          % (_WS, _WS, _WS, _WS))
# a tag name that the regex in %s does not match
_NAME_BUT = r"(?!%s)[a-zA-Z][a-zA-Z0-9-]*+"


def _tag(name: str) -> str:
    """A regex for a start tag, or an end tag without attributes, whose
    name matches the regex name."""
    return r"<(?:/{0}{1}*+|{0}{2}/?+)>".format(name, _WS, _ATTRS)


# text and tags that are not skip tags
_PLAIN_RUN = re.compile(r"(?:[^<]++|%s)*+" % _tag(_NAME_BUT % _SKIP_NAME))
# one skip tag: groups (end tag name, start tag name, "/" when self-closing)
_SKIP_TAG = re.compile(r"</({0}){1}*+>|<({0}){2}(/?+)>".format(_SKIP_NAME, _WS, _ATTRS))
# Outside skipped elements, text and every tag but the skip tags are matched
# a paragraph run at a time: text and inline tags, then optionally text and
# one block tag, which ends the paragraph.  Text holds no '&', so HTMLParser
# still converts charrefs; inline names exclude the block names, skip tags,
# whose handlers change _skip_depth, and every element some Python version's
# HTMLParser reads as raw text or plaintext.  A tag in the run holds no '>'
# but its last character, so _TAG.split takes out the run's text pieces.
_NOT_INLINE = _whole_name(
    _SKIP_TAGS | _BLOCK_TAGS | {"title", "textarea", "plaintext", "xmp", "noembed", "noframes"})
# group 1: the block tag that ends the run, if any
_PARAGRAPH_RUN = re.compile(r"(?:[^<&]*+{0})*+(?:[^<&]*+({1}))?+".format(
    _tag(_NAME_BUT % _NOT_INLINE), _tag(_whole_name(_BLOCK_TAGS))))
_TAG = re.compile(r"<[^>]*+>")
# HTMLParser's end of a script or style body (HTMLParser.set_cdata_mode)
_CDATA_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I)
              for tag in HTMLParser.CDATA_CONTENT_ELEMENTS}

# a blank line, with LF or CRLF line ends
_BLANK_LINE = re.compile(r"\n[ \t\r]*\n")
# text shorter than this is no usable page body
MIN_CHARS = 40

_ACCEPTED_CONTENT_TYPES = ("text/html", "application/xhtml", "text/plain")
_DEFAULT_PORTS = {"http": 80, "https": 443}


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
        one, past the paragraph runs of _PARAGRAPH_RUN, keeping their text
        pieces and breaking the paragraph at each block tag as HTMLParser
        and the handlers would.  A run with no blank line goes onto _chunks
        whole; one with a blank line goes to handle_data piece by piece."""
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
        while True:
            run = _PARAGRAPH_RUN.match(rawdata, k)
            end = run.end()
            pieces = _TAG.split(rawdata[k:end])
            if _BLANK_LINE.search(rawdata, k, end):
                for piece in pieces:
                    self.handle_data(piece)
            else:
                self._chunks.extend(filter(str.strip, pieces))
            k = end
            if run.start(1) < 0:
                return k
            self._break_paragraph()

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
        para = " ".join(" ".join(self._chunks).split())
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


def extract_text(raw: str, min_chars: int = MIN_CHARS, max_chars: Optional[int] = None) -> str:
    """Strip tags, scripts, and boilerplate from HTML; collapse whitespace;
    keep paragraph breaks as blank lines.

    With max_chars set, parsing stops as soon as the text is known to reach
    max(max_chars, min_chars) characters.  The result may then be shorter
    than the full extraction, but its first max_chars characters and the
    EmptyExtraction decision are the same, unless parsing stops before
    markup that HTMLParser refuses.

    Raises EmptyExtraction when the result is shorter than min_chars, or
    when HTMLParser refuses the markup (an unknown marked section such as
    ``<![bogus[``), which it does with AssertionError.
    """
    stop_at = None if max_chars is None else max(max_chars, min_chars)
    parser = _TextExtractor(stop_at)
    try:
        parser.feed(raw)
        parser.close()
    except _Covered:
        pass
    except AssertionError as exc:
        raise EmptyExtraction(f"markup the HTML parser refuses: {exc}") from None
    return _at_least(parser.text(), min_chars)


def _plain_text(raw: str) -> str:
    """A text/plain body's paragraphs, split at blank lines with whitespace
    collapsed; '<' and '&' are text.  EmptyExtraction as in extract_text."""
    paragraphs = (" ".join(piece.split()) for piece in _BLANK_LINE.split(raw))
    return _at_least("\n\n".join(filter(None, paragraphs)), MIN_CHARS)


def _at_least(text: str, min_chars: int) -> str:
    if len(text) < min_chars:
        raise EmptyExtraction(f"extracted only {len(text)} characters")
    return text


class PageReader:
    """fetch + extract with a snippet fallback when pages are unusable.

    BODY_CHAR_CAP bounds both the kept document body and the extraction
    work: parsing a page stops once its first BODY_CHAR_CAP characters of
    text are known.  MAX_BYTES still applies to the whole download.

    Pages and robots.txt go over ``replaystore.open_url``: one keep-alive
    connection per host and thread, closed when a response is dropped
    before its body is read, with the transport's User-Agent.
    """

    TIMEOUT = 15.0
    MAX_BYTES = 2_000_000
    BODY_CHAR_CAP = 12_000

    def __init__(
        self,
        respect_robots: bool = False,
        http_get: Optional[Callable[[str], tuple[str, str]]] = None,
    ) -> None:
        self.respect_robots = respect_robots
        self._http_get = http_get or self._get
        # by origin: (scheme, lower-cased host, port)
        self._robots_cache: dict[tuple, urllib.robotparser.RobotFileParser] = {}
        self._robots_locks: dict[tuple, threading.Lock] = {}
        self._robots_locks_guard = threading.Lock()

    def fetch(self, url: str) -> tuple[str, str]:
        """Return (decoded body, content-type).  TransportError for a page
        that robots.txt disallows, a non-2xx status, an unsupported content
        type or a failed transfer."""
        if self.respect_robots and not self._robots_allowed(url):
            raise TransportError(f"disallowed by robots.txt: {url}")
        return self._http_get(url)

    def _get(self, url: str) -> tuple[str, str]:
        with open_url("GET", url, {}, timeout=self.TIMEOUT) as resp:
            if not 200 <= resp.status < 300:
                resp.discard()
                raise TransportError(f"HTTP {resp.status} for {url}")
            if resp.media_type and not resp.media_type.startswith(_ACCEPTED_CONTENT_TYPES):
                resp.discard()
                raise TransportError(f"unsupported content-type {resp.media_type!r} for {url}")
            return resp.text(self.MAX_BYTES), resp.media_type

    def extract_text(self, raw: str) -> str:
        """Page text whose first BODY_CHAR_CAP characters are exact; parsing
        stops once they are covered."""
        return extract_text(raw, max_chars=self.BODY_CHAR_CAP)

    def acquire_document(self, result: SearchResultMeta) -> Document:
        """Fetched page body (truncated to the cap), else title + snippet,
        else Unusable.  A text/plain body is not parsed as HTML."""
        try:
            raw, content_type = self.fetch(result.url)
            body = _plain_text(raw) if content_type == "text/plain" else self.extract_text(raw)
            return Document(meta=result, body=body[: self.BODY_CHAR_CAP],
                            acquisition=Acquisition.FETCHED_PAGE)
        except (TransportError, EmptyExtraction) as exc:
            log.debug("falling back to snippet for %s: %s", result.url, exc)
        if result.snippet.strip():
            body = f"{result.title}\n{result.snippet}".strip()
            return Document(meta=result, body=body[: self.BODY_CHAR_CAP],
                            acquisition=Acquisition.SNIPPET_FALLBACK)
        raise Unusable(f"no page text and no snippet for {result.url}")

    def _robots_allowed(self, url: str) -> bool:
        parts = urlparse(url)
        try:
            port = parts.port or _DEFAULT_PORTS.get(parts.scheme)
        except ValueError as exc:  # a port that is not a number, or out of range
            raise TransportError(f"malformed URL {url}: {exc}") from exc
        origin = (parts.scheme, parts.hostname, port)  # a robots.txt's scope (RFC 9309)
        with self._robots_locks_guard:
            lock = self._robots_locks.setdefault(origin, threading.Lock())
        # one request per origin; threads reaching other origins do not wait
        with lock:
            parser = self._robots_cache.get(origin)
            if parser is None:
                parser = self._read_robots(f"{parts.scheme}://{parts.netloc}/robots.txt")
                self._robots_cache[origin] = parser
        return parser.can_fetch(USER_AGENT, url)

    def _read_robots(self, robots_url: str) -> urllib.robotparser.RobotFileParser:
        """RobotFileParser.read() with a timeout and lenient decoding: 2xx is
        parsed, 401/403 disallow all, other 4xx, network errors and a body
        over MAX_BYTES (read no further) allow all; anything else leaves the
        parser with nothing read, so can_fetch is False."""
        parser = urllib.robotparser.RobotFileParser()
        try:
            with open_url("GET", robots_url, {}, timeout=self.TIMEOUT) as resp:
                # read every body up to the cap, so the connection stays open for the pages
                body = resp.read(self.MAX_BYTES)
                if 200 <= resp.status < 300:
                    parser.parse(body.decode("utf-8", errors="replace").splitlines())
                elif resp.status in (401, 403):
                    parser.disallow_all = True
                elif 400 <= resp.status < 500:
                    parser.allow_all = True
        except TransportError:
            parser.allow_all = True
        return parser
