import re
import sys
import threading
import time
from html.parser import HTMLParser
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimcheck import pages
from claimcheck.model import Acquisition
from claimcheck.pages import EmptyExtraction, PageReader, Unusable, extract_text
from claimcheck.replaystore import TransportError

from conftest import make_result

LONG_PARA = "This paragraph is comfortably longer than the forty character floor."


class TestExtractText:
    def test_strips_simple_tags(self):
        assert extract_text("<p>hello world</p>", min_chars=0) == "hello world"

    def test_script_only_document_is_empty(self):
        with pytest.raises(EmptyExtraction):
            extract_text("<script>var x = 'lots and lots of script text here';</script>")

    def test_short_text_under_default_floor(self):
        with pytest.raises(EmptyExtraction):
            extract_text("<p>too short</p>")

    def test_known_page_extracts_expected_paragraphs(self):
        html = f"""<html><head><title>T</title><style>p {{color:red}}</style></head>
        <body>
        <nav><a href="/">Home</a><a href="/about">About</a></nav>
        <header>Site Header</header>
        <article>
        <h1>The Founding</h1>
        <p>{LONG_PARA}</p>
        <p>It was   founded in
        1998 by two people.</p>
        </article>
        <footer>Copyright 2024</footer>
        <script>analytics();</script>
        </body></html>"""
        expected = f"The Founding\n\n{LONG_PARA}\n\nIt was founded in 1998 by two people."
        assert extract_text(html) == expected

    def test_plain_text_passes_through(self):
        assert extract_text(LONG_PARA) == LONG_PARA

    @pytest.mark.parametrize("blank", ["\r\n\r\n", "\r\n \t\r\n", "\n\r\n"])
    def test_crlf_blank_line_breaks_a_paragraph(self, blank):
        first, second = ("First paragraph of the page text here.",
                         "Second paragraph of the page text here.")
        assert extract_text(f"<div>{first}{blank}{second}</div>") == f"{first}\n\n{second}"
        assert extract_text(f"<div><b>{first}</b>{blank}{second}</div>") == f"{first}\n\n{second}"
        assert pages._plain_text(f"{first}{blank}{second}\r\n") == f"{first}\n\n{second}"

    @given(st.lists(st.text(alphabet="abc xyz", min_size=1, max_size=40), max_size=5))
    def test_idempotent_on_extracted_text(self, paragraphs):
        raw = "<html><body>" + "".join(f"<p>{p}</p>" for p in paragraphs) + "</body></html>"
        try:
            once = extract_text(raw, min_chars=0)
        except EmptyExtraction:
            return
        assert extract_text(once, min_chars=0) == once


# fragments that exercise every paragraph rule: block tags, skip tags,
# blank lines (LF or CRLF) inside text, entities, bare '&' and '<', comments, and
# markup hidden inside a script; then the tokenizer's corner cases inside
# skipped elements: attributes (quoted '>' and skip tags, unquoted values,
# no space between them), self-closing and odd-case skip tags, nested skip
# tags of other names, declarations, processing instructions, CDATA,
# comments holding skip tags, and tags cut off at the end of the input;
# then the corners of the inline run outside skipped elements: inline tags
# in odd spellings, self-closing ones, entities in attribute values and in
# text, elements some Python versions read as raw text, and text right
# before a block tag; then block tags in odd spellings, tags whose names
# share a skip tag's first letter, and skip tags in mixed case; then the
# corners of a paragraph run: a blank line between inline tags, text of
# whitespace only between them, Unicode whitespace, and a block tag right
# after an inline tag
FRAGMENTS = [
    "<p>", "</p>", "<div>", "</div>", "<br>", "<li>", "<nav>", "</nav>", "<style>", "</style>",
    "<script><p>not text</p></script>", "<!-- a comment -->", "\n\n", "\n \t\n", "\n",
    "\r\n\r\n", "\r\n \r\n",
    "&amp;", "& ", "&", "< ", "<", " a < b ", "x", "word ", "  spaced   out  ",
    " ", LONG_PARA,
    '<a href="/x" class=\'y z\'>', "<div id=main>", '<a title="a>b">', '<a title="<nav>">',
    "<span data-x='</nav>'>", "<a href=/x/y>", "<a b=c/>", "<nav a=b/>", '<nav a="b"/>',
    '<a b="c"d="e">', '<nav a="x"b="y">', "<li\tclass=item\n>", "<a =x>", "<a b==c>",
    "<nav/>", "<nav />", "<NAV>", "</Footer>", "<footer>", "<header class=site>", "</header>",
    "<Div>", "</P >", "<nav\x0b>", "<div\xa0a=b>", '<div title="\u00e9t\u00e9">',
    "</nav foo>", "</ nav>", "<aside>", "</aside>", "<form>", "</form>", "<navbar>", "<nav-x>",
    "open text<nav><div>", "<header><nav><li>x</li></nav>", "<script/>", "<style a=b/>",
    "<script>w('<nav>'); w('</footer>')</script>", "<style>p{}</nav></STYLE >",
    "<!DOCTYPE html>", "<?x?>", "<![CDATA[x]]>", "<!-- <nav> -->", "<!-- </header> --!>",
    "<!bogus>", '<div class="x', "<nav", "</nav", "<a href=", "<script>unclosed",
    "<b>", "</b>", "</b >", "<EM>", "</em>", "<img src=x/>", "<span/>", '<a href="?a=1&amp;b=2">',
    "</a>", "<title>", "</title>", "<textarea>", "</textarea>", "text</p>", "more text<div>",
    "fish &amp; chips ", "AT&T<b>", "a&b", "<i>x</i>y<i>z</i>",
    '<p class="x">', "<BR/>", "</LI >", "<h2\tid=a>", "<pre>", "</pre>",
    "<section>", "</section>", "<span>", "<table>", "</table>", "<img>", "<font>", "<abbr>",
    "<blockquote>", "</blockquote>", "<nobr>", "<SVG>", "</svg>", "<Script>", "</SCRIPT>",
    "<hEAD>", "</Head>",
    "a<b>x\n\ny</b>z", "<b>\n \n</b>", "<i> </i>\t<b>\n</b>", " <em> \xa0 </em> ",
    "\xa0", "\u3000", "\x1c", "x\u3000y\xa0z\x1cw", "<b>\u3000</b>", "</b><p>", "<i>x</i><div>",
]
_FRAGMENTS = st.sampled_from(FRAGMENTS)
# whole skipped elements, nested, around other fragments, closed in several
# spellings or not at all, so that text often follows the end of one
_SKIPPED = st.recursive(
    _FRAGMENTS,
    lambda inner: st.builds(
        lambda name, body, end: f"<{name}>{body}{end.format(name)}",
        st.sampled_from(["nav", "NAV", "header", "footer", "head", "script", "Style"]),
        st.lists(inner, max_size=6).map("".join),
        st.sampled_from(["</{}>", "</{}>", "</{} >", "</STYLE>", "</script>", ""])),
    max_leaves=12)
_HTML = st.lists(st.one_of(_FRAGMENTS, _SKIPPED, st.text(alphabet="ab \n&<", max_size=12)),
                 max_size=40).map("".join)


def extract_or_none(raw, min_chars, max_chars=None):
    try:
        return extract_text(raw, min_chars, max_chars=max_chars)
    except EmptyExtraction:
        return None


def near_boundaries(text, lo, hi):
    """Values in [lo, hi] within a few characters of a paragraph boundary
    or of the end of text, where an off-by-one stop would show."""
    ends = [i for i in range(len(text)) if text.startswith("\n\n", i)] + [len(text)]
    near = sorted({e + d for e in ends for d in range(-3, 4) if lo <= e + d <= hi})
    return st.sampled_from(near) if near else st.integers(lo, hi)


class TestEarlyStop:
    @settings(max_examples=300)
    @given(_HTML, st.data())
    def test_capped_prefix_equals_full_prefix(self, raw, data):
        text = extract_or_none(raw, 0) or ""
        cap = data.draw(st.integers(1, 200) | near_boundaries(text, 1, 200), label="cap")
        min_chars = data.draw(st.integers(0, 60) | near_boundaries(text, 0, 60), label="min_chars")
        full = extract_or_none(raw, min_chars)
        capped = extract_or_none(raw, min_chars, max_chars=cap)
        assert (capped is None) == (full is None)
        if full is not None:
            assert capped[:cap] == full[:cap]

    def test_parsing_stops_after_the_cap(self):
        raw = f"<p>{LONG_PARA}</p>\n" * 1000 + "<p>END-MARKER past the cap</p>"
        cap = 500
        full = extract_text(raw, max_chars=None)
        capped = extract_text(raw, max_chars=cap)
        assert "END-MARKER" in full
        assert "END-MARKER" not in capped
        assert cap <= len(capped) < 2 * cap
        assert capped[:cap] == full[:cap]

    def test_min_chars_above_cap_still_decides_emptiness(self):
        raw = "<p>one two three</p><p>four five six seven</p>"
        assert extract_text(raw, min_chars=30, max_chars=5) == extract_text(raw, min_chars=30)
        with pytest.raises(EmptyExtraction):
            extract_text(raw, min_chars=60, max_chars=5)

    def test_reader_extraction_is_bounded_by_body_char_cap(self, monkeypatch):
        monkeypatch.setattr(PageReader, "BODY_CHAR_CAP", 500)
        raw = f"<p>{LONG_PARA}</p>" * 1000 + "<p>END-MARKER</p>"
        text = PageReader().extract_text(raw)
        assert "END-MARKER" not in text
        assert len(text) < 1000


class _StockTokenizer(pages._TextExtractor):
    """The extractor's handlers on HTMLParser's own tag parsing, which
    tokenizes every tag one by one: the reference for the skip run."""

    parse_starttag = HTMLParser.parse_starttag
    parse_endtag = HTMLParser.parse_endtag


def reference_extract_or_none(raw, min_chars, max_chars=None):
    with mock.patch.object(pages, "_TextExtractor", _StockTokenizer):
        return extract_or_none(raw, min_chars, max_chars)


def extract_counting_starttags(raw):
    """(extract_text(raw), the start tags that reached handle_starttag)"""
    seen = []

    class Counting(pages._TextExtractor):
        def handle_starttag(self, tag, attrs):
            seen.append(tag)
            super().handle_starttag(tag, attrs)

    with mock.patch.object(pages, "_TextExtractor", Counting):
        return extract_text(raw), seen


NAV_LINKS = "".join(f'<li class="nav-item"><a href="/w/{i}">link {i}</a></li>' for i in range(500))
BOILERPLATE_PAGE = (
    "<!DOCTYPE html><html><head><title>T</title><style>.a{margin:0}</style>"
    f"<script>var s = '<nav>';</script><nav><ul>{NAV_LINKS}</ul></nav></head>"
    f"<body><header class=\"site\"><nav><ul>{NAV_LINKS}</ul></nav><!-- </header> -->"
    f"<form action=/s><input name=q/><button>Go</button></form></header>"
    f"<main><article><h1>Title</h1><p>{LONG_PARA}</p><p>Second {LONG_PARA}</p></article></main>"
    f"<footer><aside><nav><ul>{NAV_LINKS}</ul></nav></aside></footer></body></html>"
)


class TestSkipRun:
    """Markup inside skipped elements is matched at regex speed; the text
    and the EmptyExtraction decision stay those of the stock tokenizer."""

    @settings(max_examples=400)
    @given(_HTML, st.sampled_from([None, 1, 12, 40, 200]), st.integers(0, 60))
    # corners random input seldom reaches: an unquoted value ending in '/'
    # (a start tag, not a self-closing one), a self-closing skip tag, and a
    # script/style end spelled other than the literal lowercase tag
    @example(f"<header><nav a=b/></header>{LONG_PARA}", None, 40)
    @example(f"<header><nav/><nav /></header>{LONG_PARA}", None, 40)
    @example(f"<nav><style>a</STYLE >b</nav>{LONG_PARA}<style>c</style>", None, 40)
    @example(f"<nav><script>a</script\n></nav>{LONG_PARA}<script>c</script>", None, 40)
    # entities in text between inline tags, which HTMLParser converts
    @example(f"<p>x<b>fish &amp; chips</b> AT&T <em>y</em> {LONG_PARA}</p>", None, 40)
    # elements that some Python versions read as raw text, in any case
    @example(f"<p>x<TiTlE>y <b>t</b></tItLe>z<TeXtArEa a=b>u &amp; <b>v</b></TEXTAREA>"
             f" {LONG_PARA}</p>", None, 40)
    # a blank line inside a paragraph run, and a cap reached by the
    # paragraph it closes, before the run's block tag
    @example("<p>a<b>x\n\ny</b>z</p>", None, 0)
    @example(f"<p>{LONG_PARA}<b>x</b>\n\n{LONG_PARA}<i>y</i></p>{LONG_PARA}", 40, 40)
    # whitespace-only and Unicode-whitespace text between inline tags
    @example(f"<p><b> </b>\xa0<i>\u3000</i>\x1c{LONG_PARA}<em>\n</em></p>", None, 40)
    def test_same_as_stock_tokenizer(self, raw, cap, min_chars):
        assert (extract_or_none(raw, min_chars, cap)
                == reference_extract_or_none(raw, min_chars, cap))

    @pytest.mark.parametrize("cap", [None, 100, 12_000])
    def test_boilerplate_page_same_as_stock_tokenizer(self, cap):
        text = extract_or_none(BOILERPLATE_PAGE, 40, cap)
        assert text == reference_extract_or_none(BOILERPLATE_PAGE, 40, cap)
        assert text.startswith("Title\n\n" + LONG_PARA)
        assert "link" not in text and "Go" not in text

    @pytest.mark.parametrize("tag", sorted(pages._SKIP_TAGS))
    def test_every_skip_tag_is_seen(self, tag):
        # a skip tag read as any other tag would keep its text, or end its
        # skipped element too soon; the patterns spell each name in both
        # cases, so every letter is tested in each case (nAv, hEaD)
        alternating = "".join(c.upper() if i % 2 else c for i, c in enumerate(tag))
        for raw in (f"<b>x</b><{tag}>{LONG_PARA}</{tag}>", f"<p>x<{tag.upper()} a=b>y",
                    f"<nav><{tag}></nav>{LONG_PARA}", f"<nav><{tag.title()}/></nav>{LONG_PARA}",
                    f"<b>x</b><{alternating}>{LONG_PARA}</{alternating} >{LONG_PARA}",
                    f"<p>x<{alternating.swapcase()} a=b>y",
                    f"<nav><{alternating}></nav>{LONG_PARA}</{alternating.swapcase()}>z"):
            assert extract_or_none(raw, 0) == reference_extract_or_none(raw, 0), raw

    def test_boilerplate_tags_skip_the_handlers(self):
        _, seen = extract_counting_starttags(BOILERPLATE_PAGE)
        # 3 x 1001 nav-list start tags without the skip run
        assert len(seen) < 40, seen


def greedy(pattern):
    """pattern with every possessive repeat (*+, ++, ?+) made greedy"""
    copy = re.compile(re.sub(r"([*+?])\+", r"\1", pattern.pattern), pattern.flags)
    assert copy.pattern != pattern.pattern
    return copy


class TestPossessiveRepeats:
    """No repeat in the extraction patterns ever has to give characters
    back to make a match, so making them possessive changes no match."""

    @settings(max_examples=400)
    @given(_HTML)
    @example('<a b=c/><nav a=b/><a b="c"d=\'e\' f = g/ ><div\t\n>x</div\n><NAV/>')
    @example("<p>x<TiTlE>y</tItLe>z<TeXtArEa a=b/>w</TEXTAREA>&amp;<hEaD >")
    def test_same_spans_and_groups_as_greedy_repeats(self, raw):
        copies = [(pattern, greedy(pattern))
                  for pattern in (pages._PLAIN_RUN, pages._SKIP_TAG,
                                  pages._PARAGRAPH_RUN, pages._TAG)]
        for start in [0] + [i for i, c in enumerate(raw) if c == "<"]:
            for possessive, copy in copies:
                ours, theirs = possessive.match(raw, start), copy.match(raw, start)
                assert ((ours.span(), ours.groups()) if ours else None) == (
                    (theirs.span(), theirs.groups()) if theirs else None), (copy, start)


ARTICLE_PAGE = "<html><body><main><article><h1>Title</h1>" + "".join(
    "<p>" + " ".join(f"word{i} <b>bold</b> <em>em</em> <a href=/w/{i}>link &amp; more</a>"
                     for i in range(25)) + "</p>\n"
    for _ in range(4)) + "</article></main></body></html>"


class TestInlineRun:
    """Text and inline tags outside skipped elements are matched a
    paragraph run at a time; the text stays that of the stock tokenizer."""

    @pytest.mark.parametrize("cap", [None, 100, 12_000])
    def test_article_page_same_as_stock_tokenizer(self, cap):
        text = extract_or_none(ARTICLE_PAGE, 40, cap)
        assert text == reference_extract_or_none(ARTICLE_PAGE, 40, cap)
        assert text.startswith("Title\n\nword0 bold em link & more word1 bold")

    def test_inline_tags_skip_the_handlers(self):
        assert sum(ARTICLE_PAGE.count(tag) for tag in ("<b>", "<em>", "<a ")) == 300
        _, seen = extract_counting_starttags(ARTICLE_PAGE)
        # 300 inline start tags and 9 others without the inline run
        assert len(seen) < 20, seen

    def test_text_pieces_skip_handle_data(self):
        page = ARTICLE_PAGE.replace("&amp;", "and")
        calls = []

        class Counting(pages._TextExtractor):
            def handle_data(self, data):
                calls.append(data)
                super().handle_data(data)

        with mock.patch.object(pages, "_TextExtractor", Counting):
            text = extract_text(page)
        assert text == reference_extract_or_none(page, 40)
        # one call per non-empty text piece, 605 here, without the paragraph run
        assert len(calls) < 10, calls

    def test_block_tags_skip_the_handlers(self):
        page = "<html><body>" + "".join(
            f"<{('p', 'li', 'br')[i % 3]}>item {i} {LONG_PARA}" for i in range(1000)
        ) + "</body></html>"
        text, seen = extract_counting_starttags(page)
        assert text == reference_extract_or_none(page, 40)
        assert text.count("\n\n") == 999
        # 1000 block start tags without the block tags in the inline run
        assert len(seen) < 20, seen


class TestFetch:
    def test_200_html(self, http_stub):
        body = f"<html><body><p>{LONG_PARA}</p></body></html>".encode()
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "text/html"}, body))
        reader = PageReader()
        text, content_type = reader.fetch(f"{base}/page")
        assert LONG_PARA in text
        assert content_type == "text/html"

    def test_404_is_fetch_error(self, http_stub):
        base = http_stub(lambda m, p, b, h: (404, {}, b"gone"))
        with pytest.raises(TransportError):
            PageReader().fetch(f"{base}/missing")

    def test_redirect_chain_of_six_fails(self, http_stub):
        def app(method, path, body, headers):
            hop = int(path.rsplit("/", 1)[1])
            if hop >= 6:
                return 200, {"Content-Type": "text/html"}, b"<p>made it</p>"
            return 302, {"Location": f"/hop/{hop + 1}"}, b""

        base = http_stub(app)
        with pytest.raises(TransportError):
            PageReader().fetch(f"{base}/hop/0")

    def test_five_redirects_succeed(self, http_stub):
        def app(method, path, body, headers):
            hop = int(path.rsplit("/", 1)[1])
            if hop >= 5:
                return 200, {"Content-Type": "text/html"}, b"<p>made it here ok</p>"
            return 302, {"Location": f"/hop/{hop + 1}"}, b""

        text, _ = PageReader().fetch(f"{http_stub(app)}/hop/0")
        assert "made it" in text

    def test_non_html_content_type_rejected(self, http_stub):
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "application/pdf"}, b"%PDF"))
        with pytest.raises(TransportError):
            PageReader().fetch(f"{base}/doc.pdf")

    def test_missing_content_type_accepted(self, http_stub):
        body = f"<p>{LONG_PARA}</p>".encode()
        base = http_stub(lambda m, p, b, h: (200, {}, body))
        text, content_type = PageReader().fetch(f"{base}/untyped")
        assert LONG_PARA in text
        assert content_type == ""

    def test_slow_drip_body_is_bounded_by_the_timeout(self, drip_server, monkeypatch):
        monkeypatch.setattr(PageReader, "TIMEOUT", 0.5)
        # 50 bytes at one every 0.1 s: 5 s of body against a 0.5 s timeout
        base = drip_server(b"<p>" + b"x" * 43 + b"</p>", interval=0.1)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timeout"):
            PageReader().fetch(f"{base}/page")
        assert time.monotonic() - start < 1.5

    def test_slow_drip_head_is_bounded_by_the_timeout(self, drip_server, monkeypatch):
        monkeypatch.setattr(PageReader, "TIMEOUT", 0.5)
        # ~90 bytes of status line and headers at one every 0.1 s
        base = drip_server(f"<p>{LONG_PARA}</p>".encode(), interval=0.1, slow_head=True)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timeout"):
            PageReader().fetch(f"{base}/page")
        assert time.monotonic() - start < 1.5

    def test_stalled_body_is_fetch_error(self, drip_server, monkeypatch):
        monkeypatch.setattr(PageReader, "TIMEOUT", 0.3)
        base = drip_server(f"<p>{LONG_PARA}</p>".encode(), interval=5.0)
        with pytest.raises(TransportError):
            PageReader().fetch(f"{base}/page")

    def test_body_over_max_bytes_by_its_length_is_refused_unread(self, drip_server,
                                                                  monkeypatch):
        monkeypatch.setattr(PageReader, "MAX_BYTES", 1000)
        monkeypatch.setattr(PageReader, "TIMEOUT", 2.0)
        # 3000 bytes at one every 0.1 s: reading past the cap would take 100 s
        base = drip_server(b"x" * 3000, interval=0.1)
        start = time.monotonic()
        with pytest.raises(TransportError, match="body over 1000 bytes"):
            PageReader().fetch(f"{base}/page")
        assert time.monotonic() - start < 1.0

    def test_size_cap_enforced(self, http_stub, monkeypatch):
        monkeypatch.setattr(PageReader, "MAX_BYTES", 1000)
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "text/html"}, b"x" * 5000))
        with pytest.raises(TransportError):
            PageReader().fetch(f"{base}/big")


class TestAcquireDocument:
    def reader(self, pages=None, fail=False):
        def http_get(url):
            if fail or pages is None or url not in pages:
                raise TransportError(f"HTTP 404 for {url}")
            return pages[url], "text/html"

        return PageReader(http_get=http_get)

    def test_healthy_page(self):
        url = "https://a.example/good"
        reader = self.reader({url: f"<p>{LONG_PARA}</p>"})
        doc = reader.acquire_document(make_result(url))
        assert doc.acquisition is Acquisition.FETCHED_PAGE
        assert doc.body == LONG_PARA

    def test_404_with_snippet_falls_back(self):
        result = make_result("https://a.example/gone", title="T", snippet="X is Y")
        doc = self.reader(fail=True).acquire_document(result)
        assert doc.acquisition is Acquisition.SNIPPET_FALLBACK
        assert "X is Y" in doc.body

    def test_404_with_empty_snippet_unusable(self):
        result = make_result("https://a.example/gone", title="", snippet="  ")
        with pytest.raises(Unusable):
            self.reader(fail=True).acquire_document(result)

    def test_empty_extraction_falls_back(self):
        url = "https://a.example/thin"
        reader = self.reader({url: "<script>nothing visible here at all</script>"})
        doc = reader.acquire_document(make_result(url, snippet="useful snippet"))
        assert doc.acquisition is Acquisition.SNIPPET_FALLBACK

    def test_markup_the_parser_refuses_falls_back(self):
        # HTMLParser raises AssertionError on an unknown marked section
        url = "https://a.example/odd"
        reader = self.reader({url: f"<![bogus[ x ]]><p>{LONG_PARA}</p>"})
        with pytest.raises(EmptyExtraction, match="parser refuses"):
            reader.extract_text(reader.fetch(url)[0])
        doc = reader.acquire_document(make_result(url, snippet="useful snippet"))
        assert doc.acquisition is Acquisition.SNIPPET_FALLBACK

    def test_body_truncated_to_cap(self, monkeypatch):
        monkeypatch.setattr(PageReader, "BODY_CHAR_CAP", 500)
        url = "https://a.example/long"
        reader = PageReader(http_get=lambda u: (f"<p>{'word ' * 5000}</p>", "text/html"))
        doc = reader.acquire_document(make_result(url))
        assert len(doc.body) == 500

    def test_plain_text_page_is_not_parsed_as_html(self, monkeypatch):
        url = "https://a.example/notes.txt"
        raw = (f"Results for x<y and a<b then c.\n\nAT&amp;T   {LONG_PARA}\n \n\n"
               f"Second\tparagraph\u3000text long enough.\n")
        text = (f"Results for x<y and a<b then c.\n\nAT&amp;T {LONG_PARA}\n\n"
                "Second paragraph text long enough.")
        for cap in (12_000, 40):
            monkeypatch.setattr(PageReader, "BODY_CHAR_CAP", cap)
            reader = PageReader(http_get=lambda u: (raw, "text/plain"))
            doc = reader.acquire_document(make_result(url))
            assert doc.acquisition is Acquisition.FETCHED_PAGE
            assert doc.body == text[:cap]
        thin = PageReader(http_get=lambda u: ("<p>\n\n  short  \n", "text/plain"))
        doc = thin.acquire_document(make_result(url, snippet="useful snippet"))
        assert doc.acquisition is Acquisition.SNIPPET_FALLBACK

    def test_never_empty_body(self):
        url = "https://a.example/good"
        reader = self.reader({url: f"<p>{LONG_PARA}</p>"})
        doc = reader.acquire_document(make_result(url))
        assert doc.body.strip()


class TestRobots:
    def test_slow_robots_txt_times_out_and_allows(self, http_stub, monkeypatch):
        monkeypatch.setattr(PageReader, "TIMEOUT", 0.2)
        release = threading.Event()
        page = f"<p>{LONG_PARA}</p>".encode()

        def app(method, path, body, headers):
            if path == "/robots.txt":
                release.wait(5)
                return 200, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /\n"
            return 200, {"Content-Type": "text/html"}, page

        base = http_stub(app)
        reader = PageReader(respect_robots=True)
        start = time.monotonic()
        try:
            text, _ = reader.fetch(f"{base}/page")
        finally:
            release.set()
        assert time.monotonic() - start < 2.0
        assert LONG_PARA in text

    def test_robots_txt_with_invalid_utf8_is_parsed(self, http_stub):
        robots = b"User-agent: *\nDisallow: /private\n# \xff\xfe not utf-8\n"
        page = f"<p>{LONG_PARA}</p>".encode()

        def app(method, path, body, headers):
            if path == "/robots.txt":
                return 200, {"Content-Type": "text/plain"}, robots
            return 200, {"Content-Type": "text/html"}, page

        base = http_stub(app)
        reader = PageReader(respect_robots=True)
        text, _ = reader.fetch(f"{base}/page")
        assert LONG_PARA in text
        with pytest.raises(TransportError, match="robots"):
            reader.fetch(f"{base}/private/page")

    @pytest.mark.parametrize("status, allowed", [(403, False), (401, False), (404, True),
                                                 (503, False)])
    def test_robots_status_decides(self, http_stub, status, allowed):
        def app(method, path, body, headers):
            if path == "/robots.txt":
                return status, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /\n"
            return 200, {"Content-Type": "text/html"}, f"<p>{LONG_PARA}</p>".encode()

        reader = PageReader(respect_robots=True)
        url = f"{http_stub(app)}/page"
        if allowed:
            assert LONG_PARA in reader.fetch(url)[0]
        else:
            with pytest.raises(TransportError, match="robots"):
                reader.fetch(url)

    def test_robots_txt_over_max_bytes_allows(self, http_stub, monkeypatch):
        monkeypatch.setattr(PageReader, "MAX_BYTES", 1000)
        robots = b"User-agent: *\nDisallow: /\n" + b"# comment line\n" * 350

        def app(method, path, body, headers):
            if path == "/robots.txt":
                return 200, {"Content-Type": "text/plain"}, robots
            return 200, {"Content-Type": "text/html"}, f"<p>{LONG_PARA}</p>".encode()

        reader = PageReader(respect_robots=True)
        assert LONG_PARA in reader.fetch(f"{http_stub(app)}/page")[0]

    def test_unreachable_robots_txt_allows(self, monkeypatch):
        monkeypatch.setattr(PageReader, "TIMEOUT", 1.0)
        reader = PageReader(respect_robots=True,
                            http_get=lambda url: (f"<p>{LONG_PARA}</p>", "text/html"))
        text, _ = reader.fetch("http://127.0.0.1:9/page")
        assert LONG_PARA in text

    def test_robots_txt_fetched_once_per_host_under_concurrency(self, http_stub):
        robots_requests = []

        def app(method, path, body, headers):
            if path == "/robots.txt":
                robots_requests.append(path)
                time.sleep(0.1)  # every thread reaches the host before it answers
                return 200, {"Content-Type": "text/plain"}, b"User-agent: *\nAllow: /\n"
            return 200, {"Content-Type": "text/html"}, f"<p>{LONG_PARA}</p>".encode()

        base = http_stub(app)
        reader = PageReader(respect_robots=True)
        start = threading.Barrier(4)
        errors = []

        def work(t):
            try:
                start.wait(5)
                for i in range(4):
                    assert LONG_PARA in reader.fetch(f"{base}/page/{t}/{i}")[0]
            except BaseException as exc:  # reported by the test thread
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len(robots_requests) == 1

    def test_slow_robots_txt_does_not_hold_up_other_hosts(self, http_stub):
        release = threading.Event()
        page = f"<p>{LONG_PARA}</p>".encode()

        def slow_app(method, path, body, headers):
            if path == "/robots.txt":
                release.wait(5)
            return 200, {"Content-Type": "text/html"}, page

        def fast_app(method, path, body, headers):
            return 200, {"Content-Type": "text/html"}, page

        slow, fast = http_stub(slow_app), http_stub(fast_app)
        reader = PageReader(respect_robots=True)
        stuck = threading.Thread(target=reader.fetch, args=(f"{slow}/page",))
        stuck.start()
        try:
            time.sleep(0.05)  # the slow host's robots.txt request is in flight
            begin = time.monotonic()
            assert LONG_PARA in reader.fetch(f"{fast}/page")[0]
            assert time.monotonic() - begin < 2.0
        finally:
            release.set()
            stuck.join(timeout=10)
        assert not stuck.is_alive()
