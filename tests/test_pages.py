import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.model import Acquisition
from claimcheck.pages import EmptyExtraction, FetchError, PageReader, Unusable, extract_text

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

    @given(st.lists(st.text(alphabet="abc xyz", min_size=1, max_size=40), max_size=5))
    def test_idempotent_on_extracted_text(self, paragraphs):
        raw = "<html><body>" + "".join(f"<p>{p}</p>" for p in paragraphs) + "</body></html>"
        try:
            once = extract_text(raw, min_chars=0)
        except EmptyExtraction:
            return
        assert extract_text(once, min_chars=0) == once


# fragments that exercise every paragraph rule: block tags, skip tags,
# blank lines inside text, entities, bare '&' and '<', comments, and
# markup hidden inside a script
_FRAGMENTS = st.sampled_from([
    "<p>", "</p>", "<div>", "</div>", "<br>", "<li>", "<nav>", "</nav>", "<style>", "</style>",
    "<script><p>not text</p></script>", "<!-- a comment -->", "\n\n", "\n \t\n", "\n",
    "&amp;", "& ", "&", "< ", "<", " a < b ", "x", "word ", "  spaced   out  ",
    " ", LONG_PARA,
])
_HTML = st.lists(st.one_of(_FRAGMENTS, st.text(alphabet="ab \n&<", max_size=12)),
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

    def test_reader_extraction_is_bounded_by_body_char_cap(self):
        raw = f"<p>{LONG_PARA}</p>" * 1000 + "<p>END-MARKER</p>"
        text = PageReader(body_char_cap=500).extract_text(raw)
        assert "END-MARKER" not in text
        assert len(text) < 1000


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
        with pytest.raises(FetchError):
            PageReader().fetch(f"{base}/missing")

    def test_redirect_chain_of_six_fails(self, http_stub):
        def app(method, path, body, headers):
            hop = int(path.rsplit("/", 1)[1])
            if hop >= 6:
                return 200, {"Content-Type": "text/html"}, b"<p>made it</p>"
            return 302, {"Location": f"/hop/{hop + 1}"}, b""

        base = http_stub(app)
        with pytest.raises(FetchError):
            PageReader(max_redirects=5).fetch(f"{base}/hop/0")

    def test_five_redirects_succeed(self, http_stub):
        def app(method, path, body, headers):
            hop = int(path.rsplit("/", 1)[1])
            if hop >= 5:
                return 200, {"Content-Type": "text/html"}, b"<p>made it here ok</p>"
            return 302, {"Location": f"/hop/{hop + 1}"}, b""

        text, _ = PageReader(max_redirects=5).fetch(f"{http_stub(app)}/hop/0")
        assert "made it" in text

    def test_non_html_content_type_rejected(self, http_stub):
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "application/pdf"}, b"%PDF"))
        with pytest.raises(FetchError):
            PageReader().fetch(f"{base}/doc.pdf")

    def test_missing_content_type_accepted(self, http_stub):
        body = f"<p>{LONG_PARA}</p>".encode()
        base = http_stub(lambda m, p, b, h: (200, {}, body))
        text, content_type = PageReader().fetch(f"{base}/untyped")
        assert LONG_PARA in text
        assert content_type == ""

    def test_size_cap_enforced(self, http_stub):
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "text/html"}, b"x" * 5000))
        with pytest.raises(FetchError):
            PageReader(max_bytes=1000).fetch(f"{base}/big")


class TestAcquireDocument:
    def reader(self, pages=None, fail=False):
        def http_get(url):
            if fail or pages is None or url not in pages:
                raise FetchError(f"HTTP 404 for {url}")
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

    def test_body_truncated_to_cap(self):
        url = "https://a.example/long"
        reader = PageReader(http_get=lambda u: (f"<p>{'word ' * 5000}</p>", "text/html"),
                            body_char_cap=500)
        doc = reader.acquire_document(make_result(url))
        assert len(doc.body) == 500

    def test_never_empty_body(self):
        url = "https://a.example/good"
        reader = self.reader({url: f"<p>{LONG_PARA}</p>"})
        doc = reader.acquire_document(make_result(url))
        assert doc.body.strip()


class TestRobots:
    def test_slow_robots_txt_times_out_and_allows(self, http_stub):
        release = threading.Event()
        page = f"<p>{LONG_PARA}</p>".encode()

        def app(method, path, body, headers):
            if path == "/robots.txt":
                release.wait(5)
                return 200, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /\n"
            return 200, {"Content-Type": "text/html"}, page

        base = http_stub(app)
        reader = PageReader(timeout=0.2, respect_robots=True)
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
        with pytest.raises(FetchError, match="robots"):
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
            with pytest.raises(FetchError, match="robots"):
                reader.fetch(url)

    def test_unreachable_robots_txt_allows(self):
        reader = PageReader(respect_robots=True, timeout=1.0,
                            http_get=lambda url: (f"<p>{LONG_PARA}</p>", "text/html"))
        text, _ = reader.fetch("http://127.0.0.1:9/page")
        assert LONG_PARA in text
