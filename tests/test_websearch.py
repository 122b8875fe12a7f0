import json
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.model import SearchQuery, is_valid_http_url
from claimcheck.replaystore import FixtureMiss, StorageError, TransportError
from claimcheck.websearch import SearchClient, search_fixture_key


def fixture_client(tmp_path, results, query="q", k=2):
    client = SearchClient(mode="replay", fixture_dir=tmp_path)
    client.store.put(search_fixture_key(query, k, ""),
                     {"query": query, "k": k, "scope": "", "results": results})
    return client


def raw(i, url=None):
    return {"title": f"title {i}", "link": url or f"https://site{i}.example/page",
            "snippet": f"snippet {i}"}


class TestFixtureMode:
    def test_five_stored_k2_returns_first_two(self, tmp_path):
        client = fixture_client(tmp_path, [raw(i) for i in range(5)], k=2)
        results = client.search(SearchQuery("q"), 2)
        assert [r.title for r in results] == ["title 0", "title 1"]

    def test_zero_results_no_error(self, tmp_path):
        client = fixture_client(tmp_path, [], k=2)
        assert client.search(SearchQuery("q"), 2) == []

    def test_malformed_url_dropped(self, tmp_path):
        rows = [raw(0), raw(1, url="not a url"), raw(2)]
        client = fixture_client(tmp_path, rows, k=3)
        results = client.search(SearchQuery("q"), 3)
        assert len(results) == 2
        assert all(is_valid_http_url(r.url) for r in results)

    def test_missing_fixture_fails_loudly(self, tmp_path):
        client = SearchClient(mode="replay", fixture_dir=tmp_path)
        with pytest.raises(FixtureMiss):
            client.search(SearchQuery("unknown"), 2)

    def test_fixture_miss_names_the_claim(self, tmp_path):
        client = SearchClient(mode="replay", fixture_dir=tmp_path)
        client.store.put(search_fixture_key("q", 1, "claim-a"),
                         {"query": "q", "k": 1, "scope": "claim-a", "results": [raw(0)]})
        assert len(client.search(SearchQuery("q"), 1, "claim-a")) == 1
        with pytest.raises(FixtureMiss, match="claim 'claim-b'"):
            client.search(SearchQuery("q"), 1, "claim-b")

    @pytest.mark.parametrize("record", [[], {"query": "q"}, {"results": "x"}])
    def test_fixture_of_the_wrong_shape_is_storage_error(self, tmp_path, record):
        path = tmp_path / f"{search_fixture_key('q', 2, '')}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(StorageError, match=path.name):
            SearchClient(mode="replay", fixture_dir=tmp_path).search(SearchQuery("q"), 2)

    def test_missing_snippet_becomes_empty_string(self, tmp_path):
        client = fixture_client(tmp_path, [{"title": "t", "link": "https://a.example/x"}], k=1)
        (result,) = client.search(SearchQuery("q"), 1)
        assert result.snippet == ""

    def test_fixture_key_is_pinned(self):
        # a changed key would orphan every recorded search fixture
        assert search_fixture_key("q", 2, "claim-7") == (
            "f035546bd82a0297d669a2e392c353be628fe2efefa6a34a828f00f45e6bb72e")

    def test_zero_network_operations(self, tmp_path):
        calls = []
        client = SearchClient(mode="replay", fixture_dir=tmp_path,
                              transport=lambda *a, **k: calls.append(a) or (200, "{}"))
        client.store.put(search_fixture_key("q", 1, ""),
                         {"query": "q", "k": 1, "scope": "", "results": []})
        client.search(SearchQuery("q"), 1)
        assert calls == []

    @given(k=st.integers(min_value=1, max_value=6),
           n_raw=st.integers(min_value=0, max_value=10))
    def test_at_most_k_results(self, tmp_path_factory, k, n_raw):
        tmp = tmp_path_factory.mktemp("fx")
        client = fixture_client(tmp, [raw(i) for i in range(n_raw)], k=k)
        assert len(client.search(SearchQuery("q"), k)) <= k


class TestLiveMode:
    def test_parses_organic_results(self):
        def transport(url, headers, payload, timeout):
            assert payload == {"q": "capital of france", "num": 2, "hl": "en"}
            assert headers["X-API-KEY"] == "key123"
            return 200, json.dumps({"organic": [raw(0), raw(1), raw(2)]})

        client = SearchClient(mode="live", api_key="key123", transport=transport,
                              requests_per_second=0)
        results = client.search(SearchQuery("capital of france"), 2)
        assert [r.url for r in results] == [raw(0)["link"], raw(1)["link"]]

    def test_rows_that_are_not_objects_are_dropped(self):
        body = json.dumps({"organic": ["x", 3, None, raw(0)]})
        client = SearchClient(mode="live", transport=lambda *a, **k: (200, body),
                              requests_per_second=0)
        assert [r.url for r in client.search(SearchQuery("q"), 2)] == [raw(0)["link"]]

    def test_record_then_replay(self, tmp_path):
        client = SearchClient(mode="record", fixture_dir=tmp_path,
                              transport=lambda *a, **k: (200, json.dumps({"organic": [raw(0)]})),
                              requests_per_second=0)
        live = client.search(SearchQuery("q"), 2)
        replayer = SearchClient(mode="replay", fixture_dir=tmp_path)
        assert replayer.search(SearchQuery("q"), 2) == live

    def test_quota_error_after_retries(self):
        attempts, sleeps = [], []

        def rate_limited(*args, **kwargs):
            attempts.append(1)
            return 429, ""

        client = SearchClient(mode="live", transport=rate_limited,
                              sleep=sleeps.append, requests_per_second=0)
        with pytest.raises(TransportError, match="HTTP 429"):
            client.search(SearchQuery("q"), 1)
        assert len(attempts) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_redirect_is_an_error_and_records_nothing(self, tmp_path, http_stub):
        seen = []

        def moved(method, path, body, headers):
            seen.append(path)
            return (301, {"Location": "/elsewhere", "Content-Type": "application/json"},
                    b'{"message": "Moved Permanently"}')

        client = SearchClient(mode="record", endpoint=f"{http_stub(moved)}/search",
                              api_key="k", fixture_dir=tmp_path, sleep=lambda s: None,
                              requests_per_second=0)
        with pytest.raises(TransportError, match="HTTP 301 from .*Moved Permanently"):
            client.search(SearchQuery("q"), 1)
        assert seen == ["/search"]  # neither followed nor retried
        assert not list(tmp_path.iterdir())

    def test_server_errors_become_transport_error(self):
        client = SearchClient(mode="live", transport=lambda *a, **k: (502, ""),
                              sleep=lambda s: None, requests_per_second=0)
        with pytest.raises(TransportError, match="HTTP 502"):
            client.search(SearchQuery("q"), 1)

    def test_retries_transient_then_succeeds(self):
        statuses = iter([503, 503, 200])
        sleeps = []
        client = SearchClient(
            mode="live", sleep=sleeps.append, requests_per_second=0,
            transport=lambda *a, **k: (next(statuses), json.dumps({"organic": [raw(0)]})))
        assert len(client.search(SearchQuery("q"), 1)) == 1
        assert sleeps == [1.0, 2.0]

    def test_network_errors_become_transport_error(self):
        def unreachable(*args, **kwargs):
            raise TransportError("connection refused")

        sleeps = []
        client = SearchClient(mode="live", transport=unreachable,
                              sleep=sleeps.append, requests_per_second=0)
        with pytest.raises(TransportError, match="connection refused"):
            client.search(SearchQuery("q"), 1)
        # unlike a body over the cap, a failed connection is tried again
        assert sleeps == [1.0, 2.0, 4.0]

    def test_any_429_in_retries_is_quota_error(self):
        statuses = iter([429, 503, 503, 503])
        attempts, sleeps = [], []

        def transport(*args, **kwargs):
            attempts.append(1)
            return next(statuses), ""

        client = SearchClient(mode="live", transport=transport,
                              sleep=sleeps.append, requests_per_second=0)
        with pytest.raises(TransportError, match="HTTP 503"):
            client.search(SearchQuery("q"), 1)
        assert len(attempts) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_rate_limiter_spaces_calls(self):
        sleeps = []
        ticks = iter([0.0, 0.0, 0.01, 0.01])
        client = SearchClient(mode="live",
                              transport=lambda *a, **k: (200, json.dumps({"organic": []})),
                              sleep=sleeps.append, clock=lambda: next(ticks),
                              requests_per_second=2.0)
        client.search(SearchQuery("a"), 1)
        client.search(SearchQuery("b"), 1)
        assert sleeps and sleeps[0] == pytest.approx(0.49)

    def test_late_wakeup_pushes_the_next_call_back(self):
        now = [0.0]
        sent = []

        def transport(*args, **kwargs):
            sent.append(now[0])
            return 200, json.dumps({"organic": []})

        def sleep(seconds):
            # the first caller to sleep wakes up 0.3 s late, the next on time
            now[0] += seconds + (0.3 if not sent[1:] else 0.0)

        client = SearchClient(mode="live", transport=transport, sleep=sleep,
                              clock=lambda: now[0], requests_per_second=2.0)
        for query in ("a", "b", "c"):
            client.search(SearchQuery(query), 1)
        assert sent == pytest.approx([0.0, 0.8, 1.3])
        assert min(b - a for a, b in zip(sent, sent[1:])) >= 0.5

    def test_retry_waits_for_the_rate_limit(self):
        now = [0.0]
        sent = []
        statuses = {"a": iter([503, 200]), "b": iter([200])}

        def transport(url, headers, payload, timeout):
            sent.append((payload["q"], now[0]))
            return next(statuses[payload["q"]]), json.dumps({"organic": []})

        def sleep(seconds):
            if seconds == 1.0:  # a's back-off, during which b is searched
                now[0] = 0.95
                client.search(SearchQuery("b"), 1)
                now[0] = 1.0
            else:
                now[0] += seconds

        client = SearchClient(mode="live", transport=transport, sleep=sleep,
                              clock=lambda: now[0], requests_per_second=5.0)
        client.search(SearchQuery("a"), 1)
        # a's retry is spaced 1/rps after b's search, like a first try
        assert sent == [("a", 0.0), ("b", 0.95), ("a", pytest.approx(1.15))]

    def test_rate_limiter_spaces_concurrent_calls(self):
        stamps = []

        def transport(*args, **kwargs):
            stamps.append(time.monotonic())
            return 200, json.dumps({"organic": []})

        client = SearchClient(mode="live", transport=transport, requests_per_second=50)
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            for j in range(2):
                client.search(SearchQuery(f"q{i}-{j}"), 1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stamps.sort()
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert len(gaps) == 15
        # unthrottled threads land within a fraction of a millisecond; the
        # tolerance absorbs a late wake-up of the earlier caller
        assert min(gaps) >= 0.020 - 0.010

    @pytest.mark.parametrize("body", ["null", "[1]", '"x"', "not json",
                                      pytest.param("[" * 100_000, id="nested-too-deep")])
    def test_body_that_is_not_a_json_object_is_transport_error(self, body):
        client = SearchClient(mode="live", transport=lambda *a, **k: (200, body),
                              requests_per_second=0)
        with pytest.raises(TransportError, match="malformed response"):
            client.search(SearchQuery("q"), 1)

    def test_k_must_be_positive(self):
        client = SearchClient(mode="live", requests_per_second=0,
                              transport=lambda *a, **k: (200, "{}"))
        with pytest.raises(ValueError):
            client.search(SearchQuery("q"), 0)
