import json
import os
import threading
import time

import pytest

from claimcheck import replaystore
from claimcheck.replaystore import FixtureStore, StorageError, TransportError, post_json


class TestPostJson:
    def test_slow_drip_body_is_bounded_by_the_timeout(self, drip_server):
        # 50 bytes at one every 0.1 s: 5 s of body against a 0.5 s timeout
        base = drip_server(json.dumps({"text": "x" * 38}).encode(), interval=0.1)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timeout"):
            post_json(f"{base}/v1/chat/completions", {}, {"q": 1}, timeout=0.5)
        assert time.monotonic() - start < 1.5

    def test_slow_drip_head_is_bounded_by_the_timeout(self, drip_server):
        # ~90 bytes of status line and headers at one every 0.1 s
        base = drip_server(b'{"organic": []}', interval=0.1, slow_head=True)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timeout"):
            post_json(f"{base}/search", {}, {"q": 1}, timeout=0.5)
        assert time.monotonic() - start < 1.5

    def test_stalled_body_is_transport_error(self, drip_server):
        base = drip_server(b'{"organic": []}', interval=5.0)
        with pytest.raises(TransportError):
            post_json(f"{base}/search", {}, {"q": 1}, timeout=0.3)

    def test_whole_body_is_returned(self, http_stub):
        body = json.dumps({"text": "été " * 10_000}).encode()
        base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "application/json"}, body))
        assert post_json(f"{base}/v1", {}, {"q": 1}, timeout=5.0) == (200, body.decode())


    def test_body_over_the_cap_is_refused_and_its_connection_closed(self, stub_servers,
                                                                    monkeypatch):
        body = json.dumps({"text": "x" * 200}).encode()
        stub = stub_servers(lambda m, p, b, h: (200, {"Content-Type": "application/json"},
                                                body if p == "/big" else b"{}"),
                            keep_alive=True)
        monkeypatch.setattr(replaystore, "MAX_RESPONSE_BYTES", 100)
        with pytest.raises(TransportError, match="over 100 bytes"):
            post_json(f"{stub.url}/big", {}, {"q": 1}, timeout=5.0)
        assert post_json(f"{stub.url}/small", {}, {"q": 1}, timeout=5.0) == (200, "{}")
        # the refused body's connection was closed, so the next call opened another
        assert stub.connections == 2


class TestFixtureStore:
    def test_missing_key_is_none(self, tmp_path):
        assert FixtureStore(tmp_path / "absent").get("k") is None

    def test_put_then_get(self, tmp_path):
        store = FixtureStore(tmp_path / "new")
        store.put("k", {"a": [1, "é"]})
        store.put("k", {"a": [1, "é"]})
        assert store.get("k") == {"a": [1, "é"]}
        assert [p.name for p in (tmp_path / "new").glob("*.json")] == ["k.json"]

    def test_malformed_fixture_is_storage_error(self, tmp_path):
        (tmp_path / "k.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError):
            FixtureStore(tmp_path).get("k")

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"x"'])
    def test_fixture_that_is_not_an_object_is_storage_error(self, tmp_path, text):
        (tmp_path / "k.json").write_text(text, encoding="utf-8")
        with pytest.raises(StorageError, match="k.json: not a JSON object"):
            FixtureStore(tmp_path).get("k")

    def test_fixture_that_is_not_utf8_is_storage_error(self, tmp_path):
        (tmp_path / "k.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(StorageError):
            FixtureStore(tmp_path).get("k")
        # a record run replaces it
        FixtureStore(tmp_path).put("k", {"a": 1})
        assert FixtureStore(tmp_path).get("k") == {"a": 1}

    def test_fixture_nested_too_deep_is_storage_error(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on this
        (tmp_path / "k.json").write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(StorageError, match="unreadable fixture"):
            FixtureStore(tmp_path).get("k")

    def test_fixture_in_utf16_is_storage_error(self, tmp_path):
        # valid JSON in UTF-16, which json.loads would accept as bytes
        (tmp_path / "k.json").write_bytes(json.dumps({"a": 1}).encode("utf-16"))
        with pytest.raises(StorageError):
            FixtureStore(tmp_path).get("k")

    def test_unreadable_fixture_is_storage_error(self, tmp_path):
        (tmp_path / "k.json").mkdir()
        with pytest.raises(StorageError):
            FixtureStore(tmp_path).get("k")
        with pytest.raises(StorageError):
            FixtureStore(tmp_path).put("k", {})

    def test_unwritable_root_is_storage_error(self, tmp_path):
        root = tmp_path / "file"
        root.write_text("", encoding="utf-8")
        with pytest.raises(StorageError):
            FixtureStore(root).put("k", {})

    def test_concurrent_puts_of_one_key_leave_one_whole_record(self, tmp_path):
        # two record-mode answers to one request, say at temperature 1.0
        store = FixtureStore(tmp_path)
        short, long = {"response_text": "x"}, {"response_text": "y" * 20_000}
        keys = [f"k{i}" for i in range(200)]
        barrier = threading.Barrier(2)

        def writer(record):
            for key in keys:
                barrier.wait()  # both threads put each key at once
                store.put(key, record)

        threads = [threading.Thread(target=writer, args=(r,)) for r in (short, long)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert [key for key in keys if store.get(key) not in (short, long)] == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{k}.json" for k in keys)

    def test_put_gives_the_mode_of_a_plain_write(self, tmp_path):
        FixtureStore(tmp_path).put("k", {"a": 1})
        (tmp_path / "plain.json").write_text("{}", encoding="utf-8")
        assert (tmp_path / "k.json").stat().st_mode == (tmp_path / "plain.json").stat().st_mode

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(StorageError, match="disk full"):
            FixtureStore(tmp_path).put("k", {"a": 1})
        assert list(tmp_path.iterdir()) == []
