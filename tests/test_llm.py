import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck import llm, replaystore
from claimcheck.llm import ChatRequest, LlmGateway, replay_key
from claimcheck.replaystore import FixtureMiss, StorageError, TransportError

from conftest import openai_reply


def req(content="hello there", model="m1", temperature=0.5):
    return ChatRequest(model_id=model, temperature=temperature,
                       messages=(("system", "sys"), ("user", content)))


def recorder(fixture_dir, text="x"):
    """A record-mode gateway whose transport always answers ``text``."""
    body = openai_reply(text)[2].decode()
    return LlmGateway(mode="record", base_url="http://unused.invalid",
                      fixture_dir=fixture_dir, transport=lambda *a, **k: (200, body))


class TestRequestValidation:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(model_id="m", messages=(), temperature=0.0)

    def test_rejects_bad_role_and_empty_content(self):
        with pytest.raises(ValueError):
            ChatRequest(model_id="m", messages=(("assistant", "x"),), temperature=0.0)
        with pytest.raises(ValueError):
            ChatRequest(model_id="m", messages=(("user", ""),), temperature=0.0)


class TestReplayKey:
    def test_identical_requests_identical_digests(self):
        assert replay_key(req()) == replay_key(req())

    @given(st.text(min_size=1).filter(lambda t: t.strip()),
           st.sampled_from([" ", "\t", "\n", "  \n"]))
    def test_trailing_whitespace_ignored(self, content, suffix):
        assert replay_key(req(content)) == replay_key(req(content + suffix))

    @given(st.text(alphabet="abcxyz", min_size=1, max_size=30))
    def test_visible_change_changes_digest(self, content):
        assert replay_key(req(content)) != replay_key(req(content + "!"))

    def test_temperature_in_digest(self):
        assert replay_key(req(temperature=0.5)) != replay_key(req(temperature=1.0))


class TestReplayMode:
    def test_replay_returns_recorded_text(self, tmp_path):
        recorder(tmp_path, "True").complete(req())
        replayer = LlmGateway(mode="replay", fixture_dir=tmp_path)
        assert replayer.complete(req()).text == "True"

    def test_replay_returns_recorded_usage(self, tmp_path):
        recorder(tmp_path).complete(req())
        (path,) = tmp_path.glob("*.json")
        assert json.loads(path.read_text())["usage"] == [10, 5]
        replayer = LlmGateway(mode="replay", fixture_dir=tmp_path)
        assert replayer.complete(req()).usage == (10, 5)

    def test_fixture_without_usage_replays(self, tmp_path):
        # the shape fixtures had before usage was recorded
        record = {"request": {}, "response_text": "old"}
        (tmp_path / f"{replay_key(req())}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        resp = LlmGateway(mode="replay", fixture_dir=tmp_path).complete(req())
        assert (resp.text, resp.usage) == ("old", None)

    @pytest.mark.parametrize("record", [
        [1, 2],
        {"request": {}},
        {"response_text": None},
        {"response_text": "x", "usage": [10]},
        {"response_text": "x", "usage": 5},
    ])
    def test_fixture_of_the_wrong_shape_is_storage_error(self, tmp_path, record):
        path = tmp_path / f"{replay_key(req())}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(StorageError, match=path.name):
            LlmGateway(mode="replay", fixture_dir=tmp_path).complete(req())

    def test_unseen_digest_is_fixture_miss(self, tmp_path):
        gateway = LlmGateway(mode="replay", fixture_dir=tmp_path)
        with pytest.raises(FixtureMiss):
            gateway.complete(req("never recorded"))

    def test_replay_performs_zero_network_calls(self, tmp_path):
        calls = []

        def counting_transport(*args, **kwargs):
            calls.append(args)
            return 200, ""

        gateway = LlmGateway(mode="replay", fixture_dir=tmp_path,
                             transport=counting_transport)
        gateway.store.put(replay_key(req()), {"request": {}, "response_text": "ok"})
        gateway.complete(req())
        assert calls == []


class TestRecordStore:
    def test_record_then_list_one_entry(self, tmp_path):
        gateway = recorder(tmp_path)
        gateway.complete(req())
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_record_idempotent(self, tmp_path):
        gateway = recorder(tmp_path)
        gateway.complete(req())
        (path,) = tmp_path.glob("*.json")
        first = path.read_text()
        gateway.complete(req())
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert path.read_text() == first

    def test_temperature_difference_gives_two_entries(self, tmp_path):
        gateway = recorder(tmp_path)
        gateway.complete(req(temperature=0.1))
        gateway.complete(req(temperature=0.9))
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestLiveTransport:
    def test_record_then_replay_round_trip(self, tmp_path, http_stub):
        reply_text = "the answer is  éxact"

        def app(method, path, body, headers):
            assert path.endswith("/chat/completions")
            return openai_reply(reply_text)

        base = http_stub(app)
        recorder = LlmGateway(mode="record", base_url=base, fixture_dir=tmp_path)
        live_text = recorder.complete(req()).text
        replayer = LlmGateway(mode="replay", fixture_dir=tmp_path)
        assert replayer.complete(req()).text == live_text == reply_text

    def test_live_call_computes_no_replay_key(self, http_stub, monkeypatch):
        def no_key(req):
            raise AssertionError("replay_key computed in live mode")

        monkeypatch.setattr(llm, "replay_key", no_key)
        gateway = LlmGateway(mode="live", base_url=http_stub(lambda *a: openai_reply("ok")))
        assert gateway.complete(req()).text == "ok"

    def test_auth_header_and_usage(self, http_stub):
        seen = {}

        def app(method, path, body, headers):
            seen.update(headers)
            return openai_reply("ok")

        gateway = LlmGateway(mode="live", base_url=http_stub(app), api_key="sekrit")
        resp = gateway.complete(req())
        assert seen.get("Authorization") == "Bearer sekrit"
        assert resp.usage == (10, 5)

    def test_retries_on_transient_then_succeeds(self):
        attempts = []
        sleeps = []

        def flaky(url, headers, payload, timeout):
            attempts.append(1)
            if len(attempts) < 3:
                return 503, "busy"
            return 200, json.dumps({"choices": [{"message": {"content": "fine"}}]})

        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=flaky, sleep=sleeps.append)
        assert gateway.complete(req()).text == "fine"
        assert sleeps == [1.0, 2.0]

    def test_transport_error_after_retry_budget(self):
        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=lambda *a, **k: (500, "down"),
                             sleep=lambda s: None)
        with pytest.raises(TransportError):
            gateway.complete(req())

    def test_client_error_not_retried(self):
        attempts = []

        def bad_request(url, headers, payload, timeout):
            attempts.append(1)
            return 400, "bad"

        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=bad_request, sleep=lambda s: None)
        with pytest.raises(TransportError, match="HTTP 400"):
            gateway.complete(req())
        assert len(attempts) == 1

    def test_body_over_the_cap_not_retried(self, http_stub, monkeypatch):
        # the same answer would be over the cap again
        attempts, sleeps = [], []

        def app(method, path, body, headers):
            attempts.append(1)
            return openai_reply("x" * 500)

        monkeypatch.setattr(replaystore, "MAX_RESPONSE_BYTES", 100)
        gateway = LlmGateway(mode="live", base_url=http_stub(app), sleep=sleeps.append)
        with pytest.raises(TransportError, match="over 100 bytes"):
            gateway.complete(req())
        assert len(attempts) == 1
        assert sleeps == []

    @pytest.mark.parametrize("content", [None, 42, ["a"]])
    def test_non_string_content_is_malformed(self, content):
        # a refusal can come back as {"content": null}
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=lambda *a, **k: (200, body), sleep=lambda s: None)
        with pytest.raises(TransportError, match="malformed completion response"):
            gateway.complete(req())

    @pytest.mark.parametrize("reply", [{}, {"choices": []}, {"choices": [{}]}])
    def test_reply_without_a_message_is_malformed(self, reply):
        attempts = []

        def transport(*args, **kwargs):
            attempts.append(1)
            return 200, json.dumps(reply)

        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=transport, sleep=lambda s: None)
        with pytest.raises(TransportError, match="malformed completion response"):
            gateway.complete(req())
        assert len(attempts) == 1

    def test_reply_nested_too_deep_is_malformed(self):
        # json.loads raises RecursionError, not ValueError, on this
        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=lambda *a, **k: (200, "[" * 100_000),
                             sleep=lambda s: None)
        with pytest.raises(TransportError, match="malformed response"):
            gateway.complete(req())

    def test_auth_error_not_retried(self):
        attempts = []

        def denied(url, headers, payload, timeout):
            attempts.append(1)
            return 401, "no"

        gateway = LlmGateway(mode="live", base_url="http://x.invalid",
                             transport=denied, sleep=lambda s: None)
        with pytest.raises(TransportError, match="HTTP 401"):
            gateway.complete(req())
        assert len(attempts) == 1

    def test_mode_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LlmGateway(mode="bogus")
        with pytest.raises(ValueError):
            LlmGateway(mode="live")  # no base_url
        with pytest.raises(ValueError):
            LlmGateway(mode="replay")  # no fixture_dir
