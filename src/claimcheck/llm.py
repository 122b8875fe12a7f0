"""Chat-completion gateway: an OpenAI-compatible HTTP client in live,
record or replay mode (see ``replaystore.RecordedClient``)."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .replaystore import RecordedClient, TransportError, fixture_key, post_json

ROLES = ("system", "user")


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    messages: tuple[tuple[str, str], ...]
    temperature: float
    occurrence: int = 0  # earlier asks of the same messages within the claim
    scope: str = ""  # the claim whose fixtures hold the request's record

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("at least one message required")
        for role, content in self.messages:
            if role not in ROLES:
                raise ValueError(f"unsupported role: {role!r}")
            if not content:
                raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    usage: Optional[tuple[int, int]] = None


def canonical_form(req: ChatRequest) -> dict[str, Any]:
    """The request as its fixture stores it: the fields replay_key hashes,
    with each message's trailing whitespace collapsed."""
    return {
        "model": req.model_id,
        "temperature": req.temperature,
        "occurrence": req.occurrence,
        "scope": req.scope,
        "messages": [[role, content.rstrip()] for role, content in req.messages],
    }


def replay_key(req: ChatRequest) -> str:
    return fixture_key(req.model_id, repr(req.temperature), str(req.occurrence), req.scope,
                       *(part for role, content in req.messages
                         for part in (role, content.rstrip())))


class LlmGateway(RecordedClient):
    """Uniform complete() over three modes: live, record, replay.

    A fixture is the live call's record: the request, the response text
    and the token usage (absent in older fixtures, replayed as None).
    """

    TIMEOUT = 60.0

    def __init__(
        self,
        mode: str = "live",
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        fixture_dir: Optional[str] = None,
        transport: Callable[..., tuple[int, str]] = post_json,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(mode, fixture_dir, transport, sleep)
        if mode in ("live", "record") and not base_url:
            raise ValueError("base_url required for live/record mode")
        self.base_url = (base_url or "").rstrip("/")
        self.api_key = api_key

    def complete(self, req: ChatRequest) -> ChatResponse:
        record = self._recorded(
            lambda: replay_key(req), lambda: self._complete_live(req),
            lambda: (f"no LLM fixture for key {replay_key(req)} (claim {req.scope!r}, "
                     f"model={req.model_id}, first message {req.messages[0][1][:80]!r})"))
        usage = record.get("usage")
        return ChatResponse(text=record["response_text"],
                            usage=tuple(usage) if usage else None)

    def _complete_live(self, req: ChatRequest) -> dict[str, Any]:
        url = f"{self.base_url}/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        payload = {
            "model": req.model_id,
            "temperature": req.temperature,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
        }
        text, usage = self._parse_body(self._post(url, headers, payload))
        return {"request": canonical_form(req), "response_text": text, "usage": usage}

    @staticmethod
    def _malformed(record: dict[str, Any]) -> Optional[str]:
        if not isinstance(record.get("response_text"), str):
            return "response_text is not a string"
        usage = record.get("usage")
        if usage is not None and not (isinstance(usage, list) and len(usage) == 2):
            return "usage is not a two-item list"
        return None

    @staticmethod
    def _parse_body(data: dict[str, Any]) -> tuple[str, Optional[tuple[int, int]]]:
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            # e.g. a refusal, which some providers send as "content": null
            raise TransportError(
                f"malformed completion response: content is {type(text).__name__}, not str")
        usage = None
        if isinstance(data.get("usage"), dict):
            u = data["usage"]
            if "prompt_tokens" in u and "completion_tokens" in u:
                usage = (u["prompt_tokens"], u["completion_tokens"])
        return text, usage
