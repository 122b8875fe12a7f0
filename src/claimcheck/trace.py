"""Ordered audit log of one verification run, serializable as JSONL."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable


class EventKind(Enum):
    AGENT_CALL = "agent_call"
    SEARCH_CALL = "search_call"
    FETCH = "fetch"
    SCENARIO_DECISION = "scenario_decision"
    VERDICT = "verdict"


@dataclass(frozen=True)
class TraceEvent:
    timestamp: float
    kind: EventKind
    payload: dict[str, Any]


class RunTrace:
    """Append-only event log; a completed run ends with exactly one verdict."""

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self.events: list[TraceEvent] = []

    def log(self, kind: EventKind, **payload: Any) -> None:
        if self.events and self.events[-1].kind is EventKind.VERDICT:
            raise ValueError("trace already closed by a verdict event")
        self.events.append(TraceEvent(self._clock(), kind, payload))

    def to_jsonl(self, normalize_timestamps: bool = False) -> str:
        """One JSON object per line: ts, kind and payload, keys sorted."""
        return "".join(
            json.dumps({"ts": 0.0 if normalize_timestamps else event.timestamp,
                        "kind": event.kind.value, "payload": event.payload},
                       sort_keys=True, ensure_ascii=False) + "\n"
            for event in self.events)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
