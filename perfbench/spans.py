"""Run-time wrappers around the program's public functions: per-claim
call counters for every run, and spans for the traced run.

Both give a call to the claim whose id its request carries (see
``world.claim_id_in``), not to the thread that makes it, so work the
program moves to other threads still counts against its claim.  A span
records its name, start, end, parent span and claim id.  A span's self
time is its duration minus the time its children cover: the union of
their intervals, clipped to the span, so children that run at once are
not subtracted twice.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Optional

import world
from claimcheck import agents, evalkit, llm, model, pages, pipeline, replaystore, trace, websearch


class Patches:
    """Replaces attributes and puts the originals back, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def message_text(req: llm.ChatRequest) -> str:
    return "\n".join(content for _, content in req.messages)


def prompt_chars(req: llm.ChatRequest) -> int:
    return sum(len(content) for _, content in req.messages)


def claim_of(args: tuple) -> Optional[str]:
    """The claim id that a call's arguments carry, if any."""
    for arg in args:
        if isinstance(arg, model.Claim):
            return arg.id
        if isinstance(arg, llm.ChatRequest):
            text = message_text(arg)
        elif isinstance(arg, model.SearchQuery):
            text = arg.text
        elif isinstance(arg, model.SearchResultMeta):
            text = arg.url
        elif isinstance(arg, str):
            text = arg
        else:
            continue
        found = world.claim_id_in(text)
        if found:
            return found
    return None


class CallCounts:
    """LLM calls, prompt characters, searches and page fetches per claim id.
    Calls that carry no claim id are counted as orphans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.by_claim: dict[str, Counter] = {}
            self.orphans: Counter = Counter()

    def add(self, claim: Optional[str], key: str, chars: int = 0) -> None:
        with self._lock:
            counts = (self.orphans if claim is None
                      else self.by_claim.setdefault(claim, Counter()))
            counts[key] += 1
            if chars:
                counts["prompt_chars"] += chars


def install_counters(patches: Patches, counts: CallCounts) -> None:
    """Count LLM calls, prompt characters, searches and page fetches."""

    def counting(key: str, chars: bool = False):
        def make(original):
            def wrapper(self, arg, *args, **kwargs):
                counts.add(claim_of((arg,)), key, prompt_chars(arg) if chars else 0)
                return original(self, arg, *args, **kwargs)
            return wrapper
        return make

    patches.wrap(llm.LlmGateway, "complete", counting("llm", chars=True))
    patches.wrap(websearch.SearchClient, "search", counting("search"))
    patches.wrap(pages.PageReader, "fetch", counting("fetch"))


class Span:
    __slots__ = ("name", "start", "end", "parent", "claim", "phase", "children", "attrs")

    def __init__(self, name, start, parent, claim, phase) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.claim = claim
        self.phase = phase
        self.children: list[tuple[float, float]] = []
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        covered, reach = 0.0, self.start
        for start, end in sorted(self.children):
            start, end = max(start, reach), min(end, self.end)
            if end > start:
                covered += end - start
                reach = end
        return self.end - self.start - covered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack = threading.local()
        self._lock = threading.Lock()
        # claim id -> the span stack of the thread whose outermost span
        # took the claim first: the thread that verifies it
        self._homes: dict[str, list[Span]] = {}

    def _parent(self, claim: Optional[str], stack: list) -> Optional[Span]:
        """The innermost open span on this thread, else the innermost open
        span on the thread that verifies the claim."""
        if stack:
            return stack[-1]
        if claim is None:
            return None
        with self._lock:
            home = self._homes.setdefault(claim, stack)
        try:
            return home[-1] if home is not stack else None
        except IndexError:
            return None

    def wrap(self, patches: Patches, owner: Any, attr: str, name: str,
             note: Optional[Callable[[tuple, Any, Optional[BaseException]], dict]] = None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                stack = tracer._stack.__dict__.setdefault("spans", [])
                claim = stack[-1].claim if stack else claim_of(args)
                span = Span(name, 0.0, tracer._parent(claim, stack), claim, tracer.phase)
                stack.append(span)
                result, error = None, None
                span.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                    if not stack and claim is not None:
                        with tracer._lock:
                            if tracer._homes.get(claim) is stack:
                                del tracer._homes[claim]
                    if span.parent is not None:
                        span.parent.children.append((span.start, span.end))
                    if note is not None:
                        span.attrs = note(args, result, error)
                    tracer.spans.append(span)
            return wrapper

        patches.wrap(owner, attr, make)

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "claim": s.claim,
                    "phase": s.phase, "self_s": s.self_s, **(s.attrs or {}),
                }) + "\n")


AGENTS = ("initial_query_gen", "search_rank", "self_contained_check", "det_helpful",
          "sufficient_evidence", "classify", "additional_query_gen")


def install_tracer(patches: Patches, tracer: Tracer) -> None:
    """Spans around every layer boundary the per-layer metrics name."""
    def error_name(error):
        return type(error).__name__ if error is not None else None

    wrap = functools.partial(tracer.wrap, patches)
    wrap(pipeline.Verifier, "verify", "pipeline.verify")
    for agent in AGENTS:
        wrap(agents.AgentSuite, agent, f"agents.{agent}")
    wrap(llm.LlmGateway, "complete", "llm.complete",
         lambda a, r, e: {"prompt_chars": prompt_chars(a[1]),
                          "agent": world.detect_agent(message_text(a[1]))})
    wrap(llm, "replay_key", "llm.replay_key")
    wrap(websearch.SearchClient, "search", "websearch.search")
    wrap(pages.PageReader, "acquire_document", "pages.acquire_document",
         lambda a, r, e: {"error": error_name(e),
                          "acquisition": r.acquisition.value if r is not None else None,
                          "body_chars": len(r.body) if r is not None else 0})
    wrap(pages.PageReader, "fetch", "pages.fetch",
         lambda a, r, e: {"bytes": len(r[0].encode("utf-8")) if r is not None else 0})
    wrap(pages.PageReader, "extract_text", "pages.extract_text",
         lambda a, r, e: {"chars": len(r) if r is not None else 0})
    wrap(model.EvidenceSet, "render", "model.evidence_render")
    wrap(replaystore.FixtureStore, "get", "replaystore.get")
    wrap(replaystore.FixtureStore, "put", "replaystore.put")
    wrap(trace.RunTrace, "log", "trace.log")
    wrap(trace.RunTrace, "to_jsonl", "trace.to_jsonl",
         lambda a, r, e: {"bytes": len(r.encode("utf-8")) if r is not None else 0})
    wrap(evalkit, "load_dataset", "evalkit.load_dataset")
    wrap(evalkit, "report", "evalkit.report")
