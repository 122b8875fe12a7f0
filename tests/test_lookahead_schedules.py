"""Every schedule of the lookahead's tasks decides as the sequential loop.

A claim runs twice over the same generated world: once with no pool, where
each search and page is requested only when the loop reads it, and once on
a `ManualExecutor`, whose queued tasks run on the calling thread only when
an agent call's turn in the drawn schedule comes.  Both runs must log the
same trace but for unread searches, make the same agent calls and send
their searches in the same order; the second must leave no task pending.
The same draws check the loop's own contract.  A second property runs
worlds of the same strategy through AgentSuite, LlmGateway and SearchClient
on the HTTP stubs, where both runs must also send the same chat-completion
requests.  A task that is running while `close` waits for it is not
modelled here: the threaded tests in test_pipeline.py cover that case."""
from __future__ import annotations

import itertools
import json
import re
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from claimcheck.agents import HelpfulnessJudgment
from claimcheck.model import BudgetConfig, Claim, Document, EvidenceSet, SearchQuery
from claimcheck.pipeline import Ablation, Verifier
from claimcheck.replaystore import TransportError
from claimcheck.trace import EventKind

from conftest import (
    FakeReader,
    FakeSearch,
    ScriptedAgents,
    make_result,
    scripted_llm_app,
    stub_verifier,
)

CLAIM = Claim(text="X was founded in 1998")
QUERIES = ["q0", "q1", "q2", "q3", "q4"]
URLS = [f"https://u{i}.example/" for i in range(6)]


class ManualExecutor:
    """A prefetch pool whose tasks run only when `run` is called, on the
    calling thread, in the order they were submitted."""

    def __init__(self) -> None:
        self.queued: deque[tuple[Future, Callable, tuple]] = deque()
        self.futures: list[Future] = []

    def submit(self, fn, *args) -> Future:
        future = Future()
        self.queued.append((future, fn, args))
        self.futures.append(future)
        return future

    def run(self, n: int) -> None:
        """Run the next n queued tasks that have not been cancelled."""
        while n > 0 and self.queued:
            future, fn, args = self.queued.popleft()
            if not future.set_running_or_notify_cancel():
                continue
            n -= 1
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)


def seen(arg) -> object:
    """What an agent call's argument shows the agent, in comparable form."""
    if isinstance(arg, Document):
        return arg.meta.url, arg.body
    if isinstance(arg, EvidenceSet):
        return tuple((item.source_url, item.note) for item in arg)
    if isinstance(arg, SearchQuery):
        return arg.text
    if isinstance(arg, list):
        return tuple(result.url for result in arg)
    return arg


class ScheduledAgents:
    """`agents`, but each call first runs as many of the executor's queued
    tasks as the schedule's next number says; records every call."""

    def __init__(self, agents: ScriptedAgents, executor: ManualExecutor | None,
                 schedule: list[int]) -> None:
        self._agents = agents
        self._executor = executor
        self._schedule = itertools.cycle(schedule or [0])
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        method = getattr(self._agents, name)

        def call(*args):
            if self._executor is not None:
                self._executor.run(next(self._schedule))
            self.calls.append((name, *map(seen, args)))
            return method(*args)

        return call


@dataclass(frozen=True)
class World:
    config: BudgetConfig
    ablations: frozenset[Ablation]
    initial: list[str]
    additional: list[str]
    results: dict[str, list[str]]  # query text -> result URLs, in provider order
    unusable: frozenset[str]
    comprehensible: dict[str, str]  # URL -> "yes", "no" or "with evidence"
    helpful: frozenset[str]
    decisive: str | None  # evidence holding this URL suffices
    enough: int  # as does evidence of this many items
    reverse: bool  # the ranker reverses a query's results

    def agents(self) -> ScriptedAgents:
        def scc(claim, evidence, doc):
            answer = self.comprehensible[doc.meta.url]
            return answer == "yes" or (answer == "with evidence" and len(evidence) > 0)

        def sufficient(claim, evidence):
            return (len(evidence) >= self.enough
                    or any(item.source_url == self.decisive for item in evidence))

        return ScriptedAgents(
            initial=self.initial, rank="reverse" if self.reverse else "keep",
            scc=scc, sufficient=sufficient, additional=self.additional,
            helpful=lambda c, e, d: HelpfulnessJudgment(d.meta.url in self.helpful,
                                                        f"note from {d.meta.url}"))


@st.composite
def worlds(draw) -> World:
    """Worlds biased toward claims that stop on a query's last result while
    another query is queued, and toward claims that stop on a query's first
    result with its other pages unread: the decisive URL is often the first
    query's last or first result read, understood and kept."""
    budget = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    ablations = frozenset(draw(st.sets(st.sampled_from(list(Ablation)))))
    initial = draw(st.lists(st.sampled_from(QUERIES + ["Q0", "Q1"]), min_size=1, max_size=5))
    additional = draw(st.lists(st.sampled_from(QUERIES + ["Q2"]), max_size=3))
    results = {q: draw(st.lists(st.sampled_from(URLS), max_size=3)) for q in QUERIES}
    results |= {q.upper(): results[q] for q in QUERIES}
    reverse = draw(st.booleans())
    unusable = set(draw(st.sets(st.sampled_from(URLS), max_size=2)))
    comprehensible = dict(zip(URLS, draw(st.lists(
        st.sampled_from(["yes", "no", "with evidence"]), min_size=len(URLS),
        max_size=len(URLS)))))
    helpful = set(draw(st.sets(st.sampled_from(URLS))))
    read = results[initial[0]][:k]
    if reverse and len(read) > 1 and Ablation.RM_SR not in ablations:
        read = read[::-1]
    stop = draw(st.sampled_from([-1, 0, None])) if read else None
    if stop is not None:
        decisive = read[stop]
        unusable.discard(decisive)
        comprehensible[decisive] = "yes"
        helpful.add(decisive)
    else:
        decisive = draw(st.sampled_from(URLS + [None]))
    return World(BudgetConfig(max_search_queries=budget, max_results_per_query=k), ablations,
                 initial, additional, results, frozenset(unusable), comprehensible,
                 frozenset(helpful), decisive, draw(st.integers(1, 5)), reverse)


def verify(world: World, executor: ManualExecutor | None = None, schedule=()):
    agents = ScheduledAgents(world.agents(), executor, list(schedule))
    search = FakeSearch({q: [make_result(u) for u in urls] for q, urls in world.results.items()})
    reader = FakeReader(unusable=set(world.unusable))
    verifier = Verifier(agent_factory=lambda config, trace: agents, search=search,
                        reader=reader, clock=lambda: 0.0)
    verifier._prefetch_pool = executor
    report = verifier.verify(CLAIM, world.config, world.ablations)
    return report, agents.calls, search.calls, reader.acquired


def queued(world: World, calls: list[tuple]) -> list[str]:
    """The queries the loop queues, in order: the initial ones, then the
    follow-ups if it asked for them, each once (case-insensitively) and only
    while the budget has room."""
    asked = any(name == "additional_query_gen" for name, *_ in calls)
    texts = {}
    for text in world.initial + (world.additional if asked else []):
        texts.setdefault(text.lower(), text)
    return list(texts.values())[:world.config.max_search_queries]


def read_events(report) -> list[tuple]:
    return [(e.kind, e.payload) for e in report.trace.events if not e.payload.get("unread")]


@settings(max_examples=200, deadline=None)
@given(world=worlds(), schedule=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_every_schedule_reads_as_the_sequential_loop(world, schedule):
    report, calls, searched, acquired = verify(world)
    executor = ManualExecutor()
    ahead, ahead_calls, ahead_searched, _ = verify(world, executor, schedule)

    assert read_events(ahead) == read_events(report)
    assert ahead_calls == calls
    assert all(future.done() for future in executor.futures)
    # searches go out in the loop's order; the next query's may be sent and not read
    unread = [e.payload["query"] for e in ahead.trace.events if e.payload.get("unread")]
    assert ahead_searched == searched + [(q, world.config.max_results_per_query) for q in unread]
    assert [text for text, _ in ahead_searched] == queued(world, calls)[:len(ahead_searched)]
    assert len(unread) <= 1

    # the loop's contract
    events = report.trace.events
    budget, k = world.config.max_search_queries, world.config.max_results_per_query
    assert len(searched) == [e.kind for e in events].count(EventKind.SEARCH_CALL) <= budget
    decided = [e.payload["url"] for e in events if e.kind is EventKind.SCENARIO_DECISION]
    # one decision per document read, then one per deferred document rechecked
    scc_urls = [args[2][0] for name, *args in calls if name == "self_contained_check"]
    fetched = [e for e in events if e.kind is EventKind.FETCH]
    rechecked = [] if Ablation.RM_SCC in world.ablations else scc_urls[len(fetched):]
    assert decided == acquired + rechecked
    assert [e.kind for e in events].count(EventKind.VERDICT) == 1
    assert events[-1].kind is EventKind.VERDICT
    # the initial queries and classify; per search at most one follow-up request
    # and one ranking; per result at most two checks, one helpfulness and one
    # sufficiency call
    assert len(calls) <= 2 + 2 * budget + 4 * budget * k


# ---------------------------------------------------------------------------
# the same worlds through AgentSuite, LlmGateway and SearchClient on the stubs


class StubWorld:
    """The LLM and search stub apps and the page reader's http_get for the
    current `world`.  Each page and snippet names its URL as `[doc URL]`, and
    the LLM replies as `World.agents` would, from the document and the
    evidence notes that the prompt shows it."""

    DOC, NOTE = re.compile(r"\[doc (\S+)\]"), re.compile(r"note from (\S+)")

    def __init__(self) -> None:
        self.world: World | None = None
        self.llm_bodies: list[dict] = []

    def llm_app(self):
        return scripted_llm_app([
            ("list of new web search queries", lambda m: self.numbered(self.world.additional)),
            ("numbered list of web search queries", lambda m: self.numbered(self.world.initial)),
            ("Sort the results", self.rank),
            ("Is the document comprehensible", self.comprehensible),
            ("adds helpful new information", self.helpful),
            ("Is this evidence sufficient", self.sufficient),
            ("Is the claim true or false", lambda m: "True"),
        ], seen=self.llm_bodies)

    @staticmethod
    def numbered(texts: list[str]) -> str:
        return "\n".join(f"{i}. {text}" for i, text in enumerate(texts, 1)) or "none"

    def rank(self, messages) -> str:
        order = list(range(1, len(re.findall(r"(?m)^\d+\. ", messages[-1]["content"])) + 1))
        return str(order[::-1] if self.world.reverse else order)

    def comprehensible(self, messages) -> str:
        user = messages[-1]["content"]
        answer = self.world.comprehensible[self.DOC.search(user)[1]]
        return "YES" if answer == "yes" or (answer == "with evidence"
                                            and self.NOTE.search(user)) else "NO"

    def helpful(self, messages) -> str:
        url = self.DOC.search(messages[-1]["content"])[1]
        return f"HELPFUL: note from {url}" if url in self.world.helpful else "NOT HELPFUL"

    def sufficient(self, messages) -> str:
        notes = self.NOTE.findall(messages[-1]["content"])
        return ("YES" if len(notes) >= self.world.enough or self.world.decisive in notes
                else "NO")

    def search_app(self, method, path, body, headers):
        organic = [{"title": f"[doc {url}]", "link": url,
                    "snippet": "" if url in self.world.unusable else f"about [doc {url}]"}
                   for url in self.world.results.get(json.loads(body)["q"], [])]
        return 200, {}, json.dumps({"organic": organic}).encode()

    def http_get(self, url: str) -> tuple[str, str]:
        if url in self.world.unusable:
            raise TransportError(f"HTTP 404 for {url}")
        return f"<p>[doc {url}] A page about the claim, long enough to keep.</p>", "text/html"


@pytest.fixture
def stub_world(http_stub, tmp_path):
    world = StubWorld()
    return world, stub_verifier(http_stub, tmp_path, "live", world.llm_app(),
                                world.http_get, world.search_app)


def verify_on_stubs(stub_world, world: World, executor: ManualExecutor | None = None,
                    schedule=()):
    """The claim's report and the chat-completion request bodies its agents sent."""
    stubs, live = stub_world
    stubs.world = world
    stubs.llm_bodies.clear()
    verifier = Verifier(agent_factory=lambda config, trace: ScheduledAgents(
        live._agent_factory(config, trace), executor, list(schedule)),
        search=live.search, reader=live.reader, clock=lambda: 0.0)
    verifier._prefetch_pool = executor
    return verifier.verify(CLAIM, world.config, world.ablations), list(stubs.llm_bodies)


def read_jsonl(report) -> list[str]:
    return [line for line in report.trace.to_jsonl(normalize_timestamps=True).splitlines()
            if not json.loads(line)["payload"].get("unread")]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # stubs read `world`
@given(world=worlds(), schedule=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_every_schedule_sends_the_sequential_loops_prompts(stub_world, world, schedule):
    report, prompts = verify_on_stubs(stub_world, world)
    executor = ManualExecutor()
    ahead, ahead_prompts = verify_on_stubs(stub_world, world, executor, schedule)

    assert read_jsonl(ahead) == read_jsonl(report)
    assert ahead_prompts == prompts
    assert all(future.done() for future in executor.futures)
