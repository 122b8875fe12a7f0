"""Every schedule of the prefetch pool's page fetches and LLM send-aheads
decides as the sequential loop.

A claim runs twice over the same generated world: once with no pool, where
each search, page and LLM call is requested only when the loop reads it,
and once on a `ManualExecutor`, whose queued tasks run on the calling thread
only when an agent call's turn in the drawn schedule comes.  Both runs must
log the same trace, make the same agent calls and send the same searches in
the same order; the second must hand the executor page fetches and
send-aheads only, and leave no task pending.  The requests it sends and
never reads must be accounted for exactly: one helpfulness call for each
page whose first check, made once no search could follow, said no, and at
most one other sent beside a sufficiency check: classify, sent with the
last deferred page's recheck, only when that recheck said yes and its page
was added; the follow-up query call on the claim's final evidence, only
for a claim that ended sufficient at a check made with no result unread,
no query queued and budget left; any other call, only for a claim that
ended sufficient in its tail.  The same draws check the loop's own
contract.  A second property runs worlds of the same strategy through
AgentSuite, LlmGateway and SearchClient on the HTTP stubs, where the
requests the second run sends must be the sequential run's plus at most
those.  A task that is still running when the claim ends and waits for
it is not modelled here: the threaded tests in test_pipeline.py cover that
case.  Last, a claim's serial round-trips (the calls it waits for one
after another) are counted with no pool and pinned under the eager
schedule."""
from __future__ import annotations

import itertools
import json
import re
from collections import Counter, deque
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
    drain_decisions,
    ended_sufficient_before_follow_ups,
    ended_sufficient_in_tail,
    make_result,
    scripted_llm_app,
    stub_verifier,
)

CLAIM = Claim(text="X was founded in 1998")
QUERIES = ["q0", "q1", "q2", "q3", "q4"]
URLS = [f"https://u{i}.example/" for i in range(6)]


class ManualExecutor:
    """A prefetch pool whose tasks run only when `run` is called, on the
    calling thread, in the order they were submitted.  Records the name of
    every function it was handed."""

    def __init__(self) -> None:
        self.queued: deque[tuple[Future, Callable, tuple]] = deque()
        self.futures: list[Future] = []
        self.handed: list[str] = []

    def submit(self, fn, *args) -> Future:
        future = Future()
        self.queued.append((future, fn, args))
        self.futures.append(future)
        self.handed.append(fn.__name__)
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


def complete() -> None:
    """Stands on the pool for the LLM request that a scripted agent's
    send-ahead would make (AgentSuite's is LlmGateway.complete)."""


class ScheduledAgents:
    """`agents`, but each call first runs as many of the executor's queued
    tasks as the schedule's next number says; records every call.  A
    send-ahead goes to the wrapped AgentSuite; scripted agents have none,
    so `complete` stands for its request, and the next call with the same
    arguments cancels it or takes it, as AgentSuite._complete does.  A
    send-ahead of a call already pending returns its task."""

    def __init__(self, agents: ScriptedAgents, executor: ManualExecutor | None,
                 schedule: list[int]) -> None:
        self._agents = agents
        self._executor = executor
        self._schedule = itertools.cycle(schedule or [0])
        self.calls: list[tuple] = []
        self.sent: dict[Future, tuple] = {}  # every send-ahead's task: the call it stands for
        self.taken: list[Future] = []  # those whose reply a call took
        self.ready: list[Future] = []  # of those, the ones done before that call's turn
        self.ahead: dict[tuple, Future] = {}  # as AgentSuite.ahead: sent, not yet asked; by call

    def send_ahead(self, pool, agent: str, *args) -> Future:
        call = (agent, *map(seen, args))
        suite_sends = getattr(self._agents, "send_ahead", None)
        if suite_sends:
            task = suite_sends(pool, agent, *args)
        else:
            task = self.ahead.get(call) or pool.submit(complete)
        self.sent[task] = call
        self.ahead[call] = task
        return task

    def __getattr__(self, name: str):
        method = getattr(self._agents, name)

        def call(*args):
            task = self.ahead.pop((name, *map(seen, args)), None)
            ready = task is not None and task.done()
            if self._executor is not None:
                self._executor.run(next(self._schedule))
            self.calls.append((name, *map(seen, args)))
            reply = method(*args)
            if task is not None:
                if not hasattr(self._agents, "send_ahead"):
                    task.cancel()  # not started: asked inline
                if not task.cancelled():
                    self.taken.append(task)
                    if ready:
                        self.ready.append(task)
            return reply

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
    query's last or first result read, understood and kept.  Just as often,
    the first query is the whole budget and its first page read is
    understood only beside the note its last page read adds, so the drain
    rechecks a page deferred in the tail and may recover it.  Just as often,
    the first query is the only one queued, the budget has room for more,
    and only its last result read suffices: the claim stops where a "no"
    would ask for follow-up queries.  Often one URL is among the results of
    several queries."""
    budget = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    ablations = frozenset(draw(st.sets(st.sampled_from(list(Ablation)))))
    initial = draw(st.lists(st.sampled_from(QUERIES + ["Q0", "Q1"]), min_size=1, max_size=5))
    additional = draw(st.lists(st.sampled_from(QUERIES + ["Q2"]), max_size=3))
    results = {q: draw(st.lists(st.sampled_from(URLS), max_size=3)) for q in QUERIES}
    # results whose URLs repeat across queries: one URL comes back in several
    repeated = draw(st.sampled_from(URLS))
    for q in sorted(draw(st.sets(st.sampled_from(QUERIES)))):
        results[q].insert(draw(st.integers(0, len(results[q]))), repeated)
    results |= {q.upper(): results[q] for q in QUERIES}
    reverse = draw(st.booleans())
    unusable = set(draw(st.sets(st.sampled_from(URLS), max_size=2)))
    comprehensible = dict(zip(URLS, draw(st.lists(
        st.sampled_from(["yes", "no", "with evidence"]), min_size=len(URLS),
        max_size=len(URLS)))))
    helpful = set(draw(st.sets(st.sampled_from(URLS))))
    stop = draw(st.sampled_from([-1, 0, None, "drain", "follow-up"]))
    if stop == "drain":
        # the first query is the whole budget, and the first page it reads is
        # understood only beside the note that the last adds
        budget, k, ablations = 1, max(k, 2), ablations - {Ablation.RM_SCC}
        ends = draw(st.lists(st.sampled_from(URLS), min_size=2, max_size=2, unique=True))
        results[initial[0]][:] = [ends[0], *results[initial[0]][:k - 2], ends[1]]
    elif stop == "follow-up":
        # the first query is the only one queued, with budget left for more
        initial, budget = initial[:1], max(budget, 2)
    read = results[initial[0]][:k]
    if reverse and len(read) > 1 and Ablation.RM_SR not in ablations:
        read = read[::-1]
    enough = 1
    if stop == "drain":
        unusable -= {read[0], read[-1]}
        comprehensible |= {read[0]: "with evidence", read[-1]: "yes"}
        helpful |= {read[0], read[-1]}
        # neither that note alone nor a page read before the drain suffices
        decisive, enough = draw(st.sampled_from([read[0], None])), 2
    elif stop is not None and read:
        decisive = read[-1 if stop == "follow-up" else stop]
        if stop == "follow-up":
            enough = len(read) + 1  # the notes read before it fall short
        unusable.discard(decisive)
        comprehensible[decisive] = "yes"
        helpful.add(decisive)
    else:
        decisive = draw(st.sampled_from(URLS + [None]))
    return World(BudgetConfig(max_search_queries=budget, max_results_per_query=k), ablations,
                 initial, additional, results, frozenset(unusable), comprehensible,
                 frozenset(helpful), decisive, draw(st.integers(enough, 5)), reverse)


def verify(world: World, executor: ManualExecutor | None = None, schedule=()):
    agents = ScheduledAgents(world.agents(), executor, list(schedule))
    search = FakeSearch({q: [make_result(u) for u in urls] for q, urls in world.results.items()})
    reader = FakeReader(unusable=set(world.unusable))
    verifier = Verifier(agent_factory=lambda config, trace: agents, search=search,
                        reader=reader)
    verifier._prefetch_pool = executor
    report = verifier.verify(CLAIM, world.config, world.ablations)
    return report, agents, search.calls, reader.acquired


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
    return [(e.kind, e.payload) for e in report.trace.events]


def serial_round_trips(agents: ScheduledAgents, searched: list, acquired: list[str],
                       executor: ManualExecutor | None = None) -> int:
    """A claim's LLM calls, plus its searches (each runs on the loop's
    thread), plus the pages the loop fetched itself: with no pool every
    page and call; on `executor`, less the pages whose task ran (it did so
    on an agent call's turn) and the send-aheads done before the turn of
    the call that took them."""
    ran = 0 if executor is None else sum(
        not f.cancelled() for f, name in zip(executor.futures, executor.handed)
        if name == "acquire_document")
    return len(agents.calls) + len(searched) + len(acquired) - ran - len(agents.ready)


def tail_deferrals(report, world: World) -> Counter:
    """The URLs of the pages deferred on their first read once no search
    could follow: every query of the budget searched."""
    searches, deferred = 0, Counter()
    for e in report.trace.events:
        searches += e.kind is EventKind.SEARCH_CALL
        if e.payload.get("scenario") == "d" and searches == world.config.max_search_queries:
            deferred[e.payload["url"]] += 1
    return deferred


def recovered_last_deferral(report) -> bool:
    """The drain rechecked every deferred page, and the last one's recheck
    said yes and its page was added to the evidence."""
    drained = drain_decisions(report)
    deferred = sum(e.payload.get("scenario") == "d" for e in report.trace.events)
    return len(drained) == deferred > 0 and drained[-1]["scenario"] in ("a", "b")


@settings(max_examples=200, deadline=None)
@given(world=worlds(), schedule=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_every_schedule_reads_as_the_sequential_loop(world, schedule):
    report, agents, searched, acquired = verify(world)
    calls = agents.calls
    executor = ManualExecutor()
    ahead, ahead_agents, ahead_searched, _ = verify(world, executor, schedule)

    assert read_events(ahead) == read_events(report)
    assert ahead_agents.calls == calls
    assert all(future.done() for future in executor.futures)
    # searches stay on the loop's thread and go out in its order; the pool
    # only fetches pages and sends LLM calls ahead
    assert set(executor.handed) <= {"acquire_document", "complete"}
    assert ahead_searched == searched
    # a send-ahead that ran and was not read is the helpfulness call of a
    # page whose first check in the tail said no (one per such check), or
    # one call sent beside a sufficiency check: classify, on the evidence
    # the last deferred page's recheck then said yes to and added its page
    # to; the follow-up query call, on the final evidence, only when a
    # sufficient check ended the claim with no result unread, no query
    # queued and budget left; any other, only when a sufficient check ended
    # the claim in its tail
    unread = [call for task, call in ahead_agents.sent.items()
              if task not in ahead_agents.taken and not task.cancelled()]
    beside_check = [call for call in unread
                    if call[0] != "det_helpful" or Ablation.RM_SCC in world.ablations]
    helpfulness = Counter(call[3][0] for call in unread if call not in beside_check)
    assert not helpfulness - tail_deferrals(report, world)
    assert len(beside_check) <= 1
    for call in beside_check:
        if call[0] == "classify":
            assert recovered_last_deferral(report)
            assert call[2] == seen(report.evidence)[:-1]
        elif call[0] == "additional_query_gen":
            assert ended_sufficient_before_follow_ups(report, world.config,
                                                      len(queued(world, calls)))
            assert call[2] == seen(report.evidence)
        else:
            assert ended_sufficient_in_tail(report, world.config)
    assert not agents.sent
    assert (serial_round_trips(ahead_agents, ahead_searched, acquired, executor)
            <= serial_round_trips(agents, searched, acquired))
    assert [text for text, _ in searched] == queued(world, calls)[:len(searched)]

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
    # with no pool, every call the claim makes is waited for in series; a
    # page read is a fetch, or an unusable page's decision
    unusable = [e for e in events if e.payload.get("scenario") == "unusable"]
    assert (serial_round_trips(agents, searched, acquired)
            == len(calls) + len(searched) + len(fetched) + len(unusable))
    # the initial queries and classify; per search at most one follow-up request
    # and one ranking; per result at most two checks, one helpfulness and one
    # sufficiency call
    assert len(calls) <= 2 + 2 * budget + 4 * budget * k


EAGER = [len(URLS)]  # every queued task runs at the next agent call


@pytest.mark.parametrize("k, helpful, inline_per_query, saved", [
    pytest.param(2, False, 0, 2, id="2-0"), pytest.param(1, False, 1, 1, id="1-1"),
    pytest.param(2, True, 0, 4, id="2-0-tail-saves-4"),
    pytest.param(1, True, 1, 2, id="1-1-tail-saves-2")])
def test_eager_schedule_serial_round_trips(k, helpful, inline_per_query, saved):
    """Two queries of k results each, every page understood, never enough
    evidence.  With k=2 the ranker's call runs both queued fetches first;
    with k=1 no agent call comes between the search and the read, so the
    loop fetches the page itself.  The second query is the tail: before each
    of its pages' checks that page's helpfulness call is sent, and with
    helpful pages, before each sufficiency check the next call (the next
    page's check, then classify); the next call's turn runs each."""
    world = World(BudgetConfig(max_search_queries=2, max_results_per_query=k), frozenset(),
                  initial=["q0", "q1"], additional=[],
                  results={"q0": URLS[:2], "q1": URLS[2:4]}, unusable=frozenset(),
                  comprehensible=dict.fromkeys(URLS, "yes"),
                  helpful=frozenset(URLS if helpful else ()),
                  decisive=None, enough=5, reverse=False)
    executor = ManualExecutor()
    _, agents, searched, acquired = verify(world, executor, EAGER)
    assert len(searched) == 2 and len(acquired) == 2 * k
    # the initial queries and classify; per query a ranking when there is a
    # choice, and per page a check, a helpfulness call and, when helpful, a
    # sufficiency call
    assert len(agents.calls) == 2 + 2 * ((k > 1) + (2 + helpful) * k)
    assert len(agents.sent) == len(agents.ready) == saved
    assert (serial_round_trips(agents, searched, acquired, executor)
            == len(agents.calls) + len(searched) + 2 * inline_per_query - saved)


def test_eager_schedule_sends_classify_beside_the_last_recheck():
    """One query of three results and a budget of one, every page helpful,
    never enough evidence.  Pages 0 and 1 are deferred in the tail and page
    2 is kept; the drain recovers page 0, whose sufficiency check goes out
    with page 1's recheck and classify sent beside it.  That recheck says
    no, so classify's reply is ready at its turn, and the claim waits for
    one round-trip fewer than with the recheck sent alone."""
    world = World(BudgetConfig(max_search_queries=1, max_results_per_query=3), frozenset(),
                  initial=["q0"], additional=[], results={"q0": URLS[:3]},
                  unusable=frozenset(),
                  comprehensible=dict.fromkeys(URLS, "yes") | {URLS[0]: "with evidence",
                                                               URLS[1]: "no"},
                  helpful=frozenset(URLS), decisive=None, enough=5, reverse=False)
    executor = ManualExecutor()
    report, agents, searched, acquired = verify(world, executor, EAGER)
    assert [e.payload["scenario"] for e in report.trace.events
            if e.kind is EventKind.SCENARIO_DECISION] == ["d", "d", "b", "b",
                                                           "dropped_after_recheck"]
    # the initial queries, the ranking, three checks, page 2's helpfulness and
    # sufficiency calls, page 0's recheck, helpfulness and sufficiency calls,
    # page 1's recheck and classify
    assert len(agents.calls) == 12
    # the deferred pages' helpfulness calls go unread; page 2's, both
    # rechecks and classify are ready at their turns
    assert [call[0] for call in agents.sent.values()] == (
        ["det_helpful"] * 3 + ["self_contained_check"] * 2 + ["classify"])
    assert [agents.sent[task][0] for task in agents.ready] == [
        "det_helpful", "self_contained_check", "self_contained_check", "classify"]
    assert (serial_round_trips(agents, searched, acquired, executor)
            == len(agents.calls) + len(searched) - 4)


def test_eager_schedule_sends_the_follow_up_call_beside_the_check_before_it():
    """One initial query, follow-ups and a budget of two, one result per
    query, every page helpful, never enough evidence.  The first page's
    sufficiency check is made with no result unread and no query queued,
    so the follow-up query call goes out beside it; the check says no, so
    that reply is ready at its turn.  The follow-up query is the tail, as
    in test_eager_schedule_serial_round_trips.  With k=1 the loop fetches
    each page itself.  The claim waits for one round-trip fewer than with
    the follow-up query call asked in series."""
    world = World(BudgetConfig(max_search_queries=2, max_results_per_query=1), frozenset(),
                  initial=["q0"], additional=["q1"], results={"q0": URLS[:1], "q1": URLS[1:2]},
                  unusable=frozenset(), comprehensible=dict.fromkeys(URLS, "yes"),
                  helpful=frozenset(URLS), decisive=None, enough=5, reverse=False)
    _, sequential, searched, acquired = verify(world)
    executor = ManualExecutor()
    _, agents, ahead_searched, ahead_acquired = verify(world, executor, EAGER)
    assert [text for text, _ in ahead_searched] == ["q0", "q1"]
    assert [call[0] for call in agents.calls] == [
        "initial_query_gen", "self_contained_check", "det_helpful", "sufficient_evidence",
        "additional_query_gen", "self_contained_check", "det_helpful", "sufficient_evidence",
        "classify"]
    assert [call[0] for call in agents.sent.values()] == [
        "additional_query_gen", "det_helpful", "classify"]
    assert [agents.sent[task][0] for task in agents.ready] == [
        "additional_query_gen", "det_helpful", "classify"]
    assert (serial_round_trips(agents, ahead_searched, ahead_acquired, executor)
            == serial_round_trips(sequential, searched, acquired) - 3)


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
    """The claim's report, the chat-completion request bodies its agents
    sent, in the order the LLM stub got them, and the messages of each
    request whose reply an agent read, in the order read."""
    stubs, live = stub_world
    stubs.world = world
    stubs.llm_bodies.clear()
    read = []

    def agents(config, trace):
        suite = live._agent_factory(config, trace)
        complete = suite._complete

        def reading(messages):
            read.append(messages)
            return complete(messages)

        suite._complete = reading
        return ScheduledAgents(suite, executor, list(schedule))

    verifier = Verifier(agent_factory=agents, search=live.search, reader=live.reader)
    verifier._prefetch_pool = executor
    report = verifier.verify(CLAIM, world.config, world.ablations)
    return report, list(stubs.llm_bodies), read


def read_jsonl(report) -> list[str]:
    return report.trace.to_jsonl(normalize_timestamps=True).splitlines()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # stubs read `world`
@given(world=worlds(), schedule=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_every_schedule_sends_the_sequential_loops_prompts(stub_world, world, schedule):
    report, prompts, read = verify_on_stubs(stub_world, world)
    executor = ManualExecutor()
    ahead, ahead_prompts, ahead_read = verify_on_stubs(stub_world, world, executor, schedule)

    assert read_jsonl(ahead) == read_jsonl(report)
    assert ahead_read == read
    assert all(future.done() for future in executor.futures)
    assert set(executor.handed) <= {"acquire_document", "complete"}
    # with nothing sent ahead, the same requests go out in the same order
    assert ahead_prompts == prompts or "complete" in executor.handed
    # every sequential request is sent, and those never read are at most one
    # helpfulness call per page whose first check in the tail said no, plus
    # one more: classify, only when the last deferred page's recheck said
    # yes and its page was added; the follow-up query call, on the final
    # evidence, only when a sufficient check ended the claim with no result
    # unread, no query queued and budget left; any other, only when a
    # sufficient check ended the claim in its tail
    sent, sequential = (Counter(json.dumps(body, sort_keys=True) for body in bodies)
                        for bodies in (ahead_prompts, prompts))
    assert not sequential - sent
    extra = sent - sequential
    classify = sum(n for body, n in extra.items() if "Is the claim true or false" in body)
    follow_ups = [json.loads(body)["messages"][-1]["content"] for body in extra.elements()
                  if "list of new web search queries" in body]
    assert classify <= recovered_last_deferral(report)
    asked = [(e.payload["agent"],) for e in report.trace.events if e.kind is EventKind.AGENT_CALL]
    assert len(follow_ups) <= ended_sufficient_before_follow_ups(
        report, world.config, len(queued(world, asked)))
    for prompt in follow_ups:
        assert StubWorld.NOTE.findall(prompt) == [item.source_url for item in report.evidence]
    assert (sum(extra.values()) <= sum(tail_deferrals(report, world).values())
            + (classify or len(follow_ups) or ended_sufficient_in_tail(report, world.config)))
