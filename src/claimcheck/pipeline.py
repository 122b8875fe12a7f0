"""Iterative verification loop: search, read, judge, defer, classify.

One run walks search results the way a person would: collect queries,
search within a global budget, read each ranked result, and react to one
of four outcomes — enough evidence (stop), helpful (keep a note), useless
(skip), or not understandable yet (defer and retry once at the end, after
the evidence set may have grown).
"""
from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from .agents import AgentSuite, load_prompts
from .llm import LlmGateway
from .model import (
    BudgetConfig,
    Claim,
    Document,
    EvidenceItem,
    EvidenceSet,
    SearchQuery,
    SearchResultMeta,
    Verdict,
)
from .pages import PageReader, Unusable
from .replaystore import AuthRejected, StorageError, TransportError
from .trace import EventKind, RunTrace
from .websearch import DEFAULT_ENDPOINT, SearchClient


class Ablation(Enum):
    RM_SR = "rm-sr"      # skip the result-ranking agent, keep provider order
    RM_SCC = "rm-scc"    # treat every document as comprehensible, never defer


class TerminationReason(Enum):
    SUFFICIENT_EVIDENCE = "sufficient_evidence"
    BUDGET_EXHAUSTED = "budget_exhausted"


class GatewayFatal(Exception):
    """An agent's LLM call failed, or a fixture is missing or unreadable;
    the run cannot continue."""


@dataclass(frozen=True)
class VerdictReport:
    verdict: Verdict
    evidence: EvidenceSet
    trace: RunTrace
    terminated_by: TerminationReason


class Verifier:
    """Wires agents, search, and page reading into the verification loop.
    With a live gateway it keeps the thread pool on which each claim's
    `_ClaimRun` sends pages and LLM calls ahead; its docstring says when."""

    def __init__(
        self,
        gateway: Optional[LlmGateway] = None,
        *,
        search: SearchClient,
        reader: PageReader,
        agent_factory: Optional[Callable[[BudgetConfig, RunTrace], AgentSuite]] = None,
    ) -> None:
        if agent_factory is None:
            if gateway is None:
                raise ValueError("either a gateway or an agent_factory is required")
            prompts = load_prompts()  # once, shared by every claim's agents
            agent_factory = lambda config, trace: AgentSuite(  # noqa: E731
                gateway, config, prompts=prompts, trace=trace
            )
        self._agent_factory = agent_factory
        self.search = search
        self.reader = reader
        # live only (a record run sends only what it reads; a replayed LLM call
        # leaves no wait to hide a fetch or a call behind); long-lived, to keep connections
        self._prefetch_pool = (ThreadPoolExecutor(thread_name_prefix="claimcheck-prefetch")
                               if gateway is not None and gateway.mode == "live" else None)

    def verify(self, claim: Claim, config: Optional[BudgetConfig] = None,
               ablations: frozenset[Ablation] | set[Ablation] = frozenset()) -> VerdictReport:
        return _ClaimRun(self, claim, config or BudgetConfig(), frozenset(ablations)).report()


class _ClaimRun:
    """One claim's loop: its budget, agents and evidence, the decisions made
    so far, and every search and page it sends, takes and logs: each search
    as a search_call, each page as a fetch.  Each query is queued once,
    case-insensitively, and only while the budget has room.  A search runs on
    the loop's thread when the loop reaches its query.  On the Verifier's
    pool, the query's k result pages are then fetched at once, while the
    ranking and the earlier results' agent calls wait; `document` takes a page
    sent ahead, or fetches it on the loop's thread when it has not started.
    With no pool, each page is fetched only when the loop reads it.  Reads
    stay in order: the trace is a sequential run's.

    A claim that stops mid-query has paid for up to k-1 page fetches it
    never reads.

    The send-ahead rule: just before each sufficiency check, `send_ahead`
    puts on the pool the LLM call the loop makes next if the check says no,
    when its prompt is known.  Before the tail that is only the follow-up
    query call, sent when no result of the current query is unread and no
    query is queued (the budget has room): a search or the next result's
    check sent there would cost each claim that stops early.  Once no
    search can follow (`tail`: the budget is spent and no query is queued,
    or the drain has begun), it is the next result's check (its helpfulness
    call under rm-scc) when its page is in and usable, the next deferred
    page's recheck, or classify; with the last deferred page's recheck goes
    classify too, which a "yes" from the check, or a "no" from the check
    and then the recheck, leaves asked on the same evidence.  In the tail,
    just before each check of a page read for the first time goes that
    page's helpfulness call, which a "yes" then takes.  Each answer then
    waits for one round-trip fewer.  Any claim may leave unread one call
    sent beside a sufficiency check: any, when that check says yes, or
    classify, when the last deferred page's recheck says yes and its page
    is added; a claim that reaches its tail may also leave unread one
    helpfulness call for each first check there that says no (at most
    max_results_per_query).  The agents take a reply sent ahead only for
    exactly that request, so prompts, verdicts and the trace stay the
    sequential loop's.

    `report` ends by settling `pages` and the suite's pending requests
    (AgentSuite.ahead): it cancels each task not started and waits for the
    rest, at worst PageReader.TIMEOUT (15 s) for a page and, for a request,
    the gateway's retry policy (4 tries of LlmGateway.TIMEOUT, 60 s, and 7 s
    of back-off), as long as a sequential call may take; all in parallel."""

    def __init__(self, verifier: Verifier, claim: Claim, config: BudgetConfig,
                 ablations: frozenset[Ablation]) -> None:
        self.verifier = verifier
        self.claim = claim
        self.config = config
        self.ablations = ablations
        self.trace = RunTrace()
        self.scope = claim.id or claim.text  # keys every fixture the claim's calls record
        self.agents = verifier._agent_factory(config, self.trace)
        self.agents.scope = self.scope
        self.evidence = EvidenceSet()
        self.deferred: deque[Document] = deque()  # not yet rechecked
        self.tail = False  # no search can follow
        self.sufficient = False
        self.queries: deque[SearchQuery] = deque()
        self.queued: set[str] = set()  # lower-cased texts of every query queued
        self.unread: deque[SearchResultMeta] = deque()  # the current query's, in read order
        self.pages: dict[int, Future] = {}  # by id(result), the pages sent ahead, not yet read

    def report(self) -> VerdictReport:
        try:
            self.queue(self.agents.initial_query_gen(self.claim))
            self.search_loop()
            self.drain_deferred()
            verdict = self.agents.classify(self.claim, self.evidence)
        except (TransportError, StorageError) as exc:
            # _ClaimRun.search caught every search failure but a refused key: the rest are
            # LLM calls and fixtures, and the run cannot go on without them
            raise GatewayFatal(str(exc)) from exc
        finally:
            wait([task for task in (*self.pages.values(), *self.agents.ahead.values())
                  if not task.cancel()])
        terminated_by = (TerminationReason.SUFFICIENT_EVIDENCE if self.sufficient
                         else TerminationReason.BUDGET_EXHAUSTED)
        self.trace.log(EventKind.VERDICT, verdict=verdict.value,
                       terminated_by=terminated_by.value)
        return VerdictReport(verdict=verdict, evidence=self.evidence,
                             trace=self.trace, terminated_by=terminated_by)

    def queue(self, queries: list[SearchQuery]) -> None:
        for query in queries:
            key = query.text.lower()
            if key not in self.queued and len(self.queued) < self.config.max_search_queries:
                self.queued.add(key)
                self.queries.append(query)

    def search_loop(self) -> None:
        while True:
            if not self.queries and len(self.queued) < self.config.max_search_queries:
                self.queue(self.agents.additional_query_gen(self.claim, self.evidence))
            if not self.queries:
                # the budget is spent, or a follow-up reply held no new query:
                # asking again on the same evidence would repeat it
                return
            query = self.queries.popleft()
            self.tail = not self.queries and len(self.queued) >= self.config.max_search_queries
            ranked = self.search(query)
            if len(ranked) > 1 and Ablation.RM_SR not in self.ablations:
                ranked = self.agents.search_rank(query, ranked)
            self.unread = deque(ranked)
            while self.unread:
                self.read(self.unread.popleft())
                if self.sufficient:
                    return

    def read(self, result: SearchResultMeta) -> None:
        try:
            doc = self.document(result)
        except Unusable as exc:
            self.decide(result.url, "unusable", detail=str(exc))
            return
        if Ablation.RM_SCC not in self.ablations:
            if self.tail:
                # a "yes" takes it; a deferred page's recheck sends none,
                # having said no once already
                self.send_ahead("det_helpful", doc)
            if not self.agents.self_contained_check(self.claim, self.evidence, doc):
                self.deferred.append(doc)
                self.decide(result.url, "d")
                return
        self.judge(doc)

    def search(self, query: SearchQuery) -> list[SearchResultMeta]:
        """The query's results, none when its search failed."""
        k, failure = self.config.max_results_per_query, {}
        try:
            results = self.verifier.search.search(query, k, self.scope)
        except AuthRejected:
            raise  # every later search would be refused too
        except TransportError as exc:
            results, failure = [], {"error": str(exc)}
        self.trace.log(EventKind.SEARCH_CALL, query=query.text, k=k,
                       n_results=len(results), **failure)
        pool, reader = self.verifier._prefetch_pool, self.verifier.reader
        if pool is not None:
            self.pages = {id(result): pool.submit(reader.acquire_document, result)
                          for result in results}
        return results

    def document(self, result: SearchResultMeta) -> Document:
        """The result's page, or Unusable."""
        task = self.pages.pop(id(result), None)
        doc = (self.verifier.reader.acquire_document(result) if task is None or task.cancel()
               else task.result())
        self.trace.log(EventKind.FETCH, url=result.url, acquisition=doc.acquisition.value)
        return doc

    def judge(self, doc: Document) -> None:
        """Shared tail of result processing and the deferred drain:
        helpfulness, evidence retention, sufficiency, and the document's
        one scenario decision."""
        judgment = self.agents.det_helpful(self.claim, self.evidence, doc)
        scenario, detail = "c", {}
        if judgment.helpful:
            self.evidence, added = self.evidence.add(
                EvidenceItem(note=judgment.note, source_url=doc.meta.url))
            if not added:
                # a source already in evidence retains nothing new: irrelevant
                detail = {"detail": "already_evidence"}
            else:
                # the loop and the drain judge a document only while evidence is short
                self.send_after_no()
                self.sufficient = self.agents.sufficient_evidence(self.claim, self.evidence)
                scenario = "a" if self.sufficient else "b"
        self.decide(doc.meta.url, scenario, **detail)

    def decide(self, url: str, scenario: str, **detail: str) -> None:
        self.trace.log(EventKind.SCENARIO_DECISION, url=url, scenario=scenario, **detail)

    def send_after_no(self) -> None:
        """Sends ahead the LLM call that follows a "no" from the sufficiency
        check about to be asked, and classify after the last deferred page's
        recheck.  Before the tail only the follow-up query call goes: a
        search or a result's check sent there costs each early stopper."""
        if not self.tail:
            if not self.unread and not self.queries:  # the budget has room
                self.send_ahead("additional_query_gen")
        elif self.unread:
            page = self.pages.get(id(self.unread[0]))
            if page is None or not page.done() or page.exception() is not None:
                return  # the next call waits on its page, or there is none
            agent = ("det_helpful" if Ablation.RM_SCC in self.ablations
                     else "self_contained_check")
            self.send_ahead(agent, page.result())
        elif self.deferred:
            self.send_ahead("self_contained_check", self.deferred[0])
            if len(self.deferred) == 1:
                self.send_ahead("classify")  # rechecks mostly say no
        else:
            self.send_ahead("classify")

    def send_ahead(self, agent: str, *doc: Document) -> None:
        """With a pool, sends `agent`'s call on the current evidence (and
        `doc`) for the agent's next ask to take."""
        pool = self.verifier._prefetch_pool
        if pool is not None:
            self.agents.send_ahead(pool, agent, self.claim, self.evidence, *doc)

    def drain_deferred(self) -> None:
        """Single FIFO pass: re-check each deferred document against the
        grown evidence set; failures are dropped, never re-deferred."""
        self.tail = True
        while self.deferred and not self.sufficient:
            doc = self.deferred.popleft()
            if self.agents.self_contained_check(self.claim, self.evidence, doc):
                self.judge(doc)
            else:
                self.decide(doc.meta.url, "dropped_after_recheck")


def build_verifier(mode: str, fixtures: Optional[str | Path] = None, *,
                   llm_base_url: Optional[str] = None, llm_api_key: Optional[str] = None,
                   search_endpoint: Optional[str] = None, search_api_key: Optional[str] = None,
                   search_rps: float = SearchClient.REQUESTS_PER_SECOND,
                   llm_sleep: Callable[[float], None] = time.sleep,
                   search_sleep: Callable[[float], None] = time.sleep) -> Verifier:
    """The verification loop over an LLM gateway and a search client, both in
    ``mode`` (live, record or replay) with their fixtures in ``<fixtures>/llm``
    and ``<fixtures>/search``, and a page reader that obeys robots.txt.  The
    one place the clients are wired.  ValueError for a configuration a client
    refuses."""
    root = Path(fixtures) if fixtures else None
    gateway = LlmGateway(mode, base_url=llm_base_url, api_key=llm_api_key,
                         fixture_dir=str(root / "llm") if root else None, sleep=llm_sleep)
    search = SearchClient(mode, endpoint=search_endpoint or DEFAULT_ENDPOINT,
                          api_key=search_api_key,
                          fixture_dir=str(root / "search") if root else None,
                          requests_per_second=search_rps, sleep=search_sleep)
    return Verifier(gateway=gateway, search=search, reader=PageReader(respect_robots=True))
