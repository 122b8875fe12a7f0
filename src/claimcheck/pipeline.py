"""Iterative verification loop: search, read, judge, defer, classify.

One run walks search results the way a person would: collect queries,
search within a global budget, read each ranked result, and react to one
of four outcomes — enough evidence (stop), helpful (keep a note), useless
(skip), or not understandable yet (defer and retry once at the end, after
the evidence set may have grown).
"""
from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, TypeVar

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
from .replaystore import StorageError, TransportError
from .trace import EventKind, RunTrace
from .websearch import SearchClient


T = TypeVar("T")


class Ablation(Enum):
    RM_SR = "rm-sr"      # skip the result-ranking agent, keep provider order
    RM_SCC = "rm-scc"    # treat every document as comprehensible, never defer


class TerminationReason(Enum):
    SUFFICIENT_EVIDENCE = "sufficient_evidence"
    BUDGET_EXHAUSTED = "budget_exhausted"


class GatewayFatal(Exception):
    """An agent's LLM call failed, or a fixture is missing or unreadable;
    the run cannot continue."""


@dataclass
class PipelineState:
    claim: Claim
    trace: RunTrace
    ablations: frozenset[Ablation] = frozenset()
    evidence: EvidenceSet = field(default_factory=EvidenceSet)
    pending_queries: deque[SearchQuery] = field(default_factory=deque)
    deferred: list[Document] = field(default_factory=list)
    issued_query_texts: set[str] = field(default_factory=set)
    sufficient: bool = False


@dataclass(frozen=True)
class VerdictReport:
    verdict: Verdict
    evidence: EvidenceSet
    trace: RunTrace
    terminated_by: TerminationReason


class Verifier:
    """Wires agents, search, and page reading into the verification loop.
    With a live gateway it keeps a thread pool on which each claim's
    `_Lookahead` fetches ahead of need; that docstring says when and at
    what cost."""

    def __init__(
        self,
        gateway: Optional[LlmGateway] = None,
        *,
        search: SearchClient,
        reader: PageReader,
        agent_factory: Optional[Callable[[BudgetConfig, RunTrace], AgentSuite]] = None,
        clock: Callable[[], float] = time.time,
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
        self.clock = clock
        # live only (a record run fetches only what it reads; a replayed LLM call
        # leaves no wait to hide a fetch behind); long-lived, to keep connections
        self._prefetch_pool = (ThreadPoolExecutor(thread_name_prefix="claimcheck-prefetch")
                               if gateway is not None and gateway.mode == "live" else None)

    def verify(
        self,
        claim: Claim,
        config: Optional[BudgetConfig] = None,
        ablations: frozenset[Ablation] | set[Ablation] = frozenset(),
    ) -> VerdictReport:
        config = config or BudgetConfig()
        trace = RunTrace(self.clock)
        agents = self._agent_factory(config, trace)
        state = PipelineState(claim=claim, trace=trace, ablations=frozenset(ablations))
        try:
            state.pending_queries.extend(agents.initial_query_gen(claim))
            self._search_loop(agents, state, config)
            self._drain_deferred(agents, state)
            verdict = agents.classify(claim, state.evidence)
        except (TransportError, StorageError) as exc:
            # _Lookahead already caught search failures: this is an agent's
            # LLM call or the fixtures, and the run cannot go on without them
            raise GatewayFatal(str(exc)) from exc
        terminated_by = (
            TerminationReason.SUFFICIENT_EVIDENCE
            if state.sufficient
            else TerminationReason.BUDGET_EXHAUSTED
        )
        trace.log(EventKind.VERDICT, verdict=verdict.value,
                  terminated_by=terminated_by.value)
        return VerdictReport(verdict=verdict, evidence=state.evidence,
                             trace=trace, terminated_by=terminated_by)

    # -- main loop ------------------------------------------------------

    def _search_loop(self, agents: AgentSuite, state: PipelineState,
                     config: BudgetConfig) -> None:
        k = config.max_results_per_query
        lookahead = _Lookahead(self._prefetch_pool, self.search, self.reader, k)
        try:
            while len(state.issued_query_texts) < config.max_search_queries:
                if self._next_query(state, config) is None:
                    state.pending_queries.extend(
                        agents.additional_query_gen(state.claim, state.evidence))
                    # a reply of issued queries ends the loop, where asking
                    # again on the same evidence would repeat it
                    if self._next_query(state, config) is None:
                        return
                query = state.pending_queries.popleft()
                state.issued_query_texts.add(query.text.lower())
                results, failure = lookahead.search(query)
                state.trace.log(EventKind.SEARCH_CALL, query=query.text, k=k,
                                n_results=len(results), **failure)
                ranked = results
                if len(results) > 1 and Ablation.RM_SR not in state.ablations:
                    ranked = agents.search_rank(query, results)
                for i, result in enumerate(ranked):
                    if i == len(ranked) - 1:
                        lookahead.hint_search(self._next_query(state, config))
                    self._process_result(agents, state, lookahead, result)
                    if state.sufficient:
                        return
        finally:
            for query, results, failure in lookahead.close():
                state.trace.log(EventKind.SEARCH_CALL, query=query.text, k=k,
                                n_results=len(results), unread=True, **failure)

    @staticmethod
    def _next_query(state: PipelineState, config: BudgetConfig) -> Optional[SearchQuery]:
        """The query the loop pops next: the first pending one not yet
        issued, once those before it are dropped; None when there is none
        or the budget is spent.  Until the loop pops it, nothing changes it."""
        if len(state.issued_query_texts) >= config.max_search_queries:
            return None
        pending = state.pending_queries
        while pending and pending[0].text.lower() in state.issued_query_texts:
            pending.popleft()
        return pending[0] if pending else None

    # -- per-result scenario dispatch ------------------------------------

    def _process_result(self, agents: AgentSuite, state: PipelineState,
                        lookahead: _Lookahead, result: SearchResultMeta) -> None:
        try:
            doc = lookahead.document(result)
        except Unusable as exc:
            state.trace.log(EventKind.SCENARIO_DECISION, url=result.url,
                            scenario="unusable", detail=str(exc))
            return
        state.trace.log(EventKind.FETCH, url=result.url,
                        acquisition=doc.acquisition.value)
        if (Ablation.RM_SCC not in state.ablations
                and not agents.self_contained_check(state.claim, state.evidence, doc)):
            state.deferred.append(doc)
            state.trace.log(EventKind.SCENARIO_DECISION, url=result.url, scenario="d")
            return
        self._judge_document(agents, state, doc)

    def _judge_document(self, agents: AgentSuite, state: PipelineState,
                        doc: Document) -> None:
        """Shared tail of result processing and the deferred drain:
        helpfulness, evidence retention, sufficiency, and the document's
        one scenario decision."""
        judgment = agents.det_helpful(state.claim, state.evidence, doc)
        scenario, detail = "c", {}
        if judgment.helpful:
            state.evidence, added = state.evidence.add(
                EvidenceItem(note=judgment.note, source_url=doc.meta.url))
            if not added:
                # a source already in evidence retains nothing new: irrelevant
                detail = {"detail": "already_evidence"}
            else:
                # the loop and the drain judge a document only while evidence is short
                state.sufficient = agents.sufficient_evidence(state.claim, state.evidence)
                scenario = "a" if state.sufficient else "b"
        state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url, scenario=scenario,
                        **detail)

    # -- end-of-run drain --------------------------------------------------

    def _drain_deferred(self, agents: AgentSuite, state: PipelineState) -> None:
        """Single FIFO pass: re-check each deferred document against the
        grown evidence set; failures are dropped, never re-deferred."""
        for doc in state.deferred:
            if state.sufficient:
                break
            if not agents.self_contained_check(state.claim, state.evidence, doc):
                state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url,
                                scenario="dropped_after_recheck")
                continue
            self._judge_document(agents, state, doc)


class _Lookahead:
    """Every request one claim sends ahead of need, on the Verifier's pool;
    with no pool, each call runs only when the loop asks for it.
    - A query's k result pages are fetched as soon as its search returns,
      while the ranking and the earlier results' agent calls wait.
    - `hint_search`, called as the loop starts on a query's last result,
      sends the next query's search, then its pages unless the claim has
      ended by the time it returns.
    - `search` and `document` take what was sent ahead, or run the call on
      the loop's thread when it was not sent or has not started.
    Reads stay in order: the trace is a sequential run's but for unread searches.

    A claim that stops mid-query has paid for up to k-1 unread page fetches;
    one that stops on a query's last result, also for an unread search
    (`close` returns it for the trace) and its k page fetches if it returned
    before the claim stopped.  `close` waits for what has started but stops
    retries and prefetches: at worst one search try (SearchClient.TIMEOUT,
    30 s) after its rate-limit wait, which queues behind other threads'
    searches; a back-off sleep (4 s); or page fetches (PageReader.TIMEOUT,
    15 s, in parallel).  RecordedClient has the rest of the per-try policy.
    """

    def __init__(self, pool: Optional[ThreadPoolExecutor], search: SearchClient,
                 reader: PageReader, k: int) -> None:
        self._pool = pool
        self._search = search
        self._reader = reader
        self._k = k
        self._ended = threading.Event()  # set by close(): a read-ahead stops there
        self._ahead: dict[SearchQuery, Future] = {}
        self._pages: dict[int, Future] = {}  # by id(result), of the results in use

    def hint_search(self, query: Optional[SearchQuery]) -> None:
        if self._pool is not None and query is not None:
            self._ahead[query] = self._pool.submit(self._search_and_prefetch, query)

    def search(self, query: SearchQuery) -> tuple[list[SearchResultMeta], dict]:
        """The query's results and the search_call payload of its failure."""
        results, failure, self._pages = self._run_or_take(
            self._ahead.pop(query, None), lambda: self._search_and_prefetch(query))
        return results, failure

    def document(self, result: SearchResultMeta) -> Document:
        return self._run_or_take(self._pages.pop(id(result), None),
                                 lambda: self._reader.acquire_document(result))

    def close(self) -> list[tuple[SearchQuery, list[SearchResultMeta], dict]]:
        """Cancel what has not started and wait for the rest.  Returns each search
        sent but not taken, as (query, results, failure), with any error in failure."""
        self._ended.set()
        self._settle(self._pages)
        unread = []
        for query, task in self._ahead.items():
            if not task.cancel():
                error = task.exception()
                results, failure, pages = (
                    ([], {"error": str(error)}, {}) if error else task.result())
                self._settle(pages)
                unread.append((query, results, failure))
        return unread

    def _search_and_prefetch(self, query: SearchQuery
                             ) -> tuple[list[SearchResultMeta], dict, dict[int, Future]]:
        failure = {}
        try:
            results = self._search.search(query, self._k, self._ended)
        except TransportError as exc:
            results, failure = [], {"error": str(exc)}
        pages = {} if self._pool is None or self._ended.is_set() else {
            id(result): self._pool.submit(self._reader.acquire_document, result)
            for result in results}
        return results, failure, pages

    @staticmethod
    def _run_or_take(task: Optional[Future], run: Callable[[], T]) -> T:
        return run() if task is None or task.cancel() else task.result()

    @staticmethod
    def _settle(tasks: dict[int, Future]) -> None:
        wait([f for f in tasks.values() if not f.cancel()])
