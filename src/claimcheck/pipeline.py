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
from .replaystore import FixtureMiss, StorageError, TransportError
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

    With a live gateway, a query's result pages are fetched on a thread
    pool as soon as the search returns, while the ranking and the earlier
    results' agent calls wait on the LLM; they are still read in ranked
    order.  When the loop starts on a query's last result, and the budget
    allows another query and one is pending, that query's search (and
    then its pages' prefetch) is read ahead on the same pool while the
    last result is judged; the loop takes it when it pops the query.  So
    a claim that stops mid-query has fetched up to k-1 pages it never
    reads, and one that stops on a query's last result has also paid for
    one search it never reads, plus up to k page fetches if that search
    returned before the claim stopped: that search is logged as a
    search_call with ``unread``.  Before it returns, the claim waits for
    that search's try in flight (up to SearchClient.TIMEOUT) or back-off
    sleep, or for the page fetches it started; the search is not retried
    once the claim has stopped.  Replayed LLM calls leave no wait to hide a
    fetch behind, and a record run fetches only what it reads, so neither
    prefetches nor reads ahead.
    """

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
        # long-lived, so its threads keep their keep-alive connections; they
        # end when the Verifier is dropped
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
        except (TransportError, FixtureMiss, StorageError) as exc:
            # _search_and_prefetch already caught search failures: this is an
            # agent's LLM call or the fixtures, and the run cannot go on without them
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
        # (query, task): the search of the query popped next, read ahead on the pool
        ahead: Optional[tuple[SearchQuery, Future]] = None
        ended = threading.Event()  # set when the loop ends: a read-ahead stops there
        try:
            while len(state.issued_query_texts) < config.max_search_queries:
                if self._next_query(state) is None:
                    # only unissued proposals: a reply of issued queries ends the
                    # loop, where asking again on the same evidence would repeat it
                    state.pending_queries.extend(
                        q for q in agents.additional_query_gen(state.claim, state.evidence)
                        if q.text.lower() not in state.issued_query_texts)
                    if not state.pending_queries:
                        return
                query = state.pending_queries.popleft()
                state.issued_query_texts.add(query.text.lower())
                # nothing changes the pending queries between a read-ahead and
                # this pop, so a read-ahead is always of this query
                task = ahead[1] if ahead else None
                ahead = None
                results, failure, prefetches = self._run_or_take(
                    task, lambda: self._search_and_prefetch(query, k, ended))
                state.trace.log(EventKind.SEARCH_CALL, query=query.text, k=k,
                                n_results=len(results), **failure)
                try:
                    ranked = results
                    if len(results) > 1 and Ablation.RM_SR not in state.ablations:
                        ranked = agents.search_rank(query, results)
                    for i, result in enumerate(ranked):
                        if i == len(ranked) - 1:
                            ahead = self._read_ahead(state, config, ended)
                        self._process_result(agents, state, result,
                                             prefetches.pop(id(result), None))
                        if state.sufficient:
                            return
                finally:
                    self._settle(prefetches)
        finally:
            # a read-ahead not started is cancelled; one that ran billed a
            # search, which the trace counts, and its prefetches end here.
            # Its own error is logged, never raised over the claim's outcome
            # or an exception in flight.
            ended.set()
            if ahead is not None and not ahead[1].cancel():
                error = ahead[1].exception()
                results, failure, prefetches = (
                    ([], {"error": str(error)}, {}) if error else ahead[1].result())
                self._settle(prefetches)
                state.trace.log(EventKind.SEARCH_CALL, query=ahead[0].text, k=k,
                                n_results=len(results), unread=True, **failure)

    @staticmethod
    def _next_query(state: PipelineState) -> Optional[SearchQuery]:
        """The query the loop pops next: the first pending one not yet
        issued, once those before it are dropped; None when there is none."""
        pending = state.pending_queries
        while pending and pending[0].text.lower() in state.issued_query_texts:
            pending.popleft()
        return pending[0] if pending else None

    def _search_and_prefetch(
        self, query: SearchQuery, k: int, ended: threading.Event
    ) -> tuple[list[SearchResultMeta], dict, dict[int, Future]]:
        """The query's results, the search_call payload of its failure (empty
        if none), and the prefetches of its results' pages.  Once the loop
        has `ended` it reads nothing of this query: the search is not
        retried and no page is prefetched."""
        failure = {}
        try:
            results = self.search.search(query, k, ended)
        except TransportError as exc:
            results, failure = [], {"error": str(exc)}
        # keyed by id(result): `results` keeps every key's object alive
        return results, failure, {} if ended.is_set() else self._prefetch(results)

    # -- read-ahead and page prefetch (live mode) ---------------------------

    def _read_ahead(self, state: PipelineState, config: BudgetConfig,
                    ended: threading.Event) -> Optional[tuple[SearchQuery, Future]]:
        """The next query's search, submitted to the pool when the gateway is
        live, the budget allows another query and one is pending."""
        if (self._prefetch_pool is None
                or len(state.issued_query_texts) >= config.max_search_queries):
            return None
        query = self._next_query(state)
        if query is None:
            return None
        return query, self._prefetch_pool.submit(
            self._search_and_prefetch, query, config.max_results_per_query, ended)

    def _prefetch(self, results: list[SearchResultMeta]) -> dict[int, Future]:
        """id(result) -> the result's document being acquired on the pool;
        empty unless the gateway is live."""
        if self._prefetch_pool is None:
            return {}
        return {id(result): self._prefetch_pool.submit(self.reader.acquire_document, result)
                for result in results}

    @staticmethod
    def _run_or_take(task: Optional[Future], run: Callable[[], T]) -> T:
        """The result of a pool task; one that is absent or not started (the
        pool is busy) is cancelled and run on this thread instead."""
        return run() if task is None or task.cancel() else task.result()

    @staticmethod
    def _settle(prefetches: dict[int, Future]) -> None:
        """Cancel the unread prefetches not started and wait for the running
        ones, so that no fetch outlives its claim."""
        wait([f for f in prefetches.values() if not f.cancel()])

    # -- per-result scenario dispatch ------------------------------------

    def _process_result(self, agents: AgentSuite, state: PipelineState,
                        result: SearchResultMeta, prefetch: Optional[Future]) -> None:
        try:
            doc = self._run_or_take(prefetch, lambda: self.reader.acquire_document(result))
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
