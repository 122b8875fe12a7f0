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
from dataclasses import dataclass, field
from enum import Enum
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
from .replaystore import FixtureMiss, StorageError, TransportError
from .trace import EventKind, RunTrace
from .websearch import SearchClient


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
    order.  A claim that stops mid-query has fetched up to k-1 pages it
    never reads.  Replayed LLM calls leave no wait to hide a fetch behind,
    and a record run fetches only what it reads, so neither prefetches.
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
            if not state.sufficient:
                self._drain_deferred(agents, state)
            verdict = agents.classify(claim, state.evidence)
        except (TransportError, FixtureMiss, StorageError) as exc:
            # _do_search already caught search failures: this is an agent's
            # LLM call or the fixtures, and the run cannot proceed without them
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
        while True:
            while state.pending_queries and not state.sufficient:
                query = state.pending_queries.popleft()
                if query.text.lower() in state.issued_query_texts:
                    continue
                if len(state.issued_query_texts) >= config.max_search_queries:
                    return
                state.issued_query_texts.add(query.text.lower())
                results = self._do_search(state, query, config.max_results_per_query)
                # keyed by id(result): `results` keeps every key's object alive
                prefetches = self._prefetch(results)
                try:
                    ranked = results
                    if len(results) > 1 and Ablation.RM_SR not in state.ablations:
                        ranked = agents.search_rank(query, results)
                    for result in ranked:
                        self._process_result(agents, state, result,
                                             prefetches.pop(id(result), None))
                        if state.sufficient:
                            return
                finally:
                    # cancel the unread prefetches not started and wait for the
                    # running ones, so that no fetch outlives its claim
                    wait([f for f in prefetches.values() if not f.cancel()])
            remaining = config.max_search_queries - len(state.issued_query_texts)
            if state.sufficient or remaining == 0:
                return
            extra = agents.additional_query_gen(
                state.claim, state.evidence, state.issued_query_texts, remaining,
            )
            if not extra:
                return
            state.pending_queries.extend(extra)

    def _do_search(self, state: PipelineState, query: SearchQuery,
                   k: int) -> list[SearchResultMeta]:
        try:
            results = self.search.search(query, k)
            state.trace.log(EventKind.SEARCH_CALL, query=query.text,
                            k=k, n_results=len(results))
            return results
        except TransportError as exc:
            state.trace.log(EventKind.SEARCH_CALL, query=query.text, k=k,
                            n_results=0, error=str(exc))
            return []

    # -- page prefetch (live mode) ----------------------------------------

    def _prefetch(self, results: list[SearchResultMeta]) -> dict[int, Future]:
        """id(result) -> the result's document being acquired on the pool;
        empty unless the gateway is live."""
        if self._prefetch_pool is None:
            return {}
        return {id(result): self._prefetch_pool.submit(self.reader.acquire_document, result)
                for result in results}

    # -- per-result scenario dispatch ------------------------------------

    def _process_result(self, agents: AgentSuite, state: PipelineState,
                        result: SearchResultMeta, prefetch: Optional[Future]) -> None:
        try:
            # a prefetch that has not started (the pool is busy) is fetched here
            if prefetch is None or prefetch.cancel():
                doc = self.reader.acquire_document(result)
            else:
                doc = prefetch.result()
        except Unusable as exc:
            state.trace.log(EventKind.SCENARIO_DECISION, url=result.url,
                            scenario="unusable", detail=str(exc))
            return
        state.trace.log(EventKind.FETCH, url=result.url,
                        acquisition=doc.acquisition.value)
        if Ablation.RM_SCC in state.ablations:
            comprehensible = True
        else:
            comprehensible = agents.self_contained_check(state.claim, state.evidence, doc)
        if not comprehensible:
            state.deferred.append(doc)
            state.trace.log(EventKind.DEFERRED, url=result.url)
            state.trace.log(EventKind.SCENARIO_DECISION, url=result.url, scenario="d")
            return
        self._judge_document(agents, state, doc)

    def _judge_document(self, agents: AgentSuite, state: PipelineState,
                        doc: Document) -> None:
        """Shared tail of result processing and the deferred drain:
        helpfulness, evidence retention, sufficiency."""
        judgment = agents.det_helpful(state.claim, state.evidence, doc)
        if not judgment.helpful:
            state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url, scenario="c")
            return
        item = EvidenceItem(note=judgment.note, source_url=doc.meta.url,
                            source_title=doc.meta.title)
        state.evidence, added = state.evidence.add(item)
        state.trace.log(EventKind.EVIDENCE_ADDED, url=doc.meta.url, added=added)
        if not added:
            # duplicate source: nothing new retained, treat as irrelevant
            state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url, scenario="c")
            return
        if agents.sufficient_evidence(state.claim, state.evidence):
            state.sufficient = True
            state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url, scenario="a")
        else:
            state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url, scenario="b")

    # -- end-of-run drain --------------------------------------------------

    def _drain_deferred(self, agents: AgentSuite, state: PipelineState) -> None:
        """Single FIFO pass: re-check each deferred document against the
        grown evidence set; failures are dropped, never re-deferred."""
        for doc in state.deferred:
            if state.sufficient:
                break
            comprehensible = agents.self_contained_check(state.claim, state.evidence, doc)
            if not comprehensible:
                state.trace.log(EventKind.SCENARIO_DECISION, url=doc.meta.url,
                                scenario="dropped_after_recheck")
                continue
            self._judge_document(agents, state, doc)
        state.deferred.clear()
