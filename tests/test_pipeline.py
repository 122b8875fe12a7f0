import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.agents import HelpfulnessJudgment
from claimcheck.model import BudgetConfig, Claim, Verdict
from claimcheck.pipeline import Ablation, TerminationReason, Verifier
from claimcheck.replaystore import TransportError
from claimcheck.trace import EventKind
from claimcheck.websearch import SearchClient

from conftest import FakeReader, FakeSearch, ScriptedAgents, make_result

CLAIM = Claim(text="X was founded in 1998")


def build(agents, worlds=None, unusable=None, bodies=None):
    search = FakeSearch(worlds or {})
    reader = FakeReader(bodies=bodies, unusable=unusable)
    verifier = Verifier(agent_factory=lambda config, trace: agents,
                        search=search, reader=reader, clock=lambda: 0.0)
    return verifier, search, reader


def world(query, n, prefix="r"):
    return {query: [make_result(f"https://{prefix}{i}.example/{query.replace(' ', '-')}")
                    for i in range(n)]}


class TestVerifyExamples:
    def test_first_result_decisive_stops_after_one_search(self):
        agents = ScriptedAgents(initial=["q1", "q2"], sufficient=True)
        verifier, search, _ = build(agents, world("q1", 2) | world("q2", 2))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert len(search.calls) == 1
        assert agents.calls["classify"] == 1
        assert len(report.evidence) == 1

    def test_all_unhelpful_exhausts_budget_of_four(self):
        agents = ScriptedAgents(
            initial=["q1", "q2", "q3", "q4"],
            helpful=HelpfulnessJudgment(False),
        )
        worlds = {}
        for q in ("q1", "q2", "q3", "q4"):
            worlds |= world(q, 2)
        verifier, search, _ = build(agents, worlds)
        report = verifier.verify(CLAIM, BudgetConfig())
        assert len(search.calls) == 4
        assert report.terminated_by is TerminationReason.BUDGET_EXHAUSTED
        assert agents.calls["classify"] == 1
        assert len(report.evidence) == 0

    def test_deferred_flips_after_memory_bank_grows(self):
        # result 1 (contextless) is deferred; result 2 adds evidence; the
        # drain re-check of result 1 now passes and is decisive.
        contextless = "https://r0.example/q1"

        def scc(claim, evidence, doc):
            if doc.meta.url == contextless:
                return len(evidence) > 0
            return True

        def helpful(claim, evidence, doc):
            return HelpfulnessJudgment(True, f"note from {doc.meta.url}")

        def sufficient(claim, evidence):
            return any(i.source_url == contextless for i in evidence)

        agents = ScriptedAgents(initial=["q1"], scc=scc, helpful=helpful,
                                sufficient=sufficient, verdict=Verdict.TRUE)
        verifier, search, _ = build(agents, world("q1", 2))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert report.verdict is Verdict.TRUE
        # deferred document was re-evaluated exactly once (2 checks total)
        assert agents.scc_urls.count(contextless) == 2
        assert [i.source_url for i in report.evidence][-1] == contextless


class TestScenarioDispatch:
    def one_result_run(self, agents, **kwargs):
        verifier, search, reader = build(agents, world("q1", 1), **kwargs)
        return verifier.verify(CLAIM, BudgetConfig()), search, reader

    def test_scenario_d_defers(self):
        agents = ScriptedAgents(initial=["q1"], scc=False)
        report, _, _ = self.one_result_run(agents)
        deferred = report.trace.of_kind(EventKind.DEFERRED)
        assert len(deferred) == 1
        assert len(report.evidence) == 0
        # drain re-checked it once more, still unreadable, dropped
        assert agents.calls["self_contained_check"] == 2

    def test_scenario_c_skips(self):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False))
        report, _, _ = self.one_result_run(agents)
        assert len(report.evidence) == 0
        scenarios = [e.payload["scenario"]
                     for e in report.trace.of_kind(EventKind.SCENARIO_DECISION)]
        assert "c" in scenarios

    def test_scenario_a_adds_and_stops(self):
        agents = ScriptedAgents(initial=["q1"], sufficient=True)
        report, _, _ = self.one_result_run(agents)
        assert len(report.evidence) == 1
        scenarios = [e.payload["scenario"]
                     for e in report.trace.of_kind(EventKind.SCENARIO_DECISION)]
        assert scenarios[-1] == "a"

    def test_unusable_result_skipped(self):
        agents = ScriptedAgents(initial=["q1"])
        verifier, search, _ = build(
            agents, world("q1", 1), unusable={"https://r0.example/q1"})
        report = verifier.verify(CLAIM, BudgetConfig())
        assert agents.calls["self_contained_check"] == 0
        assert len(report.evidence) == 0

    def test_duplicate_evidence_url_not_readded(self):
        agents = ScriptedAgents(
            initial=["q1", "q2"],
            helpful=lambda c, e, d: HelpfulnessJudgment(True, "same note"),
        )
        # both queries return the same URL
        result = make_result("https://same.example/page")
        verifier, _, _ = build(agents, {"q1": [result], "q2": [result]})
        report = verifier.verify(CLAIM, BudgetConfig())
        assert len(report.evidence) == 1
        added_flags = [e.payload["added"]
                       for e in report.trace.of_kind(EventKind.EVIDENCE_ADDED)]
        assert added_flags == [True, False]


class TestDrainDeferred:
    def test_empty_deferred_is_noop(self):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False))
        verifier, _, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.trace.count(EventKind.DEFERRED) == 0

    def test_decisive_first_deferred_stops_drain(self):
        # two results, both deferred in the loop; in the drain the first
        # becomes readable and decisive, the second is never re-evaluated.
        first, second = "https://r0.example/q1", "https://r1.example/q1"
        in_drain = {"flag": False}

        def scc(claim, evidence, doc):
            return in_drain["flag"]

        def helpful(claim, evidence, doc):
            return HelpfulnessJudgment(True, "decisive")

        agents = ScriptedAgents(initial=["q1"], scc=scc, helpful=helpful,
                                sufficient=True)
        verifier, _, _ = build(agents, world("q1", 2))

        orig_drain = verifier._drain_deferred

        def drain(agents_arg, state):
            in_drain["flag"] = True
            orig_drain(agents_arg, state)

        verifier._drain_deferred = drain
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        # loop: both checked; drain: only the first re-checked
        assert agents.scc_urls == [first, second, first]

    def test_failed_recheck_dropped_not_redeferred(self):
        agents = ScriptedAgents(initial=["q1"], scc=False)
        verifier, _, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        # exactly one deferral event despite two failed checks
        assert report.trace.count(EventKind.DEFERRED) == 1
        assert agents.calls["self_contained_check"] == 2


class TestBudgetAndQueries:
    def test_each_search_requests_max_results_per_query(self):
        agents = ScriptedAgents(initial=["q1", "q2"], helpful=HelpfulnessJudgment(False))
        verifier, search, _ = build(agents, world("q1", 3) | world("q2", 3))
        verifier.verify(CLAIM, BudgetConfig(max_results_per_query=3))
        assert all(k == 3 for _, k in search.calls)

    def test_additional_queries_share_global_budget(self):
        agents = ScriptedAgents(
            initial=["q1"],
            helpful=HelpfulnessJudgment(True, "note"),
            additional=["q2", "q3", "q4", "q5"],
        )
        worlds = {}
        for q in ("q1", "q2", "q3", "q4", "q5"):
            worlds |= world(q, 1)
        verifier, search, _ = build(agents, worlds)
        verifier.verify(CLAIM, BudgetConfig(max_search_queries=4))
        assert len(search.calls) == 4

    def test_additional_gen_not_called_after_exhaustion(self):
        agents = ScriptedAgents(initial=["q1", "q2", "q3", "q4"],
                                helpful=HelpfulnessJudgment(False),
                                additional=["q5"])
        worlds = {}
        for q in ("q1", "q2", "q3", "q4"):
            worlds |= world(q, 1)
        verifier, _, _ = build(agents, worlds)
        verifier.verify(CLAIM, BudgetConfig(max_search_queries=4))
        assert agents.calls["additional_query_gen"] == 0

    def test_empty_additional_ends_run(self):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False),
                                additional=[])
        verifier, search, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert len(search.calls) == 1
        assert report.terminated_by is TerminationReason.BUDGET_EXHAUSTED

    def test_duplicate_pending_query_not_reissued(self):
        agents = ScriptedAgents(initial=["q1", "Q1"], helpful=HelpfulnessJudgment(False))
        verifier, search, _ = build(agents, world("q1", 1))
        verifier.verify(CLAIM, BudgetConfig())
        assert len(search.calls) == 1

    def test_search_errors_are_nonfatal(self):
        class ExplodingSearch:
            def __init__(self):
                self.calls = 0

            def search(self, query, k):
                self.calls += 1
                raise TransportError("boom")

        agents = ScriptedAgents(initial=["q1", "q2"])
        search = ExplodingSearch()
        verifier = Verifier(agent_factory=lambda c, t: agents, search=search,
                            reader=FakeReader(), clock=lambda: 0.0)
        report = verifier.verify(CLAIM, BudgetConfig())
        assert search.calls == 2
        assert report.trace.completed

    def test_live_search_client_failure_is_nonfatal(self):
        attempts = []

        def rate_limited(url, headers, payload, timeout):
            attempts.append(payload["q"])
            return 429, ""

        search = SearchClient(mode="live", transport=rate_limited,
                              sleep=lambda s: None, requests_per_second=0)
        verifier = Verifier(agent_factory=lambda c, t: ScriptedAgents(initial=["q1"]),
                            search=search, reader=FakeReader(), clock=lambda: 0.0)
        report = verifier.verify(CLAIM, BudgetConfig())
        assert attempts == ["q1"] * 4
        assert report.trace.count(EventKind.VERDICT) == 1
        (event,) = report.trace.of_kind(EventKind.SEARCH_CALL)
        assert event.payload["n_results"] == 0
        assert "HTTP 429" in event.payload["error"]

    @given(n=st.integers(min_value=0, max_value=12), cap=st.integers(min_value=1, max_value=6))
    def test_searches_are_min_of_queries_and_cap(self, n, cap):
        queries = [f"q{i}" for i in range(n)]
        agents = ScriptedAgents(initial=queries, helpful=HelpfulnessJudgment(False))
        worlds = {}
        for q in queries:
            worlds |= world(q, 1)
        verifier, search, _ = build(agents, worlds)
        report = verifier.verify(CLAIM, BudgetConfig(max_search_queries=cap))
        assert len(search.calls) == min(n, cap)
        assert report.trace.count(EventKind.SEARCH_CALL) == min(n, cap)


class TestAblations:
    def worlds(self):
        return world("q1", 2) | world("q2", 2)

    def test_rm_sr_never_calls_search_rank(self):
        agents = ScriptedAgents(initial=["q1", "q2"], helpful=HelpfulnessJudgment(False))
        verifier, _, _ = build(agents, self.worlds())
        verifier.verify(CLAIM, BudgetConfig(), ablations={Ablation.RM_SR})
        assert agents.calls["search_rank"] == 0

    def test_rm_scc_never_checks_and_never_defers(self):
        agents = ScriptedAgents(initial=["q1", "q2"], scc=False,
                                helpful=HelpfulnessJudgment(False))
        verifier, _, _ = build(agents, self.worlds())
        report = verifier.verify(CLAIM, BudgetConfig(), ablations={Ablation.RM_SCC})
        assert agents.calls["self_contained_check"] == 0
        assert report.trace.count(EventKind.DEFERRED) == 0

    def test_without_ablation_rank_is_used(self):
        agents = ScriptedAgents(initial=["q1"], rank="reverse",
                                helpful=HelpfulnessJudgment(False))
        verifier, _, reader = build(agents, world("q1", 2))
        verifier.verify(CLAIM, BudgetConfig())
        assert agents.calls["search_rank"] == 1
        assert reader.acquired == ["https://r1.example/q1", "https://r0.example/q1"]


class TestTraceContract:
    def test_exactly_one_verdict_event_and_last(self):
        agents = ScriptedAgents(initial=["q1"], sufficient=True)
        verifier, _, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.trace.completed

    def test_gateway_fatal_on_auth_error(self):
        from claimcheck.pipeline import GatewayFatal

        class AuthFailingAgents(ScriptedAgents):
            def initial_query_gen(self, claim):
                raise TransportError("HTTP 401 from http://llm.invalid/chat/completions")

        verifier, _, _ = build(AuthFailingAgents(), {})
        with pytest.raises(GatewayFatal):
            verifier.verify(CLAIM, BudgetConfig())

    def test_gateway_fatal_on_persistent_llm_transport_error(self):
        from claimcheck.llm import TransportError
        from claimcheck.pipeline import GatewayFatal

        class DeadEndpointAgents(ScriptedAgents):
            def classify(self, claim, evidence):
                raise TransportError("gave up after retries")

        verifier, _, _ = build(DeadEndpointAgents(initial=["q1"]), {})
        with pytest.raises(GatewayFatal):
            verifier.verify(CLAIM, BudgetConfig())
