import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.agents import (
    AGENT_NAMES,
    AgentSuite,
    HelpfulnessJudgment,
    _parse_prompt_asset,
    load_prompts,
)
from claimcheck.llm import LlmGateway
from claimcheck.model import BudgetConfig, Claim, Verdict
from claimcheck.pipeline import Ablation, TerminationReason, Verifier
from claimcheck.replaystore import TransportError
from claimcheck.trace import EventKind
from claimcheck.websearch import SearchClient

from conftest import (
    FakeGateway,
    FakeReader,
    FakeSearch,
    ScriptedAgents,
    changing_search_app,
    drain_decisions,
    make_result,
    openai_reply,
    scripted_llm_app,
    serper_stub_app,
    standard_llm_rules,
    stub_verifier,
)

CLAIM = Claim(text="X was founded in 1998")


def build(agents, worlds=None, unusable=None, bodies=None):
    search = FakeSearch(worlds or {})
    reader = FakeReader(bodies=bodies, unusable=unusable)
    verifier = Verifier(agent_factory=lambda config, trace: agents,
                        search=search, reader=reader)
    return verifier, search, reader


def scenarios(report):
    """The scenario code of each scenario_decision event, in order."""
    return [e.payload["scenario"] for e in report.trace.events
            if e.kind is EventKind.SCENARIO_DECISION]


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
        assert scenarios(report).count("d") == 1
        assert len(report.evidence) == 0
        # drain re-checked it once more, still unreadable, dropped
        assert agents.calls["self_contained_check"] == 2

    def test_scenario_c_skips(self):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False))
        report, _, _ = self.one_result_run(agents)
        assert len(report.evidence) == 0
        assert "c" in scenarios(report)

    def test_scenario_a_adds_and_stops(self):
        agents = ScriptedAgents(initial=["q1"], sufficient=True)
        report, _, _ = self.one_result_run(agents)
        assert len(report.evidence) == 1
        assert scenarios(report)[-1] == "a"

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
        decisions = [(e.payload["scenario"], e.payload.get("detail")) for e in report.trace.events
                     if e.kind is EventKind.SCENARIO_DECISION]
        assert decisions == [("b", None), ("c", "already_evidence")]


class TestTraceSequence:
    """One scripted claim whose trace holds every scenario code: the loop
    defers two pages, keeps one, meets a helpful page already in evidence,
    an unusable result and an unhelpful page; the drain drops one deferred
    page and recovers the other, which is sufficient."""

    DROPPED, RECOVERED, KEPT = ("https://d.example/1", "https://d.example/2",
                                "https://k.example/1")
    UNUSABLE, UNHELPFUL = "https://u.example/1", "https://n.example/1"

    def run(self):
        def scc(claim, evidence, doc):
            if doc.meta.url == self.DROPPED:
                return False
            return doc.meta.url != self.RECOVERED or len(evidence) > 0

        agents = ScriptedAgents(
            initial=["q1", "q2"], scc=scc,
            helpful=lambda c, e, d: HelpfulnessJudgment(d.meta.url != self.UNHELPFUL,
                                                        f"note from {d.meta.url}"),
            sufficient=lambda c, e: any(i.source_url == self.RECOVERED for i in e))
        worlds = {"q1": [make_result(u) for u in (self.DROPPED, self.RECOVERED, self.KEPT)],
                  "q2": [make_result(u) for u in (self.KEPT, self.UNUSABLE, self.UNHELPFUL)]}
        verifier, _, reader = build(agents, worlds, unusable={self.UNUSABLE})
        report = verifier.verify(CLAIM, BudgetConfig(max_search_queries=2,
                                                     max_results_per_query=3))
        return report, reader

    def test_the_trace_is_pinned(self):
        report, _ = self.run()
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        decision = "scenario_decision"
        assert [(e.kind.value, e.payload.get("scenario"), e.payload.get("detail"))
                for e in report.trace.events] == [
            ("search_call", None, None),
            ("fetch", None, None), (decision, "d", None),
            ("fetch", None, None), (decision, "d", None),
            ("fetch", None, None), (decision, "b", None),
            ("search_call", None, None),
            ("fetch", None, None), (decision, "c", "already_evidence"),
            (decision, "unusable", self.UNUSABLE),
            ("fetch", None, None), (decision, "c", None),
            (decision, "dropped_after_recheck", None),
            (decision, "a", None),
            ("verdict", None, None),
        ]

    def test_one_decision_per_document_read_and_rechecked(self):
        report, reader = self.run()
        decided = [e.payload["url"] for e in report.trace.events
                   if e.kind is EventKind.SCENARIO_DECISION]
        # the loop reads each result once; the drain rechecks the deferred pages
        assert decided == reader.acquired + [self.DROPPED, self.RECOVERED]

    def test_only_the_five_event_kinds(self):
        report, _ = self.run()
        kinds = {"agent_call", "search_call", "fetch", "scenario_decision", "verdict"}
        assert {kind.value for kind in EventKind} == kinds
        assert {e.kind.value for e in report.trace.events} <= kinds


class TestDrainDeferred:
    def test_empty_deferred_is_noop(self):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False))
        verifier, _, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert scenarios(report).count("d") == 0

    def test_decisive_first_deferred_stops_drain(self):
        # two results, both deferred in the loop; in the drain the first
        # becomes readable and decisive, the second is never re-evaluated.
        first, second = "https://r0.example/q1", "https://r1.example/q1"

        def scc(claim, evidence, doc):
            # a page is understood on its second check only: in the drain
            return agents.scc_urls.count(doc.meta.url) == 2

        def helpful(claim, evidence, doc):
            return HelpfulnessJudgment(True, "decisive")

        agents = ScriptedAgents(initial=["q1"], scc=scc, helpful=helpful,
                                sufficient=True)
        verifier, _, _ = build(agents, world("q1", 2))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        # loop: both checked; drain: only the first re-checked
        assert agents.scc_urls == [first, second, first]

    def test_failed_recheck_dropped_not_redeferred(self):
        agents = ScriptedAgents(initial=["q1"], scc=False)
        verifier, _, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        # exactly one deferral decision despite two failed checks
        assert scenarios(report).count("d") == 1
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

    def test_additional_gen_not_called_once_follow_ups_spend_budget(self):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False),
                                additional=["q2", "q3", "q4"])
        worlds = {}
        for q in ("q1", "q2", "q3", "q4"):
            worlds |= world(q, 1)
        verifier, search, _ = build(agents, worlds)
        verifier.verify(CLAIM, BudgetConfig(max_search_queries=4))
        assert len(search.calls) == 4
        assert agents.calls["additional_query_gen"] == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_results_are_not_ranked(self, n):
        agents = ScriptedAgents(initial=["q1"], helpful=HelpfulnessJudgment(False))
        verifier, _, reader = build(agents, world("q1", n))
        verifier.verify(CLAIM, BudgetConfig())
        assert agents.calls["search_rank"] == 0
        assert len(reader.acquired) == n

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

            def search(self, query, k, scope=""):
                self.calls += 1
                raise TransportError("boom")

        agents = ScriptedAgents(initial=["q1", "q2"])
        search = ExplodingSearch()
        verifier = Verifier(agent_factory=lambda c, t: agents, search=search,
                            reader=FakeReader())
        report = verifier.verify(CLAIM, BudgetConfig())
        assert search.calls == 2
        assert report.trace.events[-1].kind is EventKind.VERDICT

    def test_live_search_client_failure_is_nonfatal(self):
        attempts = []

        def rate_limited(url, headers, payload, timeout):
            attempts.append(payload["q"])
            return 429, ""

        search = SearchClient(mode="live", transport=rate_limited,
                              sleep=lambda s: None, requests_per_second=0)
        verifier = Verifier(agent_factory=lambda c, t: ScriptedAgents(initial=["q1"]),
                            search=search, reader=FakeReader())
        report = verifier.verify(CLAIM, BudgetConfig())
        assert attempts == ["q1"] * 4
        assert [e.kind for e in report.trace.events].count(EventKind.VERDICT) == 1
        (event,) = [e for e in report.trace.events if e.kind is EventKind.SEARCH_CALL]
        assert event.payload["n_results"] == 0
        assert "HTTP 429" in event.payload["error"]

    def test_search_body_that_is_not_a_json_object_is_nonfatal(self):
        search = SearchClient(mode="live", transport=lambda *a, **k: (200, "null"),
                              requests_per_second=0)
        verifier = Verifier(agent_factory=lambda c, t: ScriptedAgents(initial=["q1"]),
                            search=search, reader=FakeReader())
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.verdict is Verdict.TRUE
        (event,) = [e for e in report.trace.events if e.kind is EventKind.SEARCH_CALL]
        assert event.payload["n_results"] == 0
        assert "not a JSON object" in event.payload["error"]

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
        assert [e.kind for e in report.trace.events].count(EventKind.SEARCH_CALL) == min(n, cap)


class TestQueriesWithAgentSuite:
    """The real agents over a scripted gateway: a query agent returns every
    query it parses, and the loop alone decides which of them are searched."""

    def run(self, initial, additional="", budget=4):
        """Verify CLAIM on the two query agents' replies given; no search
        finds a result.  Returns (report, queries searched, agents asked)."""
        asked = []

        def respond(req):
            prompt = "\n".join(content for _, content in req.messages)
            for needle, agent, reply in [
                ("list of new web search queries", "additional_query_gen", additional),
                ("numbered list of web search queries", "initial_query_gen", initial),
                ("Is the claim true or false", "classify", "True"),
            ]:
                if needle in prompt:
                    asked.append(agent)
                    return reply
            raise AssertionError(f"unexpected prompt: {prompt[:80]}")

        gateway = FakeGateway(responder=respond)
        search = FakeSearch()
        verifier = Verifier(
            agent_factory=lambda config, trace: AgentSuite(gateway, config, load_prompts(), trace),
            search=search, reader=FakeReader())
        report = verifier.verify(CLAIM, BudgetConfig(max_search_queries=budget))
        return report, [text for text, _ in search.calls], asked

    def test_proposals_past_the_budget_are_not_searched(self):
        initial = "\n".join(f"{i}. query {i}" for i in range(1, 7))
        _, searched, asked = self.run(initial, budget=4)
        assert searched == ["query 1", "query 2", "query 3", "query 4"]
        assert "additional_query_gen" not in asked

    def test_a_case_variant_repeat_costs_no_search(self):
        _, searched, _ = self.run("1. A\n2. a\n3. B", budget=2)
        assert searched == ["A", "B"]

    def test_a_follow_up_that_repeats_an_issued_query_searches_only_the_new_one(self):
        _, searched, asked = self.run("1. A", additional="1. a\n2. C", budget=4)
        assert searched == ["A", "C"]
        # the second reply, the same, holds only issued queries
        assert asked.count("additional_query_gen") == 2

    def test_follow_ups_already_issued_are_asked_for_once(self):
        report, searched, asked = self.run("1. A", additional="1. a", budget=4)
        assert searched == ["A"]
        assert asked.count("additional_query_gen") == 1
        assert report.terminated_by is TerminationReason.BUDGET_EXHAUSTED

    @pytest.mark.parametrize("initial, additional, logged", [
        ("\n".join(f"{i}. q{i}" for i in range(1, 7)), "", [("initial_query_gen", 6, False)]),
        ("1. A", "1. a", [("initial_query_gen", 1, False), ("additional_query_gen", 1, False)]),
        ("no list", "none here", [("initial_query_gen", 0, True),
                                  ("additional_query_gen", 0, True)]),
    ], ids=["past-the-budget", "only-issued", "no-query"])
    def test_query_agents_log_the_queries_they_parse(self, initial, additional, logged):
        report, _, _ = self.run(initial, additional)
        assert [(e.payload["agent"], e.payload["n_queries"], e.payload["fallback"])
                for e in report.trace.events
                if e.kind is EventKind.AGENT_CALL and "n_queries" in e.payload] == logged


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
        assert scenarios(report).count("d") == 0

    def test_without_ablation_rank_is_used(self):
        agents = ScriptedAgents(initial=["q1"], rank="reverse",
                                helpful=HelpfulnessJudgment(False))
        verifier, _, reader = build(agents, world("q1", 2))
        verifier.verify(CLAIM, BudgetConfig())
        assert agents.calls["search_rank"] == 1
        assert reader.acquired == ["https://r1.example/q1", "https://r0.example/q1"]


class TestPromptAssets:
    def test_loaded_once_per_verifier_not_per_claim(self, tmp_path, monkeypatch):
        parsed = []
        monkeypatch.setattr("claimcheck.agents._parse_prompt_asset",
                            lambda name, text: parsed.append(name)
                            or _parse_prompt_asset(name, text))
        app = scripted_llm_app(standard_llm_rules())

        def transport(url, headers, payload, timeout):
            status, _, body = app("POST", url, json.dumps(payload).encode(), headers)
            return status, body.decode()

        gateway = LlmGateway(mode="record", base_url="http://llm.invalid",
                             fixture_dir=str(tmp_path), transport=transport)
        verifier = Verifier(gateway, search=FakeSearch(), reader=FakeReader())
        for text in ("a first claim", "a second claim", "a third claim"):
            assert verifier.verify(Claim(text)).trace.events[-1].kind is EventKind.VERDICT
        assert sorted(parsed) == sorted(AGENT_NAMES)


class TestTraceContract:
    def test_exactly_one_verdict_event_and_last(self):
        agents = ScriptedAgents(initial=["q1"], sufficient=True)
        verifier, _, _ = build(agents, world("q1", 1))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.trace.events[-1].kind is EventKind.VERDICT

    def test_gateway_fatal_on_auth_error(self):
        from claimcheck.pipeline import GatewayFatal

        class AuthFailingAgents(ScriptedAgents):
            def initial_query_gen(self, claim):
                raise TransportError("HTTP 401 from http://llm.invalid/chat/completions")

        verifier, _, _ = build(AuthFailingAgents(), {})
        with pytest.raises(GatewayFatal):
            verifier.verify(CLAIM, BudgetConfig())

    def test_gateway_fatal_on_persistent_llm_transport_error(self):
        from claimcheck.pipeline import GatewayFatal

        class DeadEndpointAgents(ScriptedAgents):
            def classify(self, claim, evidence):
                raise TransportError("gave up after retries")

        verifier, _, _ = build(DeadEndpointAgents(initial=["q1"]), {})
        with pytest.raises(GatewayFatal):
            verifier.verify(CLAIM, BudgetConfig())


# ---------------------------------------------------------------------------
# page prefetch: live gateways over the stub servers


PAGE = "<p>" + "A page about the claim, long enough to be kept as text. " * 3 + "</p>"


def llm_rules(n_results: int, sufficient=True, rank=None, queries=(),
              comprehensible=None) -> list:
    """standard_llm_rules, with evidence never sufficient unless `sufficient`
    (or the reply of `sufficient` when it is a callable), the initial
    queries `queries` when given, and the ranker's and the
    self-contained check's replies replaced by `rank` and
    `comprehensible` (a reply or a callable) when given."""
    replies = {"Is this evidence sufficient": sufficient if callable(sufficient)
               else "YES, that settles it." if sufficient else "NO, more is needed."}
    if rank:
        replies["Sort the results"] = rank
    if queries:
        replies["numbered list of web search queries"] = "\n".join(
            f"{i}. {q}" for i, q in enumerate(queries, start=1))
    if comprehensible:
        replies["Is the document comprehensible"] = comprehensible
    return [(needle, replies.get(needle, reply))
            for needle, reply in standard_llm_rules(n_results)]


class Pages:
    """PageReader's http_get: serves PAGE and records (url, thread) per
    fetch; hooks[i] runs first for the page of result i."""

    def __init__(self, hooks=None) -> None:
        self.hooks = hooks or {}
        self.fetches: list[tuple[str, threading.Thread]] = []
        self._lock = threading.Lock()

    def __call__(self, url: str) -> tuple[str, str]:
        with self._lock:
            self.fetches.append((url, threading.current_thread()))
        hook = self.hooks.get(int(url.rsplit("/", 1)[1]))
        if hook is not None:
            hook()
        return PAGE, "text/html"

    def urls(self) -> list[str]:
        return [url for url, _ in self.fetches]


def fetched_events(report) -> list[str]:
    return [e.payload["url"] for e in report.trace.events if e.kind is EventKind.FETCH]


class TestPrefetch:
    @pytest.mark.parametrize("sufficient", [True, False])
    def test_live_run_decides_as_record_run(self, http_stub, tmp_path, sufficient):
        rules = llm_rules(3, sufficient=sufficient, rank="[3, 1, 2]")
        reports = {}
        for mode in ("record", "live"):
            verifier = stub_verifier(http_stub, tmp_path, mode, rules, Pages(),
                                     serper_stub_app(3))
            reports[mode] = verifier.verify(CLAIM, BudgetConfig(max_results_per_query=3))
        record, live = reports["record"], reports["live"]
        assert live.verdict is record.verdict
        assert live.terminated_by is record.terminated_by
        assert list(live.evidence) == list(record.evidence)
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert len(fetched_events(live)) == (1 if sufficient else 3)

    def test_replay_fetches_only_the_pages_it_reads(self, http_stub, tmp_path):
        config = BudgetConfig(max_results_per_query=3)
        record_pages, replay_pages, live_pages = Pages(), Pages(), Pages()
        stub_verifier(http_stub, tmp_path, "record", llm_rules(3), record_pages,
                      serper_stub_app(3)).verify(CLAIM, config)
        report = stub_verifier(http_stub, tmp_path, "replay", llm_rules(3), replay_pages,
                               serper_stub_app(3)).verify(CLAIM, config)
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert replay_pages.urls() == record_pages.urls() == fetched_events(report)
        assert len(fetched_events(report)) == 1
        # live mode pays for the two pages after the decisive one
        stub_verifier(http_stub, tmp_path, "live", llm_rules(3), live_pages,
                      serper_stub_app(3)).verify(CLAIM, config)
        assert len(live_pages.urls()) == 3

    def test_running_prefetch_ends_before_verify_returns(self, http_stub, tmp_path):
        started, finished = threading.Event(), threading.Event()

        def slow():
            started.set()
            time.sleep(0.2)
            finished.set()

        # the decisive first page is read only once the second one is being fetched
        pages = Pages({0: lambda: started.wait(5), 1: slow})
        verifier = stub_verifier(http_stub, tmp_path, "live", llm_rules(2), pages,
                                 serper_stub_app(2))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert len(fetched_events(report)) == 1
        assert finished.is_set()

    def test_running_prefetch_ends_before_verify_raises(self, http_stub, tmp_path):
        from claimcheck.pipeline import GatewayFatal

        reached = threading.Event()
        llm = scripted_llm_app(llm_rules(2, sufficient=False))

        def llm_app(method, path, body, headers):
            if b"Is the document comprehensible" in body:
                # the first result's check fails once the second page is being fetched
                reached.wait(5)
                return 400, {}, b"bad request"
            return llm(method, path, body, headers)

        started, finished = [], []

        def http_get(url):
            started.append(url)
            if url.endswith("/1"):
                reached.set()
                time.sleep(0.2)
            finished.append(url)
            return PAGE, "text/html"

        verifier = stub_verifier(http_stub, tmp_path, "live", llm_app, http_get,
                                 serper_stub_app(2))
        with pytest.raises(GatewayFatal, match="HTTP 400"):
            verifier.verify(CLAIM, BudgetConfig())
        assert len(started) == 2
        assert sorted(finished) == sorted(started)

    def test_prefetch_not_started_is_fetched_inline(self, http_stub, tmp_path):
        held, released = threading.Event(), threading.Event()

        def hold():
            held.set()
            released.wait(5)

        def rank(messages):
            held.wait(5)
            return "[2, 1]"

        # the pool's one thread is held by the first result's page until the
        # second result, ranked first, has been read
        pages = Pages({0: hold, 1: released.set})
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(2, sufficient=False, rank=rank), pages,
                                 serper_stub_app(2))
        verifier._prefetch_pool = ThreadPoolExecutor(max_workers=1)
        try:
            report = verifier.verify(CLAIM, BudgetConfig())
        finally:
            verifier._prefetch_pool.shutdown()
        first, second = fetched_events(report)
        assert first.endswith("/1") and second.endswith("/0")
        threads = dict(pages.fetches)
        assert len(threads) == len(pages.fetches) == 2
        assert threads[first] is threading.current_thread()
        assert threads[second] is not threading.current_thread()

    @pytest.mark.parametrize("mode", ["record", "live"])
    def test_same_url_twice_is_fetched_twice(self, http_stub, tmp_path, mode):
        def search_app(method, path, body, headers):
            result = {"title": "Same page", "link": "http://127.0.0.1:9/same/0",
                      "snippet": "the same page, listed twice"}
            return 200, {}, json.dumps({"organic": [result, result]}).encode()

        pages = Pages()
        verifier = stub_verifier(http_stub, tmp_path, mode, llm_rules(2, sufficient=False),
                                 pages, search_app)
        report = verifier.verify(CLAIM, BudgetConfig())
        assert pages.urls() == fetched_events(report) == ["http://127.0.0.1:9/same/0"] * 2


# ---------------------------------------------------------------------------
# live searches: each sent on the loop's thread when the loop reaches its query


QUERIES = ("query one", "query two", "query three")


def search_events(report) -> list[dict]:
    return [e.payload for e in report.trace.events if e.kind is EventKind.SEARCH_CALL]


def searching(n_results: int, hooks=None, seen=None):
    """serper_stub_app(n_results, seen), with hooks[q] run first for query q."""
    app = serper_stub_app(n_results, seen)

    def search_app(method, path, body, headers):
        hook = (hooks or {}).get(json.loads(body)["q"])
        if hook is not None:
            hook()
        return app(method, path, body, headers)

    return search_app


class TestLiveSearch:
    @pytest.mark.parametrize("sufficient", [False, "third"])
    def test_three_query_live_run_decides_as_record_run(self, http_stub, tmp_path,
                                                        sufficient):
        def stop_on_third_query(messages):
            return "YES" if "query-three" in messages[-1]["content"] else "NO"

        rules = llm_rules(2, sufficient=sufficient and stop_on_third_query, queries=QUERIES)
        reports, seen = {}, {}
        for mode in ("record", "live"):
            seen[mode] = []
            verifier = stub_verifier(http_stub, tmp_path, mode, rules, Pages(),
                                     serper_stub_app(2, seen[mode]))
            reports[mode] = verifier.verify(CLAIM, BudgetConfig())
        record, live = reports["record"], reports["live"]
        assert live.verdict is record.verdict
        assert live.terminated_by is record.terminated_by is (
            TerminationReason.SUFFICIENT_EVIDENCE if sufficient
            else TerminationReason.BUDGET_EXHAUSTED)
        assert list(live.evidence) == list(record.evidence)
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert [e["query"] for e in search_events(live)] == list(QUERIES)
        assert [p["q"] for p in seen["live"]] == list(QUERIES)

    def test_a_claim_that_stops_on_a_querys_last_result_searches_no_further(self, http_stub,
                                                                              tmp_path):
        searched = threading.Event()

        def sufficient(messages):
            # the claim stops on query 1's only result with query 2 queued; a
            # search of query 2 sent meanwhile would reach the stub first
            searched.wait(0.5)
            return "YES, that settles it."

        seen, pages = [], Pages()
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(1, sufficient=sufficient, queries=QUERIES[:2]),
                                 pages, searching(1, {QUERIES[1]: searched.set}, seen))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert [p["q"] for p in seen] == [QUERIES[0]]
        assert all("query-two" not in url for url in pages.urls())
        assert search_events(report) == [{"query": QUERIES[0], "k": 2, "n_results": 1}]

    def test_one_query_budget_searches_once(self, http_stub, tmp_path):
        seen = []
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(2, sufficient=False, queries=QUERIES),
                                 Pages(), serper_stub_app(2, seen))
        report = verifier.verify(CLAIM, BudgetConfig(max_search_queries=1))
        assert [p["q"] for p in seen] == [QUERIES[0]]
        assert search_events(report) == [{"query": QUERIES[0], "k": 2, "n_results": 2}]

    def test_failed_search_logs_the_sequential_search_call(self, http_stub, tmp_path):
        app = serper_stub_app(1)

        def search_app(method, path, body, headers):
            if json.loads(body)["q"] == QUERIES[1]:
                return 400, {}, b"bad query"
            return app(method, path, body, headers)

        rules = llm_rules(1, sufficient=False, queries=QUERIES[:2])
        traces = {}
        for mode in ("record", "live"):
            verifier = stub_verifier(http_stub, tmp_path, mode, rules, Pages(), search_app)
            traces[mode] = verifier.verify(CLAIM, BudgetConfig()).trace.to_jsonl(
                normalize_timestamps=True).replace(verifier.search.endpoint, "<search>")
        assert traces["live"] == traces["record"]
        (failed,) = [e for e in map(json.loads, traces["live"].splitlines())
                     if "error" in e["payload"]]
        assert failed["kind"] == "search_call"
        assert failed["payload"] == {"query": QUERIES[1], "k": 2, "n_results": 0,
                                     "error": "HTTP 400 from <search>: bad query"}


# ---------------------------------------------------------------------------
# replay of a claim that sends the same chat request twice


def record_then_replay(http_stub, tmp_path, monkeypatch, rules) -> tuple:
    """Record one claim over the stubs, then replay it from the fixtures
    written; asserts both runs log the same normalized trace and send the
    same chat requests in the same order.  The record run's report."""
    sent = []
    complete = LlmGateway.complete
    monkeypatch.setattr(LlmGateway, "complete",
                        lambda gateway, req: sent.append(req) or complete(gateway, req))
    runs, reports = {}, {}
    for mode in ("record", "replay"):
        sent.clear()
        reports[mode] = stub_verifier(http_stub, tmp_path, mode, rules, Pages(),
                                      serper_stub_app(1)).verify(CLAIM, BudgetConfig())
        runs[mode] = reports[mode].trace.to_jsonl(normalize_timestamps=True), list(sent)
    assert runs["replay"] == runs["record"]
    return reports["record"]


class TestReplayOfRepeatedAsks:
    def test_follow_ups_re_asked_on_unchanged_evidence(self, http_stub, tmp_path,
                                                       monkeypatch):
        follow_ups = iter(["1. alpha", "1. beta", "1. gamma"])
        rules = dict(standard_llm_rules())
        rules["adds helpful new information"] = "NOT HELPFUL"
        rules["list of new web search queries"] = lambda messages: next(follow_ups)
        record = record_then_replay(http_stub, tmp_path, monkeypatch, list(rules.items()))
        assert [e["query"] for e in search_events(record)] == [
            CLAIM.text, "alpha", "beta", "gamma"]

    def test_a_deferred_page_rechecked_before_the_evidence_grew(self, http_stub, tmp_path,
                                                                monkeypatch):
        asked = set()

        def comprehensible_when_asked_again(messages):
            prompt = messages[-1]["content"]
            answer = "YES" if prompt in asked else "NO"
            asked.add(prompt)
            return answer

        record = record_then_replay(http_stub, tmp_path, monkeypatch,
                                    llm_rules(1, comprehensible=comprehensible_when_asked_again))
        assert scenarios(record) == ["d", "a"]


# ---------------------------------------------------------------------------
# two claims that send one request: each replays the fixtures it recorded


SHARING = [Claim("Alpha is first", id="a"), Claim("Beta is second", id="b")]


def shared_query_rules(rank="[1, 2]") -> list:
    """standard_llm_rules over two results, every claim searching "shared
    topic" and ranking its results by `rank`."""
    rules = dict(standard_llm_rules(2))
    rules["numbered list of web search queries"] = "1. shared topic"
    rules["Sort the results"] = rank
    return list(rules.items())


def record_then_replay_each(http_stub, tmp_path, rules, search_app) -> list:
    """SHARING recorded one claim after the other, then replayed from the
    fixtures written; asserts each claim's replay logs its record run's
    normalized trace.  The record runs' reports, in claim order."""
    reports, traces = {}, {}
    for mode in ("record", "replay"):
        verifier = stub_verifier(http_stub, tmp_path, mode, rules, naming_its_url, search_app)
        reports[mode] = [verifier.verify(claim, BudgetConfig()) for claim in SHARING]
        traces[mode] = [r.trace.to_jsonl(normalize_timestamps=True) for r in reports[mode]]
    assert traces["replay"] == traces["record"]
    return reports["record"]


class TestClaimScopedFixtures:
    def test_two_claims_ranking_one_query_replay_their_own_order(self, http_stub, tmp_path):
        ranks = iter(["[1, 2]", "[2, 1]"])  # as a sampling model may answer one request
        record = record_then_replay_each(
            http_stub, tmp_path, shared_query_rules(rank=lambda messages: next(ranks)),
            serper_stub_app(2))
        assert [fetched_events(r) for r in record] == [
            ["http://127.0.0.1:9/shared-topic/0"], ["http://127.0.0.1:9/shared-topic/1"]]

    def test_two_claims_searching_one_query_replay_their_own_results(self, http_stub,
                                                                     tmp_path):
        record = record_then_replay_each(http_stub, tmp_path, shared_query_rules(),
                                         changing_search_app([]))
        assert [fetched_events(r) for r in record] == [
            ["http://127.0.0.1:9/search-0/0"], ["http://127.0.0.1:9/search-1/0"]]


# ---------------------------------------------------------------------------
# the send-ahead: the LLM call after a "no" goes out beside the sufficiency
# check, before the tail only when it asks for follow-up queries


def sent_requests(monkeypatch) -> list:
    """Every ChatRequest the gateway is asked to send, on any thread."""
    sent = []
    complete = LlmGateway.complete
    monkeypatch.setattr(LlmGateway, "complete",
                        lambda gateway, req: sent.append(req) or complete(gateway, req))
    return sent


def naming_its_url(url: str) -> tuple[str, str]:
    """PageReader's http_get: PAGE, marked with its URL."""
    return PAGE.replace("<p>", f"<p>[page {url}] ", 1), "text/html"


class DrainWorld:
    """One query, three results: the first two pages are understood only
    once evidence exists, the third at once, and every page is helpful.  So
    the loop defers pages 0 and 1 and keeps page 2, no follow-up query comes,
    and the drain recovers page 0, whose sufficiency check is then asked
    with page 1's recheck (a send-ahead in live mode) to follow.  `recheck`
    answers that recheck (a reply, or an (status, headers, body) answer);
    `sufficient` is the check's reply, given once the recheck has reached
    the stub when `wait_for_recheck`."""

    def __init__(self, sufficient: str, recheck="YES", wait_for_recheck=False) -> None:
        self.arrived, self.answered = threading.Event(), threading.Event()
        self.rechecks = 0
        self.sufficient, self.recheck, self.wait = sufficient, recheck, wait_for_recheck
        self.llm = scripted_llm_app(llm_rules(3, sufficient=self.sufficient_reply,
                                              comprehensible=self.comprehensible))

    def comprehensible(self, messages) -> str:
        user = messages[-1]["content"]
        return "YES" if "/2]" in user or "(source:" in user else "NO"

    def sufficient_reply(self, messages) -> str:
        if messages[-1]["content"].count("(source:") < 2:
            return "NO, more is needed."
        if self.wait:
            self.arrived.wait(5)
        return self.sufficient

    def __call__(self, method, path, body, headers):
        if b"Is the document comprehensible" in body and b"/1]" in body and b"(source:" in body:
            self.rechecks += 1
            self.arrived.set()
            if isinstance(self.recheck, str):
                return openai_reply(self.recheck)
            time.sleep(0.2)  # still running when the claim stops
            self.answered.set()
            return self.recheck
        return self.llm(method, path, body, headers)


class TailPage:
    """One query and a budget of one, so its one result is read in the
    claim's tail, and every page is helpful.  Its check (CHECK) replies
    `comprehensible`; when `wait_for_helpfulness`, only once the page's
    helpfulness request (AHEAD) has reached the stub (or after 5 s).  The
    helpfulness reply takes `helpfulness_s` seconds."""

    AHEAD, CHECK = b"adds helpful new information", b"Is the document comprehensible"

    def __init__(self, comprehensible: str, wait_for_helpfulness=False,
                 helpfulness_s=0.0) -> None:
        self.arrived, self.answered = threading.Event(), threading.Event()
        self.asks = 0  # AHEAD requests
        self.before_check_reply: list[bool] = []  # per check: the request had arrived
        self.wait, self.helpfulness_s = wait_for_helpfulness, helpfulness_s
        self.llm = scripted_llm_app(llm_rules(1, comprehensible=comprehensible))

    def __call__(self, method, path, body, headers):
        if self.AHEAD in body:
            self.asks += 1
            self.arrived.set()
            time.sleep(self.helpfulness_s)
            reply = self.llm(method, path, body, headers)
            self.answered.set()
            return reply
        if self.CHECK in body:
            self.before_check_reply.append(self.arrived.wait(5) if self.wait
                                           else self.arrived.is_set())
        return self.llm(method, path, body, headers)


class FollowUp(TailPage):
    """TailPage's waits, for the follow-up query request beside the
    sufficiency check: one query of one result and a budget of two, so that
    result is read while a search could still follow, its page is
    understood and helpful, and the check replies yes when `sufficient`.
    The follow-up reply names no query."""

    AHEAD, CHECK = b"list of new web search queries", b"Is this evidence sufficient"

    def __init__(self, sufficient: bool, wait_for_follow_up=False, follow_up_s=0.0) -> None:
        super().__init__("YES", wait_for_follow_up, follow_up_s)
        self.llm = scripted_llm_app(llm_rules(1, sufficient=sufficient))


class LastRecheck:
    """One query of `n` results, no follow-up query, every page helpful and
    evidence never sufficient.  The last page is understood at once and the
    others only once evidence exists, except that page n-2 then replies
    `last_recheck`.  So the drain's last recheck is page n-2's, and in the
    tail classify goes out beside the sufficiency check on n-1 notes just
    before it.  Each classify request's note count is kept, in arrival
    order; one on n-1 notes takes `classify_s` seconds.  When
    `wait_for_classify`, the check on n-1 notes replies only once such a
    classify has reached the stub (or after 5 s)."""

    CLASSIFY = b"Is the claim true or false"

    def __init__(self, n: int, last_recheck: str, wait_for_classify=False,
                 classify_s=0.0) -> None:
        self.n, self.last_recheck = n, last_recheck
        self.wait, self.classify_s = wait_for_classify, classify_s
        self.arrived, self.answered = threading.Event(), threading.Event()
        self.classify_notes: list[int] = []
        self.arrived_before_check_reply: bool | None = None
        self.llm = scripted_llm_app(llm_rules(n, sufficient=self.sufficient_reply,
                                              comprehensible=self.comprehensible))

    @staticmethod
    def notes(messages) -> int:
        return messages[-1]["content"].count("(source:")

    def comprehensible(self, messages) -> str:
        user = messages[-1]["content"]
        if f"/{self.n - 1}]" in user:
            return "YES"
        if not self.notes(messages):
            return "NO"
        return self.last_recheck if f"/{self.n - 2}]" in user else "YES"

    def sufficient_reply(self, messages) -> str:
        if self.wait and self.notes(messages) == self.n - 1:
            self.arrived_before_check_reply = self.arrived.wait(5)
        return "NO, more is needed."

    def __call__(self, method, path, body, headers):
        if self.CLASSIFY in body:
            notes = self.notes(json.loads(body)["messages"])
            self.classify_notes.append(notes)
            if notes == self.n - 1:
                self.arrived.set()
                time.sleep(self.classify_s)
                reply = self.llm(method, path, body, headers)
                self.answered.set()
                return reply
        return self.llm(method, path, body, headers)


class TestSendAhead:
    def verify(self, http_stub, tmp_path, mode, llm, n_results=3, ablations=frozenset(),
               **config):
        verifier = stub_verifier(http_stub, tmp_path, mode, llm, naming_its_url,
                                 serper_stub_app(n_results))
        return verifier.verify(CLAIM, BudgetConfig(max_results_per_query=n_results, **config),
                               ablations)

    def test_a_tail_page_understood_sends_its_helpfulness_call_once_beside_its_check(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        world = TailPage("YES", wait_for_helpfulness=True)
        report = self.verify(http_stub, tmp_path, "live", world, n_results=1,
                             max_search_queries=1)
        assert scenarios(report) == ["a"]
        assert world.asks == 1
        assert world.before_check_reply == [True]
        record = Counter(sent)
        sent.clear()
        self.verify(http_stub, tmp_path, "record", TailPage("YES"), n_results=1,
                    max_search_queries=1)
        assert Counter(sent) == record

    def test_a_tail_check_that_says_no_leaves_its_helpfulness_call_unread(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            world = TailPage("NO", wait_for_helpfulness=mode == "live", helpfulness_s=0.2)
            reports[mode] = self.verify(http_stub, tmp_path, mode, world, n_results=1,
                                        max_search_queries=1)
            requests[mode] = Counter(sent)
            # the helpfulness call was in flight when the claim ended, and
            # verify waited for it
            assert world.answered.is_set() == (mode == "live")
            assert world.asks == (mode == "live")
        record, live = reports["record"], reports["live"]
        assert scenarios(live) == ["d", "dropped_after_recheck"]
        assert live.verdict is record.verdict
        assert list(live.evidence) == list(record.evidence) == []
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert not requests["record"] - requests["live"]
        (extra,) = requests["live"] - requests["record"]
        assert "adds helpful new information" in extra.messages[-1][1]

    def test_a_claim_that_raises_waits_for_its_unread_helpfulness_call(self, http_stub,
                                                                        tmp_path):
        from claimcheck.pipeline import GatewayFatal

        world = TailPage("NO", helpfulness_s=0.2)

        def llm(method, path, body, headers):
            if b"Is the claim true or false" in body:
                return 400, {}, b"bad request"
            return world(method, path, body, headers)

        with pytest.raises(GatewayFatal, match="HTTP 400"):
            self.verify(http_stub, tmp_path, "live", llm, n_results=1, max_search_queries=1)
        # still in flight when classify failed, and verify raised only once it
        # had finished
        assert world.asks == 1
        assert world.answered.is_set()

    def test_under_rm_scc_a_tail_read_sends_nothing_extra(self, http_stub, tmp_path,
                                                          monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            reports[mode] = self.verify(http_stub, tmp_path, mode, llm_rules(2, sufficient=False),
                                        n_results=2, ablations={Ablation.RM_SCC},
                                        max_search_queries=1)
            requests[mode] = Counter(sent)
        assert scenarios(reports["live"]) == ["b", "b"]
        assert (reports["live"].trace.to_jsonl(normalize_timestamps=True)
                == reports["record"].trace.to_jsonl(normalize_timestamps=True))
        assert requests["live"] == requests["record"]
        assert not any("Is the document comprehensible" in req.messages[-1][1]
                       for req in requests["live"])

    @pytest.mark.parametrize("queries, budget, n_results", [
        (QUERIES[:2], 4, 1),  # on query 1's only result, with query 2 queued
        ((), 4, 2),  # on the first result of the only query, with the budget unspent
        (QUERIES[:2], 2, 2),  # with the budget spent and query 2 queued
    ], ids=["query-queued", "budget-unspent", "budget-spent-query-queued"])
    def test_a_claim_that_stops_before_its_tail_sends_the_sequential_requests(
            self, http_stub, tmp_path, monkeypatch, queries, budget, n_results):
        sent = sent_requests(monkeypatch)
        requests = {}
        for mode in ("record", "live"):
            sent.clear()
            report = self.verify(http_stub, tmp_path, mode, llm_rules(n_results, queries=queries),
                                 n_results, max_search_queries=budget)
            assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
            requests[mode] = list(sent)
        assert requests["live"] == requests["record"]

    def test_a_check_that_says_no_takes_the_follow_up_call_sent_beside_it(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            world = FollowUp(False, wait_for_follow_up=mode == "live")
            reports[mode] = self.verify(http_stub, tmp_path, mode, world, n_results=1,
                                        max_search_queries=2)
            requests[mode] = Counter(sent)
            assert world.asks == 1
        # sent beside the check: it reached the stub before the check replied
        assert world.before_check_reply == [True]
        record, live = reports["record"], reports["live"]
        assert scenarios(live) == ["b"]
        assert live.terminated_by is TerminationReason.BUDGET_EXHAUSTED
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert requests["live"] == requests["record"]

    def test_a_check_that_says_yes_leaves_the_follow_up_call_sent_beside_it_unread(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            world = FollowUp(True, wait_for_follow_up=mode == "live", follow_up_s=0.2)
            reports[mode] = self.verify(http_stub, tmp_path, mode, world, n_results=1,
                                        max_search_queries=2)
            requests[mode] = Counter(sent)
            # the follow-up call was in flight when the claim ended, and
            # verify waited for it
            assert world.answered.is_set() == world.asks == (mode == "live")
        assert world.before_check_reply == [True]
        record, live = reports["record"], reports["live"]
        assert scenarios(live) == ["a"]
        assert live.verdict is record.verdict
        assert live.terminated_by is record.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert list(live.evidence) == list(record.evidence)
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert not requests["record"] - requests["live"]
        (extra,) = requests["live"] - requests["record"]
        assert "list of new web search queries" in extra.messages[-1][1]

    def test_drain_world_answers_page_1s_recheck_with_a_reply_it_is_given(self, http_stub,
                                                                         tmp_path):
        report = self.verify(http_stub, tmp_path, "record",
                             DrainWorld("NO, more is needed.", recheck="NO"))
        assert scenarios(report) == ["d", "d", "b", "b", "dropped_after_recheck"]
        assert drain_decisions(report)[-1]["url"].endswith("/1")

    def test_a_claim_that_ends_sufficient_in_the_drain_sends_one_request_more(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            world = DrainWorld("YES, that settles it.", wait_for_recheck=mode == "live")
            reports[mode] = self.verify(http_stub, tmp_path, mode, world)
            requests[mode] = Counter(sent)
            assert world.rechecks == (mode == "live")
        record, live = reports["record"], reports["live"]
        assert scenarios(live) == ["d", "d", "b", "a"]
        assert live.verdict is record.verdict
        assert live.terminated_by is record.terminated_by
        assert list(live.evidence) == list(record.evidence)
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert not requests["record"] - requests["live"]
        (extra,) = requests["live"] - requests["record"]
        assert "/1]" in extra.messages[-1][1] and "(source:" in extra.messages[-1][1]

    def test_classify_sent_beside_the_check_before_a_last_recheck_that_says_no_is_read(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            world = LastRecheck(3, "NO", wait_for_classify=mode == "live")
            # the drain is the tail: no page is first read there
            reports[mode] = self.verify(http_stub, tmp_path, mode, world)
            requests[mode] = Counter(sent)
            # asked once, on the two notes the drain's last recheck saw
            assert world.classify_notes == [2]
        # sent beside the check before that recheck: the claim's ask took it
        assert world.arrived_before_check_reply
        record, live = reports["record"], reports["live"]
        assert scenarios(live) == ["d", "d", "b", "b", "dropped_after_recheck"]
        assert live.terminated_by is TerminationReason.BUDGET_EXHAUSTED
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        assert requests["live"] == requests["record"]

    def test_classify_sent_beside_the_check_before_a_last_recheck_that_says_yes_goes_unread(
            self, http_stub, tmp_path, monkeypatch):
        sent = sent_requests(monkeypatch)
        reports, requests = {}, {}
        for mode in ("record", "live"):
            sent.clear()
            world = LastRecheck(2, "YES", wait_for_classify=mode == "live", classify_s=0.2)
            reports[mode] = self.verify(http_stub, tmp_path, mode, world, n_results=2,
                                        max_search_queries=1)
            requests[mode] = Counter(sent)
            # the classify on one note was in flight when the claim ended, and
            # verify waited for it
            assert world.answered.is_set() == (mode == "live")
        assert world.arrived_before_check_reply
        assert world.classify_notes == [1, 2]
        record, live = reports["record"], reports["live"]
        assert scenarios(live) == ["d", "b", "b"]
        assert live.verdict is record.verdict
        assert live.terminated_by is record.terminated_by is TerminationReason.BUDGET_EXHAUSTED
        assert list(live.evidence) == list(record.evidence)
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))
        # unread: the deferred page's helpfulness call, sent beside its first
        # check, and the classify on one note
        assert not requests["record"] - requests["live"]
        helpfulness, classify = sorted((requests["live"] - requests["record"]).elements(),
                                       key=lambda req: req.messages[-1][1].count("(source:"))
        assert "adds helpful new information" in helpfulness.messages[-1][1]
        assert "Is the claim true or false" in classify.messages[-1][1]
        assert classify.messages[-1][1].count("(source:") == 1

    def test_an_unread_send_ahead_that_fails_changes_nothing(self, http_stub, tmp_path):
        record = self.verify(http_stub, tmp_path, "record", DrainWorld("YES, that settles it."))
        world = DrainWorld("YES, that settles it.", recheck=(400, {}, b"bad request"),
                           wait_for_recheck=True)
        live = self.verify(http_stub, tmp_path, "live", world)
        assert world.answered.is_set()  # ended before verify returned
        assert world.rechecks == 1
        assert live.verdict is record.verdict
        assert list(live.evidence) == list(record.evidence)
        assert (live.trace.to_jsonl(normalize_timestamps=True)
                == record.trace.to_jsonl(normalize_timestamps=True))

    @pytest.mark.parametrize("mode", ["record", "live"])
    def test_a_failed_send_ahead_that_is_read_ends_the_claim(self, http_stub, tmp_path, mode):
        from claimcheck.pipeline import GatewayFatal

        world = DrainWorld("NO, more is needed.", recheck=(400, {}, b"bad request"),
                           wait_for_recheck=mode == "live")
        with pytest.raises(GatewayFatal, match="HTTP 400"):
            self.verify(http_stub, tmp_path, mode, world)
        # sent once: ahead of its ask in live mode, and taken there
        assert world.rechecks == 1
