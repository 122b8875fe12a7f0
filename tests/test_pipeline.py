import json
import threading
import time
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
    make_result,
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
                        search=search, reader=reader, clock=lambda: 0.0)
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

            def search(self, query, k, abandoned=None):
                self.calls += 1
                raise TransportError("boom")

        agents = ScriptedAgents(initial=["q1", "q2"])
        search = ExplodingSearch()
        verifier = Verifier(agent_factory=lambda c, t: agents, search=search,
                            reader=FakeReader(), clock=lambda: 0.0)
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
                            search=search, reader=FakeReader(), clock=lambda: 0.0)
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
                            search=search, reader=FakeReader(), clock=lambda: 0.0)
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
            search=search, reader=FakeReader(), clock=lambda: 0.0)
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
# read-ahead of the next query's search (live mode)


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


class TestReadAhead:
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

    def test_next_query_is_searched_while_the_last_result_is_judged(self, http_stub,
                                                                     tmp_path):
        searched = threading.Event()
        checks = []

        def comprehensible(messages):
            if len(checks) == 1:
                # query 1's last result: answered once query 2 reaches the stub
                searched.wait(5)
            checks.append(searched.is_set())
            return "YES, it is readable on its own."

        verifier = stub_verifier(
            http_stub, tmp_path, "live",
            llm_rules(2, sufficient=False, queries=QUERIES[:2], comprehensible=comprehensible),
            Pages(), searching(2, {QUERIES[1]: searched.set}))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert checks == [False, True, True, True]
        assert [e["query"] for e in search_events(report)] == list(QUERIES[:2])

    def test_unread_read_ahead_ends_before_verify_returns(self, http_stub, tmp_path):
        fetching, fetched = threading.Event(), threading.Event()

        def sufficient(messages):
            # the claim stops on query 1's only result once query 2's page is
            # being fetched
            fetching.wait(5)
            return "YES, that settles it."

        def http_get(url):
            if "query-two" in url:
                fetching.set()
                time.sleep(0.2)
                fetched.set()
            return PAGE, "text/html"

        seen = []
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(1, sufficient=sufficient, queries=QUERIES[:2]),
                                 http_get, serper_stub_app(1, seen))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert fetched.is_set()
        assert [p["q"] for p in seen] == list(QUERIES[:2])
        assert search_events(report) == [
            {"query": QUERIES[0], "k": 2, "n_results": 1},
            {"query": QUERIES[1], "k": 2, "n_results": 1, "unread": True}]
        # logged when the loop ends, before the verdict
        assert [e.kind for e in report.trace.events][-3:] == [
            EventKind.SEARCH_CALL, EventKind.AGENT_CALL, EventKind.VERDICT]
        assert all("query-two" not in url for url in fetched_events(report))

    def test_read_ahead_answered_after_the_loop_ends_fetches_no_page(self, http_stub,
                                                                      tmp_path):
        stopped = threading.Event()

        def sufficient(messages):
            stopped.set()
            return "YES, that settles it."

        def late_search():
            # query 2's search returns well after the claim stopped on query 1
            stopped.wait(5)
            time.sleep(0.3)

        seen, pages = [], Pages()
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(1, sufficient=sufficient, queries=QUERIES[:2]),
                                 pages, searching(1, {QUERIES[1]: late_search}, seen))
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert [p["q"] for p in seen] == list(QUERIES[:2])
        assert search_events(report)[1] == {"query": QUERIES[1], "k": 2, "n_results": 1,
                                            "unread": True}
        assert all("query-two" not in url for url in pages.urls())

    def test_unread_read_ahead_is_not_retried_after_the_claim_stops(self, http_stub,
                                                                      tmp_path):
        stopped = threading.Event()
        seen = []
        app = serper_stub_app(1)

        def search_app(method, path, body, headers):
            seen.append(json.loads(body)["q"])
            if seen[-1] == QUERIES[1]:
                # query 2's provider fails only after the claim stopped on query 1
                stopped.wait(5)
                time.sleep(0.3)
                return 503, {}, b"busy"
            return app(method, path, body, headers)

        def sufficient(messages):
            stopped.set()
            return "YES, that settles it."

        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(1, sufficient=sufficient, queries=QUERIES[:2]),
                                 Pages(), search_app)
        sleeps = []
        verifier.search._sleep = sleeps.append
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        # one try of query 2, answered 503, and no back-off or retry after it
        assert sleeps == [] and seen == list(QUERIES[:2])
        assert search_events(report)[1] == {
            "query": QUERIES[1], "k": 2, "n_results": 0, "unread": True,
            "error": "not retried, answer no longer needed: "
                     f"HTTP 503 from {verifier.search.endpoint}"}

    def test_unread_read_ahead_error_does_not_replace_the_verdict(self, http_stub, tmp_path):
        searched = threading.Event()
        verifier = stub_verifier(
            http_stub, tmp_path, "live",
            llm_rules(1, sufficient=lambda messages: searched.wait(5) and "YES",
                      queries=QUERIES[:2]),
            Pages(), serper_stub_app(1))
        search = verifier.search.search

        def failing_search(query, k, abandoned):
            if query.text == QUERIES[1]:
                searched.set()
                raise RuntimeError("not a transport error")
            return search(query, k, abandoned)

        verifier.search.search = failing_search
        report = verifier.verify(CLAIM, BudgetConfig())
        assert report.terminated_by is TerminationReason.SUFFICIENT_EVIDENCE
        assert search_events(report)[1] == {"query": QUERIES[1], "k": 2, "n_results": 0,
                                            "unread": True, "error": "not a transport error"}

    @pytest.mark.parametrize("answered", [False, True])
    def test_failed_claim_ends_its_read_ahead_before_verify_raises(self, http_stub, tmp_path,
                                                                   answered):
        from claimcheck.pipeline import GatewayFatal

        reached = threading.Event()
        llm = scripted_llm_app(llm_rules(1, sufficient=False, queries=QUERIES[:2]))

        def llm_app(method, path, body, headers):
            if b"Is the document comprehensible" in body:
                # query 1's only result fails once query 2's read-ahead is under way
                reached.wait(5)
                return 400, {}, b"bad request"
            return llm(method, path, body, headers)

        seen, search = [], serper_stub_app(1)

        def search_app(method, path, body, headers):
            seen.append(json.loads(body)["q"])
            if seen[-1] == QUERIES[1] and not answered:
                # in flight when the claim fails, then answered 503
                reached.set()
                time.sleep(0.2)
                return 503, {}, b"busy"
            return search(method, path, body, headers)

        started, finished = [], []

        def http_get(url):
            started.append(url)
            if "query-two" in url:
                # answered before the claim fails: its page is being fetched
                reached.set()
                time.sleep(0.2)
            finished.append(url)
            return PAGE, "text/html"

        verifier = stub_verifier(http_stub, tmp_path, "live", llm_app, http_get, search_app)
        sleeps = []
        verifier.search._sleep = sleeps.append
        with pytest.raises(GatewayFatal, match="HTTP 400"):
            verifier.verify(CLAIM, BudgetConfig())
        # query 2 searched once, with no back-off or retry once the claim failed
        assert seen == list(QUERIES[:2]) and sleeps == []
        assert finished == started
        assert len(started) == (2 if answered else 1)

    def test_read_ahead_refused_key_ends_the_claim(self, http_stub, tmp_path):
        from claimcheck.pipeline import GatewayFatal

        searched = threading.Event()
        seen, app = [], serper_stub_app(1)

        def search_app(method, path, body, headers):
            seen.append(json.loads(body)["q"])
            if seen[-1] == QUERIES[1]:
                searched.set()
                return 401, {}, b'{"message": "Unauthorized"}'
            return app(method, path, body, headers)

        def comprehensible(messages):
            # query 1's only result is read once query 2's read-ahead reaches the stub
            searched.wait(5)
            return "YES, it is readable on its own."

        verifier = stub_verifier(
            http_stub, tmp_path, "live",
            llm_rules(1, sufficient=False, queries=QUERIES[:2], comprehensible=comprehensible),
            Pages(), search_app)
        with pytest.raises(GatewayFatal, match="HTTP 401"):
            verifier.verify(CLAIM, BudgetConfig())
        assert seen == list(QUERIES[:2])

    def test_one_query_budget_searches_once(self, http_stub, tmp_path):
        seen = []
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(2, sufficient=False, queries=QUERIES),
                                 Pages(), serper_stub_app(2, seen))
        report = verifier.verify(CLAIM, BudgetConfig(max_search_queries=1))
        assert [p["q"] for p in seen] == [QUERIES[0]]
        assert search_events(report) == [{"query": QUERIES[0], "k": 2, "n_results": 2}]

    def test_read_ahead_not_started_is_searched_inline(self, http_stub, tmp_path):
        released = threading.Event()
        verifier = stub_verifier(http_stub, tmp_path, "live",
                                 llm_rules(1, sufficient=False, queries=QUERIES[:2]),
                                 Pages(), searching(1, {QUERIES[1]: released.set}))
        threads = {}
        search = verifier.search.search

        def recording_search(query, k, abandoned):
            threads[query.text] = threading.current_thread()
            return search(query, k, abandoned)

        verifier.search.search = recording_search
        # the pool's one thread is held until query 2 is searched
        verifier._prefetch_pool = ThreadPoolExecutor(max_workers=1)
        held = verifier._prefetch_pool.submit(released.wait, 5)
        try:
            report = verifier.verify(CLAIM, BudgetConfig())
        finally:
            verifier._prefetch_pool.shutdown()
        assert held.result() is True
        assert threads == {q: threading.current_thread() for q in QUERIES[:2]}
        assert [e["query"] for e in search_events(report)] == list(QUERIES[:2])

    def test_failed_read_ahead_logs_the_sequential_search_call(self, http_stub, tmp_path):
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
