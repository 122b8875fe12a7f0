import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.agents import (
    AgentSuite,
    HelpfulnessJudgment,
    _parse_prompt_asset,
    load_prompts,
    parse_helpfulness,
    parse_permutation,
    parse_query_list,
    parse_true_false,
    parse_yes_no,
)
from claimcheck.llm import replay_key
from claimcheck.model import BudgetConfig, Claim, EvidenceItem, EvidenceSet, SearchQuery, Verdict
from claimcheck.trace import RunTrace

from conftest import FakeGateway, make_doc, make_result

CLAIM = Claim(text="X was founded in 1998")


def suite(replies=None, responder=None, config=None, trace=None):
    return AgentSuite(FakeGateway(replies, responder), config or BudgetConfig(),
                      load_prompts(), trace or RunTrace())


def evidence_with(n=1):
    s = EvidenceSet()
    for i in range(n):
        s, _ = s.add(EvidenceItem(note=f"fact {i}", source_url=f"https://e.example/{i}"))
    return s


class TestPromptAssets:
    def test_all_seven_load(self):
        prompts = load_prompts()
        assert len(prompts) == 7

    def test_asset_without_separator_is_refused_by_name(self):
        with pytest.raises(ValueError, match="prompt asset classify lacks"):
            _parse_prompt_asset("classify", "system and user text in one block")

    def test_render_requires_all_slots(self):
        prompt = load_prompts()["self_contained_check"]
        with pytest.raises(KeyError):
            prompt.render(claim="c")

    def test_rendering_is_deterministic(self):
        a = suite(["1. q"])
        messages = a.prompts["classify"].render(claim="c", evidence="e")
        messages2 = a.prompts["classify"].render(claim="c", evidence="e")
        assert messages == messages2
        from claimcheck.llm import ChatRequest

        key = lambda m: replay_key(ChatRequest("m", m, 1.0))  # noqa: E731
        assert key(messages) == key(messages2)


class TestInitialQueryGen:
    def test_numbered_list_parsed_in_order(self):
        a = suite(["1. when was X founded\n2. X founder"])
        queries = a.initial_query_gen(CLAIM)
        assert [q.text for q in queries] == ["when was X founded", "X founder"]

    def test_unparseable_falls_back_to_claim_text(self):
        a = suite(["I cannot help"])
        queries = a.initial_query_gen(CLAIM)
        assert len(queries) == 1
        assert queries[0].text == CLAIM.text

    def test_item_blank_inside_quotes_is_dropped(self):
        a = suite(['1. "  "\n2. "X founder"\n3. ""'])
        assert [q.text for q in a.initial_query_gen(CLAIM)] == ["X founder"]


class TestSearchRank:
    def test_valid_permutation_applied(self):
        a = suite(["[2, 1]"])
        results = [make_result("https://a.example/1"), make_result("https://a.example/2")]
        ranked = a.search_rank(SearchQuery("q"), results)
        assert [r.url for r in ranked] == ["https://a.example/2", "https://a.example/1"]

    def test_invalid_permutation_keeps_input_order(self):
        a = suite(["[3, 1]"])
        results = [make_result("https://a.example/1"), make_result("https://a.example/2")]
        assert a.search_rank(SearchQuery("q"), results) == results

    @settings(max_examples=60)
    @given(reply=st.text(max_size=40), n=st.integers(min_value=2, max_value=5))
    def test_output_always_permutation_of_input(self, reply, n):
        a = suite([reply])
        results = [make_result(f"https://a.example/{i}") for i in range(n)]
        ranked = a.search_rank(SearchQuery("q"), results)
        assert sorted(r.url for r in ranked) == sorted(r.url for r in results)


class TestSelfContainedCheck:
    def test_yes(self):
        assert suite(["YES"]).self_contained_check(CLAIM, EvidenceSet(), make_doc("https://a.example/1"))

    def test_leading_no_with_explanation(self):
        a = suite(["No, it references an undefined 'the incident'"])
        assert not a.self_contained_check(CLAIM, EvidenceSet(), make_doc("https://a.example/1"))

    def test_gibberish_is_conservative_false(self):
        a = suite(["qwxyz blorp"])
        assert not a.self_contained_check(CLAIM, EvidenceSet(), make_doc("https://a.example/1"))


class TestDetHelpful:
    def test_helpful_with_note(self):
        a = suite(["HELPFUL: X was founded in 1998 per source"])
        j = a.det_helpful(CLAIM, EvidenceSet(), make_doc("https://a.example/1"))
        assert j.helpful and j.note == "X was founded in 1998 per source"

    def test_not_helpful(self):
        a = suite(["NOT HELPFUL"])
        assert not a.det_helpful(CLAIM, EvidenceSet(), make_doc("https://a.example/1")).helpful

    def test_helpful_with_empty_note_degrades_to_false(self):
        a = suite(["HELPFUL:"])
        assert not a.det_helpful(CLAIM, EvidenceSet(), make_doc("https://a.example/1")).helpful

    @pytest.mark.parametrize("reply", [
        "Helpfulness: none, the page is off topic", "Helpfully, nothing here", "Helpful? No."])
    def test_helpful_only_as_a_whole_word_and_not_a_question(self, reply):
        assert parse_helpfulness(reply) == HelpfulnessJudgment(False)

    @pytest.mark.parametrize("reply, note", [
        ("HELPFUL: X", "X"), ("helpful - note", "note"), ("HELPFUL\nnote", "note")])
    def test_helpful_separators(self, reply, note):
        assert parse_helpfulness(reply) == HelpfulnessJudgment(True, note)

    def test_judgment_invariant(self):
        with pytest.raises(ValueError):
            HelpfulnessJudgment(helpful=True, note="  ")


class TestSufficientEvidence:
    def test_yes_with_items(self):
        assert suite(["YES"]).sufficient_evidence(CLAIM, evidence_with(2))

    def test_ambiguous_is_false(self):
        assert not suite(["perhaps, who knows"]).sufficient_evidence(CLAIM, evidence_with(1))


class TestClassify:
    def test_plain_true(self):
        assert suite(["True"]).classify(CLAIM, EvidenceSet()) is Verdict.TRUE

    def test_token_found_mid_sentence(self):
        a = suite(["the claim is FALSE because the source says otherwise"])
        assert a.classify(CLAIM, EvidenceSet()) is Verdict.FALSE

    def test_double_gibberish_defaults_false_with_trace(self):
        trace = RunTrace(clock=lambda: 0.0)
        a = suite(["blorp", "still blorp"], trace=trace)
        assert a.classify(CLAIM, EvidenceSet()) is Verdict.FALSE
        forced = [e for e in trace.events if e.payload.get("forced_default")]
        assert len(forced) == 1

    def test_retry_carries_stricter_instruction(self):
        gateway = FakeGateway(["gibberish", "True"])
        a = AgentSuite(gateway, BudgetConfig(), load_prompts(), RunTrace())
        assert a.classify(CLAIM, EvidenceSet()) is Verdict.TRUE
        assert len(gateway.requests) == 2
        assert "exactly one word" in gateway.requests[1].messages[-1][1]

    def test_uses_config_model_and_temperature(self):
        gateway = FakeGateway(["True"])
        config = BudgetConfig(model_id="special-model", temperature=0.25)
        AgentSuite(gateway, config, load_prompts(), RunTrace()).classify(CLAIM, EvidenceSet())
        (request,) = gateway.requests
        assert request.model_id == "special-model"
        assert request.temperature == 0.25


class TestAdditionalQueryGen:
    def test_unparseable_yields_empty_list(self):
        assert suite(["no lists here"]).additional_query_gen(CLAIM, evidence_with()) == []


class TestParserTotality:
    """For arbitrary replies every agent returns a value of its type."""

    @settings(max_examples=120)
    @given(st.text(max_size=120))
    def test_parsers_never_raise(self, reply):
        parse_query_list(reply)
        parse_permutation(reply, 3)
        parse_yes_no(reply)
        parse_true_false(reply)
        parse_helpfulness(reply)

    @settings(max_examples=60)
    @given(st.text(max_size=80))
    def test_agents_never_raise_past_fallback(self, reply):
        doc = make_doc("https://a.example/1")
        assert isinstance(suite([reply]).initial_query_gen(CLAIM), list)
        assert isinstance(
            suite([reply]).self_contained_check(CLAIM, EvidenceSet(), doc), bool)
        assert isinstance(
            suite([reply]).det_helpful(CLAIM, EvidenceSet(), doc), HelpfulnessJudgment)
        assert isinstance(
            suite([reply, reply]).classify(CLAIM, EvidenceSet()), Verdict)
        assert isinstance(
            suite([reply]).additional_query_gen(CLAIM, evidence_with()), list)


class TestParsersDirect:
    def test_yes_no_window_is_first_ten_tokens(self):
        padding = "word " * 10
        assert parse_yes_no(padding + "yes") is None
        assert parse_yes_no("definitely yes it is") is True

    def test_true_false_case_insensitive(self):
        assert parse_true_false("TRUE!") is Verdict.TRUE
        assert parse_true_false("it's false.") is Verdict.FALSE

    def test_repeats_kept_in_order(self):
        assert parse_query_list("1. A\n2. a\n3. B\n4. A") == ["A", "a", "B", "A"]

    def test_bullet_styles(self):
        reply = "- alpha query\n* beta query\n3) gamma query\n• delta query"
        assert parse_query_list(reply) == [
            "alpha query", "beta query", "gamma query", "delta query"]


class TestPromptKeysPinned:
    """Every request the seven agents send, pinned by its replay key: a
    prompt that changes by one byte no longer replays recorded fixtures."""

    KEYS = [
        ("initial_query_gen",
         "cf717b1243ee880384764776a052da46a44f3ae1af4149ee4a5ad281dcafd5a4"),
        ("search_rank",
         "56aca9ffa611108d0da911cbddf69d34f69ed8f6fa932e08008891d7d6f24f78"),
        ("self_contained_check",
         "813967546b55da8da51eb0f815f203e2afb6c65d98c1a2e01565f14b74e3346f"),
        ("det_helpful",
         "5a790792421a542938d4f12c94d5120061dad9f8ca55afe78f7ddc5b8ade8814"),
        ("sufficient_evidence",
         "f60daeeae01b202ff269cda40cd131a925c8ef9f960e0173ff3d46506492af24"),
        ("classify",
         "e7b63488ecee9500dba54bb265586ecdf79aa79a04918b84389bf58f87e2ad1f"),
        # the retry, after an unparseable verdict
        ("classify",
         "499feb61aee50c9990aea690844e688f20d63c38dfd1a893771e23fb7be3937e"),
        ("additional_query_gen",
         "d1bdd815c660c65a33ddc56d7970caac0f47ab0dffae457a5c5bfe3933af6df9"),
    ]

    def test_replay_keys_unchanged(self):
        gateway = FakeGateway(responder=lambda req: "maybe")
        a = AgentSuite(gateway, BudgetConfig(model_id="m-1", temperature=0.5),
                       load_prompts(), RunTrace())
        claim = Claim(text="Zürich's lake is 88 km² in area")
        evidence = evidence_with(2)
        doc = make_doc("https://a.example/1", body="The lake covers 88 km².\n\nMore text.")
        results = [make_result(f"https://r.example/{i}", title=f"title {i}",
                               snippet=f"snippet {i}") for i in range(3)]
        sent = []
        for agent, call in [
            ("initial_query_gen", lambda: a.initial_query_gen(claim)),
            ("search_rank", lambda: a.search_rank(SearchQuery("lake area"), results)),
            ("self_contained_check", lambda: a.self_contained_check(claim, EvidenceSet(), doc)),
            ("det_helpful", lambda: a.det_helpful(claim, evidence, doc)),
            ("sufficient_evidence", lambda: a.sufficient_evidence(claim, evidence)),
            ("classify", lambda: a.classify(claim, evidence)),
            ("additional_query_gen",
             lambda: a.additional_query_gen(claim, evidence)),
        ]:
            start = len(gateway.requests)
            call()
            sent += [(agent, replay_key(req)) for req in gateway.requests[start:]]
        assert sent == self.KEYS
