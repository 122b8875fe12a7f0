import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.model import (
    EMPTY_EVIDENCE_MARKER,
    BudgetConfig,
    Claim,
    EvidenceItem,
    EvidenceSet,
    SearchQuery,
    SearchResultMeta,
    Verdict,
)
from claimcheck.trace import EventKind, RunTrace


def item(url: str, note: str = "a note") -> EvidenceItem:
    return EvidenceItem(note=note, source_url=url)


class TestDomainTypes:
    def test_claim_requires_text(self):
        with pytest.raises(ValueError):
            Claim(text="   ")

    def test_verdict_has_exactly_two_values(self):
        assert {v.value for v in Verdict} == {"True", "False"}

    def test_query_requires_text(self):
        with pytest.raises(ValueError):
            SearchQuery("")

    def test_result_requires_absolute_http_url(self):
        with pytest.raises(ValueError):
            SearchResultMeta(title="t", url="not-a-url", snippet="s")
        with pytest.raises(ValueError):
            SearchResultMeta(title="t", url="ftp://x.example/a", snippet="s")

    def test_evidence_item_invariants(self):
        with pytest.raises(ValueError):
            EvidenceItem(note="", source_url="https://x.example/a")


class TestEvidenceSet:
    def test_add_to_empty(self):
        s, added = EvidenceSet().add(item("https://a.example/1"))
        assert added and len(s) == 1

    def test_duplicate_url_rejected(self):
        s, _ = EvidenceSet().add(item("https://a.example/1"))
        s2, added = s.add(item("https://a.example/1", note="different"))
        assert not added
        assert s2 is s

    def test_dedupe_lowers_scheme_and_host_only(self):
        s, _ = EvidenceSet().add(item("https://A.Example/Path"))
        _, added = s.add(item("HTTPS://a.example/Path"))
        assert not added
        _, added = s.add(item("https://a.example/path"))  # path case differs
        assert added

    def test_insertion_order_preserved(self):
        s = EvidenceSet()
        urls = [f"https://x.example/{c}" for c in "abc"]
        for u in urls:
            s, added = s.add(item(u))
            assert added
        assert [i.source_url for i in s] == urls

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=30))
    def test_no_duplicate_urls_property(self, picks):
        s = EvidenceSet()
        for n in picks:
            s, _ = s.add(item(f"https://x.example/{n}"))
        urls = [i.source_url for i in s]
        assert len(urls) == len(set(urls))


class TestEvidenceRender:
    def test_empty_set_marker(self):
        assert EvidenceSet().render(100) == EMPTY_EVIDENCE_MARKER

    def test_order_preserved_under_large_budget(self):
        s = EvidenceSet()
        s, _ = s.add(item("https://x.example/1", note="first"))
        s, _ = s.add(item("https://x.example/2", note="second"))
        out = s.render(10_000)
        assert out.index("1. first") < out.index("2. second")
        assert "(source: https://x.example/1)" in out

    def test_newest_dropped_first_when_over_budget(self):
        s = EvidenceSet()
        for n in (1, 2, 3):
            s, _ = s.add(item(f"https://x.example/{n}", note=f"note number {n}"))
        two_items = "\n".join(
            f"{i}. note number {i} (source: https://x.example/{i})" for i in (1, 2)
        )
        # budget exactly fits the first two items, not the third
        out = s.render(len(two_items))
        assert out == two_items

    @given(
        st.lists(st.text(alphabet="abcdef ", min_size=1, max_size=40)
                 .filter(lambda t: t.strip()), max_size=8),
        st.integers(min_value=1, max_value=300),
    )
    def test_render_length_within_budget(self, notes, budget):
        s = EvidenceSet()
        for n, note in enumerate(notes):
            s, _ = s.add(item(f"https://x.example/{n}", note=note))
        assert len(s.render(budget)) <= budget


class TestBudget:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BudgetConfig(max_search_queries=0)
        with pytest.raises(ValueError):
            BudgetConfig(temperature=-0.1)


class TestRunTrace:
    def test_verdict_closes_trace(self):
        trace = RunTrace(clock=lambda: 1.0)
        trace.log(EventKind.SEARCH_CALL, query="q")
        trace.log(EventKind.VERDICT, verdict="True")
        assert trace.completed
        with pytest.raises(ValueError):
            trace.log(EventKind.SEARCH_CALL, query="again")

    def test_jsonl_round_trip(self):
        import json

        trace = RunTrace(clock=lambda: 2.5)
        trace.log(EventKind.AGENT_CALL, agent="classify")
        trace.log(EventKind.VERDICT, verdict="False")
        lines = trace.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        last = json.loads(lines[-1])
        assert last["kind"] == "verdict"
        assert last["ts"] == 2.5

    def test_timestamp_normalization(self):
        ticks = iter(range(100))
        trace = RunTrace(clock=lambda: float(next(ticks)))
        trace.log(EventKind.VERDICT, verdict="True")
        assert '"ts": 0.0' in trace.to_jsonl(normalize_timestamps=True)
