"""pipeline.build_verifier: the one place in the package that wires the LLM
gateway, the search client and the page reader, in every mode.  Also the
one place that builds a chat request, AgentSuite._request."""
import ast
import itertools
import json
import threading
from pathlib import Path

import pytest

from claimcheck.llm import ChatRequest, replay_key
from claimcheck.model import BudgetConfig, Claim, Verdict
from claimcheck.pipeline import build_verifier
from claimcheck.trace import EventKind, RunTrace
from claimcheck.websearch import DEFAULT_ENDPOINT, search_fixture_key

from conftest import scripted_llm_app, serper_stub_app, standard_llm_rules

SRC = Path(__file__).resolve().parent.parent / "src" / "claimcheck"
WIRED = {"LlmGateway", "SearchClient", "PageReader"}


@pytest.mark.parametrize("mode", ["live", "record", "replay"])
def test_each_mode_wires_both_clients_alike(mode, tmp_path):
    verifier = build_verifier(mode, tmp_path / "fx", llm_base_url="http://127.0.0.1:9")
    gateway = verifier._agent_factory(BudgetConfig(), RunTrace()).gateway
    assert gateway.mode == verifier.search.mode == mode
    assert gateway.store.root == tmp_path / "fx" / "llm"
    assert verifier.search.store.root == tmp_path / "fx" / "search"
    assert verifier.search.endpoint == DEFAULT_ENDPOINT
    assert verifier.reader.respect_robots is True
    assert (verifier._prefetch_pool is not None) == (mode == "live")


@pytest.mark.parametrize("mode", ["live", "replay"])
def test_no_llm_url_or_no_fixtures_is_a_value_error(mode):
    with pytest.raises(ValueError):
        build_verifier(mode)


@pytest.mark.parametrize("busy", ["llm", "search"])
def test_each_client_backs_off_on_its_own_sleep(http_stub, busy):
    """Only the client answered 503 once sleeps, and with search_rps 0 the
    two searches, sent milliseconds apart, wait for no rate limit."""
    answered = {"llm": False, "search": False}

    def once_busy(name, app):
        def serve(method, path, body, headers):
            if name == busy and not answered[name]:
                answered[name] = True
                return 503, {}, b"busy"
            return app(method, path, body, headers)
        return serve

    rules = dict(standard_llm_rules())
    rules["numbered list of web search queries"] = "1. query one\n2. query two"
    rules["Is this evidence sufficient"] = "NO, more is needed."
    sleeps = {"llm": [], "search": []}
    verifier = build_verifier(
        "live",
        llm_base_url=http_stub(once_busy("llm", scripted_llm_app(list(rules.items())))),
        search_endpoint=http_stub(once_busy("search", serper_stub_app())),
        search_rps=0, llm_sleep=sleeps["llm"].append, search_sleep=sleeps["search"].append)
    report = verifier.verify(Claim(text="Paris is the capital of France"), BudgetConfig())
    searches = [e.payload for e in report.trace.events if e.kind is EventKind.SEARCH_CALL]
    assert [s["query"] for s in searches] == ["query one", "query two"]
    assert all(s["n_results"] == 1 and "error" not in s for s in searches)
    assert sleeps == {"llm": [], "search": [], busy: [1.0]}


def test_record_and_replay_start_no_thread(http_stub, tmp_path, monkeypatch):
    """With no prefetch pool a record or replay claim runs on the caller's
    thread alone: a thread it started could still use CPU after it returns.
    A live claim, whose pool does start threads, shows the check works."""
    llm = http_stub(scripted_llm_app(standard_llm_rules(n_results=2)))
    search = http_stub(serper_stub_app(n_results=2))
    caller = threading.get_ident()
    start = threading.Thread.start

    def refuse_on_the_caller(thread):
        if threading.get_ident() == caller:  # the stub servers' threads may start threads
            raise AssertionError(f"thread {thread.name} started")
        start(thread)

    claim = Claim(text="Paris is the capital of France")
    for mode in ("record", "replay", "live"):
        verifier = build_verifier(mode, tmp_path / "fx", llm_base_url=llm,
                                  search_endpoint=search, search_rps=0)
        with monkeypatch.context() as patched:
            patched.setattr(threading.Thread, "start", refuse_on_the_caller)
            if mode == "live":
                with pytest.raises(AssertionError, match="claimcheck-prefetch"):
                    verifier.verify(claim)
            else:
                assert verifier.verify(claim).verdict is Verdict.TRUE


def test_each_fixture_file_is_named_by_the_request_it_stores(http_stub, tmp_path):
    """The key a fixture is filed under, rebuilt from the request stored in
    it: so a reviewer reads in each file every field its key hashes.  Two
    claims (one with an id, one without) search one query, and re-ask the
    follow-up call on evidence that never grows."""
    follow_ups = itertools.count()
    rules = dict(standard_llm_rules())
    rules["numbered list of web search queries"] = "1. shared topic"
    rules["adds helpful new information"] = "NOT HELPFUL"
    rules["list of new web search queries"] = lambda messages: f"1. follow-up {next(follow_ups)}"
    fixtures = tmp_path / "fx"
    verifier = build_verifier("record", fixtures,
                              llm_base_url=http_stub(scripted_llm_app(list(rules.items()))),
                              search_endpoint=http_stub(serper_stub_app()), search_rps=0)
    for claim in (Claim(text="Alpha is first", id="a"), Claim(text="Beta is second")):
        verifier.verify(claim)

    requests = []
    for path in (fixtures / "llm").glob("*.json"):
        stored = json.loads(path.read_text(encoding="utf-8"))["request"]
        req = ChatRequest(model_id=stored["model"], temperature=stored["temperature"],
                          messages=tuple(map(tuple, stored["messages"])),
                          occurrence=stored["occurrence"], scope=stored["scope"])
        assert path.stem == replay_key(req)
        requests.append(req)
    assert {req.scope for req in requests} == {"a", "Beta is second"}
    assert max(req.occurrence for req in requests) == 2
    searches = []
    for path in (fixtures / "search").glob("*.json"):
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert path.stem == search_fixture_key(stored["query"], stored["k"], stored["scope"])
        searches.append((stored["scope"], stored["query"]))
    # each claim's budget of 4 queries, the shared one recorded once for each
    assert sorted(scope for scope, _ in searches) == ["Beta is second"] * 4 + ["a"] * 4
    assert sorted(scope for scope, query in searches if query == "shared topic") == [
        "Beta is second", "a"]


def constructions(names: set[str]) -> set[tuple[str, str]]:
    """(module.function, class) for each call of a class in `names` in the package."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.add((where, name))
            visit(child, where)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_the_clients_are_constructed_only_in_build_verifier():
    assert constructions(WIRED) == {("pipeline.build_verifier", name) for name in WIRED}


def test_chat_requests_are_constructed_only_in_the_agent_suite():
    """A request built anywhere else would escape the suite's count of
    repeated asks, and replay would hand it another ask's answer."""
    assert constructions({"ChatRequest"}) == {("agents.AgentSuite._request", "ChatRequest")}
