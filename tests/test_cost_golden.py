"""Golden per-claim costs and traces on the benchmark worlds of
``perfbench/world.py``: the easy and the hard world, small pages, one seed.

``perfbench/stub.py``'s StubApp answers LLM, search and page requests from
the world with no latency, behind a keep-alive StubServer in this process.
A record pass through ``pipeline.build_verifier`` pins, for each claim:
its verdict and termination reason; the LLM requests, searches and page
fetches that reached the stub with the claim's id in them; the prompt
characters of those LLM requests; and the sha256 of its normalized trace.
A replay pass over the record fixtures, and a live pass with the real
prefetch pool, must give the record pass's traces.  The live pass must also
send each claim's record searches, and its record LLM requests plus at most
one, that one only for a claim that ended sufficient in its tail: on these
worlds every page first read in the tail is understood, so the only request
a claim may leave unread is the one sent beside the sufficiency check that
said yes.

The stub's URL, whose port changes from run to run, is replaced by
PLACEHOLDER before characters are counted or a trace is hashed.

A change that moves any of these counts, a prompt, or the order or content
of a claim's decisions fails here.  When such a change is meant, say so
and regenerate the file:

    PYTHONPATH=src python tests/test_cost_golden.py
"""
import hashlib
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from claimcheck.model import BudgetConfig, Claim
from claimcheck.pipeline import build_verifier

from conftest import StubServer, _KeepAliveStubHandler, ended_sufficient_in_tail

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "data" / "cost_golden.json"
MIXES = ("easy", "hard")
SEED = 1
PLACEHOLDER = "http://stub.invalid"
NO_LATENCY = SimpleNamespace(llm_ms=0, llm_us_per_char=0, search_ms=0, page_ms=0, rps=0)
ALLOW_ALL = b"User-agent: *\nAllow: /\n"


class CountingStub:
    """StubApp behind conftest's app interface, routed as stub.Handler
    routes; counts each request against the claim id it carries."""

    def __init__(self, stub_module, world_module, world: dict) -> None:
        self.app = stub_module.StubApp(world, NO_LATENCY)
        self.claim_id_in = world_module.claim_id_in
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.lock = threading.Lock()

    def count(self, text: str, route: str, chars: int = 0) -> None:
        with self.lock:
            counts = self.counts[self.claim_id_in(text) or "none"]
            counts[route] += 1
            counts["prompt_chars"] += chars

    def __call__(self, method, path, body, headers):
        path = path.split("?", 1)[0]
        if path.endswith("/chat/completions"):
            contents = [m["content"].replace(self.app.base, PLACEHOLDER)
                        for m in json.loads(body)["messages"]]
            self.count("\n".join(contents), "llm", sum(map(len, contents)))
            status, content_type, payload = self.app.llm(body)
        elif path == "/search":
            self.count(json.loads(body).get("q", ""), "search")
            status, content_type, payload = self.app.search(body)
        elif path.startswith("/page/"):
            self.count(path, "page")
            status, content_type, payload = self.app.page(path)
        elif path == "/robots.txt":
            status, content_type, payload = 200, "text/plain", ALLOW_ALL
        else:
            status, content_type, payload = 404, "text/plain", b"no such route"
        return status, {"Content-Type": content_type}, payload


def trace_digest(report, base: str) -> str:
    text = report.trace.to_jsonl(normalize_timestamps=True).replace(base, PLACEHOLDER)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_passes(mix: str, fixtures: Path) -> dict:
    """{"costs": {claim id: pinned record-pass costs}, "record" / "replay" /
    "live": {claim id: trace digest}, "sent": {mode: {claim id: (LLM
    requests, searches)}}, "tail_sufficient": {claim id: bool}} for the
    mix's world."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import stub as stub_module
        import world as world_module
    finally:
        sys.path.remove(str(PERFBENCH))
    world = world_module.generate(mix, "small", SEED)
    stub = CountingStub(stub_module, world_module, world)
    server = StubServer(stub, _KeepAliveStubHandler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()
    stub.app.base = base = server.url
    claims = [Claim(c["text"], c["id"]) for c in world["claims"]]
    urls = dict(llm_base_url=f"{base}/v1", llm_api_key="k",
                search_endpoint=f"{base}/search", search_api_key="k", search_rps=0)
    out: dict = {"costs": {}, "sent": {}, "tail_sufficient": {}}
    try:
        for mode in ("record", "replay", "live"):
            verifier = build_verifier(mode, fixtures if mode != "live" else None, **urls)
            digests = out[mode] = {}
            sent = out["sent"][mode] = {}
            for claim in claims:
                before = Counter(stub.counts[claim.id])
                report = verifier.verify(claim, BudgetConfig())
                digests[claim.id] = trace_digest(report, base)
                sent[claim.id] = tuple(stub.counts[claim.id][key] - before[key]
                                       for key in ("llm", "search"))
                if mode == "record":
                    out["tail_sufficient"][claim.id] = ended_sufficient_in_tail(
                        report, BudgetConfig())
                    out["costs"][claim.id] = {
                        "verdict": report.verdict.value,
                        "terminated_by": report.terminated_by.value,
                        **{key: stub.counts[claim.id][key]
                           for key in ("llm", "search", "page", "prompt_chars")},
                        "trace_sha256": digests[claim.id],
                    }
    finally:
        server.stop()
    return out


@pytest.fixture(scope="module", params=MIXES)
def passes(request, tmp_path_factory):
    return request.param, run_passes(request.param, tmp_path_factory.mktemp("fixtures"))


def test_record_pass_costs_and_traces_are_the_golden_ones(passes):
    mix, out = passes
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[mix]
    assert sorted(out["costs"]) == sorted(golden), (
        "world changed: the claims are not the ones the golden file was made from")
    changed = {cid: (golden[cid], costs) for cid, costs in out["costs"].items()
               if costs != golden[cid]}
    assert not changed, f"{len(changed)} claims changed (golden, now): {changed}"


def test_replay_gives_the_record_traces(passes):
    _, out = passes
    assert out["replay"] == out["record"]


def test_live_gives_the_record_traces(passes):
    _, out = passes
    assert out["live"] == out["record"]


def test_live_sends_the_record_requests_and_at_most_one_more(passes):
    _, out = passes
    record, live = out["sent"]["record"], out["sent"]["live"]
    for cid, (llm, searches) in record.items():
        live_llm, live_searches = live[cid]
        assert live_searches == searches, cid
        assert llm <= live_llm <= llm + out["tail_sufficient"][cid], cid


if __name__ == "__main__":
    import tempfile

    golden = {}
    for mix in MIXES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[mix] = run_passes(mix, Path(tmp))["costs"]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
