"""Golden per-claim costs and traces on the benchmark worlds of
``perfbench/world.py``: the easy and the hard world, small pages, one seed.

``perfbench/stub.py``'s StubApp answers LLM, search and page requests from
the world with no latency, behind a keep-alive StubServer in this process.
A record pass through ``pipeline.build_verifier`` pins, for each claim:
its verdict and termination reason; the LLM requests, searches and page
fetches that reached the stub with the claim's id in them; the prompt
characters of those LLM requests; and the sha256 of its normalized trace.
A replay pass over the record fixtures, a live pass with the real
prefetch pool, and a live pass in virtual time must give the record pass's
traces.  The live pass must also send each claim's record searches, and its
record LLM requests plus at most one, that one only for a claim that ended
sufficient in its tail: on these worlds every page first read in the tail
is understood, no page a claim rechecks last is added, and no claim ends
sufficient before its tail at a check made with no result unread and no
query queued, the one check beside which the follow-up query call goes.
So the only request a claim may leave unread is the one sent beside a
sufficiency check in its tail that said yes.

The virtual pass pins each claim's critical path: the time ``verify`` would
take with perfbench's injected latency (``perfbench/run.py``'s ``REAL_*``
constants times ``TIME_FACTOR``) and HOST_NS_PER_LLM_CALL more per LLM call,
with every call the pool sends overlapping the loop as a pool with a worker
for each task would run it.  A change to a claim's schedule shows here as a
change in its ``critical_path_ms``, with no timing noise.

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
from concurrent.futures import Future
from pathlib import Path
from statistics import mean
from types import SimpleNamespace

import pytest

from claimcheck.llm import LlmGateway
from claimcheck.model import BudgetConfig, Claim
from claimcheck.pages import PageReader
from claimcheck.pipeline import build_verifier
from claimcheck.websearch import SearchClient

from conftest import StubServer, _KeepAliveStubHandler, ended_sufficient_in_tail

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "data" / "cost_golden.json"
MIXES = ("easy", "hard")
PASSES = {"record": "record", "replay": "replay", "live": "live", "virtual": "live"}  # -> mode
SEED = 1
PLACEHOLDER = "http://stub.invalid"
NO_LATENCY = SimpleNamespace(llm_ms=0, llm_us_per_char=0, search_ms=0, page_ms=0, rps=0)
ALLOW_ALL = b"User-agent: *\nAllow: /\n"
# The host's own time per LLM call (building, sending and parsing it, and
# logging it), on top of the stub's injected latency: 1.3 ms, measured on a
# 2-vCPU host before this model was drawn up (CHANGES.md gives the source),
# and not fitted to bring the model to perfbench's times.
HOST_NS_PER_LLM_CALL = 1_300_000


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


class VirtualTask(Future):
    """A task the virtual executor ran when it was sent, finishing at
    `finish` on its claim's clock.  As a real pool shows it, it is done only
    once the claim's clock has reached `finish`, and it cannot be cancelled
    (it started when it was sent).  Taking its result moves the claim's
    clock to `finish` if that is later."""

    def __init__(self, executor: "VirtualExecutor") -> None:
        super().__init__()
        self.executor = executor
        self.finish = executor.now

    def done(self) -> bool:
        return self.finish <= self.executor.now

    def result(self, timeout=None):
        self.executor.now = max(self.executor.now, self.finish)
        return super().result(timeout)


class VirtualExecutor:
    """The prefetch pool in virtual time, with a worker for every task: one
    claim at a time, each task runs when it is sent, starting at the claim's
    clock.  `now` is the claim's clock, in nanoseconds, or the running
    task's, so a call made inside a task advances that task's clock only."""

    def __init__(self) -> None:
        self.now = 0
        self.tasks: list[VirtualTask] = []

    def submit(self, fn, *args) -> VirtualTask:
        start, task = self.now, VirtualTask(self)
        try:
            task.set_result(fn(*args))
        except Exception as exc:
            task.set_exception(exc)
        task.finish, self.now = self.now, start
        self.tasks.append(task)
        return task

    def critical_path_ms(self) -> float:
        """The claim's time, ``verify`` returning only once every task it
        sent has finished, rounded to 0.01 ms; the next claim starts at 0."""
        end = max([self.now, *(task.finish for task in self.tasks)])
        self.now, self.tasks = 0, []
        return round(end / 1e6, 2)


def add_latency(monkeypatch, executor: VirtualExecutor, run_module, base: str) -> None:
    """Each LLM call, search and page acquisition advances the executor's
    clock by perfbench's latency for it.  An LLM call's prompt characters
    are counted with the stub's URL as PLACEHOLDER, and the call adds
    HOST_NS_PER_LLM_CALL."""
    def ns(seconds: float) -> int:
        return round(seconds * run_module.TIME_FACTOR * 1e9)

    def llm(req) -> int:
        chars = sum(len(content.replace(base, PLACEHOLDER)) for _, content in req.messages)
        return (ns(run_module.REAL_LLM_S) + ns(run_module.REAL_LLM_S_PER_CHAR) * chars
                + HOST_NS_PER_LLM_CALL)

    costs = {
        (LlmGateway, "complete"): llm,
        (SearchClient, "search"): lambda query: ns(run_module.REAL_SEARCH_S),
        (PageReader, "acquire_document"): lambda result: ns(run_module.REAL_PAGE_S),
    }
    for (owner, name), cost in costs.items():
        def timed(self, arg, *rest, original=getattr(owner, name), cost=cost):
            try:
                return original(self, arg, *rest)
            finally:
                executor.now += cost(arg)
        monkeypatch.setattr(owner, name, timed)


def trace_digest(report, base: str) -> str:
    text = report.trace.to_jsonl(normalize_timestamps=True).replace(base, PLACEHOLDER)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_passes(mix: str, fixtures: Path) -> dict:
    """{"costs": {claim id: pinned record-pass costs}, "record" / "replay" /
    "live" / "virtual": {claim id: trace digest}, "sent": {pass: {claim id:
    (LLM requests, searches)}}, "tail_sufficient": {claim id: bool},
    "critical_path_ms": {claim id: virtual-pass time}} for the mix's world."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run as run_module
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
    out: dict = {"costs": {}, "sent": {}, "tail_sufficient": {}, "critical_path_ms": {}}
    try:
        for name, mode in PASSES.items():
            verifier = build_verifier(mode, fixtures if mode != "live" else None, **urls)
            digests = out[name] = {}
            sent = out["sent"][name] = {}
            with pytest.MonkeyPatch.context() as monkeypatch:
                if name == "virtual":
                    verifier._prefetch_pool = virtual = VirtualExecutor()
                    add_latency(monkeypatch, virtual, run_module, base)
                for claim in claims:
                    before = Counter(stub.counts[claim.id])
                    report = verifier.verify(claim, BudgetConfig())
                    digests[claim.id] = trace_digest(report, base)
                    sent[claim.id] = tuple(stub.counts[claim.id][key] - before[key]
                                           for key in ("llm", "search"))
                    if name == "virtual":
                        out["critical_path_ms"][claim.id] = virtual.critical_path_ms()
                    if name == "record":
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


def golden_claims(mix: str) -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[mix]


def test_record_pass_costs_and_traces_are_the_golden_ones(passes):
    mix, out = passes
    golden = {cid: {key: value for key, value in pinned.items() if key != "critical_path_ms"}
              for cid, pinned in golden_claims(mix).items()}
    assert sorted(out["costs"]) == sorted(golden), (
        "world changed: the claims are not the ones the golden file was made from")
    changed = {cid: (golden[cid], costs) for cid, costs in out["costs"].items()
               if costs != golden[cid]}
    assert not changed, f"{len(changed)} claims changed (golden, now): {changed}"


def test_virtual_critical_paths_are_the_golden_ones(passes):
    mix, out = passes
    golden = {cid: pinned["critical_path_ms"] for cid, pinned in golden_claims(mix).items()}
    now = out["critical_path_ms"]
    changed = {cid: (golden[cid], now[cid]) for cid in golden if now[cid] != golden[cid]}
    assert not changed, (f"{len(changed)} claims' critical paths changed (golden, now ms): "
                         f"{changed}; mean {mean(golden.values()):.2f} -> "
                         f"{mean(now.values()):.2f}")


def test_replay_gives_the_record_traces(passes):
    _, out = passes
    assert out["replay"] == out["record"]


def test_live_gives_the_record_traces(passes):
    _, out = passes
    assert out["live"] == out["record"]


def test_virtual_gives_the_record_traces(passes):
    _, out = passes
    assert out["virtual"] == out["record"]


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
            out = run_passes(mix, Path(tmp))
        golden[mix] = {cid: {**costs, "critical_path_ms": out["critical_path_ms"][cid]}
                       for cid, costs in out["costs"].items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
