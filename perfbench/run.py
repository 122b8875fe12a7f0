"""Offline claim-verification benchmark.

Runs the real ``Verifier`` and ``AgentSuite`` over a seeded synthetic world,
against a loopback stub that plays the LLM, search and page services, and
prints every metric by name with its unit; the last line of standard
output is one JSON object.  From the repository root:

    python3 perfbench/run.py --workload replay_easy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from spans, in a run that also times an untraced half to
report the tracing overhead.  The exit code is 1 when an oracle,
replay-honesty or CLI-parity check fails, 2 when the program is missing.
See README.md in this directory for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "claimcheck" / "__init__.py").is_file():
    print(f"perfbench: the program is missing: no {SRC / 'claimcheck'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import world  # noqa: E402
from claimcheck import agents, evalkit, llm, model, pages, pipeline, websearch  # noqa: E402

# Injected latency is a real provider's scaled by TIME_FACTOR; the search
# rate limit is scaled by the same factor, so a ~1 s LLM call against a
# 5/s search limit keeps its real proportion.
TIME_FACTOR = 1 / 50
REAL_LLM_S = 0.8            # plus REAL_LLM_S_PER_CHAR per prompt character
# An assumption, not a measurement: 5 000 prompt tokens/s of prefill at
# about 4 characters per token.  No offline source gives a provider's
# figure; it sets only how much live_hard's times reward shorter prompts,
# and prompt_chars_per_claim measures prompt size itself.
REAL_LLM_S_PER_CHAR = 50e-6
REAL_SEARCH_S = 0.6
REAL_PAGE_S = 1.0
REAL_SEARCH_RPS = 5.0

CALIBRATION_NOMINAL_S = 0.005
CALIBRATION_EVERY_S = 0.05
# CPU time other threads of this process may use from a claim's end to its
# last calibration sample; the seed program's threads use under 0.03 ms
CALIBRATION_OTHER_CPU_S = 0.0005
SETUP_CALIBRATION_SAMPLES = 5
SETUP_REPEATS = 3
WARMUP_CLAIMS = 2
# coarse steps, so the chosen percentile does not flip between runs whose
# claim counts differ a little
TAIL_PERCENTILES = (95.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# a timed phase makes at least this many claim runs, whole passes, so that
# p75 always has TAIL_MIN_BEYOND runs beyond it: on a slow machine the tail
# of a workload with few passes would otherwise fall from p75 to p50
MIN_CLAIM_RUNS = 4 * TAIL_MIN_BEYOND
API_KEY = "perfbench"


@dataclass(frozen=True)
class Workload:
    mode: str          # live | replay
    mix: str           # world.WORLD_MIX key
    page_sizes: str    # world.PAGE_SIZES key
    concurrency: int
    latency: bool      # inject latency in the stub; without it the workload is
                       # CPU-bound, runs at concurrency 1 and is calibrated


WORKLOADS = {
    "live_hard": Workload("live", "hard", "small", concurrency=2, latency=True),
    "replay_easy": Workload("replay", "easy", "small", concurrency=1, latency=False),
    "replay_bigpages": Workload("replay", "easy", "big", concurrency=1, latency=False),
}

END_TO_END = {  # name -> unit
    "claim_s_p50": "s", "claim_s_tail": "s", "claims_per_s": "1/s",
    "llm_calls_per_claim": "count", "prompt_chars_per_claim": "chars",
    "search_queries_per_claim": "count", "page_fetches_per_claim": "count",
    "setup_s": "s", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# the stub process


class Stub:
    """The loopback stub in one child process."""

    def __init__(self, world_path: Path, workload: Workload) -> None:
        scale = TIME_FACTOR if workload.latency else 0.0
        cmd = [
            sys.executable, str(HERE / "stub.py"), "--world", str(world_path),
            "--llm-ms", str(REAL_LLM_S * scale * 1000),
            "--llm-us-per-char", str(REAL_LLM_S_PER_CHAR * scale * 1e6),
            "--search-ms", str(REAL_SEARCH_S * scale * 1000),
            "--page-ms", str(REAL_PAGE_S * scale * 1000),
            "--rps", str(search_rps(workload)),
        ]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"stub did not start (said {line!r})")
        self.port = int(line.split()[1])
        self.base = f"http://127.0.0.1:{self.port}"

    def _ctl(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stats(self) -> dict:
        return self._ctl("GET", "/_ctl/stats")

    def reset(self) -> None:
        self._ctl("POST", "/_ctl/reset")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def search_rps(workload: Workload) -> float:
    return REAL_SEARCH_RPS / TIME_FACTOR if workload.mode == "live" else 0.0


# ---------------------------------------------------------------------------
# set-up: world, stub, prompts, dataset, fixtures, verifier


class SleepMeter:
    """A ``sleep`` hook that adds up the time slept."""

    def __init__(self) -> None:
        self.total = 0.0
        self._lock = threading.Lock()

    def __call__(self, seconds: float) -> None:
        with self._lock:
            self.total += seconds
        time.sleep(seconds)


class Calibration:
    """A fixed task from the standard library alone, paired with each claim
    of a CPU-bound workload: fetch a 24 KB page from the stub over a new
    loopback connection, parse it with ``html.parser``, read four JSON
    files, hash the lot.  A replay claim does the same kinds of work.

    Other tenants of a shared machine slow its CPU by up to 1.7x, in bursts
    of seconds to minutes.  A claim's time multiplied by
    CALIBRATION_NOMINAL_S / (the median calibration time around it) reads
    as the claim's time on a machine where the task takes
    CALIBRATION_NOMINAL_S; its medians repeat from run to run within a few
    percent, where raw medians differ by 10-30%.

    That holds only if no program work runs between the end of a claim and
    its samples, so ``samples`` checks it: other threads of this process
    use no CPU, and the stub gets no request, from the given mark until
    the last sample.  A breach is recorded in ``disturbed`` and fails the
    run.  The garbage collector is off during the samples, so collections
    that the program's garbage calls for fall in the claims.
    """

    def __init__(self, stub: Stub, work: Path, disturbed: list) -> None:
        self.port = stub.port
        self.disturbed = disturbed
        self.files = []
        for i in range(4):
            path = work / f"calibration{i}.json"
            path.write_text(json.dumps({f"key{j}": [f"value {i} {j}", j, [1.5, None, True]]
                                        for j in range(80)}, indent=2), encoding="utf-8")
            self.files.append(path)

    @staticmethod
    def mark() -> tuple[float, float, float]:
        """The point from which no program work may run."""
        return time.monotonic(), time.process_time(), time.thread_time()

    def _sample(self) -> tuple[float, float]:
        """(seconds, time.monotonic() of the stub's latest counted request)"""
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/_ctl/calibration")
            response = conn.getresponse()
            page = response.read().decode("utf-8")
        finally:
            conn.close()
        parser = _DataCollector()
        parser.feed(page)
        parser.close()
        records = [json.loads(path.read_text(encoding="utf-8")) for path in self.files]
        hashlib.sha256(json.dumps([records, " ".join(parser.chunks)]).encode()).hexdigest()
        return time.perf_counter() - start, float(response.getheader("X-Last-Request"))

    def samples(self, n: int, mark: tuple[float, float, float]) -> list[float]:
        collecting = gc.isenabled()
        gc.disable()
        try:
            taken = [self._sample() for _ in range(n)]
        finally:
            if collecting:
                gc.enable()
        since, process0, thread0 = mark
        other_cpu = (time.process_time() - process0) - (time.thread_time() - thread0)
        if other_cpu > CALIBRATION_OTHER_CPU_S:
            self.disturbed.append(f"other threads used over {CALIBRATION_OTHER_CPU_S * 1000:g} "
                                  f"ms of CPU between a claim's end and its calibration samples")
        if taken[-1][1] > since:
            self.disturbed.append("the stub got a program request between a claim's end "
                                  "and its calibration samples")
        return [seconds for seconds, _ in taken]

    def scale(self, n: int, mark: tuple[float, float, float]) -> float:
        """CALIBRATION_NOMINAL_S over the median of ``n`` samples."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples(n, mark))


class _DataCollector(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.chunks: list[str] = []

    def handle_data(self, data: str) -> None:
        self.chunks.append(data)


@dataclass
class Setup:
    world: dict
    stub: Stub
    claims: list
    dataset: Path
    fixtures: Path
    verifier: pipeline.Verifier
    llm_sleep: SleepMeter
    search_sleep: SleepMeter
    calibration: Calibration
    seconds: float      # calibrated


def check_agent_rules(prompts: dict) -> None:
    """The stub LLM tells agents apart by prompt phrases; fail early if the
    shipped prompts no longer carry them."""
    for name, prompt in prompts.items():
        found = world.detect_agent(f"{prompt.system_text}\n{prompt.user_template}")
        if found != name:
            raise RuntimeError(f"stub LLM reads the {name} prompt as {found}")


def expected(setup_world: dict) -> dict:
    return {c["id"]: c for c in setup_world["claims"]}


def record_fixtures(stub: Stub, fixtures: Path, claims: list, oracle: dict) -> None:
    """A record-mode pass against the stub with no latency."""
    verifier = pipeline.Verifier(
        gateway=llm.LlmGateway(mode="record", base_url=f"{stub.base}/v1", api_key=API_KEY,
                               fixture_dir=str(fixtures / "llm")),
        search=websearch.SearchClient(mode="record", endpoint=f"{stub.base}/search",
                                      api_key=API_KEY, fixture_dir=str(fixtures / "search"),
                                      requests_per_second=0),
        reader=pages.PageReader(respect_robots=False),
    )
    for labeled in claims:
        report = verifier.verify(labeled.claim, model.BudgetConfig())
        want = oracle[labeled.claim.id]
        if (report.verdict.value, report.terminated_by.value) != (want["verdict"],
                                                                  want["terminated_by"]):
            raise RuntimeError(f"record pass: claim {labeled.claim.id} gave "
                               f"{report.verdict.value}/{report.terminated_by.value}, "
                               f"oracle {want['verdict']}/{want['terminated_by']}")


def build_verifier(workload: Workload, stub: Stub, fixtures: Path,
                   llm_sleep: SleepMeter, search_sleep: SleepMeter) -> pipeline.Verifier:
    """The pipeline as ``claimcheck verify/bench`` builds it for the mode."""
    if workload.mode == "replay":
        gateway = llm.LlmGateway(mode="replay", fixture_dir=str(fixtures / "llm"),
                                 sleep=llm_sleep)
        search = websearch.SearchClient(mode="replay", fixture_dir=str(fixtures / "search"),
                                        sleep=search_sleep)
    else:
        gateway = llm.LlmGateway(mode="live", base_url=f"{stub.base}/v1", api_key=API_KEY,
                                 sleep=llm_sleep)
        search = websearch.SearchClient(mode="live", endpoint=f"{stub.base}/search",
                                        api_key=API_KEY, requests_per_second=search_rps(workload),
                                        sleep=search_sleep)
    reader = pages.PageReader(respect_robots=(workload.mode != "replay"))
    return pipeline.Verifier(gateway=gateway, search=search, reader=reader)


def set_up(workload: Workload, seed: int, work: Path, disturbed: list) -> Setup:
    start = time.perf_counter()
    work.mkdir(parents=True)
    w = world.generate(workload.mix, workload.page_sizes, seed)
    world_path, dataset = work / "world.json", work / "claims.jsonl"
    world_path.write_text(json.dumps(w), encoding="utf-8")
    world.write_dataset(w, dataset)
    stub = Stub(world_path, workload)
    try:
        check_agent_rules(agents.load_prompts())
        claims = evalkit.load_dataset(evalkit.DatasetKind.FACTOOL_KBQA, dataset)
        fixtures = work / "fixtures"
        if workload.mode == "replay":
            record_fixtures(stub, fixtures, claims, expected(w))
        llm_sleep, search_sleep = SleepMeter(), SleepMeter()
        verifier = build_verifier(workload, stub, fixtures, llm_sleep, search_sleep)
        seconds = time.perf_counter() - start
        mark = Calibration.mark()
        calibration = Calibration(stub, work, disturbed)
        seconds *= calibration.scale(SETUP_CALIBRATION_SAMPLES, mark)
    except BaseException:
        stub.stop()
        raise
    return Setup(w, stub, claims, dataset, fixtures, verifier, llm_sleep, search_sleep,
                 calibration, seconds)


# ---------------------------------------------------------------------------
# timed phases


@dataclass
class Outcome:
    claim_id: str
    seconds: float
    verdict: Optional[str]
    terminated_by: Optional[str]
    events: list = field(default_factory=list)   # (kind, payload) of the program's trace
    trace_bytes: int = 0
    error: Optional[str] = None
    mismatch: Optional[str] = None
    loop_s: float = 0.0     # verify plus trace serialization, as the loop spends it
    scale: float = 1.0      # calibration factor for this claim's times
    counts: Counter = field(default_factory=Counter)  # the claim's mean calls per run


@dataclass
class Phase:
    outcomes: list
    wall_s: float
    stub: dict
    calibrated: bool
    orphans: Counter    # counted calls that carried no claim id

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error or o.mismatch)

    def claim_times(self) -> list[float]:
        return [o.seconds * o.scale for o in self.outcomes]

    @property
    def claims_per_s(self) -> float:
        """Correct claims per second of wall time; calibrated, when the
        phase is, as the sum of each claim's calibrated loop time."""
        correct = len(self.outcomes) - self.failed
        if self.calibrated:
            return correct / sum(o.loop_s * o.scale for o in self.outcomes)
        return correct / self.wall_s


def verify_one(setup: Setup, labeled, keep_events: bool = False) -> Outcome:
    start = time.perf_counter()
    try:
        report = setup.verifier.verify(labeled.claim, model.BudgetConfig())
    except Exception as exc:  # a claim that raises is a failed claim, not a crash
        return Outcome(labeled.claim.id, time.perf_counter() - start, None, None,
                       error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    serialized = report.trace.to_jsonl()  # as ``bench --trace-dir`` writes it
    return Outcome(labeled.claim.id, seconds, report.verdict.value,
                   report.terminated_by.value,
                   events=[(e.kind.value, e.payload) for e in report.trace.events]
                   if keep_events else [],
                   trace_bytes=len(serialized.encode("utf-8")))


def check_oracle(out: Outcome, want: dict) -> Optional[str]:
    got = (out.verdict, out.terminated_by, out.counts["search"])
    if got != (want["verdict"], want["terminated_by"], want["n_queries"]):
        return (f"claim {out.claim_id} ({want['profile']}): verdict/termination/queries "
                f"{got}, oracle {(want['verdict'], want['terminated_by'], want['n_queries'])}")
    if want["profile"] == "worst":
        calls = (out.counts["llm"], out.counts["search"], out.counts["fetch"])
        if calls != (30, 4, 8):
            return f"claim {out.claim_id} (worst): llm/search/fetch {calls}, expected (30, 4, 8)"
    return None


def run_phase(setup: Setup, workload: Workload, seconds: float, counts: spans.CallCounts,
              oracle: dict, keep_events: bool = False) -> Phase:
    """Closed loop: each of ``concurrency`` workers verifies the next claim
    as soon as its last one is done, cycling through the world in whole
    passes, so every run sees the same mix of claims.  It stops at the pass
    boundary nearest to ``seconds``, after MIN_CLAIM_RUNS at least.  Calls are
    counted per claim id over the phase, then checked against the oracle
    as each claim's mean per run."""
    claims = setup.claims
    lock = threading.Lock()
    issued = 0
    stopping = False
    outcomes: list[Outcome] = []
    calibrated = not workload.latency
    setup.stub.reset()
    counts.reset()
    start = pass_start = time.perf_counter()

    def worker() -> None:
        nonlocal issued, stopping, pass_start
        if calibrated:
            before = setup.calibration.samples(1, Calibration.mark())[0]
        while True:
            with lock:
                if not stopping and issued and issued % len(claims) == 0:
                    now = time.perf_counter()
                    stopping = (issued >= MIN_CLAIM_RUNS
                                and now - start + (now - pass_start) / 2 >= seconds)
                    pass_start = now
                if stopping:
                    return
                labeled = claims[issued % len(claims)]
                issued += 1
            start_claim = time.perf_counter()
            outcome = verify_one(setup, labeled, keep_events)
            outcome.loop_s = time.perf_counter() - start_claim
            if calibrated:
                # the samples right before and after the claim, about one
                # per CALIBRATION_EVERY_S of claim time after it
                after = setup.calibration.samples(
                    max(1, round(outcome.seconds / CALIBRATION_EVERY_S)), Calibration.mark())
                outcome.scale = CALIBRATION_NOMINAL_S / statistics.median([before, *after])
                before = after[-1]
            outcomes.append(outcome)

    with ThreadPoolExecutor(max_workers=workload.concurrency) as pool:
        futures = [pool.submit(worker) for _ in range(workload.concurrency)]
        for future in futures:
            future.result()
    wall = time.perf_counter() - start
    runs = Counter(o.claim_id for o in outcomes)
    for o in outcomes:
        o.counts = Counter({key: value / runs[o.claim_id]
                            for key, value in counts.by_claim.get(o.claim_id, {}).items()})
        if o.error is None:
            o.mismatch = check_oracle(o, oracle[o.claim_id])
    return Phase(outcomes, wall, setup.stub.stats(), calibrated, Counter(counts.orphans))


def warm_up(setup: Setup) -> None:
    for labeled in setup.claims[:WARMUP_CLAIMS]:
        verify_one(setup, labeled)


# ---------------------------------------------------------------------------
# checks after the timed phases


def replay_honesty(workload: Workload, phases: list[Phase]) -> list[str]:
    """Replay must not reach the LLM or search stubs."""
    if workload.mode != "replay":
        return []
    problems = []
    for phase in phases:
        hits = phase.stub["requests"]
        if hits["llm"] or hits["search"]:
            problems.append(f"replay reached the stub: {hits['llm']} LLM and "
                            f"{hits['search']} search requests")
    return problems


def cli_parity(setup: Setup, work: Path, outcomes: list[Outcome]) -> list[str]:
    """``claimcheck bench`` in replay mode must decide every claim as the
    in-process run did."""
    out_dir = work / "cli-out"
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLAIMCHECK_")}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-m", "claimcheck.cli", "bench", "factool_kbqa", str(setup.dataset),
           "--mode", "replay", "--fixtures", str(setup.fixtures), "--concurrency", "1",
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return [f"claimcheck bench exited {proc.returncode}: {proc.stderr[-500:]}"]
    first = {}
    for o in outcomes:
        first.setdefault(o.claim_id, o)
    problems = []
    rows = [json.loads(line) for line in
            (out_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    if len(rows) != len(setup.claims):
        problems.append(f"claimcheck bench wrote {len(rows)} predictions "
                        f"for {len(setup.claims)} claims")
    for row in rows:
        mine = first.get(row["id"])
        if mine is None or (row["predicted"], row["terminated_by"]) != (mine.verdict,
                                                                       mine.terminated_by):
            problems.append(f"claimcheck bench decided {row['id']} as "
                            f"{row['predicted']}/{row['terminated_by']}, in-process "
                            f"{mine and (mine.verdict, mine.terminated_by)}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_MIN_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_MIN_BEYOND:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return 50.0, statistics.median(ordered)


def per_claim_counts(outcomes: list[Outcome]) -> dict:
    """Mean counts over the distinct claims run (first run of each)."""
    first = {}
    for o in outcomes:
        if o.error is None:
            first.setdefault(o.claim_id, o.counts)
    n = len(first)
    return {key: sum(c[key] for c in first.values()) / n
            for key in ("llm", "prompt_chars", "search", "fetch")}


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    times = phase.claim_times()
    counts = per_claim_counts(phase.outcomes)
    return {
        "claim_s_p50": statistics.median(times),
        "claim_s_tail": tail(times)[1],
        "claims_per_s": phase.claims_per_s,
        "llm_calls_per_claim": counts["llm"],
        "prompt_chars_per_claim": counts["prompt_chars"],
        "search_queries_per_claim": counts["search"],
        "page_fetches_per_claim": counts["fetch"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer: spans.Tracer, phase: Phase, untraced: Phase, sleeps: dict) -> dict:
    """Per-layer metrics of the traced phase, per claim unless the unit says
    otherwise; set-up metrics are totals of the traced set-up."""
    n = len(phase.outcomes)
    timed = [s for s in tracer.spans if s.phase == "timed"]
    by_name: dict[str, list] = {}
    for s in timed:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / n

    def secs(name):
        return sum(s.duration for s in by_name.get(name, ())) / n

    def total(phase_name, name):
        return [s for s in tracer.spans if s.phase == phase_name and s.name == name]

    m: dict[str, tuple[float, str]] = {}
    # pipeline
    m["pipeline.verify.s"] = (secs("pipeline.verify"), "s/claim")
    m["pipeline.self_s"] = (sum(s.self_s for s in by_name["pipeline.verify"]) / n, "s/claim")
    ok = [o for o in phase.outcomes if o.error is None]
    sufficient = [o for o in ok if o.terminated_by == "sufficient_evidence"]
    exhausted = [o for o in ok if o.terminated_by == "budget_exhausted"]
    m["pipeline.terminated_sufficient_ratio"] = (len(sufficient) / max(1, len(ok)), "ratio")
    for label, group in (("sufficient", sufficient), ("budget_exhausted", exhausted)):
        m[f"pipeline.queries_per_claim.{label}"] = (
            sum(o.counts["search"] for o in group) / len(group) if group else 0.0, "count/claim")
    deferred = recovered = 0
    fallbacks = with_fallback = forced = 0
    for o in ok:
        decisions: dict[str, list] = {}
        for kind, payload in o.events:
            if kind == "scenario_decision":
                decisions.setdefault(payload["url"], []).append(payload["scenario"])
            elif kind == "agent_call":
                if "fallback" in payload:
                    with_fallback += 1
                    fallbacks += bool(payload["fallback"])
                if payload.get("forced_default"):
                    forced += 1
        for seq in decisions.values():
            if seq[0] == "d":
                deferred += 1
                recovered += any(s in ("a", "b", "c") for s in seq[1:])
    m["pipeline.deferred_per_claim"] = (deferred / max(1, len(ok)), "count/claim")
    m["pipeline.deferred_recovered_ratio"] = (recovered / deferred if deferred else 0.0, "ratio")
    # agents
    chars_by_agent: Counter = Counter()
    for s in by_name.get("llm.complete", ()):
        chars_by_agent[f"agents.{s.attrs['agent']}"] += s.attrs["prompt_chars"]
    for agent in spans.AGENTS:
        name = f"agents.{agent}"
        m[f"{name}.calls"] = (calls(name), "count/claim")
        m[f"{name}.s"] = (sum(s.self_s for s in by_name.get(name, ())) / n, "s/claim")
        m[f"{name}.prompt_chars"] = (chars_by_agent[name] / n, "chars/claim")
    m["agents.parse_fallback_ratio"] = (fallbacks / with_fallback if with_fallback else 0.0,
                                        "ratio")
    m["agents.classify_forced_default"] = (forced, "count")
    # llm
    complete = by_name.get("llm.complete", [])
    m["llm.complete.calls"] = (calls("llm.complete"), "count/claim")
    m["llm.complete.s"] = (secs("llm.complete"), "s/claim")
    m["llm.complete.p50_ms"] = (
        statistics.median(s.duration for s in complete) * 1000 if complete else 0.0, "ms")
    m["llm.replay_key.s"] = (secs("llm.replay_key"), "s/claim")
    m["llm.retry_sleep_s"] = (sleeps["llm"] / n, "s/claim")
    # websearch
    m["websearch.search.calls"] = (calls("websearch.search"), "count/claim")
    m["websearch.search.s"] = (secs("websearch.search"), "s/claim")
    m["websearch.sleep_s"] = (sleeps["search"] / n, "s/claim")
    # pages
    acquire = by_name.get("pages.acquire_document", [])
    m["pages.acquire_document.s"] = (secs("pages.acquire_document"), "s/claim")
    m["pages.fetch.calls"] = (calls("pages.fetch"), "count/claim")
    m["pages.fetch.s"] = (secs("pages.fetch"), "s/claim")
    m["pages.fetch.bytes"] = (sum(s.attrs["bytes"] for s in by_name.get("pages.fetch", ())) / n,
                              "bytes/claim")
    m["pages.extract_text.calls"] = (calls("pages.extract_text"), "count/claim")
    m["pages.extract_text.s"] = (secs("pages.extract_text"), "s/claim")
    # an extraction that yields too little text raises and counts 0 chars
    kept = sum(s.attrs["body_chars"] for s in acquire if s.attrs["acquisition"] == "fetched_page")
    extracted = sum(s.attrs["chars"] for s in by_name.get("pages.extract_text", ()))
    m["pages.extract_kept_ratio"] = (kept / extracted if extracted else 0.0, "ratio")
    m["pages.snippet_fallback_ratio"] = (
        sum(1 for s in acquire if s.attrs["acquisition"] == "snippet_fallback")
        / max(1, len(acquire)), "ratio")
    m["pages.unusable_ratio"] = (
        sum(1 for s in acquire if s.attrs["error"] == "Unusable") / max(1, len(acquire)), "ratio")
    # model, trace, replaystore
    m["model.evidence_render.calls"] = (calls("model.evidence_render"), "count/claim")
    m["model.evidence_render.s"] = (secs("model.evidence_render"), "s/claim")
    m["trace.log.calls"] = (calls("trace.log"), "count/claim")
    m["trace.to_jsonl.s"] = (secs("trace.to_jsonl"), "s/claim")
    m["trace.bytes"] = (sum(o.trace_bytes for o in ok) / max(1, len(ok)), "bytes/claim")
    m["replaystore.get.calls"] = (calls("replaystore.get"), "count/claim")
    m["replaystore.get.s"] = (secs("replaystore.get"), "s/claim")
    puts = total("setup", "replaystore.put")
    m["replaystore.put.calls"] = (len(puts), "count")
    m["replaystore.put.s"] = (sum(s.duration for s in puts), "s")
    # evalkit
    m["evalkit.load_dataset.s"] = (
        sum(s.duration for s in total("setup", "evalkit.load_dataset")), "s")
    m["evalkit.report.s"] = (sum(s.duration for s in total("report", "evalkit.report")), "s")
    # stub, counted in the child process over the traced phase
    requests = phase.stub["requests"]
    for route in ("llm", "search", "page"):
        m[f"stub.requests.{route}"] = (requests[route] / n, "count/claim")
    m["stub.connections_per_claim"] = (phase.stub["connections"] / n, "count/claim")
    m["stub.search_gap_violations"] = (phase.stub["search_gap_violations"], "count")
    m["bench.tracing_overhead_ratio"] = (1 - phase.claims_per_s / untraced.claims_per_s, "ratio")
    return m


def self_time_ranking(tracer: spans.Tracer) -> list[tuple[str, float]]:
    totals: Counter = Counter()
    for s in tracer.spans:
        if s.phase == "timed":
            totals[s.name] += s.self_s
    return totals.most_common()


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    # the stub is on the loopback interface; never send it through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    parser = argparse.ArgumentParser(description="Offline claim-verification benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    counts = spans.CallCounts()
    patches = spans.Patches()
    spans.install_counters(patches, counts)
    tracer = spans.Tracer() if args.trace else None
    setup: Optional[Setup] = None
    disturbed: list[str] = []   # breaches of the calibration's assumption
    try:
        # set-up, several times for a steady median; the last one is kept
        setup_times = []
        for i in range(1 if tracer else SETUP_REPEATS):
            if setup is not None:
                setup.stub.stop()
            if tracer:
                spans.install_tracer(patches, tracer)
            setup = set_up(workload, args.seed, work / f"setup{i}", disturbed)
            setup_times.append(setup.seconds)
        oracle = expected(setup.world)
        if tracer:
            patches.restore()
            spans.install_counters(patches, counts)
        warm_up(setup)

        if tracer:
            untraced = run_phase(setup, workload, args.seconds / 2, counts, oracle)
            setup.llm_sleep.total = setup.search_sleep.total = 0.0
            spans.install_tracer(patches, tracer)
            tracer.phase = "timed"
            traced = run_phase(setup, workload, args.seconds / 2, counts, oracle,
                               keep_events=True)
            sleeps = {"llm": setup.llm_sleep.total, "search": setup.search_sleep.total}
            tracer.phase = "report"
            phases = [untraced, traced]
        else:
            phases = [run_phase(setup, workload, args.seconds, counts, oracle)]
        outcomes = [o for p in phases for o in p.outcomes]
        scored = [o for o in outcomes if o.error is None]
        golds = {lc.claim.id: lc.gold for lc in setup.claims}
        evalkit.report(evalkit.confusion([model.Verdict(o.verdict) for o in scored],
                                         [golds[o.claim_id] for o in scored]))

        problems = [o.error or o.mismatch for o in outcomes if o.error or o.mismatch]
        problems += replay_honesty(workload, phases)
        problems += [f"{sum(p.orphans.values())} counted calls ({dict(p.orphans)}) carried "
                     f"no claim id" for p in phases if p.orphans]
        problems += sorted(set(disturbed))
        if workload.mode == "replay":
            problems += cli_parity(setup, work, outcomes)
    finally:
        patches.restore()
        if setup is not None:
            setup.stub.stop()
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.error or o.mismatch)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if tracer:
        metrics = layer_metrics(tracer, traced, untraced, sleeps)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print("# largest self times over the traced phase (s):")
        for name, secs in self_time_ranking(tracer)[:6]:
            print(f"#   {name:32s} {secs:.4f}")
    else:
        phase = phases[0]
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(phase, setup_times).items()}
        raw = [o.seconds for o in phase.outcomes]
        p, raw_tail = tail(raw)
        print(f"# {len(raw)} claim runs, {len(raw) // len(setup.claims)} "
              f"passes over {len(setup.claims)} claims at concurrency {workload.concurrency}; "
              f"claim_s_tail is p{p:g}")
        if phase.calibrated:
            print(f"# uncalibrated: claim_s_p50 {statistics.median(raw):.6g} s, claim_s_tail "
                  f"{raw_tail:.6g} s, claims_per_s "
                  f"{(len(raw) - phase.failed) / phase.wall_s:.6g} 1/s (calibration included)")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'failed_claim_ratio':44s} {failed / max(1, attempted):14.6g} ratio")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
