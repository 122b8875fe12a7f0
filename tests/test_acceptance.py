"""Acceptance suite: one test per acceptance criterion, each printing a
pass line (run with -s to see them).

Criterion 6 (live smoke) needs real LLM/search credentials and is skipped
unless CLAIMCHECK_LIVE_SMOKE is set; it never gates CI.
"""
import json
import os
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from claimcheck.agents import HelpfulnessJudgment
from claimcheck.cli import main as cli_main
from claimcheck.evalkit import (
    DatasetKind,
    confusion,
    load_dataset,
    prf1,
    report,
)
from claimcheck.model import BudgetConfig, Claim, Verdict
from claimcheck.pipeline import Ablation, Verifier
from claimcheck.trace import EventKind

from conftest import (
    FakeReader,
    FakeSearch,
    ScriptedAgents,
    make_result,
    scripted_llm_app,
    serper_stub_app,
    standard_llm_rules,
)
from test_evalkit import bingcheck_file, factcheck_bench_file, factool_file

T, F = Verdict.TRUE, Verdict.FALSE

# Published per-class F1 and aggregate scores, all fifteen method x dataset
# rows, with per-dataset class supports (True, False).
PUBLISHED_ROWS = [
    # dataset, method, f1_true, f1_false, macro_f1, weighted_f1, sup_t, sup_f
    ("BingCheck", "FacTool", 0.88, 0.62, 0.75, 0.83, 160, 42),
    ("BingCheck", "FactCheck-GPT", 0.69, 0.44, 0.56, 0.64, 160, 42),
    ("BingCheck", "SAFE", 0.79, 0.46, 0.62, 0.72, 160, 42),
    ("BingCheck", "FIRE", 0.89, 0.63, 0.76, 0.84, 160, 42),
    ("BingCheck", "this-system", 0.93, 0.69, 0.81, 0.88, 160, 42),
    ("FacTool-KBQA", "FacTool", 0.87, 0.65, 0.76, 0.82, 177, 56),
    ("FacTool-KBQA", "FactCheck-GPT", 0.61, 0.44, 0.53, 0.57, 177, 56),
    ("FacTool-KBQA", "SAFE", 0.88, 0.63, 0.76, 0.82, 177, 56),
    ("FacTool-KBQA", "FIRE", 0.89, 0.66, 0.78, 0.83, 177, 56),
    ("FacTool-KBQA", "this-system", 0.91, 0.68, 0.80, 0.85, 177, 56),
    ("Factcheck-Bench", "FacTool", 0.82, 0.64, 0.73, 0.77, 472, 159),
    ("Factcheck-Bench", "FactCheck-GPT", 0.66, 0.51, 0.58, 0.62, 472, 159),
    ("Factcheck-Bench", "SAFE", 0.84, 0.65, 0.74, 0.79, 472, 159),
    ("Factcheck-Bench", "FIRE", 0.87, 0.68, 0.78, 0.82, 472, 159),
    ("Factcheck-Bench", "this-system", 0.90, 0.71, 0.80, 0.85, 472, 159),
]


def test_criterion_1_published_score_consistency():
    start = time.monotonic()
    for dataset, method, f1_t, f1_f, macro, weighted, sup_t, sup_f in PUBLISHED_ROWS:
        recomputed_macro = (f1_t + f1_f) / 2
        recomputed_weighted = (sup_t * f1_t + sup_f * f1_f) / (sup_t + sup_f)
        assert abs(recomputed_macro - macro) <= 0.01, (dataset, method)
        assert abs(recomputed_weighted - weighted) <= 0.015, (dataset, method)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS — 15/15 published rows consistent "
          f"(macro ±0.01, weighted ±0.015) in {elapsed:.3f}s")


def test_criterion_2_loader_class_counts(tmp_path):
    cases = [
        (DatasetKind.FACTOOL_KBQA, factool_file(tmp_path), 177, 56),
        (DatasetKind.BINGCHECK, bingcheck_file(tmp_path), 160, 42),
        (DatasetKind.FACTCHECK_BENCH, factcheck_bench_file(tmp_path), 472, 159),
    ]
    for kind, path, want_true, want_false in cases:
        claims = load_dataset(kind, path)
        n_true = sum(1 for c in claims if c.gold is T)
        assert (n_true, len(claims) - n_true) == (want_true, want_false), kind
    print("\nACCEPTANCE 2: PASS — loaders reproduce 177/56, 160/42, 472/159")


# ---------------------------------------------------------------------------
# criterion 3: pipeline property suite with scripted agents


def random_scenario(rng: random.Random):
    config = BudgetConfig(
        max_search_queries=rng.randint(1, 5),
        max_results_per_query=rng.randint(1, 3),
    )
    n_queries = rng.randint(1, 7)
    queries = [f"query {i}" for i in range(n_queries)]
    worlds, unusable = {}, set()
    for i, q in enumerate(queries):
        results = []
        for j in range(rng.randint(0, config.max_results_per_query + 1)):
            url = f"https://s{i}-{j}.example/page"
            results.append(make_result(url, query=q))
            if rng.random() < 0.1:
                unusable.add(url)
        worlds[q] = results

    def scc(claim, evidence, doc):
        return rng.random() < 0.7

    def helpful(claim, evidence, doc):
        if rng.random() < 0.5:
            return HelpfulnessJudgment(True, f"note about {doc.meta.url}")
        return HelpfulnessJudgment(False)

    def sufficient(claim, evidence):
        return rng.random() < 0.3

    extra = [f"extra {i}" for i in range(rng.randint(0, 3))]
    for i, q in enumerate(extra):
        worlds[q] = [make_result(f"https://x{i}.example/page", query=q)]

    agents = ScriptedAgents(
        initial=queries[: rng.randint(1, n_queries)],
        rank="reverse" if rng.random() < 0.5 else "keep",
        scc=scc,
        helpful=helpful,
        sufficient=sufficient,
        verdict=rng.choice([T, F]),
        additional=extra,
    )
    ablations = set()
    if rng.random() < 0.25:
        ablations.add(Ablation.RM_SR)
    if rng.random() < 0.25:
        ablations.add(Ablation.RM_SCC)
    return config, agents, worlds, unusable, ablations


def test_criterion_3_pipeline_property_suite():
    start = time.monotonic()
    n_scenarios = 500
    for seed in range(n_scenarios):
        rng = random.Random(seed)
        config, agents, worlds, unusable, ablations = random_scenario(rng)
        search = FakeSearch(worlds)
        reader = FakeReader(unusable=unusable)
        verifier = Verifier(agent_factory=lambda c, t: agents, search=search,
                            reader=reader)
        result = verifier.verify(Claim(text="some claim"), config, ablations)
        n_deferred = sum(1 for e in result.trace.events
                         if e.kind is EventKind.SCENARIO_DECISION and e.payload["scenario"] == "d")

        # budget never exceeded; every search requests exactly max results
        assert len(search.calls) <= config.max_search_queries, seed
        assert all(k == config.max_results_per_query for _, k in search.calls), seed
        # exactly one classification per run; verdict event closes the trace
        assert agents.calls["classify"] == 1, seed
        assert result.trace.events[-1].kind is EventKind.VERDICT, seed
        # ablation flags suppress the respective agents
        if Ablation.RM_SR in ablations:
            assert agents.calls["search_rank"] == 0, seed
        if Ablation.RM_SCC in ablations:
            assert agents.calls["self_contained_check"] == 0, seed
            assert n_deferred == 0, seed
        # every document is comprehension-checked at most twice (loop + drain)
        for url in set(agents.scc_urls):
            assert agents.scc_urls.count(url) <= 2, seed
        # termination within the stated call bound
        bound = (config.max_search_queries * config.max_results_per_query * 3
                 + n_deferred * 3
                 + 2 * config.max_search_queries + 3)
        assert agents.total_llm_like_calls() <= bound, seed

    # memory-bank flip: a document deferred while the evidence set was empty
    # is accepted in the drain once the evidence has grown
    contextless = "https://s0-0.example/page"
    agents = ScriptedAgents(
        initial=["q"],
        scc=lambda c, e, d: d.meta.url != contextless or len(e) > 0,
        helpful=lambda c, e, d: HelpfulnessJudgment(True, f"from {d.meta.url}"),
        sufficient=lambda c, e: any(i.source_url == contextless for i in e),
    )
    worlds = {"q": [make_result(contextless, query="q"),
                    make_result("https://s0-1.example/page", query="q")]}
    verifier = Verifier(agent_factory=lambda c, t: agents,
                        search=FakeSearch(worlds), reader=FakeReader())
    result = verifier.verify(Claim(text="flip"), BudgetConfig())
    assert any(i.source_url == contextless for i in result.evidence)
    assert agents.scc_urls.count(contextless) == 2  # deferred, re-checked once

    # deferred drain is FIFO: re-check order equals deferral order
    agents = ScriptedAgents(initial=["q"], scc=False,
                            helpful=HelpfulnessJudgment(False))
    urls = [f"https://s0-{j}.example/page" for j in range(3)]
    worlds = {"q": [make_result(u, query="q") for u in urls]}
    verifier = Verifier(agent_factory=lambda c, t: agents,
                        search=FakeSearch(worlds), reader=FakeReader())
    verifier.verify(Claim(text="fifo"), BudgetConfig(max_results_per_query=3))
    assert agents.scc_urls == urls + urls  # loop order, then drain in FIFO order

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3: PASS — {n_scenarios} randomized scenarios plus "
          f"flip/FIFO checks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: replay determinism end to end through the CLI


def normalized_trace(path: Path) -> bytes:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        event["ts"] = 0.0
        lines.append(json.dumps(event, sort_keys=True, ensure_ascii=False))
    return ("\n".join(lines) + "\n").encode()


def test_criterion_4_replay_determinism(http_stub, tmp_path):
    start = time.monotonic()
    llm_base = http_stub(scripted_llm_app(standard_llm_rules()))
    search_base = http_stub(serper_stub_app())
    fixtures = tmp_path / "fixtures"
    flags = ["--fixtures", str(fixtures), "--llm-base-url", llm_base,
             "--llm-api-key", "k", "--search-endpoint", search_base,
             "--search-api-key", "k"]
    runner = CliRunner()
    claim = "Paris is the capital of France"

    outputs, traces = [], []
    for i, mode in enumerate(["record", "replay", "replay"]):
        trace_path = tmp_path / f"trace{i}.jsonl"
        result = runner.invoke(cli_main, ["verify", claim, "--mode", mode,
                                          "--trace", str(trace_path), *flags],
                               catch_exceptions=False)
        assert result.exit_code == 0, result.output
        # drop the "trace written to <path>" line; the path differs by design
        outputs.append("\n".join(line for line in result.output.splitlines()
                                 if not line.startswith("trace written")))
        traces.append(normalized_trace(trace_path))

    assert traces[1] == traces[2]          # byte-identical replays
    assert outputs[1] == outputs[2]        # identical verdicts and evidence
    assert "verdict: True" in outputs[1]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4: PASS — two replays byte-identical in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: metric oracle equivalence


def brute_force_metrics(preds, golds):
    out = {}
    for cls in (T, F):
        tp = fp = fn = 0
        for p, g in zip(preds, golds):
            if p is cls and g is cls:
                tp += 1
            elif p is cls:
                fp += 1
            elif g is cls:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[cls] = (tp, fp, fn, precision, recall, f1, tp + fn)
    macro = (out[T][5] + out[F][5]) / 2
    total = out[T][6] + out[F][6]
    weighted = (out[T][6] * out[T][5] + out[F][6] * out[F][5]) / total
    return out, macro, weighted


def test_criterion_5_metric_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(12345)
    for _ in range(1000):
        n = rng.randint(1, 60)
        preds = [rng.choice([T, F]) for _ in range(n)]
        golds = [rng.choice([T, F]) for _ in range(n)]
        counts = confusion(preds, golds)
        oracle, macro, weighted = brute_force_metrics(preds, golds)
        for cls in (T, F):
            tp, fp, fn, precision, recall, f1, support = oracle[cls]
            assert (counts.tp[cls], counts.fp[cls], counts.fn[cls]) == (tp, fp, fn)
            assert counts.support(cls) == support
            assert prf1(counts, cls) == (precision, recall, f1)
        rep = report(counts)
        assert rep.macro_f1 == macro
        assert rep.weighted_f1 == weighted
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 5: PASS — 1000 random vectors match the brute-force "
          f"oracle exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: live smoke run (environment-dependent, never CI-gating)


@pytest.mark.skipif(
    not os.environ.get("CLAIMCHECK_LIVE_SMOKE"),
    reason="live smoke needs CLAIMCHECK_LIVE_SMOKE=1 plus LLM/search credentials",
)
def test_criterion_6_live_smoke(tmp_path):
    dataset_path = os.environ["CLAIMCHECK_FACTOOL_KBQA_PATH"]
    claims = load_dataset(DatasetKind.FACTOOL_KBQA, dataset_path)
    subset = random.Random(0).sample(claims, 20)
    from claimcheck.llm import LlmGateway
    from claimcheck.pages import PageReader
    from claimcheck.websearch import DEFAULT_ENDPOINT, SearchClient

    env = os.environ
    verifier = Verifier(
        gateway=LlmGateway(base_url=env.get("CLAIMCHECK_LLM_BASE_URL"),
                           api_key=env.get("CLAIMCHECK_LLM_API_KEY")),
        search=SearchClient(endpoint=env.get("CLAIMCHECK_SEARCH_ENDPOINT", DEFAULT_ENDPOINT),
                            api_key=env.get("CLAIMCHECK_SEARCH_API_KEY")),
        reader=PageReader(respect_robots=True))
    preds, golds = [], []
    for labeled in subset:
        outcome = verifier.verify(labeled.claim, BudgetConfig())
        preds.append(outcome.verdict)
        golds.append(labeled.gold)
    rep = report(confusion(preds, golds))
    assert rep.weighted_f1 >= 0.75
    print(f"\nACCEPTANCE 6: PASS — live weighted-F1 {rep.weighted_f1:.2f} >= 0.75")
