import json
import os
from pathlib import Path
from urllib.parse import quote

import pytest
from click.testing import CliRunner

from claimcheck.cli import main
from claimcheck.pipeline import Verifier

from conftest import scripted_llm_app, serper_stub_app, standard_llm_rules


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scripted_world(http_stub, tmp_path):
    """Stub LLM + search endpoints and a fixture directory; returns the
    flag list shared by record and replay invocations."""
    llm_seen = []
    llm_base = http_stub(scripted_llm_app(standard_llm_rules(), seen=llm_seen))
    search_base = http_stub(serper_stub_app())
    fixtures = tmp_path / "fixtures"
    flags = [
        "--fixtures", str(fixtures),
        "--llm-base-url", llm_base,
        "--llm-api-key", "test-key",
        "--search-endpoint", search_base,
        "--search-api-key", "test-key",
    ]
    return {"flags": flags, "llm_seen": llm_seen, "fixtures": fixtures}


def run(runner, args, expect_exit=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return result


def factool_file(tmp_path, claims):
    path = tmp_path / "claims.jsonl"
    path.write_text(
        "\n".join(json.dumps({"claim": text, "label": label, "id": f"c{i}"})
                  for i, (text, label) in enumerate(claims)),
        encoding="utf-8",
    )
    return path


class TestVerify:
    def test_empty_claim_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "   "])
        assert result.exit_code == 1

    def test_missing_llm_base_url_is_config_error(self, runner, monkeypatch):
        monkeypatch.delenv("CLAIMCHECK_LLM_BASE_URL", raising=False)
        result = runner.invoke(main, ["verify", "some claim", "--mode", "live"])
        assert result.exit_code == 2
        assert "configuration error" in result.output

    def test_replay_without_fixtures_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "some claim", "--mode", "replay"])
        assert result.exit_code == 1

    def test_record_then_replay_round_trip(self, runner, scripted_world, tmp_path):
        flags = scripted_world["flags"]
        claim = "Paris is the capital of France"
        recorded = run(runner, ["verify", claim, "--mode", "record",
                                "--trace", str(tmp_path / "t0.jsonl"), *flags])
        assert "verdict: True" in recorded.output
        replayed = run(runner, ["verify", claim, "--mode", "replay",
                                "--trace", str(tmp_path / "t1.jsonl"), *flags])
        assert "verdict: True" in replayed.output
        assert "evidence:" in replayed.output

    def test_max_queries_flag_limits_search_calls(self, runner, scripted_world, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        run(runner, ["verify", "the moon is made of rock", "--mode", "record",
                     "--max-queries", "1", "--trace", str(trace_path),
                     *scripted_world["flags"]])
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert sum(1 for e in events if e["kind"] == "search_call") <= 1

    def test_null_completion_content_is_config_error(self, runner, http_stub):
        # a refusal can come back as {"content": null}
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": None}}]})
        llm_base = http_stub(lambda m, p, b, h: (200, {"Content-Type": "application/json"},
                                                  body.encode()))
        result = runner.invoke(main, ["verify", "some claim", "--llm-base-url", llm_base,
                                      "--search-endpoint", "http://127.0.0.1:9"])
        assert result.exit_code == 2, result.output
        assert "malformed completion response" in result.output

    def test_llm_auth_failure_is_config_error(self, runner, http_stub):
        seen = []

        def denied(method, path, body, headers):
            seen.append(path)
            return 401, {"Content-Type": "application/json"}, b'{"error": "bad key"}'

        result = runner.invoke(main, ["verify", "some claim", "--llm-base-url", http_stub(denied),
                                      "--search-endpoint", "http://127.0.0.1:9"])
        assert result.exit_code == 2, result.output
        assert "configuration error:" in result.output
        assert "HTTP 401" in result.output
        assert len(seen) == 1

    def test_replay_obeys_the_robots_refusal_that_record_obeyed(self, runner, http_stub,
                                                                 tmp_path):
        pages_seen = []

        def site(method, path, body, headers):
            pages_seen.append(path)
            if path == "/robots.txt":
                return 200, {"Content-Type": "text/plain"}, b"User-agent: *\nDisallow: /article\n"
            return 200, {"Content-Type": "text/html"}, (
                b"<p>The full article text, long enough to be read in place of the snippet.</p>")

        page_url = http_stub(site) + "/article"

        def search(method, path, body, headers):
            organic = [{"title": "Article", "link": page_url, "snippet": "A snippet."}]
            return 200, {"Content-Type": "application/json"}, json.dumps(
                {"organic": organic}).encode()

        flags = ["--fixtures", str(tmp_path / "fixtures"),
                 "--llm-base-url", http_stub(scripted_llm_app(standard_llm_rules())),
                 "--search-endpoint", http_stub(search)]
        claim = "Paris is the capital of France"
        recorded = run(runner, ["verify", claim, "--mode", "record",
                                "--trace", str(tmp_path / "record.jsonl"), *flags])
        fetches = [json.loads(line)["payload"] for line in
                   (tmp_path / "record.jsonl").read_text().splitlines()
                   if json.loads(line)["kind"] == "fetch"]
        assert fetches == [{"url": page_url, "acquisition": "snippet_fallback"}]
        assert "verdict: True" in recorded.output
        replayed = run(runner, ["verify", claim, "--mode", "replay", *flags])
        assert replayed.output.splitlines()[:4] == recorded.output.splitlines()[:4]
        assert "/article" not in pages_seen

    def test_no_search_results_leave_no_evidence(self, runner, http_stub):
        search_base = http_stub(lambda m, p, b, h: (
            200, {"Content-Type": "application/json"}, b'{"organic": []}'))
        result = run(runner, ["verify", "some claim",
                              "--llm-base-url", http_stub(scripted_llm_app(standard_llm_rules())),
                              "--search-endpoint", search_base])
        assert "terminated by: budget_exhausted" in result.output
        assert "evidence: none collected" in result.output

    def test_trace_into_a_missing_directory_is_written(self, runner, scripted_world, tmp_path):
        trace_path = tmp_path / "missing" / "t.jsonl"
        run(runner, ["verify", "water boils at 100 C", "--mode", "record",
                     "--trace", str(trace_path), *scripted_world["flags"]])
        assert trace_path.read_text().splitlines()[-1].startswith('{"kind": "verdict"')

    def test_trace_name_too_long_is_config_error(self, runner, scripted_world, tmp_path):
        name = "t" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".jsonl") + 1) + ".jsonl"
        trace_path = str(tmp_path / name)
        result = runner.invoke(main, ["verify", "water boils at 100 C", "--mode", "record",
                                      "--trace", trace_path, *scripted_world["flags"]])
        assert result.exit_code == 2, result.output
        assert f"--trace {trace_path!r} makes a trace file name longer than" in result.output
        assert scripted_world["llm_seen"] == []

    def test_trace_file_ends_with_verdict(self, runner, scripted_world, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        run(runner, ["verify", "water boils at 100 C", "--mode", "record",
                     "--trace", str(trace_path), *scripted_world["flags"]])
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert [e["kind"] for e in events].count("verdict") == 1
        assert events[-1]["kind"] == "verdict"


FIVE_CLAIMS = [
    ("the sun rises in the east", True),
    ("water is composed of hydrogen and oxygen", True),
    ("mount everest is the tallest mountain", True),
    ("humans never landed on the moon", False),
    ("antibiotics never help against bacteria", False),
]


class TestBench:
    def bench(self, runner, scripted_world, tmp_path, mode, extra=()):
        dataset = factool_file(tmp_path, FIVE_CLAIMS)
        out_dir = tmp_path / f"out-{mode}-{'-'.join(extra) or 'plain'}"
        run(runner, ["bench", "factool_kbqa", str(dataset), "--mode", mode,
                     "--out", str(out_dir), "--concurrency", "2",
                     *extra, *scripted_world["flags"]])
        return out_dir

    def test_all_correct_in_replay_scores_one(self, runner, scripted_world, tmp_path):
        self.bench(runner, scripted_world, tmp_path, "record")
        out = self.bench(runner, scripted_world, tmp_path, "replay")
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["macro_f1"] == 1.0
        assert metrics["weighted_f1"] == 1.0
        assert metrics["per_class"]["True"]["f1"] == 1.0
        assert metrics["per_class"]["False"]["f1"] == 1.0

    def test_predictions_jsonl_schema(self, runner, scripted_world, tmp_path):
        out = self.bench(runner, scripted_world, tmp_path, "record")
        rows = [json.loads(line)
                for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(rows) == 5
        for row in rows:
            assert set(row) == {"id", "gold", "predicted", "terminated_by"}
            assert row["predicted"] in ("True", "False")

    def test_metrics_json_schema_is_stable(self, runner, scripted_world, tmp_path):
        out = self.bench(runner, scripted_world, tmp_path, "record")
        metrics = json.loads((out / "metrics.json").read_text())
        assert sorted(metrics) == [
            "ablations", "dataset", "macro_f1", "n_claims", "n_errors",
            "n_scored", "per_class", "weighted_f1",
        ]
        for cls in ("True", "False"):
            assert sorted(metrics["per_class"][cls]) == [
                "f1", "precision", "recall", "support"]

    def test_ablate_rm_sr_suppresses_rank_agent(self, runner, scripted_world, tmp_path):
        scripted_world["llm_seen"].clear()
        self.bench(runner, scripted_world, tmp_path, "record", extra=("--ablate", "rm-sr"))
        prompts = ["\n".join(m["content"] for m in p["messages"])
                   for p in scripted_world["llm_seen"]]
        assert not any("Sort the results" in p for p in prompts)

    def test_limit_flag(self, runner, scripted_world, tmp_path):
        out = self.bench(runner, scripted_world, tmp_path, "record", extra=("--limit", "2"))
        rows = (out / "predictions.jsonl").read_text().splitlines()
        assert len(rows) == 2

    @pytest.mark.parametrize("n_claims, expect_exit", [(5, 3), (11, 0)])
    def test_unexpected_claim_error_is_an_error_row(self, runner, scripted_world, tmp_path,
                                                   monkeypatch, n_claims, expect_exit):
        claims = [(f"{text} (variant {i})", label)
                  for i, (text, label) in enumerate(FIVE_CLAIMS * 3)][:n_claims]
        verify = Verifier.verify

        def failing_verify(self, claim, *args, **kwargs):
            if claim.id == "c1":
                raise RuntimeError("claim blew up")
            return verify(self, claim, *args, **kwargs)

        monkeypatch.setattr(Verifier, "verify", failing_verify)
        out = tmp_path / "out"
        run(runner, ["bench", "factool_kbqa", str(factool_file(tmp_path, claims)),
                     "--mode", "record", "--out", str(out), "--concurrency", "2",
                     *scripted_world["flags"]], expect_exit=expect_exit)
        rows = [json.loads(line)
                for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert [row["id"] for row in rows] == [f"c{i}" for i in range(n_claims)]
        assert [row.get("error") for row in rows if row.get("error")] == [
            "RuntimeError: claim blew up"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert (metrics["n_claims"], metrics["n_errors"]) == (n_claims, 1)

    def test_rows_and_traces_are_written_as_claims_finish(self, runner, scripted_world,
                                                          tmp_path, monkeypatch):
        class Interrupted(BaseException):
            pass

        verify = Verifier.verify

        def interrupted_verify(self, claim, *args, **kwargs):
            if claim.id == "c2":
                raise Interrupted
            return verify(self, claim, *args, **kwargs)

        monkeypatch.setattr(Verifier, "verify", interrupted_verify)
        dataset = factool_file(tmp_path, FIVE_CLAIMS)
        out, traces = tmp_path / "out", tmp_path / "traces"
        with pytest.raises(Interrupted):
            runner.invoke(main, ["bench", "factool_kbqa", str(dataset), "--mode", "record",
                                 "--out", str(out), "--concurrency", "1",
                                 "--trace-dir", str(traces), *scripted_world["flags"]])
        rows = [json.loads(line)
                for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert [row["id"] for row in rows] == ["c0", "c1"]
        assert sorted(p.name for p in traces.iterdir()) == ["c0.jsonl", "c1.jsonl"]

    @pytest.mark.parametrize("body", [b'{"claim": "x", "label": true}\n{"claim": "y", "label": tru',
                                      b'{"claim": "caf\xe9", "label": true}',
                                      b'{"claim": null, "label": true}',
                                      b'{"claim": "x", "label": true, "id": null}'],
                             ids=["jsonl", "latin-1", "null-claim", "null-id"])
    def test_undecodable_dataset_is_config_error(self, runner, tmp_path, body):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_bytes(body)
        result = runner.invoke(main, ["bench", "factool_kbqa", str(dataset),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"configuration error: cannot load {dataset}" in result.output

    def test_trace_dir_names_each_file_by_its_quoted_id(self, runner, scripted_world,
                                                        tmp_path):
        dataset = tmp_path / "claims.jsonl"
        dataset.write_text("\n".join(
            json.dumps({"claim": text, "label": label, "id": claim_id})
            for claim_id, (text, label) in zip(["ok-1", "sub/2", "../x"], FIVE_CLAIMS)),
            encoding="utf-8")
        traces = tmp_path / "traces"
        out = tmp_path / "out"
        run(runner, ["bench", "factool_kbqa", str(dataset), "--mode", "record",
                     "--out", str(out), "--trace-dir", str(traces), *scripted_world["flags"]])
        assert sorted(p.name for p in traces.iterdir()) == [
            "..%2Fx.jsonl", "ok-1.jsonl", "sub%2F2.jsonl"]
        assert not (tmp_path / "x.jsonl").exists()
        assert json.loads((out / "metrics.json").read_text())["n_scored"] == 3

    def test_duplicate_claim_id_is_config_error(self, runner, scripted_world, tmp_path):
        dataset = tmp_path / "claims.jsonl"
        dataset.write_text("\n".join(
            json.dumps({"claim": text, "label": label, "id": "same"})
            for text, label in FIVE_CLAIMS[:2]), encoding="utf-8")
        result = runner.invoke(main, ["bench", "factool_kbqa", str(dataset), "--mode", "record",
                                      "--out", str(tmp_path / "out"),
                                      *scripted_world["flags"]])
        assert result.exit_code == 2, result.output
        assert "repeats id 'same'" in result.output
        assert scripted_world["llm_seen"] == []

    def test_trace_name_too_long_is_config_error(self, runner, scripted_world, tmp_path):
        long_id = "\u4e8b" * 30  # 30 CJK characters: 276 bytes as a quoted file name
        traces, out = tmp_path / "traces", tmp_path / "out"
        traces.mkdir()
        assert len(quote(long_id, safe="")) + len(".jsonl") > os.pathconf(traces, "PC_NAME_MAX")
        dataset = tmp_path / "claims.jsonl"
        dataset.write_text("\n".join(
            json.dumps({"claim": text, "label": label, "id": claim_id})
            for claim_id, (text, label) in zip(["ok", long_id], FIVE_CLAIMS)),
            encoding="utf-8")
        result = runner.invoke(main, ["bench", "factool_kbqa", str(dataset), "--mode", "record",
                                      "--out", str(out), "--trace-dir", str(traces),
                                      *scripted_world["flags"]])
        assert result.exit_code == 2, result.output
        assert f"id {long_id!r} makes a trace file name longer than" in result.output
        assert scripted_world["llm_seen"] == [] and not out.exists()

    def test_missing_dataset_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "factool_kbqa", "/nonexistent.jsonl"])
        assert result.exit_code == 1


class TestMissingFixture:
    def test_bench_records_missing_fixture_as_claim_error(self, runner, scripted_world,
                                                          tmp_path):
        recorded, unrecorded = FIVE_CLAIMS[0][0], FIVE_CLAIMS[1][0]
        run(runner, ["verify", recorded, "--mode", "record", *scripted_world["flags"]])
        dataset = factool_file(tmp_path, [(recorded, True), (unrecorded, True)])
        out = tmp_path / "out"
        run(runner, ["bench", "factool_kbqa", str(dataset), "--mode", "replay",
                     "--out", str(out), "--concurrency", "1", *scripted_world["flags"]],
            expect_exit=3)
        rows = [json.loads(line)
                for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        errors = [row["error"] for row in rows if row.get("error")]
        assert len(errors) == 1 and "no LLM fixture" in errors[0]

    def test_bench_where_every_claim_errors_scores_nothing(self, runner, tmp_path):
        dataset = factool_file(tmp_path, FIVE_CLAIMS[:2])
        out = tmp_path / "out"
        result = run(runner, ["bench", "factool_kbqa", str(dataset), "--mode", "replay",
                              "--fixtures", str(tmp_path / "empty"), "--out", str(out)],
                     expect_exit=2)
        assert "no claims completed; nothing to score" in result.output
        rows = [json.loads(line)
                for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert [row["id"] for row in rows] == ["c0", "c1"]
        assert all(row["predicted"] is None and "no LLM fixture" in row["error"]
                   for row in rows)
        assert not (out / "metrics.json").exists()

    def test_verify_on_a_fixture_of_the_wrong_shape_is_config_error(self, runner,
                                                                    scripted_world):
        claim = FIVE_CLAIMS[0][0]
        run(runner, ["verify", claim, "--mode", "record", *scripted_world["flags"]])
        for path in (scripted_world["fixtures"] / "llm").glob("*.json"):
            path.write_text("[]", encoding="utf-8")
        result = run(runner, ["verify", claim, "--mode", "replay", *scripted_world["flags"]],
                     expect_exit=2)
        assert "malformed fixture" in result.output

    def test_verify_with_empty_fixtures_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "some claim", "--mode", "replay",
                                      "--fixtures", str(tmp_path / "empty")])
        assert result.exit_code == 2
        assert "configuration error" in result.output


class TestBudgetOptions:
    @pytest.mark.parametrize("command", ["verify", "bench"])
    @pytest.mark.parametrize("option, value", [("--max-results", "0"),
                                               ("--max-queries", "0"),
                                               ("--temperature", "-1")])
    def test_out_of_range_value_is_usage_error(self, runner, tmp_path, command,
                                               option, value):
        args = (["verify", "some claim"] if command == "verify" else
                ["bench", "factool_kbqa", str(factool_file(tmp_path, [("a claim", True)]))])
        result = runner.invoke(main, [*args, option, value, "--mode", "replay",
                                      "--fixtures", str(tmp_path / "fx")])
        assert result.exit_code == 1
        # click's one-line usage error, not a traceback from BudgetConfig
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{option}'" in result.output

    @pytest.mark.parametrize("option", ["--limit", "--concurrency"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bench_count_below_one_is_usage_error(self, runner, tmp_path, option, value):
        dataset = factool_file(tmp_path, [("a claim", True), ("another claim", False)])
        result = runner.invoke(main, ["bench", "factool_kbqa", str(dataset), option, value,
                                      "--mode", "replay", "--fixtures", str(tmp_path / "fx"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{option}'" in result.output
        assert not (tmp_path / "out").exists()
