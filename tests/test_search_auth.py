"""A search provider that refuses the key (HTTP 401 or 403) ends the claim,
as a refused LLM key does: `verify` exits 2 and `bench` writes an error
row, where any other failed search leaves the claim going with no results."""
import json

from click.testing import CliRunner

from claimcheck.cli import main

from conftest import scripted_llm_app, standard_llm_rules


def refusing_search(http_stub, seen):
    def app(method, path, body, headers):
        seen.append(json.loads(body)["q"])
        return 403, {"Content-Type": "application/json"}, b'{"message": "Unauthorized"}'
    return ["--llm-base-url", http_stub(scripted_llm_app(standard_llm_rules())),
            "--search-endpoint", http_stub(app), "--search-api-key", "revoked"]


def test_verify_is_a_config_error_after_one_search(http_stub):
    seen = []
    result = CliRunner().invoke(main, ["verify", "Paris is the capital of France",
                                       *refusing_search(http_stub, seen)])
    assert result.exit_code == 2, result.output
    assert "configuration error:" in result.output and "HTTP 403" in result.output
    assert seen == ["Paris is the capital of France"]


def test_bench_writes_an_error_row_per_claim(http_stub, tmp_path):
    dataset = tmp_path / "claims.jsonl"
    dataset.write_text("".join(json.dumps({"claim": f"claim number {i}", "label": True,
                                           "id": f"c{i}"}) + "\n" for i in range(3)),
                       encoding="utf-8")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["bench", "factool_kbqa", str(dataset), "--out", str(out),
                                       *refusing_search(http_stub, [])])
    assert result.exit_code == 2, result.output
    assert "no claims completed; nothing to score" in result.output
    rows = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == ["c0", "c1", "c2"]
    assert all(row["predicted"] is None and "HTTP 403" in row["error"] for row in rows)
