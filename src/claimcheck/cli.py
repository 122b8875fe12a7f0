"""Command-line entry point: single-claim verification and benchmark runs.

Exit codes: 0 success, 1 usage error, 2 gateway/config error, 3 partial
dataset failure above the error-rate threshold.
"""
from __future__ import annotations

import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import quote

import click

from . import evalkit
from .llm import LlmGateway
from .model import BudgetConfig, Claim, Verdict
from .pages import PageReader
from .pipeline import Ablation, GatewayFatal, Verifier
from .websearch import DEFAULT_ENDPOINT, SearchClient

log = logging.getLogger(__name__)

# the spec'd exit-code contract reserves 2 for config/auth errors
click.exceptions.UsageError.exit_code = 1

BENCH_ERROR_RATE_THRESHOLD = 0.1

_COMMON_OPTIONS = [
    click.option("--model", default=BudgetConfig.model_id, show_default=True,
                 help="Chat model identifier."),
    click.option("--temperature", default=BudgetConfig.temperature, show_default=True,
                 type=click.FloatRange(min=0)),
    click.option("--max-queries", default=BudgetConfig.max_search_queries, show_default=True,
                 type=click.IntRange(min=1), help="Global search-query budget per claim."),
    click.option("--max-results", default=BudgetConfig.max_results_per_query, show_default=True,
                 type=click.IntRange(min=1), help="Search results requested per query."),
    click.option("--mode", default="live", show_default=True,
                 type=click.Choice(["live", "record", "replay"]),
                 help="Gateway mode for both the LLM and search clients."),
    click.option("--fixtures", default=None, type=click.Path(file_okay=False),
                 help="Fixture directory (required for record/replay)."),
    click.option("--ablate", "ablations", multiple=True,
                 type=click.Choice([a.value for a in Ablation]),
                 help="Drop a pipeline stage (repeatable)."),
    click.option("--llm-base-url", default=None, envvar="CLAIMCHECK_LLM_BASE_URL",
                 help="OpenAI-compatible chat completions base URL."),
    click.option("--llm-api-key", default=None, envvar="CLAIMCHECK_LLM_API_KEY"),
    click.option("--search-endpoint", default=None, envvar="CLAIMCHECK_SEARCH_ENDPOINT"),
    click.option("--search-api-key", default=None, envvar="CLAIMCHECK_SEARCH_API_KEY"),
]


def _common_options(fn):
    for option in reversed(_COMMON_OPTIONS):
        fn = option(fn)
    return fn


def _build(model, temperature, max_queries, max_results, mode, fixtures, ablations,
           llm_base_url, llm_api_key, search_endpoint,
           search_api_key) -> tuple[Verifier, BudgetConfig, frozenset[Ablation]]:
    """The verifier, budget and ablations that the common options name."""
    if mode in ("record", "replay") and not fixtures:
        raise click.UsageError("--fixtures is required in record/replay mode")
    fixture_root = Path(fixtures) if fixtures else None
    try:
        gateway = LlmGateway(
            mode=mode,
            base_url=llm_base_url,
            api_key=llm_api_key,
            fixture_dir=str(fixture_root / "llm") if fixture_root else None,
        )
        search = SearchClient(
            mode=mode,
            endpoint=search_endpoint or DEFAULT_ENDPOINT,
            api_key=search_api_key,
            fixture_dir=str(fixture_root / "search") if fixture_root else None,
        )
    except ValueError as exc:
        raise SystemExit(_config_error(str(exc)))
    config = BudgetConfig(max_search_queries=max_queries, max_results_per_query=max_results,
                          model_id=model, temperature=temperature)
    return (Verifier(gateway=gateway, search=search, reader=PageReader(respect_robots=True)),
            config, frozenset(Ablation(a) for a in ablations))


def _config_error(message: str) -> int:
    click.echo(f"configuration error: {message}", err=True)
    return 2


@click.group()
def main() -> None:
    """Verify atomic claims against live web evidence."""


@main.command("verify")
@click.argument("claim_text")
@_common_options
@click.option("--trace", "trace_path", default=None, type=click.Path(dir_okay=False),
              help="Write the run trace as JSONL to this file.")
def cmd_verify(claim_text, trace_path, **options) -> None:
    """Verify one claim and print the verdict with its evidence."""
    if not claim_text.strip():
        raise click.UsageError("claim text must be non-empty")
    verifier, config, ablations = _build(**options)
    if trace_path:
        # before the run, which a missing directory would otherwise waste
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    try:
        result = verifier.verify(Claim(text=claim_text), config, ablations)
    except GatewayFatal as exc:
        raise SystemExit(_config_error(str(exc)))
    click.echo(f"verdict: {result.verdict.value}")
    click.echo(f"terminated by: {result.terminated_by.value}")
    if len(result.evidence):
        click.echo("evidence:")
        for i, item in enumerate(result.evidence, start=1):
            click.echo(f"  {i}. {item.note} (source: {item.source_url})")
    else:
        click.echo("evidence: none collected")
    if trace_path:
        result.trace.write(trace_path)
        click.echo(f"trace written to {trace_path}")


@main.command("bench")
@click.argument("dataset_kind", type=click.Choice([k.value for k in evalkit.DatasetKind]))
@click.argument("dataset_path", type=click.Path(exists=True, dir_okay=False))
@_common_options
@click.option("--seed", default=0, show_default=True, type=int,
              help="Seed for dataset subsampling.")
@click.option("--limit", default=None, type=click.IntRange(min=1),
              help="Verify only the first N claims.")
@click.option("--concurrency", default=4, show_default=True, type=click.IntRange(min=1),
              help="Claims verified in parallel.")
@click.option("--out", "out_dir", default="bench-out", show_default=True,
              type=click.Path(file_okay=False))
@click.option("--trace-dir", default=None, type=click.Path(file_okay=False),
              help="Write one trace JSONL per claim into this directory.")
def cmd_bench(dataset_kind, dataset_path, seed, limit, concurrency, out_dir, trace_dir,
              **options) -> None:
    """Run verification over a dataset and write predictions and metrics."""
    kind = evalkit.DatasetKind(dataset_kind)
    try:
        claims = evalkit.load_dataset(kind, dataset_path, seed=seed)
    except (evalkit.SchemaError, evalkit.EmptyDataset) as exc:
        raise SystemExit(_config_error(f"cannot load {dataset_path}: {exc}"))
    if limit is not None:
        claims = claims[:limit]
    verifier, config, ablations = _build(**options)

    def run_one(labeled):
        try:
            outcome = verifier.verify(labeled.claim, config, ablations)
            return labeled, outcome, None
        except GatewayFatal as exc:
            return labeled, None, str(exc)
        except Exception as exc:  # one failed claim must not lose the others' rows
            log.exception("claim %s failed", labeled.claim.id)
            return labeled, None, f"{type(exc).__name__}: {exc}"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if trace_dir:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    preds, golds = [], []
    errored = 0
    # rows go out in dataset order as claims finish: a run that dies keeps the earlier ones
    with (out / "predictions.jsonl").open("w", encoding="utf-8") as fh, \
            ThreadPoolExecutor(max_workers=concurrency) as pool:
        for labeled, outcome, error in pool.map(run_one, claims):
            row = {"id": labeled.claim.id, "gold": labeled.gold.value}
            if error is not None:
                errored += 1
                row.update({"predicted": None, "terminated_by": None, "error": error})
            else:
                row.update({
                    "predicted": outcome.verdict.value,
                    "terminated_by": outcome.terminated_by.value,
                })
                preds.append(outcome.verdict)
                golds.append(labeled.gold)
                if trace_dir:
                    outcome.trace.write(
                        Path(trace_dir) / f"{quote(labeled.claim.id, safe='')}.jsonl")
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
            fh.flush()

    if errored:
        click.echo(f"{errored} of {len(claims)} claims errored and were "
                   f"excluded from metrics", err=True)
    if not preds:
        raise SystemExit(_config_error("no claims completed; nothing to score"))

    rep = evalkit.report(evalkit.confusion(preds, golds))
    metrics = {
        "dataset": kind.value,
        "n_claims": len(claims),
        "n_scored": len(preds),
        "n_errors": errored,
        "ablations": sorted(a.value for a in ablations),
        **rep.to_dict(),
    }
    (out / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    table = evalkit.render_table(kind.value, rep)
    (out / "metrics.txt").write_text(table + "\n", encoding="utf-8")
    click.echo(table)
    if errored / len(claims) > BENCH_ERROR_RATE_THRESHOLD:
        raise SystemExit(3)


if __name__ == "__main__":
    main()
