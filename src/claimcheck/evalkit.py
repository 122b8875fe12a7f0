"""Dataset ingestion, confusion tallies, and P/R/F1 reporting.

Loader input formats (JSON array or JSONL, one object per record):

* ``factool_kbqa``: ``{"claim": str, "label": bool | "True" | "False"}``.
  All records are kept with labels unchanged.
* ``bingcheck``: ``{"claim": str, "label": "supported" | "refuted" |
  "partially supported" | "not supported"}``.  supported maps to True,
  refuted to False, everything else is dropped; the supported class is
  subsampled to a configured count with a seeded deterministic sampler.
* ``factcheck_bench``: ``{"claim": str, "label": "True" | "False" |
  "Unknown"}``.  Unknown records are dropped; each class is subsampled to
  a configured count with a seeded sampler.

Records may carry an optional ``"id"`` field; otherwise ids are assigned
from the record position.  Ids must be unique.  A leading UTF-8 byte-order
mark is ignored.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .model import Claim, Verdict


class DatasetKind(Enum):
    FACTOOL_KBQA = "factool_kbqa"
    BINGCHECK = "bingcheck"
    FACTCHECK_BENCH = "factcheck_bench"


# each dataset's labels, lower-cased, -> gold verdict (None drops the
# record), and its (True, False) subsample sizes (None keeps the class whole)
_DATASETS: dict[DatasetKind, tuple[dict[str, Verdict | None], tuple[int | None, int | None]]] = {
    DatasetKind.FACTOOL_KBQA: ({"true": Verdict.TRUE, "false": Verdict.FALSE}, (None, None)),
    DatasetKind.BINGCHECK: ({"supported": Verdict.TRUE, "refuted": Verdict.FALSE,
                             "partially supported": None, "not supported": None}, (160, None)),
    DatasetKind.FACTCHECK_BENCH: ({"true": Verdict.TRUE, "false": Verdict.FALSE,
                                   "unknown": None}, (472, 159)),
}


class SchemaError(Exception):
    """A record is missing a required field or has an unusable value."""


class EmptyDataset(Exception):
    """The file parsed but produced no usable claims."""


class LengthMismatch(Exception):
    """Prediction and gold vectors differ in length."""


@dataclass(frozen=True)
class LabeledClaim:
    claim: Claim
    gold: Verdict


def _decode(text: str, where: str) -> object:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"{where}: invalid JSON: {exc}") from None


def _read_records(path: str | Path) -> list[dict]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc}") from None
    if not text.strip():
        raise EmptyDataset(f"{path} is empty")
    if text.lstrip().startswith("["):
        # JSON text that starts with "[" is an array or does not decode
        records = _decode(text, str(path))
    else:
        # JSON Lines are split at "\n" only: a JSON string may hold U+2028
        records = [_decode(line, f"{path} line {n}")
                   for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaError(f"{path}: record {i} is not an object")
    return records


def _require(rec: dict, field: str, index: int) -> object:
    if field not in rec:
        raise SchemaError(f"record {index} missing field {field!r}")
    return rec[field]


def _subsample(indices: list[int], target: int | None, rng: random.Random) -> list[int]:
    """Seeded subsample preserving original file order."""
    if target is None or len(indices) <= target:
        return indices
    return sorted(rng.sample(indices, target))


def load_dataset(kind: DatasetKind, path: str | Path, seed: int = 0) -> list[LabeledClaim]:
    records = _read_records(path)
    labels, targets = _DATASETS[kind]
    rng = random.Random(seed)
    labeled: list[LabeledClaim] = []
    ids: set[str] = set()

    for i, rec in enumerate(records):
        # the id names the claim's trace file and prediction row
        claim_id = str(rec.get("id", f"{kind.value}-{i:04d}"))
        if claim_id in ids:
            raise SchemaError(f"record {i} repeats id {claim_id!r}")
        ids.add(claim_id)
        text = str(_require(rec, "claim", i)).strip()
        if not text:
            raise SchemaError(f"record {i} has an empty claim")
        raw_label = _require(rec, "label", i)
        try:
            # str(True) is "True", so a JSON boolean maps as its name does
            gold = labels[str(raw_label).strip().lower()]
        except KeyError:
            raise SchemaError(f"record {i}: bad {kind.value} label {raw_label!r}") from None
        if gold is None:
            continue
        labeled.append(LabeledClaim(Claim(text=text, id=claim_id), gold))

    keep: set[int] = set()
    # True first, then False: the sampler draws in this order
    for gold, target in zip((Verdict.TRUE, Verdict.FALSE), targets):
        keep.update(_subsample([j for j, c in enumerate(labeled) if c.gold is gold],
                               target, rng))
    out = [c for j, c in enumerate(labeled) if j in keep]
    if not out:
        raise EmptyDataset(f"{path} yielded no claims after preprocessing")
    return out


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class ConfusionCounts:
    tp: dict[Verdict, int]
    fp: dict[Verdict, int]
    fn: dict[Verdict, int]

    def support(self, cls: Verdict) -> int:
        return self.tp[cls] + self.fn[cls]


def confusion(preds: Sequence[Verdict], golds: Sequence[Verdict]) -> ConfusionCounts:
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise LengthMismatch("empty prediction vector")
    tp = {v: 0 for v in Verdict}
    fp = {v: 0 for v in Verdict}
    fn = {v: 0 for v in Verdict}
    for p, g in zip(preds, golds):
        if p is g:
            tp[p] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def prf1(counts: ConfusionCounts, cls: Verdict) -> tuple[float, float, float]:
    """Precision, recall, F1 for one class; zero denominators yield 0."""
    tp, fp, fn = counts.tp[cls], counts.fp[cls], counts.fn[cls]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class MetricReport:
    precision: dict[Verdict, float]
    recall: dict[Verdict, float]
    f1: dict[Verdict, float]
    support: dict[Verdict, int]
    macro_f1: float
    weighted_f1: float

    def to_dict(self) -> dict:
        return {
            "per_class": {
                v.value: {
                    "precision": self.precision[v],
                    "recall": self.recall[v],
                    "f1": self.f1[v],
                    "support": self.support[v],
                }
                for v in Verdict
            },
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
        }


def report(counts: ConfusionCounts) -> MetricReport:
    precision, recall, f1 = {}, {}, {}
    for v in Verdict:
        precision[v], recall[v], f1[v] = prf1(counts, v)
    support = {v: counts.support(v) for v in Verdict}
    macro = (f1[Verdict.TRUE] + f1[Verdict.FALSE]) / 2
    total = support[Verdict.TRUE] + support[Verdict.FALSE]
    weighted = sum(support[v] * f1[v] for v in Verdict) / total if total else 0.0
    return MetricReport(precision=precision, recall=recall, f1=f1,
                        support=support, macro_f1=macro, weighted_f1=weighted)


def round_display(value: float) -> str:
    """Half-up to two decimals, trailing zeros trimmed ('0.80' -> '0.8')."""
    quantized = Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    text = str(quantized.normalize())
    return "0" if text in ("0", "-0") else text


def render_table(name: str, rep: MetricReport) -> str:
    """Aligned plain-text table of one run: a header line, then the run's
    per-class P/R/F1 and its macro and weighted F1."""
    header = ["run", "P(True)", "R(True)", "F1(True)",
              "P(False)", "R(False)", "F1(False)", "M-F1", "W-F1"]
    row = [name, *(round_display(x) for v in Verdict
                   for x in (rep.precision[v], rep.recall[v], rep.f1[v])),
           round_display(rep.macro_f1), round_display(rep.weighted_f1)]
    widths = [max(len(h), len(cell)) for h, cell in zip(header, row)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in (header, row))
