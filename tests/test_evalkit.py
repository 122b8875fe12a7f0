import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.evalkit import (
    ConfusionCounts,
    DatasetKind,
    EmptyDataset,
    LengthMismatch,
    SchemaError,
    confusion,
    load_dataset,
    prf1,
    render_table,
    report,
    round_display,
)
from claimcheck.model import Verdict

T, F = Verdict.TRUE, Verdict.FALSE


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")


def factool_file(tmp_path, n_true=177, n_false=56):
    records = [{"claim": f"true claim {i}", "label": True} for i in range(n_true)]
    records += [{"claim": f"false claim {i}", "label": False} for i in range(n_false)]
    path = tmp_path / "factool_kbqa.jsonl"
    write_jsonl(path, records)
    return path


def bingcheck_file(tmp_path, n_supported=380, n_refuted=42, n_partial=25, n_not=31):
    records = [{"claim": f"supported {i}", "label": "supported"} for i in range(n_supported)]
    records += [{"claim": f"refuted {i}", "label": "refuted"} for i in range(n_refuted)]
    records += [{"claim": f"partial {i}", "label": "partially supported"} for i in range(n_partial)]
    records += [{"claim": f"notsup {i}", "label": "not supported"} for i in range(n_not)]
    random.Random(7).shuffle(records)
    path = tmp_path / "bingcheck.jsonl"
    write_jsonl(path, records)
    return path


def factcheck_bench_file(tmp_path, n_true=490, n_false=161, n_unknown=30):
    records = [{"claim": f"true {i}", "label": "True"} for i in range(n_true)]
    records += [{"claim": f"false {i}", "label": "False"} for i in range(n_false)]
    records += [{"claim": f"unk {i}", "label": "Unknown"} for i in range(n_unknown)]
    random.Random(11).shuffle(records)
    path = tmp_path / "factcheck_bench.jsonl"
    write_jsonl(path, records)
    return path


def class_counts(claims):
    true = sum(1 for c in claims if c.gold is T)
    return true, len(claims) - true


class TestLoaders:
    def test_factool_kbqa_counts(self, tmp_path):
        claims = load_dataset(DatasetKind.FACTOOL_KBQA, factool_file(tmp_path))
        assert class_counts(claims) == (177, 56)
        assert len(claims) == 233

    def test_bingcheck_mapping_and_sampling(self, tmp_path):
        claims = load_dataset(DatasetKind.BINGCHECK, bingcheck_file(tmp_path))
        assert class_counts(claims) == (160, 42)
        assert len(claims) == 202

    def test_factcheck_bench_filter_and_sampling(self, tmp_path):
        claims = load_dataset(DatasetKind.FACTCHECK_BENCH, factcheck_bench_file(tmp_path))
        assert class_counts(claims) == (472, 159)
        assert len(claims) == 631

    def test_loads_are_deterministic(self, tmp_path):
        path = bingcheck_file(tmp_path)
        first = [c.claim.id for c in load_dataset(DatasetKind.BINGCHECK, path, seed=3)]
        second = [c.claim.id for c in load_dataset(DatasetKind.BINGCHECK, path, seed=3)]
        assert first == second

    def test_different_seed_different_sample(self, tmp_path):
        path = bingcheck_file(tmp_path)
        a = [c.claim.id for c in load_dataset(DatasetKind.BINGCHECK, path, seed=1)]
        b = [c.claim.id for c in load_dataset(DatasetKind.BINGCHECK, path, seed=2)]
        assert a != b

    def test_missing_field_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"claim": "x"}])
        with pytest.raises(SchemaError):
            load_dataset(DatasetKind.FACTOOL_KBQA, path)

    def test_unknown_label_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"claim": "x", "label": "maybe"}])
        with pytest.raises(SchemaError):
            load_dataset(DatasetKind.BINGCHECK, path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyDataset):
            load_dataset(DatasetKind.FACTOOL_KBQA, path)

    @pytest.mark.parametrize("body, where", [
        ('{"claim": "x", "label": true}\n{"claim": "y", "label": tru\n'.encode(), "line 2"),
        (b'[{"claim": "x", "label": true},', "invalid JSON"),
        ('{"claim": "caf\u00e9", "label": true}\n'.encode("latin-1"), "not UTF-8"),
        (b"[1]", "record 0 is not an object"),
        (b"3\n", "record 0 is not an object"),
        (b'{"claim": "  ", "label": true}\n', "record 0 has an empty claim"),
        (b"[" * 100_000, "invalid JSON"),
        (b'{"claim": null, "label": true}\n', "record 0: claim None is not a string"),
        (b'{"claim": 1998, "label": true}\n', "record 0: claim 1998 is not a string"),
        (b'{"claim": ["a"], "label": true}\n', r"record 0: claim \['a'\] is not a string"),
    ], ids=["jsonl", "array", "latin-1", "array-of-a-number", "jsonl-number", "empty-claim",
            "nested-too-deep", "null-claim", "number-claim", "list-claim"])
    def test_undecodable_file_is_schema_error(self, tmp_path, body, where):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(body)
        with pytest.raises(SchemaError, match=where):
            load_dataset(DatasetKind.FACTOOL_KBQA, path)

    def test_nothing_left_after_preprocessing_is_empty_dataset(self, tmp_path):
        path = bingcheck_file(tmp_path, n_supported=0, n_refuted=0, n_partial=0, n_not=3)
        with pytest.raises(EmptyDataset, match="no claims after preprocessing"):
            load_dataset(DatasetKind.BINGCHECK, path)

    def test_jsonl_line_may_hold_a_line_separator(self, tmp_path):
        path = tmp_path / "ls.jsonl"
        path.write_text('{"claim": "a\u2028b", "label": true}\n', encoding="utf-8")
        assert load_dataset(DatasetKind.FACTOOL_KBQA, path)[0].claim.text == "a\u2028b"

    def test_json_array_also_accepted(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps([{"claim": "c", "label": True}]), encoding="utf-8")
        claims = load_dataset(DatasetKind.FACTOOL_KBQA, path)
        assert claims[0].gold is T

    @pytest.mark.parametrize("body", [
        json.dumps([{"claim": "a", "label": True, "id": "x"}, {"claim": "b", "label": False}]),
        '{"claim": "a", "label": true, "id": "x"}\n{"claim": "b", "label": false}\n',
    ], ids=["array", "jsonl"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, body):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_bytes(body.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert (load_dataset(DatasetKind.FACTOOL_KBQA, marked)
                == load_dataset(DatasetKind.FACTOOL_KBQA, plain))

    @pytest.mark.parametrize("records", [
        [{"claim": "a", "label": True, "id": "x"}, {"claim": "b", "label": False, "id": "x"}],
        # an explicit id may repeat one assigned from a record's position
        [{"claim": "a", "label": True}, {"claim": "b", "label": False,
                                         "id": "factool_kbqa-0000"}],
    ], ids=["explicit", "assigned"])
    def test_duplicate_id_is_schema_error(self, tmp_path, records):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, records)
        with pytest.raises(SchemaError, match="repeats id"):
            load_dataset(DatasetKind.FACTOOL_KBQA, path)


class TestConfusion:
    def test_perfect_two(self):
        counts = confusion([T, F], [T, F])
        assert counts.tp[T] == 1 and counts.tp[F] == 1
        assert counts.fp[T] == counts.fn[F] == 0

    def test_one_false_positive(self):
        counts = confusion([T, T], [T, F])
        assert counts.tp[T] == 1 and counts.fp[T] == 1 and counts.fn[F] == 1

    def test_random_pairs_match_naive_tally(self):
        rng = random.Random(42)
        preds = [rng.choice([T, F]) for _ in range(100)]
        golds = [rng.choice([T, F]) for _ in range(100)]
        counts = confusion(preds, golds)
        for cls in (T, F):
            tp = sum(1 for p, g in zip(preds, golds) if p is cls and g is cls)
            fp = sum(1 for p, g in zip(preds, golds) if p is cls and g is not cls)
            fn = sum(1 for p, g in zip(preds, golds) if p is not cls and g is cls)
            assert (counts.tp[cls], counts.fp[cls], counts.fn[cls]) == (tp, fp, fn)
            assert counts.support(cls) == tp + fn

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([T], [T, F])
        with pytest.raises(LengthMismatch):
            confusion([], [])


def counts_for(tp_t, fp_t, fn_t, tp_f=0, fp_f=0, fn_f=0):
    return ConfusionCounts(tp={T: tp_t, F: tp_f}, fp={T: fp_t, F: fp_f},
                           fn={T: fn_t, F: fn_f})


class TestPrf1:
    def test_perfect(self):
        assert prf1(counts_for(1, 0, 0), T) == (1, 1, 1)

    def test_zero_denominator_convention(self):
        assert prf1(counts_for(0, 0, 5), T) == (0, 0, 0)

    def test_published_true_class_row_reproduced(self):
        # solved from published P=0.89 / R=0.92 with support 177
        p, r, f1 = prf1(counts_for(163, 20, 14), T)
        assert round_display(p) == "0.89"
        assert round_display(r) == "0.92"
        assert round_display(f1) == "0.91"


class TestReport:
    def test_macro_and_weighted_for_skewed_supports(self):
        # F1(True)=0.91, F1(False)=0.68, supports 177/56
        counts = ConfusionCounts(
            tp={T: 163, F: 36}, fp={T: 20, F: 14}, fn={T: 14, F: 20})
        rep = report(counts)
        assert rep.support == {T: 177, F: 56}
        assert rep.macro_f1 == (rep.f1[T] + rep.f1[F]) / 2
        expected_weighted = (177 * rep.f1[T] + 56 * rep.f1[F]) / 233
        assert rep.weighted_f1 == expected_weighted

    def test_published_f1_aggregation_examples(self):
        # aggregating the published per-class F1s with their supports
        assert round_display((0.91 + 0.68) / 2) == "0.8"
        assert round_display((177 * 0.91 + 56 * 0.68) / 233) == "0.85"
        assert round_display((472 * 0.9 + 159 * 0.71) / 631) == "0.85"

    def test_perfect_scores(self):
        counts = ConfusionCounts(tp={T: 3, F: 2}, fp={T: 0, F: 0}, fn={T: 0, F: 0})
        rep = report(counts)
        assert rep.macro_f1 == rep.weighted_f1 == 1.0

    def test_display_rounding_half_up(self):
        assert round_display(0.795) == "0.8"
        assert round_display(0.8547) == "0.85"
        assert round_display(0.005) == "0.01"
        assert round_display(1.0) == "1"

    @given(st.integers(1, 50), st.integers(0, 50), st.integers(0, 50),
           st.integers(1, 50), st.integers(0, 50), st.integers(0, 50))
    def test_all_metrics_in_unit_interval(self, a, b, c, d, e, f):
        counts = ConfusionCounts(tp={T: a, F: d}, fp={T: b, F: e}, fn={T: c, F: f})
        rep = report(counts)
        values = [rep.macro_f1, rep.weighted_f1]
        for v in Verdict:
            values += [rep.precision[v], rep.recall[v], rep.f1[v]]
        assert all(0.0 <= x <= 1.0 for x in values)

    @given(st.integers(1, 30), st.integers(0, 30), st.integers(1, 30), st.integers(0, 30))
    def test_weighted_equals_macro_when_supports_equal(self, tp_t, fp_t, tp_f, fp_f):
        # force equal supports by mirroring fn counts
        support = max(tp_t, tp_f) + 5
        counts = ConfusionCounts(
            tp={T: tp_t, F: tp_f}, fp={T: fp_t, F: fp_f},
            fn={T: support - tp_t, F: support - tp_f})
        rep = report(counts)
        assert rep.weighted_f1 == pytest.approx(rep.macro_f1)

    def test_render_table_layout(self):
        counts = ConfusionCounts(tp={T: 163, F: 36}, fp={T: 20, F: 14},
                                 fn={T: 14, F: 20})
        table = render_table("run-a", report(counts))
        lines = table.splitlines()
        assert lines[0].split() == ["run", "P(True)", "R(True)", "F1(True)",
                                    "P(False)", "R(False)", "F1(False)", "M-F1", "W-F1"]
        assert lines[1].startswith("run-a")
        assert "0.85" in lines[1]
