import json
import math
import random
from dataclasses import replace

import pytest

from conftest import make_mock_backend, make_samples, write_config
from ctxsent.classifier import ClassifierOutput, OutputColumns, predict_batch, write_outputs
from ctxsent import datamodel
from ctxsent.cli import cmd_compare_types, cmd_evaluate, cmd_fuse, cmd_sweep, load_config
from ctxsent.datamodel import (
    POLARITIES,
    PolarityDistribution,
    PredictionColumns,
    PredictionRecord,
    Sample,
    argmax_label,
    write_samples,
)
from ctxsent.evaluate import (
    SweepResult,
    GridPoint,
    compare_knowledge_types,
    compute_metrics,
    default_entropy_edges,
    entropy,
    error_rate_by_entropy,
    rows_to_csv,
    sweep,
)
from ctxsent.fusion import STRATEGIES, FusionConfig, base_set, fuse_records
from ctxsent.prompts import registry_templates

NEG, NEU, POS = POLARITIES


def brute_force_metrics(golds, preds):
    """Independent confusion-matrix oracle: recounts everything from scratch."""
    n = len(golds)
    accuracy = sum(1 for g, p in zip(golds, preds) if g == p) / n
    stats = {}
    for label in POLARITIES:
        tp = len([1 for g, p in zip(golds, preds) if g == label and p == label])
        predicted = len([1 for p in preds if p == label])
        actual = len([1 for g in golds if g == label])
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        stats[label] = (precision, recall, f1, actual)
    macro_p = sum(s[0] for s in stats.values()) / 3
    macro_r = sum(s[1] for s in stats.values()) / 3
    macro_f1 = sum(s[2] for s in stats.values()) / 3
    return accuracy, macro_p, macro_r, macro_f1, stats


class TestComputeMetrics:
    def test_worked_example(self):
        golds = [NEG, NEU, POS, POS]
        preds = [NEG, POS, POS, POS]
        report = compute_metrics(golds, preds)
        assert report.accuracy == 0.75
        assert report.macro_f1 == pytest.approx(0.6, abs=1e-12)
        assert report.per_class[0].f1 == pytest.approx(1.0)
        assert report.per_class[1].f1 == pytest.approx(0.0)
        assert report.per_class[2].f1 == pytest.approx(0.8)

    def test_perfect_predictions(self):
        golds = [NEG, NEU, POS] * 4
        report = compute_metrics(golds, golds)
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_single_class_predictions_on_balanced_golds(self):
        golds = [NEG, NEU, POS] * 5
        preds = [POS] * 15
        report = compute_metrics(golds, preds)
        assert report.accuracy == pytest.approx(1 / 3)

    def test_supports_sum_to_n(self):
        golds = [NEG, NEG, POS]
        preds = [NEG, POS, POS]
        report = compute_metrics(golds, preds)
        assert sum(c.support for c in report.per_class) == report.n == 3

    def test_matches_brute_force_oracle(self):
        rng = random.Random(123)
        for _ in range(1000):
            n = rng.randint(1, 50)
            golds = [POLARITIES[rng.randrange(3)] for _ in range(n)]
            preds = [POLARITIES[rng.randrange(3)] for _ in range(n)]
            report = compute_metrics(golds, preds)
            accuracy, macro_p, macro_r, macro_f1, stats = brute_force_metrics(golds, preds)
            assert report.accuracy == accuracy
            assert report.macro_precision == macro_p
            assert report.macro_recall == macro_r
            assert report.macro_f1 == macro_f1
            for label, cm in zip(POLARITIES, report.per_class):
                assert (cm.precision, cm.recall, cm.f1, cm.support) == stats[label]

    def test_order_permutation_invariance(self):
        rng = random.Random(5)
        golds = [POLARITIES[rng.randrange(3)] for _ in range(40)]
        preds = [POLARITIES[rng.randrange(3)] for _ in range(40)]
        paired = list(zip(golds, preds))
        rng.shuffle(paired)
        shuffled = compute_metrics([g for g, _ in paired], [p for _, p in paired])
        original = compute_metrics(golds, preds)
        assert shuffled.macro_f1 == original.macro_f1
        assert shuffled.accuracy == original.accuracy

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compute_metrics([NEG], [NEG, POS])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([], [])


class TestEntropy:
    def test_uniform_is_log2_three(self):
        assert entropy(PolarityDistribution.uniform()) == pytest.approx(math.log2(3), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy(PolarityDistribution((1.0, 0.0, 0.0))) == 0.0

    def test_default_edges(self):
        edges = default_entropy_edges()
        assert len(edges) == 9
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(math.log2(3))


def _record(sample_id, base, final=None, strategy="base"):
    from ctxsent.fusion import delta as delta_fn

    gap = delta_fn(base)
    return PredictionRecord(
        sample_id=sample_id,
        base=base,
        with_context=None,
        fused=None,
        delta=gap,
        is_hard=gap <= 0.3,
        final_label=final if final is not None else argmax_label(base),
        strategy=strategy,
    )


class TestErrorRateByEntropy:
    def test_counts_sum_and_rates(self):
        records = [
            _record("a", PolarityDistribution.uniform()),
            _record("b", PolarityDistribution((0.98, 0.01, 0.01))),
            _record("c", PolarityDistribution((0.4, 0.35, 0.25))),
        ]
        golds = {"a": NEU, "b": NEG, "c": NEG}
        report = error_rate_by_entropy(records, golds)
        assert sum(report.counts) == report.n == 3
        populated = [r for r, c in zip(report.error_rates, report.counts) if c]
        assert all(r is not None for r in populated)

    def test_empty_bucket_is_none_not_zero(self):
        records = [_record("a", PolarityDistribution.uniform())]
        report = error_rate_by_entropy(records, {"a": NEG})
        assert report.error_rates[0] is None
        assert report.counts[0] == 0

    def test_hard_only_filters(self):
        records = [
            _record("a", PolarityDistribution.uniform()),
            _record("b", PolarityDistribution((0.98, 0.01, 0.01))),
        ]
        golds = {"a": NEG, "b": NEG}
        report = error_rate_by_entropy(records, golds, hard_only=True, alpha=0.3)
        assert report.n == 1
        assert report.hard_only and report.alpha == 0.3

    def test_missing_gold_rejected(self):
        records = [_record("a", PolarityDistribution.uniform())]
        with pytest.raises(ValueError, match="gold"):
            error_rate_by_entropy(records, {})


def _dev_outputs(n=300, seed=17):
    samples = make_samples(n, seed=1)
    backend = make_mock_backend(seed=seed, base_accuracy=0.7, hard_context_accuracy=0.9)
    contexts = None
    base = predict_batch(samples, "sentence", backend).outputs
    from ctxsent.datamodel import ContextRecord

    contexts = {
        s.id: ContextRecord(
            sample_id=s.id,
            knowledge_type="historical",
            model_id="mock",
            prompt_hash="h",
            text="ctx",
            created_at="1970-01-01T00:00:00+00:00",
        )
        for s in samples
    }
    ctx = predict_batch(samples, "sentence", backend, contexts=contexts).outputs
    golds = {s.id: s.gold for s in samples}
    return base, ctx, golds


@pytest.fixture(scope="module")
def dev_outputs():
    return _dev_outputs(n=90)


class TestSweep:
    @pytest.mark.parametrize("gate_alternatives", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_point_equals_metrics_of_fused_records(self, dev_outputs, strategy, gate_alternatives):
        base, ctx, golds = dev_outputs
        fusion = FusionConfig(strategy=strategy, gate_alternatives=gate_alternatives)
        grid = [0.0, 0.2, 0.5, 1.0]
        result = sweep(base, ctx, golds, alpha_grid=grid, beta_grid=grid, fusion=fusion, mode="full-grid")
        assert len(result.grid) == 16
        for point in result.grid:
            records = fuse_records(base, ctx, replace(fusion, alpha=point.alpha, beta=point.beta))
            report = compute_metrics([golds[r.sample_id] for r in records], [r.final_label for r in records])
            assert point.macro_f1 == report.macro_f1

    @pytest.mark.parametrize("strategy", ["cf", "js"])
    def test_distributions_built_do_not_grow_with_the_grid(self, dev_outputs, monkeypatch, strategy):
        base, ctx, golds = dev_outputs
        built = []
        check = PolarityDistribution.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(PolarityDistribution, "__post_init__", counting)
        counts = []
        for alphas, betas in (([0.3], [0.45]), ([0.1, 0.2, 0.3, 0.4, 0.5], [i / 10 for i in range(10)])):
            built.clear()
            sweep(base, ctx, golds, alphas, betas, fusion=FusionConfig(strategy=strategy), mode="full-grid")
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_js_full_grid_weighs_each_row_once(self, dev_outputs, monkeypatch):
        # The js weight is cached on the joined columns, so the grid size does not change the count.
        base, ctx, golds = dev_outputs
        weighed = []
        js = datamodel._js
        monkeypatch.setattr(datamodel, "_js", lambda p, q: weighed.append(p) or js(p, q))
        result = sweep(base, ctx, golds, [0.1, 0.3, 0.5], [0.0, 0.45, 0.9], FusionConfig(strategy="js"), "full-grid")
        assert len(result.grid) == 9
        assert len(weighed) == len(base)

    def test_beta_zero_point_equals_base_f1(self):
        base, ctx, golds = _dev_outputs()
        result = sweep(base, ctx, golds, alpha_grid=[0.3], beta_grid=[0.0], mode="full-grid")
        base_report = compute_metrics(
            [golds[o.sample_id] for o in base], [argmax_label(o.dist) for o in base]
        )
        assert result.grid[0].macro_f1 == base_report.macro_f1

    def test_beta_one_alpha_one_equals_context_only(self):
        base, ctx, golds = _dev_outputs()
        result = sweep(base, ctx, golds, alpha_grid=[1.0], beta_grid=[1.0], mode="full-grid")
        ctx_report = compute_metrics(
            [golds[o.sample_id] for o in ctx], [argmax_label(o.dist) for o in ctx]
        )
        assert result.grid[0].macro_f1 == ctx_report.macro_f1

    def test_two_phase_selects_helpful_beta(self):
        base, ctx, golds = _dev_outputs()
        result = sweep(
            base,
            ctx,
            golds,
            alpha_grid=[0.1, 0.2, 0.3, 0.4, 0.5],
            beta_grid=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        )
        assert result.selected_beta > 0.0
        assert result.rule == "two-phase"
        selected = [g for g in result.grid if g.alpha == result.selected_alpha and g.beta == result.selected_beta]
        assert selected and selected[0].macro_f1 == result.selected_f1

    def test_selected_point_reproducible(self):
        base, ctx, golds = _dev_outputs()
        result = sweep(base, ctx, golds, alpha_grid=[0.2, 0.3], beta_grid=[0.0, 0.45, 0.9])
        config = FusionConfig(alpha=result.selected_alpha, beta=result.selected_beta)
        records = fuse_records(base, ctx, config)
        report = compute_metrics([golds[r.sample_id] for r in records], [r.final_label for r in records])
        assert report.macro_f1 == result.selected_f1

    def test_empty_grid_rejected(self):
        base, ctx, golds = _dev_outputs(n=10)
        with pytest.raises(ValueError, match="non-empty"):
            sweep(base, ctx, golds, alpha_grid=[], beta_grid=[0.1])

    def test_tie_breaks_prefer_smaller_beta_then_alpha(self):
        grid = (
            GridPoint(alpha=0.1, beta=0.1, macro_f1=0.5),
            GridPoint(alpha=0.4, beta=0.2, macro_f1=0.7),
            GridPoint(alpha=0.2, beta=0.2, macro_f1=0.7),
            GridPoint(alpha=0.1, beta=0.5, macro_f1=0.7),
        )
        result = SweepResult(grid=grid, rule="full-grid")
        assert (result.selected_alpha, result.selected_beta, result.selected_f1) == (0.2, 0.2, 0.7)

    def test_two_phase_carries_the_smallest_tied_beta(self):
        # A top-two gap of 0.5 is not hard at the fixed alpha 0.3, so every
        # phase-one beta keeps the base labels and ties on macro-F1.
        confident = PolarityDistribution((0.7, 0.2, 0.1))
        outputs = [ClassifierOutput("a", confident, None), ClassifierOutput("b", confident, None)]
        result = sweep(outputs, outputs, {"a": NEG, "b": NEU}, alpha_grid=[0.1, 0.3], beta_grid=[0.9, 0.5, 0.2])
        assert [(g.alpha, g.beta) for g in result.grid] == [(0.3, 0.9), (0.3, 0.5), (0.3, 0.2), (0.1, 0.2)]
        assert len({g.macro_f1 for g in result.grid}) == 1
        assert (result.selected_alpha, result.selected_beta) == (0.1, 0.2)


class TestCompareKnowledgeTypes:
    def _records_for(self, golds, flip_ids=()):
        records = []
        for sample_id, gold in golds.items():
            label = gold if sample_id not in flip_ids else POLARITIES[(gold.index + 1) % 3]
            values = [0.1, 0.1, 0.1]
            values[label.index] = 0.8
            records.append(_record(sample_id, PolarityDistribution(tuple(values)), strategy="cf"))
        return records

    def test_identical_sets_identical_rows(self):
        golds = {f"s{i}": POLARITIES[i % 3] for i in range(9)}
        records = self._records_for(golds)
        columns = PredictionColumns.from_records(records)
        rows = compare_knowledge_types(columns, {"a": columns, "b": PredictionColumns.from_records(list(records))}, golds)
        assert rows[1].macro_f1 == rows[2].macro_f1 == rows[0].macro_f1

    def test_base_row_matches_compute_metrics(self):
        golds = {f"s{i}": POLARITIES[i % 3] for i in range(9)}
        base = self._records_for(golds, flip_ids={"s0"})
        rows = compare_knowledge_types(PredictionColumns.from_records(base), {}, golds)
        direct = compute_metrics([golds[r.sample_id] for r in base], [r.final_label for r in base])
        assert rows[0].knowledge_type == "base"
        assert rows[0].macro_f1 == direct.macro_f1

    def test_registry_types_give_twelve_rows(self):
        golds = {f"s{i}": POLARITIES[i % 3] for i in range(6)}
        records = self._records_for(golds)
        columns = PredictionColumns.from_records(records)
        per_type = {t.knowledge_type: columns for t in registry_templates()}
        rows = compare_knowledge_types(columns, per_type, golds)
        assert len(rows) == 12

    def test_id_mismatch_rejected(self):
        golds = {f"s{i}": POLARITIES[i % 3] for i in range(4)}
        base = self._records_for(golds)
        with pytest.raises(ValueError, match="different ids"):
            compare_knowledge_types(
                PredictionColumns.from_records(base), {"a": PredictionColumns.from_records(base[:-1])}, golds
            )

    def test_csv_shape(self):
        golds = {f"s{i}": POLARITIES[i % 3] for i in range(3)}
        records = self._records_for(golds)
        columns = PredictionColumns.from_records(records)
        rows = compare_knowledge_types(columns, {"historical": columns}, golds)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "knowledge_type,accuracy,macro_f1,n"
        assert len(lines) == 3


class TestReportFiles:
    def test_report_files_are_pinned(self, tmp_path):
        # The reports are sorted-key JSON and each grid CSV has one column per
        # field of its row dataclass, so a renamed field or a reordered CSV
        # column fails here.
        sweep_spec = {"mode": "full-grid", "alpha_grid": [0.3], "beta_grid": [0.0, 0.5]}
        config = load_config(write_config(tmp_path / "config.json", sweep=sweep_spec))
        golds = (NEG, NEG, NEU, POS)
        samples = [Sample(id=f"s{i}", split="test", sentence=f"Sentence {i}.", gold=g) for i, g in enumerate(golds)]
        # Only s1 is hard at alpha 0.3, and only its context answer differs from the base one.
        dists = [(0.8, 0.1, 0.1), (0.4, 0.5, 0.1), (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)]
        ctx_dists = [dists[0], (0.9, 0.05, 0.05), *dists[2:]]
        base = [ClassifierOutput(s.id, PolarityDistribution(d), None) for s, d in zip(samples, dists)]
        ctx = [ClassifierOutput(s.id, PolarityDistribution(d), None) for s, d in zip(samples, ctx_dists)]
        base_columns, ctx_columns = OutputColumns.from_outputs(base), OutputColumns.from_outputs(ctx)
        run = tmp_path / "out" / "run"
        run.mkdir(parents=True)
        write_samples(run / "samples.jsonl", samples)
        write_outputs(run / "predictions.base.jsonl", base)
        write_outputs(run / "predictions.historical.jsonl", ctx)
        cmd_evaluate(config, samples, base_set(base_columns, alpha=0.3), run / "predictions.base.jsonl")
        cmd_sweep(config, samples, base_columns, ctx_columns, "historical")
        fused = cmd_fuse(config, base_columns, ctx_columns, "historical")
        cmd_compare_types(config, samples, base_columns, {"historical": fused})

        def json_text(payload):
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"

        five_sixths, two_thirds, f1 = 0.8333333333333334, 0.6666666666666666, 0.7777777777777777
        assert (run / "metrics.predictions.base.json").read_text() == json_text({
            "accuracy": 0.75, "macro_f1": f1, "macro_precision": five_sixths, "macro_recall": five_sixths, "n": 4,
            "per_class": {
                "negative": {"f1": two_thirds, "precision": 1.0, "recall": 0.5, "support": 2},
                "neutral": {"f1": two_thirds, "precision": 0.5, "recall": 1.0, "support": 1},
                "positive": {"f1": 1.0, "precision": 1.0, "recall": 1.0, "support": 1},
            },
        })
        edges = [
            0.0, 0.1981203125901445, 0.396240625180289, 0.5943609377704335, 0.792481250360578,
            0.9906015629507225, 1.188721875540867, 1.3868421881310116, 1.584962500721156,
        ]
        none4 = [None] * 4
        assert (run / "entropy.predictions.base.json").read_text() == json_text({
            "all": {
                "alpha": 0.3, "counts": [0, 0, 0, 0, 3, 0, 1, 0], "edges": edges, "entropy_base": 2,
                "error_rates": [*none4, 0.0, None, 1.0, None], "hard_only": False, "n": 4,
            },
            "hard": {
                "alpha": 0.3, "counts": [0, 0, 0, 0, 0, 0, 1, 0], "edges": edges, "entropy_base": 2,
                "error_rates": [*none4, None, None, 1.0, None], "hard_only": True, "n": 1,
            },
        })
        assert (run / "sweep.historical.json").read_text() == json_text({
            "grid": [{"alpha": 0.3, "beta": 0.0, "macro_f1": f1}, {"alpha": 0.3, "beta": 0.5, "macro_f1": 1.0}],
            "rule": "full-grid", "selected_alpha": 0.3, "selected_beta": 0.5, "selected_f1": 1.0,
        })
        assert (run / "sweep.historical.csv").read_text() == (
            "alpha,beta,macro_f1\n0.3,0.0,0.7777777777777777\n0.3,0.5,1.0\n"
        )
        assert (run / "knowledge_types.csv").read_text() == (
            "knowledge_type,accuracy,macro_f1,n\nbase,0.75,0.7777777777777777,4\nhistorical,1.0,1.0,4\n"
        )
