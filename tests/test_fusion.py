import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from ctxsent.classifier import ClassifierOutput, OutputColumns, softmax
from ctxsent.datamodel import Polarity, PolarityDistribution, PredictionRecord, argmax_label
from ctxsent.fusion import (
    STRATEGIES,
    FusionConfig,
    base_records,
    delta,
    fuse_cf,
    fuse_js,
    fuse_outputs,
    fuse_records,
    is_hard,
    js_divergence,
)
from fusion_reference import apply_strategy

UNIFORM = PolarityDistribution.uniform()
ONE_HOT = PolarityDistribution((1.0, 0.0, 0.0))

dist_strategy = st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=3, max_size=3).map(
    PolarityDistribution.normalized
)


def _random_dist(rng: random.Random) -> PolarityDistribution:
    values = [rng.random() for _ in range(3)]
    return PolarityDistribution.normalized(values)


def _fuse_pairs(pairs, strategy: str, **knobs) -> list[PredictionRecord]:
    """Each (p, p_hat) pair as one sample through fuse_records with the given strategy."""
    base = [ClassifierOutput(f"s{i}", p, None) for i, (p, _) in enumerate(pairs)]
    ctx = [ClassifierOutput(f"s{i}", q, None) for i, (_, q) in enumerate(pairs)]
    return fuse_records(base, ctx, FusionConfig(strategy=strategy, **knobs))


def _fuse_one(p: PolarityDistribution, p_hat: PolarityDistribution, strategy: str, **knobs) -> PredictionRecord:
    [record] = _fuse_pairs([(p, p_hat)], strategy, **knobs)
    return record


class TestDelta:
    def test_uniform_is_zero(self):
        assert delta(UNIFORM) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_is_one(self):
        assert delta(ONE_HOT) == 1.0

    def test_hand_example(self):
        assert delta(PolarityDistribution((0.5, 0.3, 0.2))) == pytest.approx(0.2, abs=1e-12)

    @given(dist_strategy)
    def test_equals_top_two_gap(self, dist):
        top_two = sorted(dist.probs, reverse=True)[:2]
        assert abs(delta(dist) - (top_two[0] - top_two[1])) <= 1e-9
        assert 0.0 <= delta(dist) <= 1.0


class TestIsHard:
    def test_uniform_is_hard(self):
        assert is_hard(UNIFORM, 0.3)

    def test_one_hot_is_not_hard(self):
        assert not is_hard(ONE_HOT, 0.3)

    def test_boundary_inclusive(self):
        dist = PolarityDistribution((0.5, 0.3, 0.2))
        assert is_hard(dist, delta(dist))


class TestFuseCf:
    def test_non_hard_passes_through_bit_identically(self):
        config = FusionConfig(alpha=0.3, beta=0.45)
        result = fuse_cf(ONE_HOT, PolarityDistribution((0.0, 1.0, 0.0)), config)
        assert result.fused is ONE_HOT
        assert result.final_label is Polarity.NEGATIVE
        assert not result.is_hard

    def test_beta_zero_is_identity(self):
        p = PolarityDistribution((0.35, 0.34, 0.31))
        result = fuse_cf(p, PolarityDistribution((0.1, 0.8, 0.1)), FusionConfig(beta=0.0))
        assert result.fused.probs == p.probs

    def test_beta_one_returns_context(self):
        p = PolarityDistribution((0.35, 0.34, 0.31))
        p_hat = PolarityDistribution((0.1, 0.8, 0.1))
        result = fuse_cf(p, p_hat, FusionConfig(beta=1.0))
        assert result.fused.probs == p_hat.probs

    def test_hand_example(self):
        result = fuse_cf(
            PolarityDistribution((0.4, 0.4, 0.2)),
            PolarityDistribution((0.8, 0.1, 0.1)),
            FusionConfig(alpha=0.3, beta=0.5),
        )
        assert result.is_hard
        assert result.delta == pytest.approx(0.0, abs=1e-12)
        assert result.fused.probs == pytest.approx((0.6, 0.25, 0.15), abs=1e-12)
        assert result.final_label is Polarity.NEGATIVE

    def test_without_context(self):
        config = FusionConfig(alpha=0.3)
        with pytest.raises(ValueError) as raised:
            fuse_cf(UNIFORM, None, config)
        assert str(raised.value) == "strategy 'cf' needs a context-conditioned prediction but none was supplied"
        result = fuse_cf(ONE_HOT, None, config)
        assert result.fused is ONE_HOT
        assert result.is_hard is False

    def test_gap_equal_to_alpha_is_hard(self):
        p = PolarityDistribution((0.5, 0.3, 0.2))
        result = fuse_cf(p, UNIFORM, FusionConfig(alpha=delta(p), beta=1.0))
        assert result.is_hard
        assert result.fused is UNIFORM

    @given(dist_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_fixed_point(self, p, beta):
        result = fuse_cf(p, p, FusionConfig(beta=beta))
        assert result.fused.probs == p.probs

    @given(dist_strategy, dist_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_output_always_valid(self, p, p_hat, beta):
        result = fuse_cf(p, p_hat, FusionConfig(beta=beta))
        assert abs(sum(result.fused.probs) - 1.0) <= 1e-9

    def test_beta_outside_range_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            FusionConfig(beta=1.5)
        with pytest.raises(ValueError, match="beta"):
            FusionConfig(beta=-0.1)

    def test_alpha_outside_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            FusionConfig(alpha=1.01)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_cxmi_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="cxmi_threshold must be finite and positive"):
            FusionConfig(strategy="cxmi", cxmi_threshold=threshold)


class TestFuseAverage:
    def test_identical_inputs(self):
        p = PolarityDistribution((0.5, 0.3, 0.2))
        assert _fuse_one(p, p, "average").fused.probs == p.probs

    def test_symmetric_one_hots(self):
        record = _fuse_one(ONE_HOT, PolarityDistribution((0.0, 1.0, 0.0)), "average")
        assert record.fused.probs == (0.5, 0.5, 0.0)

    def test_hand_mean(self):
        record = _fuse_one(PolarityDistribution((0.2, 0.3, 0.5)), PolarityDistribution((0.6, 0.3, 0.1)), "average")
        assert record.fused.probs == pytest.approx((0.4, 0.3, 0.3), abs=1e-12)


class TestFuseMax:
    def test_identical_inputs(self):
        p = PolarityDistribution((0.5, 0.3, 0.2))
        assert _fuse_one(p, p, "max").fused.probs == pytest.approx(p.probs, abs=1e-12)

    def test_hand_max_with_renormalization(self):
        record = _fuse_one(PolarityDistribution((0.5, 0.3, 0.2)), PolarityDistribution((0.2, 0.5, 0.3)), "max")
        assert record.fused.probs == pytest.approx((0.5 / 1.3, 0.5 / 1.3, 0.3 / 1.3), abs=1e-12)

    def test_one_hot_argmax_survives_brute_force(self):
        rng = random.Random(42)
        for index in range(3):
            values = [0.0, 0.0, 0.0]
            values[index] = 1.0
            one_hot = PolarityDistribution(tuple(values))
            records = _fuse_pairs([(one_hot, _random_dist(rng)) for _ in range(200)], "max")
            assert all(record.final_label.index == index for record in records)


class TestJs:
    def test_uniform_self_divergence_zero(self):
        assert js_divergence(UNIFORM, UNIFORM) == 0.0

    def test_one_hot_vs_uniform_hand_value(self):
        # m = (2/3, 1/6, 1/6); 0.5*log2(3/2) + 0.5/3*(log2(1/2) + 2*log2(2))
        expected = 0.5 * math.log2(1.5) + 0.5 * (1.0 / 3.0)
        assert js_divergence(ONE_HOT, UNIFORM) == pytest.approx(expected, abs=1e-12)
        assert js_divergence(ONE_HOT, UNIFORM) == pytest.approx(0.4591, abs=1e-3)

    def test_symmetry_on_many_random_pairs(self):
        rng = random.Random(7)
        for _ in range(1000):
            p, q = _random_dist(rng), _random_dist(rng)
            assert abs(js_divergence(p, q) - js_divergence(q, p)) <= 1e-12

    @given(dist_strategy)
    def test_range_against_uniform(self, p):
        value = js_divergence(p, UNIFORM)
        assert 0.0 <= value <= 1.0

    def test_fuse_js_uniform_is_identity(self):
        fused = fuse_js(UNIFORM, PolarityDistribution((0.9, 0.05, 0.05)))
        assert fused.probs == UNIFORM.probs

    def test_fuse_js_weights_by_divergence(self):
        p = PolarityDistribution((0.8, 0.1, 0.1))
        p_hat = PolarityDistribution((0.1, 0.8, 0.1))
        beta = js_divergence(p, UNIFORM)
        fused = fuse_js(p, p_hat)
        expected = tuple(a + beta * (b - a) for a, b in zip(p.probs, p_hat.probs))
        assert fused.probs == pytest.approx(expected, abs=1e-12)


class TestFuseCxmi:
    def test_equal_distributions_take_context(self):
        p = PolarityDistribution((0.5, 0.3, 0.2))
        record = _fuse_one(p, p, "cxmi", cxmi_threshold=1.1)
        assert _bits(record.fused.probs) == _bits(p.probs)  # ratio 1 <= 1.1 adopts the context-side prediction
        assert record.final_label is Polarity.NEGATIVE

    def test_confident_base_retained(self):
        p = PolarityDistribution((0.9, 0.05, 0.05))
        p_hat = PolarityDistribution((0.5, 0.3, 0.2))
        record = _fuse_one(p, p_hat, "cxmi", cxmi_threshold=1.1)
        assert _bits(record.fused.probs) == _bits(p.probs)
        assert record.final_label is Polarity.NEGATIVE

    def test_ratio_below_threshold_takes_context(self):
        p = PolarityDistribution((0.5, 0.3, 0.2))
        p_hat = PolarityDistribution((0.55, 0.35, 0.1))
        record = _fuse_one(p, p_hat, "cxmi", cxmi_threshold=1.1)
        assert _bits(record.fused.probs) == _bits(p_hat.probs)
        assert record.final_label is argmax_label(p_hat)

    def test_threshold_sweep_monotone_gate(self):
        # Raising the threshold can only move samples from base to context.
        rng = random.Random(3)
        pairs = [(_random_dist(rng), _random_dist(rng)) for _ in range(300)]
        kept_base = []
        thresholds = [0.5 + 0.1 * i for i in range(16)]
        for threshold in thresholds:
            records = _fuse_pairs(pairs, "cxmi", cxmi_threshold=threshold)
            kept_base.append(sum(_bits(r.fused.probs) == _bits(p.probs) for r, (p, _) in zip(records, pairs)))
        assert all(a >= b for a, b in zip(kept_base, kept_base[1:]))
        assert kept_base[0] > kept_base[-1]

    def test_zero_denominator_guarded(self):
        p = PolarityDistribution((1.0, 0.0, 0.0))
        p_hat = PolarityDistribution((0.0, 1.0, 0.0))
        record = _fuse_one(p, p_hat, "cxmi", cxmi_threshold=1.1)
        assert _bits(record.fused.probs) == _bits(p.probs)
        assert record.final_label is Polarity.NEGATIVE


class TestApplyStrategyAndRecords:
    def _outputs(self):
        base = ClassifierOutput(sample_id="a", dist=softmax((0.1, 0.0, -0.1)), raw=None)
        ctx = ClassifierOutput(sample_id="a", dist=softmax((1.0, 0.0, -1.0)), raw=None, conditioned_on="historical")
        return base, ctx

    def test_alternative_strategies_apply_without_gate(self):
        confident = PolarityDistribution((0.9, 0.05, 0.05))
        other = PolarityDistribution((0.1, 0.8, 0.1))
        record = _fuse_one(confident, other, "average")
        assert record.fused.probs == pytest.approx((0.5, 0.425, 0.075), abs=1e-12)
        assert not record.is_hard

    def test_gated_alternative_passes_through_easy_samples(self):
        confident = PolarityDistribution((0.9, 0.05, 0.05))
        other = PolarityDistribution((0.1, 0.8, 0.1))
        record = _fuse_one(confident, other, "average", gate_alternatives=True)
        assert _bits(record.fused.probs) == _bits(confident.probs)
        assert record.final_label is argmax_label(confident)

    def test_fuse_records_builds_one_record(self):
        base, ctx = self._outputs()
        [record] = fuse_records([base], [ctx], FusionConfig(alpha=0.3, beta=0.5), knowledge_type="historical")
        assert record.sample_id == "a"
        assert record.base == base.dist
        assert record.with_context == ctx.dist
        assert record.strategy == "cf"
        assert record.is_hard == (record.delta <= 0.3)
        assert record.final_label is argmax_label(record.fused)

    def test_fuse_records_missing_context_for_hard_sample(self):
        base, _ = self._outputs()
        with pytest.raises(ValueError, match="context"):
            fuse_records([base], [], FusionConfig(alpha=0.3))

    def test_fuse_records_missing_context_easy_sample_ok(self):
        easy = ClassifierOutput(sample_id="a", dist=PolarityDistribution((0.9, 0.05, 0.05)), raw=None)
        [record] = fuse_records([easy], [], FusionConfig(alpha=0.3))
        assert record.fused == easy.dist
        assert record.with_context is None

    def test_fuse_records_joins_by_id(self):
        base, ctx = self._outputs()
        records = fuse_records([base], [ctx], FusionConfig())
        assert len(records) == 1
        assert records[0].knowledge_type == "historical"

    def test_base_records_shape(self):
        base, _ = self._outputs()
        records = base_records([base], alpha=0.3)
        assert records[0].strategy == "base"
        assert records[0].fused is None
        assert records[0].final_label is argmax_label(base.dist)


@pytest.mark.parametrize("with_context", [True, False], ids=["ctx", "no-ctx"])
@pytest.mark.parametrize("hard", [True, False], ids=["hard", "easy"])
@pytest.mark.parametrize("gate_alternatives", [False, True], ids=["ungated", "gated"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_gate_rule_table(strategy, gate_alternatives, hard, with_context):
    """The gate always applies to cf and to the alternatives only with gate_alternatives."""
    config = FusionConfig(alpha=0.3, strategy=strategy, gate_alternatives=gate_alternatives)
    p = PolarityDistribution((0.4, 0.35, 0.25)) if hard else PolarityDistribution((0.9, 0.05, 0.05))
    base = ClassifierOutput(sample_id="a", dist=p, raw=None)
    ctx = None
    if with_context:
        ctx = ClassifierOutput(sample_id="a", dist=PolarityDistribution((0.1, 0.8, 0.1)), raw=None)
    assert is_hard(p, config.alpha) == (delta(p) <= config.alpha) == hard
    gate_open = hard or (strategy != "cf" and not gate_alternatives)
    ctx_outputs = [ctx] if ctx else []
    if gate_open and ctx is None:
        with pytest.raises(ValueError, match="'a'.*needs a context-conditioned prediction"):
            fuse_records([base], ctx_outputs, config)
        return
    [record] = fuse_records([base], ctx_outputs, config)
    assert record.is_hard == hard
    assert record.delta == delta(p)
    assert record.with_context == (ctx.dist if ctx else None)
    if not gate_open:
        assert _bits(record.fused.probs) == _bits(p.probs)
        assert record.final_label is argmax_label(p)


# Rows with exact ties, one-hot rows and zero entries (-0.0 too), beside arbitrary ones.
_EDGE_ROWS = [
    (0.5, -0.0, 0.5),
    (-0.0, 0.0, 1.0),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    (0.5, 0.5, 0.0),
    (0.0, 0.5, 0.5),
    (0.5, 0.0, 0.5),
    (0.4, 0.4, 0.2),
    (0.2, 0.4, 0.4),
    (0.3, 0.35, 0.35),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
]
row_strategy = st.one_of(
    st.sampled_from(_EDGE_ROWS).map(PolarityDistribution),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3)
    .filter(lambda values: sum(values) > 0.0)
    .map(PolarityDistribution.normalized),
)
knob_strategy = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def _bits(values) -> tuple[str, ...]:
    # float.hex tells -0.0 from 0.0, so equal hex strings mean equal bits.
    return tuple(float(x).hex() for x in values)


@pytest.mark.parametrize("gate_alternatives", [False, True], ids=["ungated", "gated"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=40)
@given(
    # The context row is missing where the integer is 0, about one row in four.
    pairs=st.lists(st.tuples(row_strategy, row_strategy, st.integers(0, 3)), min_size=1, max_size=8).map(
        lambda rows: [(p, q if keep else None) for p, q, keep in rows]
    ),
    alpha=knob_strategy,
    beta=knob_strategy,
)
# Signed zeros meet at one index (Python's max keeps the first, np.maximum does
# not), and a cxmi ratio 0.55 / 0.5 equals the default threshold 1.1 exactly.
@example(
    pairs=[
        (PolarityDistribution((0.5, -0.0, 0.5)), PolarityDistribution((0.5, 0.0, 0.5))),
        (PolarityDistribution((0.5, 0.0, 0.5)), PolarityDistribution((0.5, -0.0, 0.5))),
        (PolarityDistribution((0.55, 0.25, 0.2)), PolarityDistribution((0.5, 0.3, 0.2))),
    ],
    alpha=1.0,
    beta=0.5,
)
def test_fuse_records_matches_apply_strategy(strategy, gate_alternatives, pairs, alpha, beta):
    """fuse_records runs on arrays; apply_strategy per sample is its reference, bit for bit."""
    config = FusionConfig(alpha=alpha, beta=beta, strategy=strategy, gate_alternatives=gate_alternatives)
    base = [ClassifierOutput(f"s{i}", p, None) for i, (p, _) in enumerate(pairs)]
    ctx = [ClassifierOutput(f"s{i}", q, None) for i, (_, q) in enumerate(pairs) if q is not None]
    expected = []
    for i, (p, p_hat) in enumerate(pairs):
        try:
            expected.append(apply_strategy(p, p_hat, config))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                fuse_records(base, ctx, config)
            assert str(raised.value) == f"sample 's{i}': {exc}"
            return
    records = fuse_records(base, ctx, config)
    assert [r.sample_id for r in records] == [o.sample_id for o in base]
    for record, want in zip(records, expected):
        assert _bits(record.fused.probs) == _bits(want.fused.probs)
        assert _bits([record.delta]) == _bits([want.delta])
        assert record.is_hard is want.is_hard
        assert record.final_label is want.final_label


class TestColumnarErrors:
    def test_first_missing_context_in_input_order_raises(self):
        hard = PolarityDistribution((0.4, 0.35, 0.25))
        base = [ClassifierOutput(i, hard, None) for i in ("a", "b", "c")]
        ctx = [ClassifierOutput("a", UNIFORM, None)]
        with pytest.raises(ValueError) as raised:
            fuse_records(base, ctx, FusionConfig(alpha=0.3))
        assert str(raised.value) == "sample 'b': strategy 'cf' needs a context-conditioned prediction but none was supplied"

    @pytest.mark.parametrize(
        "strategy, p, p_hat",
        [
            # Both inputs sum to 1 within the tolerance; their mean does not.
            (
                "average",
                (0.17386896875429134, 0.017753312372491635, 0.8083777198732169),
                (0.3050558929499891, 0.5409741079709517, 0.15397000007905923),
            ),
            # Both inputs hold a negative entry within the tolerance, so max cannot normalize.
            ("max", (-5e-10, 0.5, 0.5 + 5e-10), (-5e-10, 0.5 + 5e-10, 0.5)),
        ],
    )
    def test_invalid_fused_row_raises_the_scalar_error(self, strategy, p, p_hat):
        config = FusionConfig(alpha=1.0, beta=0.5, strategy=strategy)
        p, p_hat = PolarityDistribution(p), PolarityDistribution(p_hat)
        with pytest.raises(ValueError) as scalar:
            apply_strategy(p, p_hat, config)
        easy = ClassifierOutput("easy", PolarityDistribution((0.9, 0.05, 0.05)), None)
        base = [easy, ClassifierOutput("bad", p, None)]
        ctx = [ClassifierOutput("easy", UNIFORM, None), ClassifierOutput("bad", p_hat, None)]
        with pytest.raises(ValueError) as columnar:
            fuse_records(base, ctx, config)
        assert str(columnar.value) == f"sample 'bad': {scalar.value}"


def _output(sample_id, probs, conditioned_on=None):
    return ClassifierOutput(sample_id, PolarityDistribution(probs), None, conditioned_on)


# s1 and s4 are easy and have no context row; x9 and x1 are context rows of no base sample.
_PARTIAL_BASE = [
    _output("s0", (0.4, 0.35, 0.25)),
    _output("s1", (0.9, 0.05, 0.05)),
    _output("s2", (0.3, 0.3, 0.4)),
    _output("s3", (0.2, 0.45, 0.35)),
    _output("s4", (0.1, 0.1, 0.8)),
    _output("s5", (1 / 3, 1 / 3, 1 / 3)),
]
_PARTIAL_CTX = [
    _output("x9", (0.2, 0.2, 0.6), "cultural"),
    _output("s5", (0.7, 0.2, 0.1), "historical"),
    _output("s3", (0.05, 0.15, 0.8), "historical"),
    _output("s0", (0.1, 0.6, 0.3)),
    _output("x1", (0.5, 0.25, 0.25), "historical"),
    _output("s2", (0.6, 0.3, 0.1), "cultural"),
]


def _columns_digest(columns) -> str:
    """sha256 prefix over every field: arrays by dtype, shape and bytes, tuples by repr."""
    h = hashlib.sha256()
    for name, value in sorted(vars(columns).items()):
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


# Recorded from the implementation that joined into its own fusion-only column types.
@pytest.mark.parametrize(
    "strategy, knowledge_type, digest",
    [
        ("cf", None, "405bc13febd5d2ec"),
        ("cf", "historical", "011316f93ba18ffa"),
        ("average", None, "857e45e3239e442e"),
        ("average", "historical", "b9628b2f421481c2"),
        ("max", None, "13a6c847afd338d6"),
        ("max", "historical", "f3cfdd23f40bb0ed"),
        ("js", None, "530fae47d675df74"),
        ("js", "historical", "cada6005b6d2446c"),
        ("cxmi", None, "51d6ed863dc395ab"),
        ("cxmi", "historical", "db1693dfc21626b7"),
    ],
)
def test_fuse_outputs_with_a_partial_context_set_keeps_its_columns(strategy, knowledge_type, digest):
    config = FusionConfig(alpha=0.3, beta=0.45, strategy=strategy, gate_alternatives=strategy != "cf")
    base, ctx = OutputColumns.from_outputs(_PARTIAL_BASE), OutputColumns.from_outputs(_PARTIAL_CTX)
    fused = fuse_outputs(base, ctx, config, knowledge_type)
    assert fused.ids == ("s0", "s1", "s2", "s3", "s4", "s5")
    assert fused.has_context.tolist() == [True, False, True, True, False, True]
    if knowledge_type is None:
        assert fused.knowledge_type == (None, None, "cultural", "historical", None, "historical")
    assert _columns_digest(fused) == digest
