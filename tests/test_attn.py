"""Forward-pass semantics on a small hand-built head."""

from fractions import Fraction

import pytest

from eqattn.attn import (
    LINEAR,
    EvalTrace,
    TokenRule,
    finish_softmax,
    forward,
    mlp_eval,
    relu,
    token_logits,
)
from eqattn.bitnum import FpFormat, FxFormat, FxNum, fx_round


class TestForward:
    def test_toy_head_answers_equality(self, toy_spec):
        """The two-token head accepts exactly the diagonal pairs."""
        for y in "01":
            for z in "01":
                trace = forward(toy_spec, y, z)
                assert trace.bit == int(y == z)

    def test_attention_output_is_the_midpoint_on_equal_pairs(self, toy_spec):
        trace = forward(toy_spec, "1", "1")
        assert trace.sa.as_fraction() == Fraction(1, 2)
        assert trace.denominator.as_fraction() == 2
        assert trace.numerator.as_fraction() == 1

    def test_sentinel_key_carries_zero_weight(self, toy_spec):
        """The query row's neg-large key must make its attention weight an
        exact zero, not a small number."""
        x = toy_spec.encode("0", "0")
        logits = token_logits(toy_spec, x)
        assert logits[-1] is None
        weights = forward(toy_spec, "0", "0").tokens()[1]
        assert weights[-1] == 0
        assert weights[0] == 1

    def test_partials_are_recorded_per_token(self, toy_spec):
        trace = forward(toy_spec, "0", "1")
        _, _, terms, nums, dens = trace.tokens()
        n_tokens = toy_spec.n + 1
        assert len(nums) == n_tokens
        assert len(dens) == n_tokens
        assert len(terms) == n_tokens
        assert nums[-1] == trace.numerator
        assert dens[-1] == trace.denominator

    def test_linear_kind_skips_normalization(self, toy_spec):
        """With linear attention the raw numerator goes to the MLP, so the
        toy head sees 1 on equal pairs and fires on sa = 1 inputs only
        after retuning; here we just pin the plumbing."""
        linear = toy_spec._replace(attention_kind=LINEAR)
        trace = forward(linear, "1", "1")
        assert trace.denominator is None
        assert trace.sa.as_fraction() == 1

    def test_encode_validates_lengths(self, toy_spec):
        with pytest.raises(ValueError):
            toy_spec.encode("01", "0")

    def test_finish_softmax_matches_forward(self, toy_spec):
        for y in "01":
            for z in "01":
                trace = forward(toy_spec, y, z)
                bit, sa, out = finish_softmax(
                    toy_spec, trace.numerator, trace.denominator)
                assert bit == trace.bit
                assert sa == trace.sa
                assert out == trace.output


class TestMlp:
    def test_relu_clamps_negatives_and_negative_infinity(self):
        fmt = FxFormat(4)
        assert relu(fx_round(-3, fmt)).is_zero
        assert relu(fx_round(2, fmt)).as_fraction() == 2
        assert relu(FxNum.inf(-1, fmt)).is_zero
        assert relu(FxNum.inf(1, fmt)).is_inf

    def test_mlp_eval_computes_both_units(self, toy_spec):
        fmt = toy_spec.out_fmt
        out, hidden = mlp_eval(toy_spec.mlp, fx_round(Fraction(1, 2), fmt),
                               fmt)
        assert [h.as_fraction() for h in hidden] == [0, 0]
        assert out.as_fraction() == 1
        out, hidden = mlp_eval(toy_spec.mlp, fx_round(1, fmt), fmt)
        assert [h.as_fraction() for h in hidden] == [1, 0]
        assert out.as_fraction() == 0


class TestValidation:
    def test_embedding_count_must_be_n_plus_one(self, toy_spec):
        bad = toy_spec._replace(embedding=toy_spec.embedding[:-1])
        with pytest.raises(ValueError, match="positions"):
            bad.validate()

    def test_rule_row_count_must_match_sources(self, toy_spec):
        rule = TokenRule(source=(("y", 1),),
                         rows=((Fraction(1), Fraction(0), Fraction(0)),))
        bad = toy_spec._replace(embedding=[rule] + toy_spec.embedding[1:])
        with pytest.raises(ValueError, match="rows"):
            bad.validate()

    def test_bit_references_must_be_in_range(self, toy_spec):
        rule = TokenRule(source=(("y", 2),), rows=toy_spec.embedding[0].rows)
        bad = toy_spec._replace(embedding=[rule] + toy_spec.embedding[1:])
        with pytest.raises(ValueError, match="reference"):
            bad.validate()

    def test_wv_selects_exactly_one_coordinate(self, toy_spec):
        bad = toy_spec._replace(wv=(Fraction(0), Fraction(1), Fraction(1)))
        with pytest.raises(ValueError, match="wv"):
            bad.validate()

    def test_stage_formats_must_share_a_kind(self, toy_spec):
        bad = toy_spec._replace(out_fmt=FpFormat(3, 3))
        with pytest.raises(ValueError, match="kind"):
            bad.validate()

    def test_num_and_den_may_differ_only_in_scale(self, toy_spec):
        ok = toy_spec._replace(den_fmt=FxFormat(toy_spec.num_fmt.p, 2))
        ok.validate()
        bad = toy_spec._replace(den_fmt=FxFormat(toy_spec.num_fmt.p + 1))
        with pytest.raises(ValueError, match="scale"):
            bad.validate()


class TestTraceRendering:
    def test_render_lines_shape(self, toy_spec):
        trace = forward(toy_spec, "0", "0")
        lines = trace.render_lines()
        assert lines[0].startswith("token 0: logit=0 weight=1")
        assert any(ln.startswith("numerator: ") for ln in lines)
        assert any(ln.startswith("denominator: ") for ln in lines)
        assert lines[-1] == "mlp output: +1/2^0 -> bit 1"
        assert "logit=-N" in lines[2]

    def test_render_marks_indeterminate(self, toy_spec):
        trace = EvalTrace(numerator=None, denominator=None, sa=None,
                          hidden=(), output=None, bit=0, indeterminate=True,
                          spec=toy_spec, y="0", z="1")
        assert "attention output: indeterminate" in trace.render_lines()
