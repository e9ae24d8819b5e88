"""Post-training quantization: formats, calibration, datasets, accuracy."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from eqattn.attn import forward
from eqattn.bitnum import FpFormat, FxFormat, InvalidFormat, fp_round, fx_round
from eqattn.constructs import make
from eqattn.oracle import to_csv
from eqattn.quantlab import (
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    INT4,
    INT6,
    INT8,
    PRESETS,
    DegenerateTensor,
    QuantRow,
    SchemaError,
    _format_name,
    _quant_row,
    eval_accuracy,
    export_weights,
    float_format,
    gen_dataset,
    import_weights,
    import_weights_text,
    int_format,
    is_inf_code,
    parse_quant_format,
    quantize_spec,
    sweep,
)


def spec_weights(spec):
    vals = []
    for rule in spec.embedding:
        for row in rule.rows:
            vals.extend(Fraction(v) for v in row if v is not None)
    for vec in (spec.wq, spec.wk, spec.wv, spec.mlp.w1, spec.mlp.b1,
                spec.mlp.w2, (spec.mlp.b2,)):
        vals.extend(Fraction(v) for v in vec)
    return vals


class TestFormats:
    def test_parse_aliases_and_patterns(self):
        assert parse_quant_format("int8") == INT8
        assert parse_quant_format("int5") == int_format(5)
        assert parse_quant_format("fp8_e4m3") == FP8_E4M3
        assert parse_quant_format("fp8_e5m2") == FP8_E5M2
        assert parse_quant_format("fp16") == FP16
        assert parse_quant_format("fp_e4m3") == float_format(4, 3)
        assert parse_quant_format("fp12_e5m6") == float_format(5, 6)
        # a row names its target by the name the target was parsed from
        for name in (*PRESETS, "int5", "fp_e5m6"):
            assert _format_name(parse_quant_format(name)) == name

    def test_parse_rejects_nonsense(self):
        for bad in ("int1", "fp_e1m2", "fp9_e4m3", "float8", "", "int"):
            with pytest.raises(InvalidFormat):
                parse_quant_format(bad)

    def test_bit_width_and_capacity(self):
        """A target is the stage format of its width: INTk is p = k, and
        a float is sign + exponent + mantissa = t + e bits.  A row's
        capacity is 2 p at the quantized width."""
        assert INT8 == FxFormat(8)
        assert FP8_E4M3 == FpFormat(4, 4)
        spec, _ = make("fx-tight", m=7)
        quant = quantize_spec(spec, INT6)
        row = _quant_row("fx-tight", spec, INT6, quant,
                         eval_accuracy(quant, gen_dataset(7, 4)))
        assert (row.fmt, row.capacity) == ("int6", 12)

    def test_constructor_guards(self):
        with pytest.raises(InvalidFormat):
            int_format(1)
        with pytest.raises(InvalidFormat):
            float_format(1, 3)
        with pytest.raises(InvalidFormat):
            float_format(4, 0)


class TestIntQuantization:
    def test_covering_scale_never_saturates(self):
        """The per-tensor power-of-two scale covers the largest magnitude,
        so integer quantization maps every weight to a finite grid point."""
        spec, _ = make("fx-tight", m=9)
        for fmt in (INT8, INT6, INT4, int_format(3)):
            quant = quantize_spec(spec, fmt)
            for v in spec_weights(quant):
                assert not is_inf_code(v)

    def test_native_width_is_bit_identical(self):
        """Requantizing at the construction's own precision keeps every
        weight: the analytic values already sit on the covered grid."""
        spec, _ = make("fx-tight", m=9)
        p = spec.num_fmt.p
        quant = quantize_spec(spec, int_format(p))
        assert spec_weights(quant) == spec_weights(spec)
        for y, z in (("000000000",) * 2, ("000010001", "110010001")):
            assert forward(quant, y, z).bit == \
                forward(spec, y, z).bit

    @pytest.mark.filterwarnings("ignore::eqattn.quantlab.DegenerateTensor")
    def test_quantization_is_idempotent(self):
        for name, kw in (("fx-tight", {"m": 9}), ("fx-simple", {"m": 7}),
                         ("fp-linear", {"t": 4, "e": 3})):
            spec, _ = make(name, **kw)
            for fmt in (INT8, INT6, INT4, FP8_E4M3, FP16):
                once = quantize_spec(spec, fmt)
                twice = quantize_spec(once, fmt)
                assert spec_weights(once) == spec_weights(twice), (name, fmt)

    def test_values_round_onto_the_scaled_grid(self):
        """Quantized weights are representable in a k-bit fixed-point
        format at the tensor's scale, including half-integer scales."""
        spec, _ = make("fx-tight", m=9)
        quant = quantize_spec(spec, INT6)
        for rule in quant.embedding:
            for row in rule.rows:
                for v in row:
                    if v is None or v == 0:
                        continue
                    num = Fraction(v)
                    assert num.denominator & (num.denominator - 1) == 0

    def test_degenerate_tensor_warns(self, toy_spec):
        muted = replace(toy_spec,
                        mlp=replace(toy_spec.mlp, w2=(Fraction(0),) * 2))
        with pytest.warns(DegenerateTensor):
            quantize_spec(muted, INT8)


class TestFloatQuantization:
    def test_overflowing_weights_become_the_infinity_code(self):
        """fx-tight at m = 15 carries magnitudes past the fp8_e4m3 rail;
        those weights become the sentinel code and stay there."""
        spec, _ = make("fx-tight", m=15)
        quant = quantize_spec(spec, FP8_E4M3)
        codes = [v for v in spec_weights(quant) if is_inf_code(v)]
        assert len(codes) == 2
        again = quantize_spec(quant, FP8_E4M3)
        assert spec_weights(again) == spec_weights(quant)

    def test_inf_code_saturates_in_every_stage_format(self):
        spec, _ = make("fx-tight", m=15)
        quant = quantize_spec(spec, FP8_E4M3)
        code = next(v for v in spec_weights(quant) if is_inf_code(v))
        for fmt in quant.formats.values():
            assert fp_round(code, fmt).is_inf
        assert fx_round(code, spec.num_fmt).is_inf

    def test_small_head_stays_finite(self):
        spec, _ = make("fp-linear", t=4, e=3)
        quant = quantize_spec(spec, FP8_E4M3)
        assert not any(is_inf_code(v) for v in spec_weights(quant))


class TestDataset:
    def test_unequal_pairs_flip_a_fixed_count(self):
        """Every unequal pair differs in exactly floor(3m/4) positions."""
        ds = gen_dataset(9, 600, seed=2)
        for y, z, lab in ds:
            diff = sum(a != b for a, b in zip(y, z))
            assert diff == (0 if lab else 6)

    def test_equal_fraction_is_balanced(self):
        ds = gen_dataset(9, 4000, seed=3)
        equal = sum(lab for _, _, lab in ds)
        assert abs(equal / len(ds) - 0.5) < 0.03

    def test_same_seed_same_data_and_prefix_growth(self):
        a = gen_dataset(11, 300, seed=5)
        b = gen_dataset(11, 300, seed=5)
        c = gen_dataset(11, 500, seed=5)
        assert a == b
        assert c[:300] == a

    def test_seeds_are_independent_streams(self):
        a = gen_dataset(11, 200, seed=5)
        b = gen_dataset(11, 200, seed=6)
        assert a != b

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            gen_dataset(0, 10)
        with pytest.raises(ValueError):
            gen_dataset(9, 0)


class TestAccuracy:
    def toy_dataset(self):
        return (("0", "0", 1), ("0", "1", 0), ("1", "1", 1), ("1", "0", 0))

    def test_toy_head_scores_perfectly(self, toy_spec):
        tally = eval_accuracy(toy_spec, self.toy_dataset())
        assert (tally.total, tally.failure_count) == (4, 0)
        assert tally.saturated == 0

    def test_quantized_toy_head_still_scores(self, toy_spec):
        quant = quantize_spec(toy_spec, INT8)
        tally = eval_accuracy(quant, self.toy_dataset())
        assert (tally.total, tally.failure_count) == (4, 0)

    def test_accuracy_of_empty_dataset_is_zero(self, toy_spec):
        tally = eval_accuracy(toy_spec, ())
        row = _quant_row("spec", toy_spec, INT8, toy_spec, tally)
        assert row.total == 0 and row.accuracy == 0


class TestSweep:
    def test_exhaustive_cliff_at_m9(self):
        """Native width scores 1.0; once the capacity drops below m the
        YES pairs saturate away and exactly 512 of them flip."""
        rows = sweep("fx-tight", [int_format(5), INT4, int_format(3)],
                     ms=[9], exhaustive=True)
        assert [r.fmt for r in rows] == ["int5", "int4", "int3"]
        assert [r.capacity for r in rows] == [10, 8, 6]
        assert rows[0].accuracy == 1
        assert rows[0].total == 131328
        assert rows[1].correct == rows[1].total - 512
        assert rows[2].correct == rows[2].total - 512

    def test_sampled_sweep_is_deterministic(self):
        a = sweep("fx-tight", [INT6], ms=[9], count=300, seed=8)
        b = sweep("fx-tight", [INT6], ms=[9], count=300, seed=8)
        assert to_csv(a) == to_csv(b)

    def test_mixed_subjects_and_labels(self):
        (row,) = sweep("fp-linear", [FP8_E4M3], ms=[(4, 3)], count=64)
        assert row.construction == "fp-linear"
        assert (row.t, row.e) == (4, 3)
        spec, _ = make("fx-tight", m=9)
        imported = sweep(spec, [INT8], count=64)
        assert imported[0].construction == "imported"

    @pytest.mark.filterwarnings("ignore::eqattn.quantlab.DegenerateTensor")
    def test_sampled_and_exhaustive_rows_name_one_subject(self):
        """Both modes make a row by one rule: t and e are the subject's, or
        for a fixed-point subject the quantized head's."""
        def label(row):
            return (row.construction, row.m, row.t, row.e, row.fmt,
                    row.capacity)

        for source, key, target, want in (
                ("fx-tight", 5, FP8_E4M3,
                 ("fx-tight", 5, 4, 4, "fp8_e4m3", 16)),
                ("fp-linear", (4, 3), INT8,
                 ("fp-linear", 7, 4, 3, "int8", 16))):
            (sampled,) = sweep(source, [target], ms=[key], count=64)
            (exhaustive,) = sweep(source, [target], ms=[key], exhaustive=True)
            assert label(sampled) == label(exhaustive) == want

    def test_csv_shape(self):
        rows = sweep("fx-tight", [INT6], ms=[9], count=120, seed=1)
        lines = to_csv(rows).splitlines()
        assert lines[0] == QuantRow.CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "fx-tight"
        assert fields[-1] == "0.000"
        assert fields[5] == "12"


class TestWeightsFiles:
    def test_export_import_round_trip(self, tmp_path, toy_spec):
        path = tmp_path / "head.json"
        text = export_weights(toy_spec)
        path.write_text(text)
        again = import_weights(path)
        assert export_weights(again) == text
        for y in "01":
            for z in "01":
                assert forward(again, y, z).bit == \
                    forward(toy_spec, y, z).bit

    def test_round_trip_preserves_the_head(self, toy_spec):
        text = export_weights(toy_spec)
        again = import_weights_text(text)
        assert export_weights(again) == text
        for y in "01":
            for z in "01":
                a = forward(toy_spec, y, z)
                b = forward(again, y, z)
                assert a.bit == b.bit and a.sa == b.sa

    def test_sentinel_key_survives_the_trip(self, toy_spec):
        text = export_weights(toy_spec)
        assert json.loads(text)["embedding"][2]["rows"][0][1] == "neglarge"
        again = import_weights_text(text)
        assert again.embedding[2].rows[0][1] is None

    def test_version_gate(self, toy_spec):
        doc = json.loads(export_weights(toy_spec))
        doc["version"] = 2
        with pytest.raises(SchemaError, match="version"):
            import_weights_text(json.dumps(doc))

    def test_infinite_weights_rejected(self, toy_spec):
        """An infinite scalar string names its field, as the same value
        written as a JSON number does."""
        doc = json.loads(export_weights(toy_spec))
        for poison, name in (("+inf", "inf"), (float("inf"), "inf"),
                             ("-inf", "-inf")):
            doc["wq"] = [poison, "0", "0"]
            with pytest.raises(SchemaError) as err:
                import_weights_text(json.dumps(doc))
            assert str(err.value) == f"wq[0]: {name} is not finite"

    def test_import_accepts_plain_floats(self, toy_spec):
        """Hand-edited files may write dyadic scalars as JSON numbers."""
        doc = json.loads(export_weights(toy_spec))
        doc["wk"] = [0, 1.0, 0.015625]
        spec = import_weights_text(json.dumps(doc))
        assert spec.wk == (Fraction(0), Fraction(1), Fraction(1, 64))

    def test_schema_errors_name_the_field(self, toy_spec):
        base = json.loads(export_weights(toy_spec))
        mutations = [
            (lambda d: d.__setitem__("version", 3), "version"),
            (lambda d: d.__setitem__("wq", base["wq"][:2]), "wq"),
            (lambda d: d["embedding"][0]["rows"][0].__setitem__(1, "bogus"),
             "embedding[0].rows[0][1]"),
            (lambda d: d.__setitem__("attention_kind", "mean"),
             "attention_kind"),
            (lambda d: d["mlp"].__setitem__("b2", "neglarge"), "mlp.b2"),
            (lambda d: d.pop("formats"), "formats"),
            (lambda d: d["formats"].__setitem__("num", "fx:p=zz"), "num"),
            (lambda d: d.__setitem__("m", -1), "m"),
        ]
        for mutate, needle in mutations:
            doc = json.loads(json.dumps(base))
            mutate(doc)
            with pytest.raises(SchemaError, match=None) as err:
                import_weights_text(json.dumps(doc))
            assert needle in str(err.value), needle

    def test_unknown_fields_are_refused_at_every_level(self, toy_spec):
        """An unknown key is refused alike in the document, its formats,
        an embedding rule and the MLP; index_base is an optional known
        key."""
        base = json.loads(export_weights(toy_spec))
        for level, where in ((lambda d: d, "extra"),
                             (lambda d: d["formats"], "formats.extra"),
                             (lambda d: d["embedding"][1],
                              "embedding[1].extra"),
                             (lambda d: d["mlp"], "mlp.extra")):
            doc = json.loads(json.dumps(base))
            level(doc)["extra"] = 1
            with pytest.raises(SchemaError) as err:
                import_weights_text(json.dumps(doc))
            assert str(err.value) == f"{where}: unknown field"
        del base["index_base"]
        assert import_weights_text(json.dumps(base)).index_base == 0

    def test_malformed_json_reports_position(self):
        with pytest.raises(SchemaError, match="line"):
            import_weights_text("{\n  broken")

    def test_missing_file_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            import_weights(tmp_path / "absent.json")

    def test_infinite_bools_and_nan_rejected(self, toy_spec):
        base = json.loads(export_weights(toy_spec))
        for poison in (True, float("inf"), "?"):
            doc = json.loads(json.dumps(base))
            doc["wv"] = [0, 0, poison] if poison is not True else \
                [0, 0, True]
            with pytest.raises(SchemaError):
                import_weights_text(json.dumps(doc).replace(
                    "Infinity", "1e999"))
