"""Scalar format semantics, checked against brute-force references."""

import pickle
import random
from fractions import Fraction

import pytest

import gridref
from reffwd import sum_left
from eqattn.attn import _rep
from eqattn.bitnum import (
    NEAREST,
    TRUNC,
    FpFormat,
    FpNum,
    FxFormat,
    FxNum,
    IndeterminateForm,
    InvalidFormat,
    NonDyadicLogit,
    decode_scalar,
    encode_scalar,
    exp_logit_exact,
    fp_add,
    fp_div,
    fp_mul,
    fp_round,
    fx_add,
    fx_div,
    fx_mul,
    fx_round,
    hold_exact,
    parse_format,
)

FX_FORMATS = [
    FxFormat(3),
    FxFormat(4, rounding=TRUNC),
    FxFormat(5, scale_log2=-2),
    FxFormat(5, scale_log2=3, rounding=TRUNC),
    FxFormat(5),
]
FP_FORMATS = [
    FpFormat(3, 3),
    FpFormat(4, 3, rounding=TRUNC),
    FpFormat(2, 4),
    FpFormat(5, 2),
]


def random_rational(rng, span=9):
    """An exact test value: dyadics, odd-denominator rationals, integers."""
    shape = rng.randrange(4)
    if shape == 0:
        return Fraction(rng.randrange(-(1 << span), 1 << span))
    if shape == 1:
        return Fraction(rng.randrange(-(1 << span), 1 << span),
                        1 << rng.randrange(span))
    if shape == 2:
        d = rng.randrange(1, 1 << span) * 2 + 1
        return Fraction(rng.randrange(-(1 << span), 1 << span), d)
    return Fraction(rng.randrange(-(1 << span), 1 << span),
                    rng.randrange(1, 1 << span))


class TestFormatObjects:
    def test_fx_budget_and_bounds(self):
        """p bits minus sign leave p - 1 for the significand, and the top
        magnitude is (2^(p-1) - 1) scale units."""
        fmt = FxFormat(5, scale_log2=-2)
        top = fx_round(Fraction(15, 4), fmt)
        assert top.as_fraction() == Fraction(15, 4) and not top.inexact
        assert not fx_round(Fraction(4), fmt).is_finite

    def test_fp_bounds(self):
        """The largest float is (2 - 2^(1-t)) 2^q and the smallest positive
        one is 2^-q; there are no subnormals below it."""
        fmt = FpFormat(4, 3)
        top = fp_round(Fraction(15), fmt)
        assert top.as_fraction() == Fraction(15, 8) * 8 and not top.inexact
        assert not fp_round(Fraction(16), fmt).is_finite
        assert fp_round(Fraction(1, 8), fmt).as_fraction() == Fraction(1, 8)
        assert fp_round(Fraction(1, 16), fmt).is_zero

    def test_descriptor_round_trip(self):
        for fmt in FX_FORMATS + FP_FORMATS:
            assert parse_format(fmt.descriptor()) == fmt

    def test_invalid_formats(self):
        with pytest.raises(InvalidFormat):
            FxFormat(1)
        with pytest.raises(InvalidFormat):
            FxFormat(4, rounding="up")
        with pytest.raises(InvalidFormat):
            FpFormat(0, 3)
        with pytest.raises(InvalidFormat):
            FpFormat(4, 1)
        for bad in ("fx:p=4", "fp:t=x,e=3,round=nearest", "int8", "",
                    "fx:p=4,scale=7,round=nearest"):
            with pytest.raises(InvalidFormat):
                parse_format(bad)


class TestValueSets:
    def test_fx_grid_round_trips(self):
        """Every enumerated representable value survives rounding exactly
        and is flagged exact; the grid's extremes match the format
        bounds."""
        for fmt in FX_FORMATS:
            values = gridref.fx_values(fmt)
            top = ((1 << fmt.p - 1) - 1) * Fraction(2) ** fmt.scale_log2
            assert values[-1] == top and values[0] == -top
            for v in values:
                got = fx_round(v, fmt)
                assert got.is_finite and got.as_fraction() == v
                assert not got.inexact

    def test_fp_grid_round_trips(self):
        for fmt in FP_FORMATS:
            values = gridref.fp_values(fmt)
            q = (1 << fmt.e - 1) - 1
            assert len(values) == 2 * (2 * q + 1) * (1 << (fmt.t - 1)) + 1
            assert values[-1] == \
                (2 - Fraction(2) ** (1 - fmt.t)) * Fraction(2) ** q
            for v in values:
                got = fp_round(v, fmt)
                assert got.is_finite and got.as_fraction() == v
                assert not got.inexact

    def test_off_grid_is_not_representable(self):
        fmt = FxFormat(4)
        values = set(gridref.fx_values(fmt))
        assert Fraction(9, 2) not in values
        assert fx_round(Fraction(9, 2), fmt).inexact
        assert fp_round(Fraction(9, 2), FpFormat(2, 3)).inexact


class TestHoldExact:
    def test_held_values_are_the_rounded_ones_where_they_fit(self):
        """On both kinds, every grid value (zero included) is held finite
        with the representation rounding it gives."""
        for fmts, grid, round_ in ((FX_FORMATS, gridref.fx_values, fx_round),
                                   (FP_FORMATS, gridref.fp_values, fp_round)):
            for fmt in fmts:
                for v in grid(fmt):
                    held = hold_exact(v, fmt)
                    assert held.is_finite
                    assert _rep(held) == _rep(round_(v, fmt))

    def test_a_held_value_is_never_rounded_or_saturated(self):
        for fmt in (FxFormat(3), FpFormat(2, 3)):
            for v in (Fraction(1 << 20), Fraction(-5, 1 << 9)):
                held = hold_exact(v, fmt)
                assert held.is_finite and not held.inexact
                assert held.as_fraction() == v


class TestRoundingDifferential:
    def test_fx_round_matches_reference(self):
        """10^4 random exact inputs per fixed-point format round to the
        same value (or the same saturation) as the brute-force model."""
        rng = random.Random(0xF1)
        for fmt in FX_FORMATS:
            for _ in range(2000):
                v = random_rational(rng)
                assert gridref.unwrap(fx_round(v, fmt)) == \
                    gridref.fx_round_ref(v, fmt), (v, fmt)

    def test_fp_round_matches_reference(self):
        rng = random.Random(0xF2)
        for fmt in FP_FORMATS:
            for _ in range(2500):
                v = random_rational(rng)
                assert gridref.unwrap(fp_round(v, fmt)) == \
                    gridref.fp_round_ref(v, fmt), (v, fmt)

    def test_nearest_ties_go_toward_zero(self):
        fmt = FxFormat(4)
        assert fx_round(Fraction(9, 2), fmt).as_fraction() == 4
        assert fx_round(Fraction(-9, 2), fmt).as_fraction() == -4
        fp = FpFormat(3, 3)
        assert fp_round(Fraction(9, 2), fp).as_fraction() == 4
        assert fp_round(Fraction(11, 2), fp).as_fraction() == 5

    def test_saturation_and_flush(self):
        """Magnitudes past the top octave saturate to the right infinity;
        tiny floats flush to zero, tiny fixed-point values round on the
        finest grid line."""
        fmt = FxFormat(4)
        assert fx_round(Fraction(8), fmt).is_inf
        assert fx_round(Fraction(-100), fmt).kind == "ninf"
        assert fx_round(Fraction(1, 64), fmt).is_zero
        fp = FpFormat(3, 3)
        assert fp_round(Fraction(16), fp).is_inf
        assert fp_round(Fraction(1, 100), fp).is_zero

    def test_trunc_never_grows_magnitude(self):
        rng = random.Random(0xF3)
        fmt = FxFormat(5, rounding=TRUNC)
        fp = FpFormat(4, 3, rounding=TRUNC)
        for _ in range(2000):
            v = random_rational(rng)
            for rounder, f in ((fx_round, fmt), (fp_round, fp)):
                got = rounder(v, f)
                if got.is_finite:
                    assert abs(got.as_fraction()) <= abs(v)


class TestMonotonicity:
    def test_fx_rounding_is_monotone(self):
        """v1 <= v2 implies round(v1) <= round(v2), with infinities at the
        ends of the order."""
        rng = random.Random(0xA1)
        for fmt in FX_FORMATS:
            vals = sorted(random_rational(rng) for _ in range(1500))
            rounded = [gridref.unwrap(fx_round(v, fmt)) for v in vals]
            keyed = [r[1] * Fraction(10) ** 9 if isinstance(r, tuple) else r
                     for r in rounded]
            assert keyed == sorted(keyed)

    def test_fp_rounding_is_monotone(self):
        rng = random.Random(0xA2)
        for fmt in FP_FORMATS:
            vals = sorted(random_rational(rng) for _ in range(1500))
            rounded = [gridref.unwrap(fp_round(v, fmt)) for v in vals]
            keyed = [r[1] * Fraction(10) ** 9 if isinstance(r, tuple) else r
                     for r in rounded]
            assert keyed == sorted(keyed)


class TestHalfUlpBound:
    def test_fx_nearest_error_bound(self):
        """Nearest rounding lands within half a grid step of the input
        whenever it does not saturate."""
        rng = random.Random(0xB1)
        fmt = FxFormat(5, scale_log2=-1)
        for _ in range(2500):
            v = random_rational(rng)
            got = fx_round(v, fmt)
            if not got.is_finite:
                continue
            scale = Fraction(2) ** fmt.scale_log2
            u = abs(v) / scale
            octave = gridref.floor_log2(u) + 1 if u else 0
            step = Fraction(2) ** (max(octave, 0) - (fmt.p - 1)) * scale
            assert abs(got.as_fraction() - v) <= step / 2

    def test_fp_nearest_error_bound(self):
        rng = random.Random(0xB2)
        fmt = FpFormat(4, 4)
        for _ in range(2500):
            v = random_rational(rng)
            got = fp_round(v, fmt)
            if not got.is_finite or got.is_zero or v == 0:
                continue
            step = Fraction(2) ** (gridref.floor_log2(abs(v)) - (fmt.t - 1))
            assert abs(got.as_fraction() - v) <= step / 2


class TestArithmetic:
    def test_fx_ops_round_the_exact_result_once(self):
        """Add, multiply and divide behave as the exact rational operation
        followed by one rounding."""
        rng = random.Random(0xC1)
        fmt = FxFormat(5, scale_log2=-1)
        for _ in range(2500):
            a = fx_round(random_rational(rng, 5), fmt)
            b = fx_round(random_rational(rng, 5), fmt)
            if not (a.is_finite and b.is_finite):
                continue
            af, bf = a.as_fraction(), b.as_fraction()
            assert gridref.unwrap(fx_add(a, b, fmt)) == \
                gridref.fx_round_ref(af + bf, fmt)
            assert gridref.unwrap(fx_mul(a, b, fmt)) == \
                gridref.fx_round_ref(af * bf, fmt)
            if bf != 0:
                assert gridref.unwrap(fx_div(a, b, fmt)) == \
                    gridref.fx_round_ref(af / bf, fmt)

    def test_fp_ops_round_the_exact_result_once(self):
        rng = random.Random(0xC2)
        fmt = FpFormat(4, 3)
        for _ in range(2500):
            a = fp_round(random_rational(rng, 5), fmt)
            b = fp_round(random_rational(rng, 5), fmt)
            if not (a.is_finite and b.is_finite):
                continue
            af, bf = a.as_fraction(), b.as_fraction()
            assert gridref.unwrap(fp_add(a, b, fmt)) == \
                gridref.fp_round_ref(af + bf, fmt)
            assert gridref.unwrap(fp_mul(a, b, fmt)) == \
                gridref.fp_round_ref(af * bf, fmt)
            if bf != 0:
                assert gridref.unwrap(fp_div(a, b, fmt)) == \
                    gridref.fp_round_ref(af / bf, fmt)

    def test_infinity_algebra(self):
        fmt = FxFormat(4)
        inf = FxNum.inf(1, fmt)
        ninf = FxNum.inf(-1, fmt)
        one = fx_round(1, fmt)
        zero = FxNum.zero(fmt)
        assert fx_add(inf, one, fmt).kind == "pinf"
        assert fx_mul(inf, ninf, fmt).kind == "ninf"
        assert fx_div(one, zero, fmt).kind == "pinf"
        assert fx_div(one, inf, fmt).is_zero
        assert fx_div(zero, one, fmt).is_zero

    def test_indeterminate_forms_raise(self):
        """Inf - Inf, 0 * Inf, 0 / 0 and Inf / Inf have no value in a
        saturating system and must raise instead of guessing."""
        fmt = FxFormat(4)
        inf = FxNum.inf(1, fmt)
        ninf = FxNum.inf(-1, fmt)
        zero = FxNum.zero(fmt)
        with pytest.raises(IndeterminateForm):
            fx_add(inf, ninf, fmt)
        with pytest.raises(IndeterminateForm):
            fx_mul(zero, inf, fmt)
        with pytest.raises(IndeterminateForm):
            fx_div(zero, zero, fmt)
        with pytest.raises(IndeterminateForm):
            fx_div(inf, ninf, fmt)
        fp = FpFormat(3, 3)
        with pytest.raises(IndeterminateForm):
            fp_add(FpNum.inf(1, fp), FpNum.inf(-1, fp), fp)
        with pytest.raises(IndeterminateForm):
            fp_div(FpNum.zero(fp), FpNum.zero(fp), fp)

    def test_fp_zero_behaves_like_zero(self):
        fmt = FpFormat(4, 3)
        zero = FpNum.zero(fmt)
        one = fp_round(1, fmt)
        assert fp_add(zero, one, fmt).as_fraction() == 1
        assert fp_mul(zero, one, fmt).is_zero
        assert fp_div(zero, one, fmt).is_zero


# Every result format of the exhaustive differential, and for each the other
# format it also takes operands from: a different width and scale.
EXHAUSTIVE = [(FxFormat(p, s, r), FxFormat(7 - p, (s + 5) % 8 - 3))
              for p in range(2, 6) for s in (-3, 0, 2)
              for r in (NEAREST, TRUNC)]
EXHAUSTIVE += [(FpFormat(t, e, r), FpFormat(4 - t, 5 - e))
               for t in (1, 2, 3) for e in (2, 3) for r in (NEAREST, TRUNC)]


def _held(fmt):
    """Every value of fmt's grid, and +-Inf, held in fmt."""
    fx = isinstance(fmt, FxFormat)
    cls, round_ = (FxNum, fx_round) if fx else (FpNum, fp_round)
    grid = gridref.fx_values(fmt) if fx else gridref.fp_values(fmt)
    return [round_(v, fmt) for v in grid] + [cls.inf(1, fmt),
                                             cls.inf(-1, fmt)]


def _inf_rep(sign):
    return ("pinf" if sign > 0 else "ninf", sign, 0, 0, True)


class TestExhaustiveOps:
    @pytest.mark.parametrize("fmt,other", EXHAUSTIVE,
                             ids=[f.descriptor() for f, _ in EXHAUSTIVE])
    def test_ops_give_the_reference_representation(self, fmt, other):
        """On every pair of operands, both held in fmt or both in other,
        with +-Inf: add, mul, div and round of the exact result give the
        full representation the brute-force rounding gives, inexact exactly
        when it differs from the exact value; the indeterminate forms raise
        and the infinities follow the saturating algebra."""
        fx = isinstance(fmt, FxFormat)
        if fx:
            ops, round_ = (fx_add, fx_mul, fx_div), fx_round
            ref = gridref.fx_round_ref
        else:
            ops, round_ = (fp_add, fp_mul, fp_div), fp_round
            ref = gridref.fp_round_ref
        zero_kind, memo = "finite" if fx else "zero", {}

        def want(exact):
            """The representation the reference gives exact in fmt."""
            if exact not in memo:
                got = ref(exact, fmt)
                if isinstance(got, tuple):
                    memo[exact] = _inf_rep(got[1])
                elif got == 0:
                    memo[exact] = (zero_kind, 1, 0, 0, exact != 0)
                else:
                    sig = abs(got.numerator)
                    exp2 = 1 - got.denominator.bit_length()
                    while sig % 2 == 0:
                        sig, exp2 = sig // 2, exp2 + 1
                    memo[exact] = ("finite", 1 if got > 0 else -1, sig, exp2,
                                   got != exact)
                assert _rep(round_(exact, fmt)) == memo[exact], exact
            return memo[exact]

        for held in (_held(fmt), _held(other)):
            for a in held:
                for b in held:
                    got = []
                    for op in ops:
                        try:
                            got.append(_rep(op(a, b, fmt)))
                        except IndeterminateForm:
                            got.append("indeterminate")
                    assert got == self._expect(a, b, want), (a, b)

    @staticmethod
    def _expect(a, b, want):
        """(add, mul, div) by the saturating algebra, finite results by
        want of the exact value."""
        inf = _inf_rep
        if a.is_finite and b.is_finite:
            x, y = a.as_fraction(), b.as_fraction()
            if y:
                quo = want(x / y)
            else:
                quo = inf(a.sign) if x else "indeterminate"
            return [want(x + y), want(x * y), quo]
        if a.is_inf and b.is_inf:
            add = inf(a.sign) if a.sign == b.sign else "indeterminate"
            return [add, inf(a.sign * b.sign), "indeterminate"]
        x = a.as_fraction() if a.is_finite else b.as_fraction()
        mul = inf(a.sign * b.sign) if x else "indeterminate"
        if a.is_inf:
            return [inf(a.sign), mul,
                    inf(a.sign * b.sign) if x else inf(a.sign)]
        return [inf(b.sign), mul, want(Fraction(0))]


SCALARS = [(FxNum, FxFormat(4), fx_round), (FpNum, FpFormat(3, 3), fp_round)]


class TestScalarContract:
    @pytest.mark.parametrize("mine", [0, 1], ids=["fx", "fp"])
    def test_equality_is_value_equality(self, mine):
        """== ignores inexact and the sign of zero and never holds across
        the two scalar classes; _rep keeps what == ignores, also through a
        pickle round trip."""
        cls, fmt, round_ = SCALARS[mine]
        other_cls, other_fmt, other_round = SCALARS[1 - mine]
        pos = cls.zero(fmt)
        neg = cls(fmt, pos.kind, -1, 0, 0)
        assert pos == neg and hash(pos) == hash(neg)
        assert _rep(pos) != _rep(neg)
        inexact = round_(Fraction(1, 3), fmt)
        exact = round_(inexact.as_fraction(), fmt)
        assert inexact.inexact and not exact.inexact
        assert inexact == exact and hash(inexact) == hash(exact)
        assert _rep(inexact) != _rep(exact)
        assert cls.inf(1, fmt) != cls.inf(-1, fmt)
        one = round_(1, fmt)
        assert one != other_round(1, other_fmt)
        assert other_cls.zero(other_fmt) != pos
        assert repr(one) == f"{cls.__name__}(+1/2^0)"
        assert not hasattr(one, "__dict__")
        for v in (pos, neg, inexact, exact, cls.inf(-1, fmt)):
            back = pickle.loads(pickle.dumps(v))
            assert type(back) is cls and _rep(back) == _rep(v)


class TestFolds:
    def test_fx_fold_matches_reference(self):
        """A left fold with rounding after every addition agrees with the
        brute-force fold over exact partial sums."""
        rng = random.Random(0xD1)
        fmt = FxFormat(4)
        for _ in range(600):
            vals = [random_rational(rng, 4) for _ in range(rng.randrange(1, 9))]
            want = gridref.fold_ref(
                vals, lambda v: gridref.fx_round_ref(v, fmt))
            try:
                got = gridref.unwrap(sum_left(vals, fmt))
            except IndeterminateForm:
                got = "indeterminate"
            assert got == want, vals

    def test_fp_fold_matches_reference(self):
        rng = random.Random(0xD2)
        fmt = FpFormat(3, 3)
        for _ in range(600):
            vals = [random_rational(rng, 4) for _ in range(rng.randrange(1, 9))]
            want = gridref.fold_ref(
                vals, lambda v: gridref.fp_round_ref(v, fmt))
            try:
                got = gridref.unwrap(sum_left(vals, fmt))
            except IndeterminateForm:
                got = "indeterminate"
            assert got == want, vals

    def test_fold_order_matters(self):
        """The textbook 3-bit example: truncating folds of (10.0, 1.01,
        1.11) give 100 when grouped left and 101 when grouped right."""
        fmt = FxFormat(4, rounding=TRUNC)
        xs = [Fraction(2), Fraction(5, 4), Fraction(7, 4)]
        left = sum_left(xs, fmt)
        a, b, c = (fx_round(x, fmt) for x in xs)
        right = fx_add(a, fx_add(b, c, fmt), fmt)
        assert left.as_fraction() == 4
        assert right.as_fraction() == 5

    def test_empty_fold_is_zero(self):
        assert sum_left([], FxFormat(4)).is_zero
        assert sum_left([], FpFormat(3, 3)).is_zero


class TestLogits:
    def test_exp_logit_is_a_power_of_two(self):
        for k in range(-6, 6):
            assert exp_logit_exact(Fraction(k)) == Fraction(2) ** k

    def test_neg_large_sentinel_is_exact_zero(self):
        assert exp_logit_exact(None) == 0

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(NonDyadicLogit):
            exp_logit_exact(Fraction(3, 2))


class TestEncoding:
    def test_round_trip_scalars(self):
        rng = random.Random(0xE1)
        fmt = FxFormat(6, scale_log2=-2)
        for _ in range(500):
            v = fx_round(random_rational(rng), fmt)
            text = encode_scalar(v)
            back = decode_scalar(text)
            if v.is_inf:
                assert back == float("inf") * v.sign
            else:
                assert back == v.as_fraction()

    def test_fixed_encodings(self):
        assert encode_scalar(Fraction(0)) == "0"
        assert encode_scalar(Fraction(-3, 8)) == "-3/2^3"
        assert encode_scalar(Fraction(5)) == "+5/2^0"
        assert decode_scalar("+7/2^2") == Fraction(7, 4)

    def test_bad_encodings_rejected(self):
        with pytest.raises(ValueError):
            encode_scalar(Fraction(1, 3))
        for bad in ("", "1/2^2", "+x/2^2", "inf", "--1/2^0", "+1_0/2^3",
                    "+ 5/2^ 3", "+5/2^+3", "+5/2^-0", "+\u0663/2^1"):
            with pytest.raises(ValueError):
                decode_scalar(bad)
