"""Exact saturating fixed-point and floating-point scalars.

Values are stored as sign * sig * 2**exp2 with an odd significand, so every
operation is computed exactly over the integers (or rationals, for division)
and rounded once into the requested format.  Out-of-range magnitudes saturate
to +/-Inf; magnitudes that round to no nonzero representable value become
exact zero.  There are no NaNs: indeterminate forms raise.  FxNum and FpNum
share one scalar core (_Num and one body per round, divide and left sum);
they differ only in the kind their zero carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

NEAREST = "nearest"
TRUNC = "trunc"

_FINITE = "finite"
_POS_INF = "pinf"
_NEG_INF = "ninf"
_ZERO = "zero"


class IndeterminateForm(ArithmeticError):
    """Raised for Inf - Inf, 0 * Inf, 0 / 0 and Inf / Inf."""


class NonDyadicLogit(ValueError):
    """Raised when exponentiating a logit whose coefficient is not an integer."""


class LogitOutOfRange(ValueError):
    """Raised when exponentiating a logit past the infinity-code exponent."""


class InvalidFormat(ValueError):
    pass


# Exponent of the infinity code a quantized weight takes when it overflows
# its grid: +-2**INF_CODE_LOG2 rounds to +-Inf in every stage format whose
# top octave sits below it.  Builders' logits stay far below it (their
# exponent fields are at most 14 bits); 2**coeff is built exactly only up
# to it.
INF_CODE_LOG2 = 1 << 14


@dataclass(frozen=True)
class FxFormat:
    """Fixed-point format: p bits total, one of them sign.

    The remaining budget B = p - 1 is split freely between integer and
    fraction bits, so the representable magnitudes are exactly the
    u * scale with u a dyadic needing at most B positional bits.
    """

    p: int
    scale_log2: int = 0
    rounding: str = NEAREST

    def __post_init__(self):
        if self.p < 2:
            raise InvalidFormat(f"p must be at least 2, got {self.p}")
        if self.rounding not in (NEAREST, TRUNC):
            raise InvalidFormat(f"unknown rounding policy {self.rounding!r}")

    @property
    def budget(self) -> int:
        return self.p - 1

    def descriptor(self) -> str:
        return f"fx:p={self.p},scale=2^{self.scale_log2},round={self.rounding}"


@dataclass(frozen=True)
class FpFormat:
    """Floating-point format: t significand bits (1.a with |a| = t - 1) and
    e exponent bits giving |exponent| <= q = 2**(e-1) - 1.  No subnormals;
    zero is its own class."""

    t: int
    e: int
    rounding: str = NEAREST

    def __post_init__(self):
        if self.t < 1:
            raise InvalidFormat(f"t must be at least 1, got {self.t}")
        if self.e < 2:
            raise InvalidFormat(f"e must be at least 2, got {self.e}")
        if self.rounding not in (NEAREST, TRUNC):
            raise InvalidFormat(f"unknown rounding policy {self.rounding!r}")

    @property
    def q(self) -> int:
        return (1 << (self.e - 1)) - 1

    def descriptor(self) -> str:
        return f"fp:t={self.t},e={self.e},round={self.rounding}"


def parse_format(text: str) -> FxFormat | FpFormat:
    """Inverse of FxFormat.descriptor / FpFormat.descriptor."""
    try:
        kind, _, body = text.partition(":")
        fields = dict(item.split("=", 1) for item in body.split(","))
        if kind == "fx":
            scale = fields["scale"]
            if not scale.startswith("2^"):
                raise ValueError(scale)
            return FxFormat(int(fields["p"]), int(scale[2:]), fields["round"])
        if kind == "fp":
            return FpFormat(int(fields["t"]), int(fields["e"]), fields["round"])
    except InvalidFormat:
        raise
    except Exception as exc:
        raise InvalidFormat(f"bad format descriptor {text!r}") from exc
    raise InvalidFormat(f"bad format descriptor {text!r}")


def _pow2(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def _canon(sig: int, exp2: int) -> tuple[int, int]:
    if sig == 0:
        return 0, 0
    shift = (sig & -sig).bit_length() - 1
    return sig >> shift, exp2 + shift


def _nbits(sig: int, e: int) -> int:
    """Positional bits needed for the dyadic sig * 2**e with sig odd."""
    return max(sig.bit_length() + e, 0) - min(e, 0)


def _quantize(sig: int, exp2: int, lsb: int, rounding: str) -> tuple[int, bool]:
    """Round sig * 2**exp2 (sig > 0) to a multiple of 2**lsb.

    Returns (multiple, exact).  Nearest resolves ties toward zero.
    """
    shift = exp2 - lsb
    if shift >= 0:
        return sig << shift, True
    q = sig >> -shift
    rem = sig & ((1 << -shift) - 1)
    if rem == 0:
        return q, True
    if rounding == NEAREST and rem > (1 << (-shift - 1)):
        q += 1
    return q, False


def _ratio_floor_log2(n: int, d: int) -> int:
    """floor(log2(n / d)) for positive integers."""
    x = n.bit_length() - d.bit_length()
    if (n << max(0, -x)) < (d << max(0, x)):
        x -= 1
    return x


def ceil_log2(x: Fraction) -> int:
    """The least k with 2**k >= x, computed exactly (x > 0)."""
    k = _ratio_floor_log2(x.numerator, x.denominator)
    return k if x == Fraction(2) ** k else k + 1


class _Num:
    """A value held in (or saturated out of) a format; a subclass names the
    kind its zero carries."""

    __slots__ = ("fmt", "kind", "sign", "sig", "exp2", "inexact")
    _zero_kind = _FINITE

    def __init__(self, fmt, kind, sign, sig, exp2, inexact=False):
        self.fmt = fmt
        self.kind = kind
        self.sign = sign
        self.sig = sig
        self.exp2 = exp2
        self.inexact = inexact

    @classmethod
    def zero(cls, fmt, inexact: bool = False):
        return cls(fmt, cls._zero_kind, 1, 0, 0, inexact)

    @classmethod
    def inf(cls, sign: int, fmt):
        return cls(fmt, _POS_INF if sign > 0 else _NEG_INF, sign, 0, 0, True)

    @property
    def is_finite(self) -> bool:
        return self.kind in (_FINITE, _ZERO)

    @property
    def is_inf(self) -> bool:
        return self.kind in (_POS_INF, _NEG_INF)

    @property
    def is_zero(self) -> bool:
        return self.kind == self._zero_kind and self.sig == 0

    def as_fraction(self) -> Fraction:
        if not self.is_finite:
            raise ValueError("infinity has no rational value")
        return self.sign * self.sig * _pow2(self.exp2)

    def _key(self):
        # The kind tells +Inf from -Inf; the signed significand drops the
        # sign of zero.  inexact is not part of the value.
        return self.kind, self.sign * self.sig, self.exp2

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({encode_scalar(self)})"


class FxNum(_Num):
    """A value held in (or saturated out of) a fixed-point format."""

    __slots__ = ()


class FpNum(_Num):
    """A value held in (or saturated out of) a floating-point format; zero
    is its own kind."""

    __slots__ = ()
    _zero_kind = _ZERO


def _divround(n: int, d: int, lsb: int, rounding: str) -> tuple[int, bool]:
    """Round the positive rational n/d to a multiple of 2**lsb.

    Returns (multiple, exact).  Nearest resolves ties toward zero.
    """
    d <<= max(0, lsb)
    q, r = divmod(n << max(0, -lsb), d)
    if r and rounding == NEAREST and 2 * r > d:
        q += 1
    return q, r == 0


def _fx_finish(sign: int, q: int, lsb: int, exact: bool,
               fmt: FxFormat) -> FxNum:
    """Flush, saturate or canonicalize q * 2**lsb (in scale units)."""
    if q == 0:
        return FxNum.zero(fmt, inexact=True)
    q, lsb = _canon(q, lsb)
    if _nbits(q, lsb) > fmt.budget:
        return FxNum.inf(sign, fmt)
    return FxNum(fmt, _FINITE, sign, q, lsb + fmt.scale_log2, not exact)


def _fx_round_dyadic(sign: int, sig: int, exp2: int, fmt: FxFormat) -> FxNum:
    if sig == 0:
        return FxNum.zero(fmt)
    rel = exp2 - fmt.scale_log2
    octave = sig.bit_length() + rel
    if octave > fmt.budget:
        return FxNum.inf(sign, fmt)
    lsb = max(octave, 0) - fmt.budget
    q, exact = _quantize(sig, rel, lsb, fmt.rounding)
    return _fx_finish(sign, q, lsb, exact, fmt)


def _fx_round_rational(sign: int, n: int, d: int, fmt: FxFormat) -> FxNum:
    """Round the positive rational n/d into fmt."""
    k = fmt.scale_log2
    n, d = n << max(0, -k), d << max(0, k)
    octave = _ratio_floor_log2(n, d) + 1
    if octave > fmt.budget:
        return FxNum.inf(sign, fmt)
    lsb = max(octave, 0) - fmt.budget
    q, exact = _divround(n, d, lsb, fmt.rounding)
    return _fx_finish(sign, q, lsb, exact, fmt)


def _fp_finish(sign: int, q: int, lsb: int, exact: bool,
               fmt: FpFormat) -> FpNum:
    """Saturate, flush or canonicalize q * 2**lsb."""
    msb = q.bit_length() - 1 + lsb
    if msb > fmt.q:
        return FpNum.inf(sign, fmt)
    if msb < -fmt.q:
        return FpNum.zero(fmt, inexact=True)
    q, lsb = _canon(q, lsb)
    return FpNum(fmt, _FINITE, sign, q, lsb, not exact)


def _fp_round_dyadic(sign: int, sig: int, exp2: int, fmt: FpFormat) -> FpNum:
    if sig == 0:
        return FpNum.zero(fmt)
    lsb = sig.bit_length() - fmt.t + exp2
    q, exact = _quantize(sig, exp2, lsb, fmt.rounding)
    return _fp_finish(sign, q, lsb, exact, fmt)


def _fp_round_rational(sign: int, n: int, d: int, fmt: FpFormat) -> FpNum:
    lsb = _ratio_floor_log2(n, d) - (fmt.t - 1)
    q, exact = _divround(n, d, lsb, fmt.rounding)
    return _fp_finish(sign, q, lsb, exact, fmt)


def _to_sig_exp(value) -> tuple[int, int, int]:
    """Decompose an exact dyadic value into (sign, odd sig, exp2)."""
    if isinstance(value, _Num):
        if not value.is_finite:
            raise ValueError("cannot decompose an infinity")
        return value.sign, value.sig, value.exp2
    fr = Fraction(value)
    d = fr.denominator
    if d & (d - 1):
        raise ValueError(f"{value} is not dyadic")
    sign = 1 if fr >= 0 else -1
    sig, exp2 = _canon(abs(fr.numerator), -(d.bit_length() - 1))
    return sign, sig, exp2


def hold_exact(value, fmt: FxFormat | FpFormat) -> FxNum | FpNum:
    """An exact dyadic held in fmt's scalar type, never rounded or
    saturated: where it fits in fmt, the same as fx_round / fp_round."""
    cls = FxNum if isinstance(fmt, FxFormat) else FpNum
    sign, sig, exp2 = _to_sig_exp(value)
    return cls(fmt, _FINITE, sign, sig, exp2) if sig else cls.zero(fmt)


def _round(value, fmt, cls, round_dyadic, round_rational):
    if isinstance(value, _Num) and value.is_inf:
        return cls.inf(value.sign, fmt)
    if isinstance(value, Fraction) and (value.denominator & (value.denominator - 1)):
        # Not dyadic, so not zero either.
        sign = 1 if value >= 0 else -1
        return round_rational(sign, abs(value.numerator), value.denominator,
                              fmt)
    return round_dyadic(*_to_sig_exp(value), fmt)


def fx_round(value, fmt: FxFormat) -> FxNum:
    """Round an exact value (Fraction, int, FxNum or FpNum) into fmt."""
    return _round(value, fmt, FxNum, _fx_round_dyadic, _fx_round_rational)


def fp_round(value, fmt: FpFormat) -> FpNum:
    """Round an exact value (Fraction, int, FxNum or FpNum) into fmt."""
    return _round(value, fmt, FpNum, _fp_round_dyadic, _fp_round_rational)


def _add_exact(a, b) -> tuple[int, int, int]:
    """Exact sum of two finite numbers as (sign, sig, exp2)."""
    if a.sig == 0:
        return b.sign, b.sig, b.exp2
    if b.sig == 0:
        return a.sign, a.sig, a.exp2
    e = min(a.exp2, b.exp2)
    total = a.sign * (a.sig << (a.exp2 - e)) + b.sign * (b.sig << (b.exp2 - e))
    sign = 1 if total >= 0 else -1
    sig, e = _canon(abs(total), e)
    return sign, sig, e


def _add(a, b, fmt, cls, round_dyadic):
    if a.is_inf or b.is_inf:
        if a.is_inf and b.is_inf and a.sign != b.sign:
            raise IndeterminateForm("Inf - Inf")
        return cls.inf((a if a.is_inf else b).sign, fmt)
    return round_dyadic(*_add_exact(a, b), fmt)


def _mul(a, b, fmt, cls, round_dyadic):
    if a.is_inf or b.is_inf:
        other = b if a.is_inf else a
        if other.is_finite and other.sig == 0:
            raise IndeterminateForm("0 * Inf")
        return cls.inf(a.sign * b.sign, fmt)
    return round_dyadic(a.sign * b.sign, a.sig * b.sig, a.exp2 + b.exp2, fmt)


def _div(a, b, fmt, cls, round_rational):
    if a.is_inf and b.is_inf:
        raise IndeterminateForm("Inf / Inf")
    if b.is_finite and b.sig == 0:
        if a.is_finite and a.sig == 0:
            raise IndeterminateForm("0 / 0")
        return cls.inf(a.sign, fmt)
    if a.is_inf:
        return cls.inf(a.sign * b.sign, fmt)
    if b.is_inf or a.sig == 0:
        return cls.zero(fmt)
    e = a.exp2 - b.exp2
    return round_rational(a.sign * b.sign, a.sig << max(0, e),
                          b.sig << max(0, -e), fmt)


def fx_add(a: FxNum, b: FxNum, fmt: FxFormat) -> FxNum:
    return _add(a, b, fmt, FxNum, _fx_round_dyadic)


def fx_mul(a: FxNum, b: FxNum, fmt: FxFormat) -> FxNum:
    return _mul(a, b, fmt, FxNum, _fx_round_dyadic)


def fx_div(a: FxNum, b: FxNum, fmt: FxFormat) -> FxNum:
    return _div(a, b, fmt, FxNum, _fx_round_rational)


def fp_add(a: FpNum, b: FpNum, fmt: FpFormat) -> FpNum:
    return _add(a, b, fmt, FpNum, _fp_round_dyadic)


def fp_mul(a: FpNum, b: FpNum, fmt: FpFormat) -> FpNum:
    return _mul(a, b, fmt, FpNum, _fp_round_dyadic)


def fp_div(a: FpNum, b: FpNum, fmt: FpFormat) -> FpNum:
    return _div(a, b, fmt, FpNum, _fp_round_rational)


def exp_logit_exact(coeff: Fraction | None) -> Fraction:
    """2 ** coeff as an exact rational, for a logit held as its coefficient
    of ln 2: zero for None, the "minus large constant" sentinel."""
    if coeff is None:
        return Fraction(0)
    if coeff.denominator != 1:
        raise NonDyadicLogit(f"logit coefficient {coeff} is not an integer")
    if abs(coeff) > INF_CODE_LOG2:
        # A key quantized to the infinity code: 2**coeff would have more
        # digits than any integer can hold.
        raise LogitOutOfRange(
            f"a logit of {coeff.numerator.bit_length()} bits is past "
            f"the infinity-code exponent {INF_CODE_LOG2}; a key the "
            "sequence reaches overflowed the quantization grid")
    return _pow2(int(coeff))


def encode_scalar(value) -> str:
    """Render a value as +<int>/2^<k>, -<int>/2^<k>, 0, +inf or -inf."""
    if isinstance(value, _Num):
        if value.kind == _POS_INF:
            return "+inf"
        if value.kind == _NEG_INF:
            return "-inf"
        value = value.as_fraction()
    fr = Fraction(value)
    if fr == 0:
        return "0"
    d = fr.denominator
    if d & (d - 1):
        raise ValueError(f"{value} is not dyadic")
    sign = "+" if fr > 0 else "-"
    return f"{sign}{abs(fr.numerator)}/2^{d.bit_length() - 1}"


def decode_scalar(text: str) -> Fraction | float:
    """Inverse of encode_scalar; infinities come back as float inf."""
    if text == "0":
        return Fraction(0)
    if text == "+inf":
        return float("inf")
    if text == "-inf":
        return float("-inf")
    try:
        sign = {"+": 1, "-": -1}[text[0]]
        n, _, k = text[1:].partition("/2^")
        return Fraction(sign * int(n), 1 << int(k))
    except Exception as exc:
        raise ValueError(f"bad scalar encoding {text!r}") from exc
