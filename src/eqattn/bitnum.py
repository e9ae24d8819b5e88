"""Exact saturating fixed-point and floating-point scalars.

Values are stored as sign * sig * 2**exp2 with an odd significand, so every
operation is computed exactly over the integers (or rationals, for division)
and rounded once into the requested format.  Out-of-range magnitudes saturate
to +/-Inf; magnitudes that round to no nonzero representable value become
exact zero.  There are no NaNs: indeterminate forms raise.  FxNum and FpNum
share one scalar class (_Num) and differ only in the kind their zero carries.

The arithmetic is straight-line kernels.  Each format kind has one rounding
body per shape of exact value, a dyadic sig * 2**exp2 (sig not necessarily
odd) or a positive rational n/d: it unpacks the format once, quantizes (ties
go toward zero), saturates or flushes, and builds the canonical scalar.  Add,
multiply and divide (_add, _mul, _div) are shared by fixed and floating
point: with both operands finite and nonzero they pass the exact result
straight to the body of the result's format; else they read each kind once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

NEAREST = "nearest"
TRUNC = "trunc"

_FINITE = "finite"
_POS_INF = "pinf"
_NEG_INF = "ninf"
_ZERO = "zero"
# Every kind a scalar takes; those of +-Inf are the ones not finite.
KINDS = (_FINITE, _ZERO, _POS_INF, _NEG_INF)
INF_KINDS = frozenset((_POS_INF, _NEG_INF))


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


class _Format(tuple):
    """What the two formats add to their NamedTuple fields: every
    construction path (the constructor, _make and so _replace, unpickling)
    checks each size field against its (least, most) values in _SIZES and
    the rounding policy, and equality and hash tell the kinds apart, so
    FxFormat(4, 2) != FpFormat(4, 2) and the two key separate entries.

    The bounds keep every shift the kernels make by a size small, so the
    only error arithmetic in a format can raise is IndeterminateForm.  No
    size passes INF_CODE_LOG2, and e stops at 15, where q = 2**(e-1) - 1
    is still below it, and a fixed-point format's top_octave stops at it:
    the infinity code saturates in every format.  Every format a
    construction or a preset makes is far inside them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, (least, most) in cls._SIZES.items():
            size = getattr(self, name)
            if size < least:
                raise InvalidFormat(f"{name} must be at least {least}, "
                                    f"got {size}")
            if size > most:
                raise InvalidFormat(f"{name} must be at most {most}, "
                                    f"got {size}")
        if self.rounding not in (NEAREST, TRUNC):
            raise InvalidFormat(f"unknown rounding policy {self.rounding!r}")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))


class _FxFields(NamedTuple):
    p: int
    scale_log2: int = 0
    rounding: str = NEAREST


class FxFormat(_Format, _FxFields):
    """Fixed-point format: p bits total, one of them sign.

    The remaining budget B = p - 1 is split freely between integer and
    fraction bits, so the representable magnitudes are exactly the
    u * scale with u a dyadic needing at most B positional bits.
    """

    __slots__ = ()
    _SIZES = {"p": (2, INF_CODE_LOG2),
              "scale_log2": (-INF_CODE_LOG2, INF_CODE_LOG2),
              "top_octave": (-INF_CODE_LOG2, INF_CODE_LOG2)}

    @property
    def top_octave(self) -> int:
        """scale_log2 + p - 1: every finite magnitude is below 2**top_octave."""
        return self.scale_log2 + self.p - 1

    def descriptor(self) -> str:
        return f"fx:p={self.p},scale=2^{self.scale_log2},round={self.rounding}"


class _FpFields(NamedTuple):
    t: int
    e: int
    rounding: str = NEAREST


class FpFormat(_Format, _FpFields):
    """Floating-point format: t significand bits (1.a with |a| = t - 1) and
    e exponent bits giving |exponent| <= q = 2**(e-1) - 1.  No subnormals;
    zero is its own class."""

    __slots__ = ()
    _SIZES = {"t": (1, INF_CODE_LOG2), "e": (2, 15)}

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


def _ratio_floor_log2(n: int, d: int) -> int:
    """floor(log2(n / d)) for positive integers."""
    x = n.bit_length() - d.bit_length()
    return x - ((n << -x) < d if x < 0 else n < (d << x))


def ceil_log2(x: Fraction) -> int:
    """The least k with 2**k >= x, computed exactly (x > 0)."""
    k = _ratio_floor_log2(x.numerator, x.denominator)
    return k if x == Fraction(2) ** k else k + 1


class _Num:
    """A value held in (or saturated out of) a format; a subclass names the
    kind its zero carries.  An infinity holds sig 0, as a zero does."""

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
        return self.kind not in INF_KINDS

    @property
    def is_inf(self) -> bool:
        return self.kind in INF_KINDS

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


def _fx_round_dyadic(sign: int, sig: int, exp2: int, fmt: FxFormat) -> FxNum:
    """Round sign * sig * 2**exp2 into fmt; sig >= 0 need not be odd."""
    p, scale, rounding = fmt
    if not sig:
        return FxNum(fmt, _FINITE, 1, 0, 0)
    budget = p - 1
    rel = exp2 - scale
    octave = sig.bit_length() + rel
    if octave > budget:
        return FxNum.inf(sign, fmt)
    lsb = (octave if octave > 0 else 0) - budget    # grid step, scale units
    drop = lsb - rel
    rem = sig & ((1 << drop) - 1) if drop > 0 else 0
    if rem:
        sig >>= drop
        exp2 += drop
        if rounding == NEAREST and rem > 1 << (drop - 1):
            sig += 1
            if sig.bit_length() + lsb > budget:     # carried past the top
                return FxNum.inf(sign, fmt)
        elif not sig:
            return FxNum.zero(fmt, True)
    low = (sig & -sig).bit_length() - 1
    return FxNum(fmt, _FINITE, sign, sig >> low, exp2 + low, rem != 0)


def _fx_round_rational(sign: int, n: int, d: int, fmt: FxFormat) -> FxNum:
    """Round sign * n/d into fmt, for positive n and d."""
    p, scale, rounding = fmt
    budget = p - 1
    octave = _ratio_floor_log2(n, d) + 1 - scale
    if octave > budget:
        return FxNum.inf(sign, fmt)
    lsb = (octave if octave > 0 else 0) - budget    # grid step, scale units
    exp2 = lsb + scale
    if exp2 > 0:
        d <<= exp2
    else:
        n <<= -exp2
    q, r = divmod(n, d)
    if rounding == NEAREST and 2 * r > d:
        q += 1
        if q.bit_length() + lsb > budget:           # carried past the top
            return FxNum.inf(sign, fmt)
    elif not q:
        return FxNum.zero(fmt, True)
    low = (q & -q).bit_length() - 1
    return FxNum(fmt, _FINITE, sign, q >> low, exp2 + low, r != 0)


def _fp_round_dyadic(sign: int, sig: int, exp2: int, fmt: FpFormat) -> FpNum:
    """Round sign * sig * 2**exp2 into fmt; sig >= 0 need not be odd."""
    t, e, rounding = fmt
    if not sig:
        return FpNum(fmt, _ZERO, 1, 0, 0)
    extra = sig.bit_length() - t                    # bits past t
    msb = exp2 + t - 1 + extra
    rem = sig & ((1 << extra) - 1) if extra > 0 else 0
    if rem:
        sig >>= extra
        exp2 += extra
        if rounding == NEAREST and rem > 1 << (extra - 1):
            sig += 1
            msb += sig >> t                         # carried to 2**t
    q = (1 << (e - 1)) - 1
    if msb > q:
        return FpNum.inf(sign, fmt)
    if msb < -q:
        return FpNum.zero(fmt, True)
    low = (sig & -sig).bit_length() - 1
    return FpNum(fmt, _FINITE, sign, sig >> low, exp2 + low, rem != 0)


def _fp_round_rational(sign: int, n: int, d: int, fmt: FpFormat) -> FpNum:
    """Round sign * n/d into fmt, for positive n and d."""
    t, e, rounding = fmt
    msb = _ratio_floor_log2(n, d)
    lsb = msb - (t - 1)
    if lsb > 0:
        d <<= lsb
    else:
        n <<= -lsb
    q, r = divmod(n, d)
    if rounding == NEAREST and 2 * r > d:
        q += 1
        msb += q >> t                               # carried to 2**t
    emax = (1 << (e - 1)) - 1
    if msb > emax:
        return FpNum.inf(sign, fmt)
    if msb < -emax:
        return FpNum.zero(fmt, True)
    low = (q & -q).bit_length() - 1
    return FpNum(fmt, _FINITE, sign, q >> low, lsb + low, r != 0)


def hold_exact(value, fmt: FxFormat | FpFormat) -> FxNum | FpNum:
    """An exact dyadic held in fmt's scalar type, never rounded or
    saturated: where it fits in fmt, the same as fx_round / fp_round."""
    cls = FxNum if isinstance(fmt, FxFormat) else FpNum
    fr = Fraction(value)
    n, d = fr.numerator, fr.denominator
    if d & (d - 1):
        raise ValueError(f"{value} is not dyadic")
    if not n:
        return cls.zero(fmt)
    low = (n & -n).bit_length() - 1
    return cls(fmt, _FINITE, -1 if n < 0 else 1, abs(n) >> low,
               low + 1 - d.bit_length())


def _round(value, fmt, cls, round_dyadic, round_rational):
    if isinstance(value, _Num):
        if value.kind in INF_KINDS:
            return cls.inf(value.sign, fmt)
        return round_dyadic(value.sign, value.sig, value.exp2, fmt)
    n, d = value.numerator, value.denominator
    sign = -1 if n < 0 else 1
    if d & (d - 1):
        return round_rational(sign, abs(n), d, fmt)
    return round_dyadic(sign, abs(n), 1 - d.bit_length(), fmt)


def fx_round(value, fmt: FxFormat) -> FxNum:
    """Round an exact value (Fraction, int, FxNum or FpNum) into fmt."""
    return _round(value, fmt, FxNum, _fx_round_dyadic, _fx_round_rational)


def fp_round(value, fmt: FpFormat) -> FpNum:
    """Round an exact value (Fraction, int, FxNum or FpNum) into fmt."""
    return _round(value, fmt, FpNum, _fp_round_dyadic, _fp_round_rational)


def _add(a, b, fmt, cls, round_dyadic):
    x, y = a.sig, b.sig
    if x and y:
        e, eb = a.exp2, b.exp2
        if e > eb:
            x, e = x << (e - eb), eb
        else:
            y <<= eb - e
        total = a.sign * x + b.sign * y
        if total < 0:
            return round_dyadic(-1, -total, e, fmt)
        return round_dyadic(1, total, e, fmt)
    if a.kind in INF_KINDS:
        if b.kind in INF_KINDS and a.sign != b.sign:
            raise IndeterminateForm("Inf - Inf")
        return cls.inf(a.sign, fmt)
    if b.kind in INF_KINDS:
        return cls.inf(b.sign, fmt)
    if x:
        return round_dyadic(a.sign, x, a.exp2, fmt)
    return round_dyadic(b.sign, y, b.exp2, fmt)


def _mul(a, b, fmt, cls, round_dyadic):
    x, y = a.sig, b.sig
    if x and y:
        return round_dyadic(a.sign * b.sign, x * y, a.exp2 + b.exp2, fmt)
    a_inf, b_inf = a.kind in INF_KINDS, b.kind in INF_KINDS
    if not (a_inf or b_inf):
        return cls.zero(fmt)
    if not (x or a_inf) or not (y or b_inf):
        raise IndeterminateForm("0 * Inf")
    return cls.inf(a.sign * b.sign, fmt)


def _div(a, b, fmt, cls, round_rational):
    x, y = a.sig, b.sig
    if x and y:
        e = a.exp2 - b.exp2
        if e > 0:
            x <<= e
        else:
            y <<= -e
        return round_rational(a.sign * b.sign, x, y, fmt)
    a_inf, b_inf = a.kind in INF_KINDS, b.kind in INF_KINDS
    if not (y or b_inf):
        if not (x or a_inf):
            raise IndeterminateForm("0 / 0")
        return cls.inf(a.sign, fmt)
    if a_inf:
        if b_inf:
            raise IndeterminateForm("Inf / Inf")
        return cls.inf(a.sign * b.sign, fmt)
    return cls.zero(fmt)


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
    sign = {"+": 1, "-": -1}.get(text[:1])
    n, _, k = text[1:].partition("/2^")
    if not (sign and n.isdigit() and k.isdigit() and (n + k).isascii()):
        raise ValueError(f"bad scalar encoding {text!r}: expected +n/2^k or "
                         "-n/2^k, n and k ASCII digit strings")
    n, k = sign * int(n), int(k)
    if k > 2 * INF_CODE_LOG2:     # no format holds a finer value
        raise ValueError(f"bad scalar encoding {text!r}: k of n/2^k must be "
                         f"0 to {2 * INF_CODE_LOG2}")
    return Fraction(n, 1 << k)
