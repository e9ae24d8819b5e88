"""Builders and promise sets for the four analytic equality transformers.

Each builder emits a complete TransformerSpec for deciding whether two m-bit
strings are equal, reading the answer at a trailing query token.  A
builder's per-position TokenRule tables are the only record of which input
bits each token carries (TokenRule.source); the layout beyond them is just
the token count n, a per-family default checked against the fewest
positions the table fills.

* fx-simple: fixed point, p = ceil(m/2)+1 bits, softmax attention.
  Accepts when the attention output is exactly 2.
* fx-tight: fixed point, p = ceil(m/2) bits, softmax attention.
  Accepts when the attention output is exactly 2^(1-p).
* fp-linear: floating point (t, e), linear attention over tuple tokens
  carrying a sign, an exponent register, and one mantissa bit.  Accepts when
  the fold cancels to exact zero.
* fp-softmax: floating point (t, e) with t+e = K + log2(K) for K =
  ceil(m/2) a power of two; softmax attention over exponent-register tokens.
  Accepts when the attention output equals a fixed rounded constant.

Two tables own what the rest of the package knows of the families.
CONSTRUCTIONS gives each family its builder, the sizes it takes (m, or t
and e; make refuses any other) and its default promise flags.  _FLAGS
gives each promise flag what it reads (y, z, the length or the order), a
predicate on that one string, and whether it needs t and e; PromiseSet
derives its y_ok, z_ok and pair_scoped answers from that column.

The builders check at build time that every attention-weight times value
product any token can produce is exactly representable in the fold format.

The fx heads are exact-precision heads: they compute with the den format's
saturation and rounding, so a positive --precision-delta or a wider
quantization target measures detuning, not expressivity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _bit_patterns
from typing import NamedTuple

from .attn import LINEAR, SOFTMAX, MlpSpec, TokenRule, TransformerSpec
from .bitnum import FpFormat, FxFormat, fp_round, fx_round


class UnsupportedM(ValueError):
    """The requested parameters fall outside what a builder supports."""


def half_len(m: int) -> int:
    """Length of the first half of an m-bit string, ceil(m/2)."""
    return (m + 1) // 2


def _bits_int(s: str, lo: int, hi: int) -> int:
    """Integer value of the 1-based inclusive bit slice s[lo..hi]."""
    return int(s[lo - 1:hi], 2)


def _exp_window(s, ps):
    # Lower bound: a difference in the deepest mantissa bit leaves a
    # residue of 2^(E-(t-1)), which flushes to zero below this window.
    # Upper bound: the all-ones field would encode exponent q+1, outside
    # the format's legal range.
    return ps.t - 1 <= _bits_int(s, 2, ps.e + 1) <= (1 << ps.e) - 2


# Flag registry: name -> (what the flag reads, a predicate on that string
# and the promise set, whether the predicate needs t and e).  A flag reads
# y, z, the length (either side: both have m bits) or the order, read off
# y + z, whose halves are y and z.
_FLAGS = {
    "m_odd": ("length", lambda s, ps: len(s) % 2 == 1, False),
    "y_le_z": ("order", lambda yz, ps: yz[:len(yz) // 2] <= yz[len(yz) // 2:],
               False),
    "y_exp_positive": ("y", lambda y, ps: _bits_int(y, 2, ps.e + 1) > 0,
                       True),
    "y_tail_ok": ("y", lambda y, ps: y[-2:] != "10", False),
    "z_head_ok": ("z", lambda z, ps: z[:ps.e] != "1" * ps.e, True),
    "y_exp_window": ("y", _exp_window, True),
    "z_exp_window": ("z", _exp_window, True),
    "exp_head_min": ("y", lambda y, ps: _bits_int(y, 1, ps.e - 1) >= ps.t - 1,
                     True),
}


class _PromiseFields(NamedTuple):
    construction: str
    t: int | None = None
    e: int | None = None
    flags: tuple = ()


class PromiseSet(_PromiseFields):
    """The named input restrictions a construction's correctness assumes:
    the construction's default flags (CONSTRUCTIONS) unless flags are
    given.  Every construction path, _replace included, fills in and
    checks the flags."""

    __slots__ = ()

    def __new__(cls, construction, t=None, e=None, flags=()):
        if construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {construction!r}")
        flags = flags or CONSTRUCTIONS[construction][2]
        for f in flags:
            if f not in _FLAGS:
                raise ValueError(f"unknown promise flag {f!r}")
        sized = {f for f in flags if _FLAGS[f][2]}
        if sized and (t is None or e is None):
            raise ValueError(
                f"promise flags {sorted(sized)} need t and e")
        return super().__new__(cls, construction, t, e, flags)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def check(self, y: str, z: str) -> list[str]:
        """Names of every flag the pair (y, z) violates, in declaration
        order."""
        read = {"y": y, "z": z, "length": y, "order": y + z}
        return [f for f in self.flags
                if not _FLAGS[f][1](read[_FLAGS[f][0]], self)]

    def _side_ok(self, s: str, side: str) -> bool:
        return all(_FLAGS[f][1](s, self) for f in self.flags
                   if _FLAGS[f][0] in (side, "length"))

    def y_ok(self, y: str) -> bool:
        """Whether y satisfies every y-side (and length) flag."""
        return self._side_ok(y, "y")

    def z_ok(self, z: str) -> bool:
        """Whether z satisfies every z-side (and length) flag."""
        return self._side_ok(z, "z")

    @property
    def pair_scoped(self) -> bool:
        """Whether every flag reads the length or the order alone, so each
        side admits every m-bit string or none."""
        return all(_FLAGS[f][0] in ("length", "order") for f in self.flags)


def _fp_softmax_params(t: int, e: int):
    """Derived sizes for the softmax floating-point family, or raise."""
    te = t + e
    K = 1
    while K + (K.bit_length() - 1) < te:
        K <<= 1
    log_k = K.bit_length() - 1
    if K + log_k != te:
        raise UnsupportedM(
            f"t+e = {te} does not equal K + log2(K) for any power of two K")
    if t <= 2:
        raise UnsupportedM(f"fp-softmax needs t > 2, got t = {t}")
    if e <= log_k + 2:
        raise UnsupportedM(
            f"fp-softmax needs e > log2(K) + 2 = {log_k + 2}, got e = {e}")
    m = 2 * K - 1
    r = e - 1 - log_k
    w = K + 2 - e
    if w < 1:
        raise UnsupportedM(f"second-half window K + 2 - e = {w} is empty")
    if w > t - 1:
        raise UnsupportedM(
            f"second-half window {w} exceeds the t - 1 = {t - 1} mantissa "
            "bits that must absorb it")
    q = (1 << (e - 1)) - 1
    return m, K, log_k, q, r, w


def _token_count(construction: str, n: int | None, low: int,
                 stated: int) -> int:
    """Non-query token count: n, or the family's stated default raised to
    low, the fewest positions its table fills.  The query placeholder is
    appended last, so a sequence has n+1 tokens."""
    if n is None:
        return max(stated, low)
    if n < low:
        raise UnsupportedM(
            f"{construction} layout needs n >= {low} here, got n = {n}")
    return n


def _rule(refs, row_fn) -> TokenRule:
    """Rule whose rows enumerate row_fn over all patterns of the refs."""
    refs = tuple(refs)
    rows = tuple(row_fn(bits)
                 for bits in _bit_patterns((0, 1), repeat=len(refs)))
    return TokenRule(source=refs, rows=rows)


def _const(row) -> TokenRule:
    return TokenRule(source=(), rows=(row,))


class _Table:
    """Collects per-position rules plus a human-readable step outline."""

    def __init__(self, index_base, n):
        self.rules = {}
        self.steps = []
        self.index_base = index_base
        self.last = index_base + n

    def step(self, name, positions, desc, make):
        positions = list(positions)
        for i in positions:
            if i in self.rules:
                raise RuntimeError(f"position {i} defined twice ({name})")
            self.rules[i] = make(i)
        if positions:
            self.steps.append(
                f"{name}: positions {positions[0]}..{positions[-1]}, {desc}")

    def embedding(self):
        missing = [i for i in range(self.index_base, self.last + 1)
                   if i not in self.rules]
        if missing:
            raise RuntimeError(f"positions left undefined: {missing}")
        return [self.rules[i] for i in range(self.index_base, self.last + 1)]


def _assert_products_exact(spec: TransformerSpec, keep=None):
    """Every weight*value product a token can contribute to the numerator
    fold must round without error; builders call this before returning."""
    round_ = fx_round if isinstance(spec.fold_fmt, FxFormat) else fp_round
    col, _ = spec.value_column()
    for pos, rule in enumerate(spec.embedding):
        for code, row in enumerate(rule.rows):
            if keep is not None and not keep(rule, code):
                continue
            key, value = row[1], row[col]
            if key is None or value == 0:
                continue
            got = round_(Fraction(2) ** key * Fraction(value), spec.fold_fmt)
            if got.inexact or not got.is_finite:
                raise RuntimeError(
                    f"builder invariant: product at position "
                    f"{spec.index_base + pos} (code {code}) is not exactly "
                    f"representable in the fold format")


def _build_fx_simple(m: int, n: int | None):
    if m % 2 == 0 or m < 3:
        raise UnsupportedM(f"fx-simple needs odd m >= 3, got m = {m}")
    k = half_len(m)
    n = _token_count("fx-simple", n, 2 * m + 1, 4 * (k + 1) + 1)
    p = k + 1
    top = min(6, k)
    tbl = _Table(1, n)

    tbl.step("top-y", range(1, top + 1),
             "key -6, value -(y_i) * 2^(7-i)",
             lambda i: _rule([("y", i)],
                             lambda b, i=i: (1, -6, -b[0] * 2 ** (7 - i))))
    tbl.step("low-y", range(7, k + 1),
             "key -(i-1), value -(y_i)",
             lambda i: _rule([("y", i)],
                             lambda b, i=i: (1, -(i - 1), -b[0])))
    tbl.step("den-y", range(k + 1, m + 1),
             "key m-i if y_i = 0 else -N, value 0",
             lambda i: _rule([("y", i)],
                             lambda b, i=i: (1, None if b[0] else m - i, 0)))
    tbl.step("top-z", range(m + 1, m + top + 1),
             "key -6, value +(z_j) * 2^(7-j) for j = i-m",
             lambda i: _rule([("z", i - m)],
                             lambda b, i=i: (1, -6, b[0] * 2 ** (7 - i + m))))
    tbl.step("low-z", range(m + 7, m + k + 1),
             "key -(j-1), value +(z_j) for j = i-m",
             lambda i: _rule([("z", i - m)],
                             lambda b, i=i: (1, -(i - m - 1), b[0])))
    tbl.step("den-z", range(m + k + 1, 2 * m + 1),
             "key 2m-i if z_j = 1 else -N, value 0",
             lambda i: _rule([("z", i - m)],
                             lambda b, i=i: (1, 2 * m - i if b[0] else None,
                                             0)))
    tbl.step("dummy", [2 * m + 1],
             "key -1, value 4 - 2^(2-K)",
             lambda i: _const((1, -1, 4 - Fraction(4, 1 << k))))
    tbl.step("rest", range(2 * m + 2, n + 2),
             "key -N, value 0 (padding and query)",
             lambda i: _const((1, None, 0)))

    spec = TransformerSpec(
        m=m, n=n, attention_kind=SOFTMAX,
        fold_fmt=FxFormat(p, 1 - k), num_fmt=FxFormat(p, 0),
        den_fmt=FxFormat(p, -1), out_fmt=FxFormat(p, 0),
        embedding=tbl.embedding(),
        wq=(1, 0, 0), wk=(0, 1, 0), wv=(0, 0, 1 << (k - 1)),
        mlp=MlpSpec(w1=(-1, 1), b1=(2, -2),
                    w2=(-(1 << k), -(1 << k)), b2=1),
        index_base=1,
    ).validate()
    _assert_products_exact(spec)
    return spec, tbl.steps


def _build_fx_tight(m: int, n: int | None):
    if m % 2 == 0 or m < 5:
        raise UnsupportedM(f"fx-tight needs odd m >= 5, got m = {m}")
    k = half_len(m)
    n = _token_count("fx-tight", n, 2 * m + 5, 4 * k + 1)
    top = min(6, k)
    shift = (1 << k) - 2
    tbl = _Table(-1, n)

    tbl.step("shift-neg", [-1],
             "key -(K-1), value -(2^K - 2)",
             lambda i: _const((1, -(k - 1), -shift)))
    tbl.step("copy-y1", [0, 1],
             "key -6, value +(y_1) * 2^6",
             lambda i: _rule([("y", 1)],
                             lambda b: (1, -6, b[0] << 6)))
    tbl.step("top-y", range(2, top + 1),
             "key -6, value +(y_i) * 2^(8-i)",
             lambda i: _rule([("y", i)],
                             lambda b, i=i: (1, -6, b[0] * 2 ** (8 - i))))
    tbl.step("low-y", range(7, k + 1),
             "key -(i-2), value +(y_i)",
             lambda i: _rule([("y", i)],
                             lambda b, i=i: (1, -(i - 2), b[0])))
    tbl.step("den-y", range(k + 1, m + 1),
             "key m-i if y_i = 0 else -N, value 0",
             lambda i: _rule([("y", i)],
                             lambda b, i=i: (1, None if b[0] else m - i, 0)))
    tbl.step("copy-z1", [m + 1, m + 2],
             "key -6, value -(z_1) * 2^6",
             lambda i: _rule([("z", 1)],
                             lambda b: (1, -6, -(b[0] << 6))))
    tbl.step("shift-pos", [m + 3],
             "key -(K-1), value +(2^K - 2)",
             lambda i: _const((1, -(k - 1), shift)))
    tbl.step("top-z", range(m + 4, m + top + 3),
             "key -6, value -(z_j) * 2^(8-j) for j = i-m-2",
             lambda i: _rule([("z", i - m - 2)],
                             lambda b, i=i: (1, -6,
                                             -b[0] * 2 ** (8 - i + m + 2))))
    tbl.step("low-z", range(m + 9, m + k + 3),
             "key -(j-2), value -(z_j) for j = i-m-2",
             lambda i: _rule([("z", i - m - 2)],
                             lambda b, i=i: (1, -(i - m - 4), -b[0])))
    tbl.step("den-z", range(m + k + 3, 2 * m + 3),
             "key m-j if z_j = 1 else -N, value 0",
             lambda i: _rule([("z", i - m - 2)],
                             lambda b, i=i: (1, m + 2 * k - i + 1 if b[0]
                                             else None, 0)))
    tbl.step("shift-tail", [2 * m + 3],
             "key -(K-1), value +2",
             lambda i: _const((1, -(k - 1), 2)))
    tbl.step("rest", range(2 * m + 4, n),
             "key -N, value 0 (padding and query)",
             lambda i: _const((1, None, 0)))

    spec = TransformerSpec(
        m=m, n=n, attention_kind=SOFTMAX,
        fold_fmt=FxFormat(k, 3 - k), num_fmt=FxFormat(k, 1),
        den_fmt=FxFormat(k, 0), out_fmt=FxFormat(k, 0),
        embedding=tbl.embedding(),
        wq=(1, 0, 0), wk=(0, 1, 0), wv=(0, 0, 1 << (k - 2)),
        mlp=MlpSpec(w1=(-1, 1),
                    b1=(Fraction(1, 1 << (k - 1)),
                        -Fraction(1, 1 << (k - 1))),
                    w2=(-(1 << (k - 1)), -(1 << (k - 1))), b2=1),
        index_base=-1,
    ).validate()
    _assert_products_exact(spec)
    return spec, tbl.steps


def _fp_linear_row(e: int, q: int, coeff_fn, carries_bit: bool):
    """Row function for a sign + exponent-register (+ optional bit) token."""
    def fn(bits):
        s = -1 if bits[0] else 1
        ev = 0
        for b in bits[1:e + 1]:
            ev = ev * 2 + b
        b = bits[e + 1] if carries_bit else None
        coeff = coeff_fn(b)
        return (1, ev - q, s * coeff if coeff else 0)
    return fn


def _build_fp_linear(t: int, e: int, n: int | None):
    if e > 12:
        raise UnsupportedM(
            f"fp-linear enumerates 2^(e+2) rows per token; e = {e} is past "
            "the supported e <= 12")
    if e < 2:
        raise UnsupportedM(f"fp-linear needs e >= 2, got e = {e}")
    if (1 << e) - 2 < t - 1:
        raise UnsupportedM(
            f"(t, e) = ({t}, {e}) leaves no legal exponent field: the "
            f"window [{t - 1}, {(1 << e) - 2}] is empty")
    if t < 3:
        raise UnsupportedM(f"fp-linear needs t >= 3, got t = {t}")
    m = t + e
    n = _token_count("fp-linear", n, 4 * t - 3, 2 * m + 1)
    q = (1 << (e - 1)) - 1
    fmt = FpFormat(t, e)
    tbl = _Table(0, n)

    def yregs():
        return (("y", 1),) + tuple(("y", k) for k in range(2, e + 2))

    def zregs():
        return (("z", 1),) + tuple(("z", k) for k in range(2, e + 2))

    def yrule(coeff_fn, bit=None):
        refs = yregs() + ((("y", bit),) if bit else ())
        return _rule(refs, _fp_linear_row(e, q, coeff_fn, bit is not None))

    def zrule(coeff_fn, bit=None):
        refs = zregs() + ((("z", bit),) if bit else ())
        return _rule(refs, _fp_linear_row(e, q, coeff_fn, bit is not None))

    half = Fraction(1, 2)
    tail = Fraction(1, 1 << (t - 1))

    def head_coeff(b):
        u = (1 - b) if t == 3 else b
        return 1 + half + u * Fraction(1, 4)

    tbl.step("head-y", [0],
             "key E_y, value s_y * (1 + 2^-1 + (m2) * 2^-2)",
             lambda i: yrule(head_coeff, bit=e + 3))
    tbl.step("gap-y", range(1, 2 * t - 6, 2),
             "key E_y, value -s_y",
             lambda i: yrule(lambda b: -1))
    tbl.step("dance-y", range(2, 2 * t - 5, 2),
             "key E_y, value s_y * (1 + (bit) * 2^-((i+4)/2))",
             lambda i: yrule(
                 lambda b, i=i: 1 + ((1 - b) if i == 2 * t - 6 else b)
                 * Fraction(1, 1 << (i + 4) // 2),
                 bit=e + 3 + i // 2))
    tbl.step("merge-y", [2 * t - 5],
             "key E_y, value -s_y * 2^-1 if m1 = 0 else 0",
             lambda i: yrule(lambda b: 0 if b else -half, bit=e + 2))
    tbl.step("gap-mid", range(2 * t - 4, 2 * t),
             "key 0, value 0",
             lambda i: _const((1, 0, 0)))
    tbl.step("chunk-z", [2 * t],
             "key E_z, value -s_z * (1 + (1 - bit) * 2^-(t-1))",
             lambda i: zrule(lambda b: -(1 + (1 - b) * tail), bit=e + t))
    tbl.step("dance-z", range(2 * t + 1, 4 * t - 4, 2),
             "key E_z, value -s_z * (1 + (bit) * 2^-j) for j = (i-2t+1)/2",
             lambda i: zrule(
                 lambda b, i=i: -(1 + b * Fraction(1, 1 << (i - 2 * t + 1)
                                                   // 2)),
                 bit=e + 1 + (i - 2 * t + 1) // 2))
    tbl.step("gap-z", range(2 * t + 2, 4 * t - 3, 2),
             "key E_z, value +s_z",
             lambda i: zrule(lambda b: 1))
    tbl.step("rest", range(4 * t - 3, n + 1),
             "key 0, value 0 (padding and query)",
             lambda i: _const((1, 0, 0)))

    spec = TransformerSpec(
        m=m, n=n, attention_kind=LINEAR,
        fold_fmt=fmt, num_fmt=fmt, den_fmt=fmt, out_fmt=fmt,
        embedding=tbl.embedding(),
        wq=(1, 0, 0), wk=(0, 1, 0), wv=(0, 0, 1),
        mlp=MlpSpec(w1=(1, -1), b1=(0, 0),
                    w2=(-(1 << q), -(1 << q)), b2=1),
        index_base=0,
    ).validate()

    def keep(rule, code):
        if len(rule.source) < e + 1:
            return True
        width = len(rule.source)
        ev = 0
        for kk in range(1, e + 1):
            ev = ev * 2 + ((code >> (width - 1 - kk)) & 1)
        return t - 1 <= ev <= (1 << e) - 2

    _assert_products_exact(spec, keep=keep)
    return spec, tbl.steps


def _build_fp_softmax(t: int, e: int, n: int | None):
    m, k, log_k, q, r, w = _fp_softmax_params(t, e)
    if e > 14:
        raise UnsupportedM(
            f"fp-softmax enumerates 2^e rows per token; e = {e} is past "
            "the supported e <= 14")
    n = _token_count("fp-softmax", n, 2 * m + 2, 4 * (t + e) + 1)
    fmt = FpFormat(t, e)
    tbl = _Table(0, n)

    def uint(bits):
        v = 0
        for b in bits:
            v = v * 2 + b
        return v

    e1 = lambda side: tuple((side, kk) for kk in range(1, e))
    e2 = lambda side: tuple(
        (side, kk) for kk in range(e + t - 1, e + t - 1 + r))

    tbl.step("num-y-head", [0],
             "key -q, value 2^(q + E1_y)",
             lambda i: _rule(e1("y"),
                             lambda b: (1, -q, 1 << (q + uint(b)))))
    tbl.step("num-y", range(1, t),
             "key -q, value (bit) * 2^(q + E1_y - i)",
             lambda i: _rule(e1("y") + (("y", e + i - 1),),
                             lambda b, i=i: (1, -q, b[-1] *
                                             (1 << (q + uint(b[:-1]) - i)))))
    tbl.step("den-y", range(t, t + w),
             "key -(E2_y + j) if bit = 0 else -N, value 0 for j = i-t+1",
             lambda i: _rule(e2("y") + (("y", m - w + (i - t + 1)),),
                             lambda b, i=i: (1, None if b[-1] else
                                             -(uint(b[:-1]) + i - t + 1), 0)))
    tbl.step("den-y-head", [t + w],
             "key -E2_y, value 0",
             lambda i: _rule(e2("y"), lambda b: (1, -uint(b), 0)))
    tbl.step("gap-y", range(t + w + 1, m),
             "key -N, value 0",
             lambda i: _const((1, None, 0)))
    tbl.step("num-z-head", [m],
             "key -q, value -2^(q + E1_z)",
             lambda i: _rule(e1("z"),
                             lambda b: (1, -q, -(1 << (q + uint(b))))))
    tbl.step("num-z", range(m + 1, m + t),
             "key -q, value -(bit) * 2^(q + E1_z - j) for j = i-m",
             lambda i: _rule(e1("z") + (("z", e + i - m - 1),),
                             lambda b, i=i: (1, -q, -b[-1] *
                                             (1 << (q + uint(b[:-1])
                                                    - (i - m))))))
    tbl.step("den-z", range(m + t, m + t + w),
             "key -(E2_z + j) if bit = 1 else -N, value 0 for j = i-m-t+1",
             lambda i: _rule(e2("z") + (("z", m - w + (i - m - t + 1)),),
                             lambda b, i=i: (1, -(uint(b[:-1]) + i - m - t
                                                  + 1) if b[-1] else None,
                                             0)))
    tbl.step("gap-z", range(m + t + w, 2 * m + 1),
             "key -N, value 0",
             lambda i: _const((1, None, 0)))
    tbl.step("dummy", [2 * m + 1],
             "key -q, value 2^(q - E2_z)",
             lambda i: _rule(e2("z"),
                             lambda b: (1, -q, 1 << (q - uint(b)))))
    tbl.step("rest", range(2 * m + 2, n + 1),
             "key -N, value 0 (padding and query)",
             lambda i: _const((1, None, 0)))

    accept = fp_round(Fraction(1 << w, (1 << (w + 1)) - 1), fmt)
    c = accept.as_fraction()
    if c == Fraction(1, 2):
        raise RuntimeError("builder invariant: accept constant collapsed "
                           "onto the rejected-carry value 1/2")

    spec = TransformerSpec(
        m=m, n=n, attention_kind=SOFTMAX,
        fold_fmt=fmt, num_fmt=fmt, den_fmt=fmt, out_fmt=fmt,
        embedding=tbl.embedding(),
        wq=(1, 0, 0), wk=(0, 1, 0), wv=(0, 0, 1),
        mlp=MlpSpec(w1=(-1, 1), b1=(c, -c),
                    w2=(-(1 << q), -(1 << q)), b2=1),
        index_base=0,
    ).validate()
    _assert_products_exact(spec)
    return spec, tbl.steps


# Family registry: name -> (builder, the sizes it takes, default promise
# flags).  A builder takes its sizes, then n, and returns (spec, steps).
CONSTRUCTIONS = {
    "fx-simple": (_build_fx_simple, ("m",), ("m_odd", "y_le_z")),
    "fx-tight": (_build_fx_tight, ("m",), ("m_odd", "y_le_z")),
    "fp-linear": (_build_fp_linear, ("t", "e"),
                  ("y_le_z", "y_exp_positive", "y_tail_ok", "y_exp_window",
                   "z_exp_window")),
    "fp-softmax": (_build_fp_softmax, ("t", "e"),
                   ("m_odd", "y_le_z", "z_head_ok", "exp_head_min")),
}


def _build(construction: str, m, t, e, n):
    """Build a named construction given exactly the sizes it takes: m for
    fixed point, (t, e) for floating point.  Returns (spec, steps)."""
    if construction not in CONSTRUCTIONS:
        raise UnsupportedM(
            f"unknown construction {construction!r}; pick one of "
            + ", ".join(sorted(CONSTRUCTIONS)))
    build, takes, _ = CONSTRUCTIONS[construction]
    size = {"m": m, "t": t, "e": e}
    if any(size[k] is None for k in takes):
        raise UnsupportedM(f"{construction} needs {' and '.join(takes)}")
    extra = [k for k, v in size.items() if v is not None and k not in takes]
    if extra:
        raise UnsupportedM(f"{construction} takes {' and '.join(takes)}, "
                           f"not {' and '.join(extra)}")
    return build(*(size[k] for k in takes), n)


def make(construction: str, m: int | None = None, t: int | None = None,
         e: int | None = None, n: int | None = None):
    """Build a named construction; returns (spec, promises)."""
    spec, _ = _build(construction, m, t, e, n)
    return spec, PromiseSet(construction, t, e)


def table_outline(construction: str, m: int | None = None,
                  t: int | None = None, e: int | None = None,
                  n: int | None = None) -> list[str]:
    """The builder's step list (name, position range, cell shapes), used to
    diff the emitted table against a checked-in rendering."""
    return _build(construction, m, t, e, n)[1]


def native_precision(spec: TransformerSpec) -> int:
    """Per-number bit budget of a spec: p for fixed point, t+e for float."""
    fmt = spec.num_fmt
    if isinstance(fmt, FxFormat):
        return fmt.p
    return fmt.t + fmt.e


def float_fields(spec: TransformerSpec) -> tuple:
    """(t, e) of a floating-point spec's numerator format; (None, None) for
    fixed point, whose reports carry m alone."""
    fmt = spec.num_fmt
    if isinstance(fmt, FxFormat):
        return None, None
    return fmt.t, fmt.e
