"""Builders and promise sets for the four analytic equality transformers.

Each builder emits a complete TransformerSpec for deciding whether two m-bit
strings are equal, reading the answer at a trailing query token.  A
builder's per-position TokenRule tables are the only record of which input
bits each token carries (TokenRule.source); the layout beyond them is just
the token count n, a per-family default checked against the fewest
positions the table fills.

* fx-simple (T0): fixed point, p = ceil(m/2)+1 bits, softmax attention.
  Accepts when the attention output is exactly 2.
* fx-tight (T1): fixed point, p = ceil(m/2) bits, softmax attention.
  Accepts when the attention output is exactly 2^(1-p).
* fp-linear (T2): floating point (t, e), linear attention over tuple tokens
  carrying a sign, an exponent register, and one mantissa bit.  Accepts when
  the fold cancels to exact zero.
* fp-softmax (T3): floating point (t, e) with t+e = K + log2(K) for K =
  ceil(m/2) a power of two; softmax attention over exponent-register tokens.
  Accepts when the attention output equals a fixed rounded constant.

The builders check at build time that every attention-weight times value
product any token can produce is exactly representable in the fold format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _bit_patterns

from .attn import LINEAR, SOFTMAX, MlpSpec, TokenRule, TransformerSpec
from .bitnum import FpFormat, FxFormat, fp_round, fx_round

T0 = "T0"
T1 = "T1"
T2 = "T2"
T3 = "T3"
VARIANTS = (T0, T1, T2, T3)

CONSTRUCTIONS = {
    "fx-simple": T0,
    "fx-tight": T1,
    "fp-linear": T2,
    "fp-softmax": T3,
}


class UnsupportedM(ValueError):
    """The requested parameters fall outside what a builder supports."""


@dataclass(frozen=True)
class EqInstance:
    """A pair of equal-length bit strings whose equality is in question."""

    y: str
    z: str

    def __post_init__(self):
        if len(self.y) != len(self.z):
            raise ValueError(
                f"strings differ in length: {len(self.y)} vs {len(self.z)}")
        if not self.y:
            raise ValueError("strings must be non-empty")
        for s in (self.y, self.z):
            if set(s) - {"0", "1"}:
                raise ValueError(f"not a bit string: {s!r}")

    @property
    def m(self) -> int:
        return len(self.y)


def half_len(m: int) -> int:
    """Length of the first half of an m-bit string, ceil(m/2)."""
    return (m + 1) // 2


def _bits_int(s: str, lo: int, hi: int) -> int:
    """Integer value of the 1-based inclusive bit slice s[lo..hi]."""
    return int(s[lo - 1:hi], 2)


def _flag_m_odd(inst, ps):
    return inst.m % 2 == 1


def _flag_y_le_z(inst, ps):
    return inst.y <= inst.z


def _flag_y_exp_positive(inst, ps):
    return _bits_int(inst.y, 2, ps.e + 1) > 0


def _flag_y_tail_ok(inst, ps):
    return inst.y[-2:] != "10"


def _flag_z_head_ok(inst, ps):
    return inst.z[:ps.e] != "1" * ps.e


def _flag_y_exp_window(inst, ps):
    # Lower bound: a difference in the deepest mantissa bit leaves a
    # residue of 2^(E-(t-1)), which flushes to zero below this window.
    # Upper bound: the all-ones field would encode exponent q+1, outside
    # the format's legal range.
    v = _bits_int(inst.y, 2, ps.e + 1)
    return ps.t - 1 <= v <= (1 << ps.e) - 2


def _flag_z_exp_window(inst, ps):
    v = _bits_int(inst.z, 2, ps.e + 1)
    return ps.t - 1 <= v <= (1 << ps.e) - 2


def _flag_exp_head_min(inst, ps):
    return _bits_int(inst.y, 1, ps.e - 1) >= ps.t - 1


# Flag registry: name -> (predicate, which string it constrains).
_FLAGS = {
    "m_odd": (_flag_m_odd, "pair"),
    "y_le_z": (_flag_y_le_z, "pair"),
    "y_exp_positive": (_flag_y_exp_positive, "y"),
    "y_tail_ok": (_flag_y_tail_ok, "y"),
    "z_head_ok": (_flag_z_head_ok, "z"),
    "y_exp_window": (_flag_y_exp_window, "y"),
    "z_exp_window": (_flag_z_exp_window, "z"),
    "exp_head_min": (_flag_exp_head_min, "y"),
}

_DEFAULT_FLAGS = {
    T0: ("m_odd", "y_le_z"),
    T1: ("m_odd", "y_le_z"),
    T2: ("y_le_z", "y_exp_positive", "y_tail_ok",
         "y_exp_window", "z_exp_window"),
    T3: ("m_odd", "y_le_z", "z_head_ok", "exp_head_min"),
}


@dataclass(frozen=True)
class PromiseSet:
    """The named input restrictions a construction's correctness assumes."""

    variant: str
    t: int | None = None
    e: int | None = None
    flags: tuple = ()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.flags:
            object.__setattr__(self, "flags", _DEFAULT_FLAGS[self.variant])
        for f in self.flags:
            if f not in _FLAGS:
                raise ValueError(f"unknown promise flag {f!r}")
        sized = set(self.flags) - {"m_odd", "y_le_z", "y_tail_ok"}
        if sized and (self.t is None or self.e is None):
            raise ValueError(
                f"promise flags {sorted(sized)} need t and e")

    def check(self, inst: EqInstance) -> list[str]:
        """Names of every violated flag, in declaration order."""
        return [f for f in self.flags if not _FLAGS[f][0](inst, self)]

    def _side_ok(self, s: str, side: str) -> bool:
        inst = EqInstance(s, s)
        for f in self.flags:
            pred, scope = _FLAGS[f]
            if (scope == side or f == "m_odd") and not pred(inst, self):
                return False
        return True

    def y_ok(self, y: str) -> bool:
        """Whether y satisfies every y-side (and length) flag."""
        return self._side_ok(y, "y")

    def z_ok(self, z: str) -> bool:
        """Whether z satisfies every z-side (and length) flag."""
        return self._side_ok(z, "z")


def _t3_params(t: int, e: int):
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


def _build_t0(m: int, n: int | None):
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


def _build_t1(m: int, n: int | None):
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


def _t2_row(e: int, q: int, coeff_fn, carries_bit: bool):
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


def _build_t2(t: int, e: int, n: int | None):
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
        return _rule(refs, _t2_row(e, q, coeff_fn, bit is not None))

    def zrule(coeff_fn, bit=None):
        refs = zregs() + ((("z", bit),) if bit else ())
        return _rule(refs, _t2_row(e, q, coeff_fn, bit is not None))

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


def _build_t3(t: int, e: int, n: int | None):
    m, k, log_k, q, r, w = _t3_params(t, e)
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


_BUILDERS = {
    "fx-simple": lambda m, t, e, n: _build_t0(m, n),
    "fx-tight": lambda m, t, e, n: _build_t1(m, n),
    "fp-linear": lambda m, t, e, n: _build_t2(t, e, n),
    "fp-softmax": lambda m, t, e, n: _build_t3(t, e, n),
}


def make(construction: str, m: int | None = None, t: int | None = None,
         e: int | None = None, n: int | None = None):
    """Build a named construction; returns (spec, promises).

    Fixed-point constructions take m; floating-point ones take (t, e).
    """
    if construction not in _BUILDERS:
        raise UnsupportedM(
            f"unknown construction {construction!r}; pick one of "
            + ", ".join(sorted(_BUILDERS)))
    variant = CONSTRUCTIONS[construction]
    if variant in (T0, T1):
        if m is None:
            raise UnsupportedM(f"{construction} needs m")
    else:
        if t is None or e is None:
            raise UnsupportedM(f"{construction} needs t and e")
    spec, _ = _BUILDERS[construction](m, t, e, n)
    return spec, PromiseSet(variant, t, e)


def table_outline(construction: str, m: int | None = None,
                  t: int | None = None, e: int | None = None,
                  n: int | None = None) -> list[str]:
    """The builder's step list (name, position range, cell shapes), used to
    diff the emitted table against a checked-in rendering."""
    if construction not in _BUILDERS:
        raise UnsupportedM(f"unknown construction {construction!r}")
    return _BUILDERS[construction](m, t, e, n)[1]


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
