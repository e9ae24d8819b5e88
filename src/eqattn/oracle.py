"""Construction verification: promise pairs against the bounded forward pass.

Verification enumerates (or samples) promise-satisfying pairs with the one
pair enumerator, promise_pairs, which the protocol command shares; runs the
bounded-precision forward pass, and compares the answer bit against string
equality.  An exhaustive run factors where the compiled spec allows it:
fold_split derives from the cells which input bits each fold reads, and when
the numerator reads only bits up to some s and the denominator only bits
after it, the verifier runs the attention kernel's numerator fold alone over
every pair of leading fields and its denominator fold alone over every pair
of trailing fields, buckets the distinct fold values, and combines the
buckets; this cuts the fx-tight m=13 run from 3.4e7 forward passes to a few
thousand folds plus a cheap cross product.  Each fold resumes where the
protocol does: Alice's prefix (attn.alice_len) is folded once per field of
y, and the cap bounds this work, not the promise pairs.  Every reported
failure is re-evaluated with a direct forward pass before it is believed.
Every path, and quantlab's sampled scoring, counts pairs into one Tally,
and tallies merge by addition.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field
from itertools import islice, product
from typing import NamedTuple

from .attn import (
    OFF,
    SOFTMAX,
    TransformerSpec,
    alice_len,
    finish_softmax,
    fold,
    fold_reads,
    forward,
    scale_numerator,
    token_cells,
    with_stage_widths,
)
from .bitnum import FpFormat, FxFormat, IndeterminateForm
from .constructs import PromiseSet, float_fields, make, native_precision

PAIR_CAP_DEFAULT = 10 ** 8


class BudgetExceeded(RuntimeError):
    """The instance space is too large for exhaustive enumeration."""


def precision_delta_spec(spec: TransformerSpec, delta: int) -> TransformerSpec:
    """The same spec with every stage format's bit budget moved by delta.

    Fixed-point stages change p, floating-point stages change the mantissa
    budget t; scales and exponent budgets stay put.  Weights are untouched.
    """
    if delta == 0:
        return spec
    return with_stage_widths(spec, {
        name: FxFormat(f.p + delta) if isinstance(f, FxFormat)
        else FpFormat(f.t + delta, f.e) for name, f in spec.formats.items()})


def _fmt_scalar(v) -> str:
    if v is None:
        return "?"
    if getattr(v, "is_inf", False):
        return "inf" if v.sign > 0 else "-inf"
    if hasattr(v, "as_fraction"):
        v = v.as_fraction()
    return str(v)


@dataclass(frozen=True)
class Failure:
    """A pair the head answers wrongly, with the trace it was found with;
    its digest is formatted from the trace only when read."""

    y: str
    z: str
    expected: int
    got: int
    trace: object = field(repr=False, compare=False)

    @property
    def digest(self) -> str:
        trace = self.trace
        parts = [f"num={_fmt_scalar(trace.numerator)}"]
        if trace.denominator is not None:
            parts.append(f"den={_fmt_scalar(trace.denominator)}")
        parts.append("sa=indeterminate" if trace.indeterminate
                     else f"sa={_fmt_scalar(trace.sa)}")
        parts.append(f"out={_fmt_scalar(trace.output)}")
        return ";".join(parts)


FAILURE_LIST_CAP = 32


class Tally(NamedTuple):
    """Pairs decided against string equality: how many, how many wrongly,
    the first FAILURE_LIST_CAP failures in enumeration order, and how many
    saturated or hit an indeterminate form.  Tallies of consecutive runs
    merge with +, which adds them field by field."""

    total: int = 0
    failure_count: int = 0
    failures: tuple = ()
    saturated: int = 0

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(self.total + other.total,
                     self.failure_count + other.failure_count,
                     (self.failures + other.failures)[:FAILURE_LIST_CAP],
                     self.saturated + other.saturated)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run."""

    CSV_HEADER = "construction,m,t,e,p,total,failures,seconds"

    construction: str
    m: int
    t: int | None
    e: int | None
    p: int
    mode: str
    total: int
    failure_count: int
    failures: tuple
    seconds: float
    inf_count: int = 0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def csv_row(self) -> str:
        return ",".join([
            self.construction, str(self.m),
            "" if self.t is None else str(self.t),
            "" if self.e is None else str(self.e),
            str(self.p), str(self.total), str(self.failure_count), "0.000"])

    def render_lines(self) -> list[str]:
        head = (f"{self.construction} m={self.m}"
                + (f" t={self.t} e={self.e}" if self.t is not None else "")
                + f" p={self.p} [{self.mode}]")
        lines = [f"{head}: {self.total} pairs, "
                 f"{self.failure_count} failures, {self.seconds:.3f}s"]
        for f in self.failures[:10]:
            lines.append(f"  y={f.y} z={f.z} expected={f.expected} "
                         f"got={f.got} {f.digest}")
        if self.failure_count > len(self.failures):
            lines.append(f"  ... ({self.failure_count} total, "
                         f"{len(self.failures)} listed)")
        return lines


def to_csv(rows) -> str:
    """The CSV report of a non-empty sequence of report rows of one type
    (VerifyReport, quantlab.QuantRow, commsim.FoolingReport): the type's
    CSV_HEADER, then each row's csv_row().  Seconds columns read 0.000, so
    repeated runs with one seed are byte-identical."""
    return "\n".join([rows[0].CSV_HEADER,
                      *(r.csv_row() for r in rows)]) + "\n"


def _bits(v: int, width: int) -> str:
    return format(v, f"0{width}b")


def _any_inf(*values) -> bool:
    return any(v is not None and v.is_inf for v in values)


def trace_saturated(trace) -> bool:
    """Whether the run saturated anywhere or hit an indeterminate form."""
    return getattr(trace, "indeterminate", False) or _any_inf(
        trace.numerator, trace.denominator, trace.sa, trace.output)


def _eval_pairs(spec, pairs) -> Tally:
    """Worker: tally each (y, z) pair's forward bit against y == z."""
    total = wrong = saturated = 0
    listed = []
    for y, z in pairs:
        total += 1
        trace = forward(spec, y, z)
        saturated += trace_saturated(trace)
        expected = int(y == z)
        if trace.bit != expected:
            wrong += 1
            if len(listed) < FAILURE_LIST_CAP:
                listed.append(Failure(y, z, expected, trace.bit, trace))
    return Tally(total, wrong, tuple(listed), saturated)


def tally_pairs(spec, pairs, jobs) -> Tally:
    """Tally pairs, split into consecutive chunks over jobs worker
    processes when there are enough of them, the chunks' tallies summed in
    order.  One job counts the pairs as it consumes them, so an iterator
    is never held whole."""
    if jobs > 1:
        pairs = list(pairs)
    if jobs > 1 and len(pairs) > 1024:
        from concurrent.futures import ProcessPoolExecutor
        step = -(-len(pairs) // jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(
                _eval_pairs, [spec] * jobs,
                [pairs[i:i + step] for i in range(0, len(pairs), step)]),
                Tally())
    return _eval_pairs(spec, pairs)


def _count_pairs(promises: PromiseSet, m: int, cap: int) -> int:
    """How many exhaustive promise pairs there are, found without listing
    a string: in closed form when the flags are pair_scoped, else in one
    streamed pass, which is refused past cap when the 2^m strings alone
    exceed it."""
    if promises.pair_scoped:
        s = "0" * m
        if not (promises.y_ok(s) and promises.z_ok(s)):
            return 0
        return (1 << m - 1) * ((1 << m) + 1)
    if 1 << m > cap:
        raise BudgetExceeded(
            f"{1 << m} strings of {m} bits exceed the cap of {cap}")
    ys = zs = below = 0      # below: (y, z) with z < y, both admitted
    for v in range(1 << m):
        s = _bits(v, m)
        if promises.y_ok(s):
            ys += 1
            below += zs
        zs += promises.z_ok(s)
    return ys * zs - below


def promise_pairs(promises: PromiseSet, m: int, count: int | None = None,
                  rng: random.Random | None = None,
                  cap: int = PAIR_CAP_DEFAULT):
    """Promise pairs (y, z) of m-bit strings, y <= z.

    With count None: an iterator over every pair, y ascending, then z
    ascending.  Each promise flag constrains y, z, the length or the order
    alone, so y_ok, z_ok and y <= z are the whole promise.  Pairs are
    counted first (_count_pairs) and BudgetExceeded is raised past cap on
    the call, before any string is listed; they are then made one at a
    time, as they are consumed.  Otherwise: a list of count uniform draws
    from rng, by rejection.  Each draw takes getrandbits(m) twice, swaps
    the two into order and keeps the pair when check passes.
    BudgetExceeded is raised when the promise set is too sparse to
    sample.
    """
    if count is None:
        total = _count_pairs(promises, m, cap)
        if total > cap:
            raise BudgetExceeded(
                f"{total} promise pairs exceed the cap of {cap}")
        strings = [_bits(v, m) for v in range(1 << m)]
        ys = [y for y in strings if promises.y_ok(y)]
        zs = [z for z in strings if promises.z_ok(z)]
        return ((y, z) for y in ys for z in zs[bisect.bisect_left(zs, y):])
    pairs = []
    draws = 0
    while len(pairs) < count:
        draws += 1
        if draws > 200 * count + 1000:
            raise BudgetExceeded(
                f"{draws - 1} draws found {len(pairs)} of {count} promise "
                "pairs; the promise set is too sparse to sample")
        y = _bits(rng.getrandbits(m), m)
        z = _bits(rng.getrandbits(m), m)
        if y > z:
            y, z = z, y
        if not promises.check(y, z):
            pairs.append((y, z))
    return pairs


_NAN = "nan"


def fold_split(spec: TransformerSpec, promises: PromiseSet) -> int | None:
    """Where an exhaustive run factors: the last input bit the numerator
    fold reads, when every bit the denominator fold reads comes after it
    (fold_reads); else None.

    Only a softmax head has two folds to split, and only a promise whose
    flags all constrain the pair as a whole (length, y <= z) admits every
    pair the factored enumeration counts.  Bob's positions, after
    alice_len, must read no y bit: the factored run resumes there.
    """
    if spec.attention_kind != SOFTMAX or not promises.pair_scoped or \
            any(name == "y" for rule in spec.embedding[alice_len(spec):]
                for name, _ in rule.source):
        return None
    num, den = fold_reads(spec)
    if not num:
        return None
    s = max(num)
    return s if s < min(den, default=spec.m) else None


def _buckets(spec, pairs, width, lead, trail, state):
    """One fold's value over the (a, b) pairs of width-bit fields, placed
    between the constant lead and trail bits of y and of z, bucketed by
    (value, order of a against b): count and the first listed pairs.

    The value, the scaled numerator or the denominator (_NAN on an
    indeterminate form), is folded from state over Alice's prefix
    (alice_len) once per run of pairs with one a, then resumed over Bob's
    cells of b.  Alice reads no z bit and Bob no y bit (fold_split), so the
    cells of (v, v), built once per v, serve both.  Errors surface at the
    pair, stage and token a whole fold per pair would raise them."""
    k, end = alice_len(spec), spec.n + 1
    fields = (lead + _bits(v, width) + trail for v in range(1 << width))
    cells = [token_cells(spec, f, f) for f in fields]
    buckets = {}
    alice_of = None
    for a, b in pairs:
        if a != alice_of:
            alice_of = a
            try:
                alice = fold(spec, state, 0, k, cells[a])
            except IndeterminateForm:
                alice = _NAN
        value = _NAN
        if alice is not _NAN:
            try:
                num, den = fold(spec, alice, k, end, cells[b])
                value = den if num is OFF else scale_numerator(spec, num)
            except IndeterminateForm:
                pass
        bucket = buckets.setdefault((value, (a > b) - (a < b)), [0, []])
        bucket[0] += 1
        if len(bucket[1]) < FAILURE_LIST_CAP:
            bucket[1].append((a, b))
    return buckets


def _factored_exhaustive(spec, s, cap, rng):
    """Exhaustive verification split after input bit s (fold_split).

    The numerator fold reads no bit past s and the denominator fold none up
    to s, so each is folded alone over its own pairs of fields: y[:s] <=
    z[:s] for the numerator, every pair of tails for the denominator.
    Their buckets combine into every pair y <= z.  cap bounds the field
    pairs folded, then the bucket pairs.  A random sample of combined
    verdicts is re-checked against direct forward passes, as is every
    listed failure, which keeps the trace of its re-check.
    """
    m = spec.m
    second = m - s
    expected_total = (1 << (m - 1)) * ((1 << m) + 1)
    work = (1 << s) * ((1 << s) + 1) // 2 + (1 << 2 * second)
    if work > cap:
        raise BudgetExceeded(f"{work} field pairs exceed the cap of {cap}")
    heads = range(1 << s)
    num_buckets = _buckets(spec, ((a, b) for a in heads for b in heads[a:]),
                           s, "", "0" * second, (None, OFF))
    den_buckets = _buckets(spec, product(range(1 << second), repeat=2),
                           second, "0" * s, "", (OFF, None))
    combos = len(num_buckets) * len(den_buckets)
    if combos > cap:
        raise BudgetExceeded(f"{combos} bucket pairs exceed the cap of {cap}")

    total = wrong = saturated = 0
    listed = []
    for (num, rel1), (cnt1, ex1) in num_buckets.items():
        for (den, rel2), (cnt2, ex2) in den_buckets.items():
            if rel1 == 0 and rel2 > 0:
                continue  # would violate y <= z
            expected = int(rel1 == rel2 == 0)
            if num is _NAN or den is _NAN:
                bit, combo_inf = 0, True
            else:
                bit, sa, out = finish_softmax(spec, num, den)
                combo_inf = sa is None or _any_inf(num, den, sa, out)
            count = cnt1 * cnt2
            total += count
            saturated += count * combo_inf
            if bit == expected:
                continue
            wrong += count
            room = FAILURE_LIST_CAP - len(listed)
            for (a, b), (c, d) in islice(product(ex1, ex2), room):
                y = _bits(a, s) + _bits(c, second)
                z = _bits(b, s) + _bits(d, second)
                trace = forward(spec, y, z)
                if trace.bit != bit:
                    raise RuntimeError(
                        "factored and direct evaluation disagree at "
                        f"y={y} z={z}")
                listed.append(Failure(y, z, expected, bit, trace))
    if total != expected_total:
        raise RuntimeError(
            f"factored enumeration covered {total} pairs, expected "
            f"{expected_total}")
    if wrong == 0:
        # The factored pass claims a clean sweep; spot-check random pairs
        # with direct forward evaluation.
        draws = ((_bits(rng.getrandbits(m), m), _bits(rng.getrandbits(m), m))
                 for _ in range(64))
        for f in _eval_pairs(spec, map(sorted, draws)).failures[:1]:
            raise RuntimeError(
                "spot check found a failure the factored pass missed: "
                f"y={f.y} z={f.z}")
    return Tally(total, wrong, tuple(listed), saturated)


def _report(spec, construction: str, mode: str, tally: Tally,
            start: float) -> VerifyReport:
    """A verification report of a tally, failures sorted by (y, z)."""
    t, e = float_fields(spec)
    return VerifyReport(
        construction=construction, m=spec.m, t=t, e=e,
        p=native_precision(spec), mode=mode, total=tally.total,
        failure_count=tally.failure_count,
        failures=tuple(sorted(tally.failures, key=lambda f: (f.y, f.z))),
        seconds=time.monotonic() - start, inf_count=tally.saturated)


def verify_exhaustive_spec(spec: TransformerSpec, promises: PromiseSet,
                           construction: str, jobs: int = 1,
                           cap: int = PAIR_CAP_DEFAULT) -> VerifyReport:
    """Exhaustively verify an already-built (possibly modified) spec,
    factored where fold_split finds a split and pair by pair otherwise."""
    start = time.monotonic()
    s = fold_split(spec, promises)
    if s is None:
        tally = tally_pairs(spec, promise_pairs(promises, spec.m, cap=cap),
                            jobs)
    else:
        rng = random.Random(f"{construction}:{spec.m}:exhaustive")
        tally = _factored_exhaustive(spec, s, cap, rng)
    return _report(spec, construction, "exhaustive", tally, start)


def verify_exhaustive(construction: str, m: int | None = None,
                      t: int | None = None, e: int | None = None,
                      n: int | None = None, precision_delta: int = 0,
                      jobs: int = 1,
                      cap: int = PAIR_CAP_DEFAULT) -> VerifyReport:
    """Check every promise pair of a named construction, optionally with
    every stage format thinned by precision_delta bits."""
    spec, promises = make(construction, m=m, t=t, e=e, n=n)
    spec = precision_delta_spec(spec, precision_delta)
    return verify_exhaustive_spec(spec, promises, construction, jobs, cap)


def _adversarial_pairs(promises, m, rng):
    """Deterministic hard cases: equal pairs plus all single-bit flips of
    64 random base strings, kept only when they satisfy the promise."""
    pairs = []
    for _ in range(64):
        y = _bits(rng.getrandbits(m), m)
        cands = [(y, y)]
        for i in range(m):
            fl = y[:i] + ("1" if y[i] == "0" else "0") + y[i + 1:]
            cands.append((y, fl) if y <= fl else (fl, y))
        for y2, z2 in cands:
            if not promises.check(y2, z2):
                pairs.append((y2, z2))
    return pairs


def verify_sampled(construction: str, m: int | None = None,
                   t: int | None = None, e: int | None = None,
                   n: int | None = None, samples: int = 10 ** 5,
                   seed: int = 0, precision_delta: int = 0,
                   jobs: int = 1) -> VerifyReport:
    """Check uniform promise pairs plus a deterministic adversarial set."""
    spec, promises = make(construction, m=m, t=t, e=e, n=n)
    spec = precision_delta_spec(spec, precision_delta)
    start = time.monotonic()
    rng = random.Random(seed)
    pairs = promise_pairs(promises, spec.m, samples, rng) if samples else []
    pairs += _adversarial_pairs(promises, spec.m, rng)
    return _report(spec, construction, "sampled",
                   tally_pairs(spec, pairs, jobs), start)
