"""Construction verification: promise pairs against the bounded forward pass.

Verification enumerates (or samples) promise-satisfying pairs with the one
pair enumerator, promise_pairs, which the protocol command shares; runs the
bounded-precision forward pass, and compares the answer bit against string
equality.  An exhaustive run factors where the compiled spec allows it:
fold_split derives from the cells which input bits each fold reads, and when
the numerator reads only bits up to some s and the denominator only bits
after it, the verifier buckets each fold's values over its own pairs of
fields, y[:s] <= z[:s] for the numerator and every pair of tails for the
denominator, and combines the buckets by runs: rounding is monotone, so
against one numerator value the quotient is monotone in the denominator,
against one positive denominator in the numerator, and every MLP step in
its input, so each numerator value's runs are seeded from those of the
value below it.  Each fold's buckets come from one pass over the
positions that steps the fold through its step table and counts the pairs
of fields by state, not one by one (the transfer-matrix method: Stanley,
Enumerative Combinatorics I, 4.7): fx-tight m=13 takes about 4,200 states
and 435 divides, not 3.4e7 forward passes.  The cap, PAIR_CAP, bounds the
pairs of fields, not the promise pairs.  Every reported failure is
re-evaluated with a direct forward pass before it is believed.  Every
path, and quantlab's sampled scoring, counts pairs into one Tally.
"""

from __future__ import annotations

import bisect
import random
import time
from itertools import accumulate, islice, product
from operator import or_
from typing import NamedTuple

from .attn import (
    SOFTMAX,
    TransformerSpec,
    finish_softmax,
    fold_reads,
    fold_stepper,
    forward,
    head_class,
    scale_numerator,
    submasks,
    token_cells,
    with_stage_widths,
)
from .bitnum import INF_KINDS, FpFormat, FxFormat, IndeterminateForm
from .constructs import PromiseSet, float_fields, make, native_precision

# The most pairs an exhaustive run takes on: promise pairs pair by pair, or
# the factored verifier's pairs of fields and then of buckets.  Read on
# each call, so a test may set it.
PAIR_CAP = 10 ** 8


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
    if v.is_inf:
        return "inf" if v.sign > 0 else "-inf"
    return str(v.as_fraction())


class Failure(NamedTuple):
    """A pair the head answers wrongly, with the trace it was found with;
    its digest is formatted from the trace only when read."""

    y: str
    z: str
    expected: int
    got: int
    trace: object

    # The trace is a diagnostic: it stays out of ==, hash and repr.
    def __eq__(self, other):
        return type(other) is Failure and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def __repr__(self):
        return (f"Failure(y={self.y!r}, z={self.z!r}, "
                f"expected={self.expected!r}, got={self.got!r})")

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
    up to FAILURE_LIST_CAP failures (tally_pairs lists the first in
    enumeration order; the factored _combine lists them in bucket order,
    not the first by (y, z)), and how many saturated or hit an
    indeterminate form."""

    total: int
    failure_count: int
    failures: tuple
    saturated: int


class VerifyReport(NamedTuple):
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


def _any_inf(num, den, sa, out) -> bool:
    """Whether a stage value, a scalar or None, is infinite: a flat check of
    the four kinds."""
    return (num is not None and num.kind in INF_KINDS
            or den is not None and den.kind in INF_KINDS
            or sa is not None and sa.kind in INF_KINDS
            or out is not None and out.kind in INF_KINDS)


def trace_saturated(trace) -> bool:
    """Whether the run saturated anywhere or hit an indeterminate form."""
    return trace.indeterminate or _any_inf(
        trace.numerator, trace.denominator, trace.sa, trace.output)


def tally_pairs(spec, pairs) -> Tally:
    """Tally each (y, z) pair's forward bit against y == z, counting the
    pairs as it consumes them, so an iterator is never held whole."""
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


def _count_pairs(promises: PromiseSet, m: int) -> int:
    """How many exhaustive promise pairs there are, found without listing
    a string: in closed form when the flags are pair_scoped, else in one
    streamed pass, which is refused past PAIR_CAP when the 2^m strings
    alone exceed it."""
    if promises.pair_scoped:
        s = "0" * m
        if not (promises.y_ok(s) and promises.z_ok(s)):
            return 0
        return (1 << m - 1) * ((1 << m) + 1)
    if 1 << m > PAIR_CAP:
        raise BudgetExceeded(
            f"{1 << m} strings of {m} bits exceed the cap of {PAIR_CAP}")
    ys = zs = below = 0      # below: (y, z) with z < y, both admitted
    for v in range(1 << m):
        s = _bits(v, m)
        if promises.y_ok(s):
            ys += 1
            below += zs
        zs += promises.z_ok(s)
    return ys * zs - below


def promise_pairs(promises: PromiseSet, m: int, count: int | None = None,
                  rng: random.Random | None = None):
    """Promise pairs (y, z) of m-bit strings, y <= z.

    With count None: an iterator over every pair, y ascending, then z
    ascending.  Each promise flag constrains y, z, the length or the order
    alone, so y_ok, z_ok and y <= z are the whole promise.  Pairs are
    counted first (_count_pairs) and BudgetExceeded is raised past
    PAIR_CAP on the call, before any string is listed; they are then made
    one at a time, as they are consumed.  Otherwise: a list of count
    uniform draws from rng, by rejection.  Each draw takes getrandbits(m)
    twice, swaps the two into order and keeps the pair when check passes.
    BudgetExceeded is raised when the promise set is too sparse to
    sample.
    """
    if count is None:
        total = _count_pairs(promises, m)
        if total > PAIR_CAP:
            raise BudgetExceeded(
                f"{total} promise pairs exceed the cap of {PAIR_CAP}")
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
    pair the factored enumeration counts.  Which positions read the bits
    does not matter: each fold's pass (_buckets) branches on any field bit
    at any position.
    """
    if spec.attention_kind != SOFTMAX or not promises.pair_scoped:
        return None
    num, den = fold_reads(spec)
    if not num:
        return None
    s = max(num)
    return s if s < min(den, default=spec.m) else None


def _buckets(spec, which, s):
    """The numerator's (which 0) or denominator's (which 1) value over
    every pair (a, b) of its fields, with the input split after bit s
    (fold_split) and the other bits 0: y[:s] and z[:s] with a <= b for the
    numerator, every y[s:] and z[s:] for the denominator.  Bucketed by
    (value, order of a against b): count and the first listed pairs, in the
    order of each bucket's first pair.

    The value (the scaled numerator or the denominator, _NAN on an
    indeterminate form) is folded in one pass over the positions that
    counts the paths a << width | b by state: the fold (its step-table
    node, or _NAN once a step raised IndeterminateForm, the one error a
    fold step can raise), the order once a compared bit differs, and the
    bits a later position reads or, while the order is open, not yet
    compared.  A position branches on the bits it reads first (the last
    also on those none reads).  Equal states merge, keeping their
    FAILURE_LIST_CAP smallest paths (unread bits 0), so each bucket lists
    the pairs one whole fold per pair, in (a, b) order, would.  A fold
    walks nodes from its table's root and merges on the node's value code,
    so states reached after a step table cleared still merge."""
    rest = "0" * (spec.m - s)
    lead, width, trail = ("0" * s, len(rest), "") if which else ("", s, rest)
    low = (1 << width) - 1
    step, root = fold_stepper(spec, which)
    masks = [sum({1 << width - i + len(lead) + width * (name == "y")
                  for name, i in rule.source if 0 < i - len(lead) <= width})
             for rule in spec.embedding]        # the field bits each reads
    cells = [{code: token_cells(spec, *(lead + _bits(v, width) + trail for v
                                        in (code >> width, code & low)))[j]
              for code in submasks(mask)} for j, mask in enumerate(masks)]
    after = list(accumulate(reversed(masks), or_, initial=0))[::-1]
    known = c = 0                       # bits read; a, b read below bit c
    states = {(None, None, 0): [root, None, 0, 1, [0]]}
    for j, mask in enumerate(masks):    # the last also reads what none does
        new = mask & ~known | (~after[0] & (low << width | low)
                               if j == len(masks) - 1 else 0)
        known |= new                # a and b both read at each index < c:
        was, c = c, width - (~(known & known >> width) & low).bit_length()
        compare = low >> was & ~(low >> c)      # b's bits was..c-1
        keep_open = after[j + 1] | known & (low >> c) * (low + 2)
        nxt, adds = {}, submasks(new)
        for fold_, order, needed, count, paths in states.values():
            for add in adds:
                code, f = needed | add, fold_
                a, b = code >> width & compare, code & compare
                o = order if order is not None or a == b else (a > b) - (a < b)
                if which == 0 and o == 1:     # the numerator's a <= b
                    continue
                if type(f) is tuple:          # a live fold: its node
                    try:
                        f = step(f, cells[j][code & mask])
                    except IndeterminateForm:
                        f = _NAN
                code &= keep_open if o is None else after[j + 1]
                moved = [p | add for p in paths] if add else paths
                key = f[1] if type(f) is tuple else f, o, code
                entry = nxt.get(key)
                if entry is None:
                    nxt[key] = [f, o, code, count, moved]
                else:
                    entry[3] += count
                    entry[4] = sorted(entry[4] + moved)[:FAILURE_LIST_CAP]
        states = nxt
    buckets = {}
    for f, o, _, count, paths in sorted(states.values(),
                                        key=lambda e: e[4][0]):
        if type(f) is tuple:
            f = scale_numerator(spec, f[0]) if which == 0 else f[0]
        bucket = buckets.setdefault((f, o or 0), [0, []])
        bucket[0] += count
        bucket[1] = sorted(bucket[1] + [divmod(p, 1 << width)
                                        for p in paths])[:FAILURE_LIST_CAP]
    return buckets


def _runs(spec, num, dens, npos, seeds):
    """Runs (i, j, bit, saturated) that cover dens once, each sharing its
    class against num.  dens[:npos], finite, positive and ascending, are
    split from the left: a run from i tries the first seed end g >= i
    (seeds ascending, ending at npos - 1), and while head_class certifies
    dens[i..g]'s end quotients in dens[i]'s class it gallops right, then
    bisects back to the last end that certifies; a seed that does not
    certify is bisected down from."""
    ends = {}

    def end(k):                 # (bit, saturated, sa) at dens[k]
        if k not in ends:
            den = dens[k]
            bit, sa, out = (0, None, None) if num is _NAN or den is _NAN \
                else finish_softmax(spec, num, den)
            ends[k] = bit, sa is None or _any_inf(num, den, sa, out), sa
        return ends[k]

    def fits(i, j):             # dens[i..j] certified in dens[i]'s class
        lo, hi = end(i)[2], end(j)[2]
        if num.sign > 0:        # the quotient falls as den rises
            lo, hi = hi, lo
        return i == j or lo is not None and hi is not None \
            and head_class(spec, lo, hi) == end(i)[:2]

    finite = num is not _NAN and num.is_finite
    runs, i = [], 0
    while finite and i < npos:
        g = seeds[bisect.bisect_left(seeds, i)]
        lo, hi, step = (g, npos, 1) if fits(i, g) else (i, g, 0)
        while step and lo < npos - 1:       # gallop right from the seed
            k = min(lo + step, npos - 1)
            lo, hi, step = (k, hi, 2 * step) if fits(i, k) else (lo, k, 0)
        while hi - lo > 1:      # lo certifies, hi does not
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(i, mid) else (lo, mid)
        runs.append((i, lo, *end(i)[:2]))
        i = lo + 1
    return runs + [(k, k, *end(k)[:2])
                   for k in range(npos if finite else 0, len(dens))]


def _combine(spec, num_buckets, den_buckets, s) -> Tally:
    """Every pair y <= z the buckets make, each numerator value's runs
    counted from prefix sums over the distinct denominator values; the
    first failures listed in bucket order and re-checked with forward.
    Finite numerator values are visited in sorted order, each sign apart,
    each row's runs (_runs) seeded from the run ends of the row before."""
    counts = {}
    for (den, rel2), (cnt, _) in den_buckets.items():
        counts.setdefault(den, {-1: 0, 0: 0, 1: 0})[rel2] += cnt
    pos = sorted((v for v in counts if v is not _NAN and v.is_finite
                  and v.sig and v.sign > 0), key=lambda v: v.as_fraction())
    known = set(pos)
    dens = pos + [v for v in counts if v not in known]
    prefix = {r: list(accumulate((counts[v][r] for v in dens), initial=0))
              for r in (-1, 0, 1)}
    rows = dict.fromkeys(v for v, _ in num_buckets
                         if v is not _NAN and v.is_finite)
    npos, last, classed = len(pos), None, {}
    for num in sorted(rows, key=lambda v: v.as_fraction()):
        neg = num.as_fraction() < 0     # each sign's rows seeded in turn
        if neg != last:
            seeds, last = [npos - 1], neg
        classed[num] = runs = _runs(spec, num, dens, npos, seeds)
        seeds = [j for _, j, _, _ in runs if j < npos]
    total = wrong = saturated = 0
    listed = []
    for (num, rel1), (cnt1, ex1) in num_buckets.items():
        if num not in classed:      # NaN and infinite: runs of one
            classed[num] = _runs(spec, num, dens, npos, ())
        # the expected bit at each order of the tails that keeps y <= z
        verdicts = {-1: 0, 0: 1} if rel1 == 0 else {-1: 0, 0: 0, 1: 0}
        bad = 0
        for i, j, bit, sat in classed[num]:
            for rel2, expected in verdicts.items():
                cum = prefix[rel2]
                n = cnt1 * (cum[j + 1] - cum[i])
                total += n
                saturated += n * sat
                bad += n * (bit != expected)
        wrong += bad
        if not bad or len(listed) == FAILURE_LIST_CAP:
            continue
        bits = {dens[k]: bit for i, j, bit, _ in classed[num]
                for k in range(i, j + 1)}
        for (den, rel2), (_, ex2) in den_buckets.items():
            bit, expected = bits[den], verdicts.get(rel2)
            if expected is None or bit == expected:
                continue
            room = FAILURE_LIST_CAP - len(listed)
            for (a, b), (c, d) in islice(product(ex1, ex2), room):
                y = _bits(a, s) + _bits(c, spec.m - s)
                z = _bits(b, s) + _bits(d, spec.m - s)
                trace = forward(spec, y, z)
                if trace.bit != bit:
                    raise RuntimeError(
                        "factored and direct evaluation disagree at "
                        f"y={y} z={z}")
                listed.append(Failure(y, z, expected, bit, trace))
    return Tally(total, wrong, tuple(listed), saturated)


def _factored_exhaustive(spec, s, rng, expected_total):
    """Exhaustive verification split after input bit s (fold_split),
    which must cover expected_total pairs (_count_pairs).

    The numerator fold reads no bit past s and the denominator fold none up
    to s, so each is folded alone over its own pairs of fields: y[:s] <=
    z[:s] for the numerator, every pair of tails for the denominator.
    Their buckets combine into every pair y <= z by monotone runs
    (_combine): each row's runs of sorted denominators are seeded from the
    run ends of the numerator value below, each run whose end quotients
    attn.head_class certifies is counted at once, and NaN, zero, infinite
    and negative denominators and non-finite numerators are runs of one.
    PAIR_CAP bounds the pairs of fields, though the passes (_buckets) visit
    far fewer states, then the bucket pairs.  A random sample of combined
    verdicts is re-checked against direct forward passes, as is every
    listed failure, which keeps the trace of its re-check.
    """
    m = spec.m
    second = m - s
    work = (1 << s) * ((1 << s) + 1) // 2 + (1 << 2 * second)
    if work > PAIR_CAP:
        raise BudgetExceeded(
            f"{work} field pairs exceed the cap of {PAIR_CAP}")
    num_buckets, den_buckets = _buckets(spec, 0, s), _buckets(spec, 1, s)
    combos = len(num_buckets) * len(den_buckets)
    if combos > PAIR_CAP:
        raise BudgetExceeded(
            f"{combos} bucket pairs exceed the cap of {PAIR_CAP}")

    tally = _combine(spec, num_buckets, den_buckets, s)
    if tally.total != expected_total:
        raise RuntimeError(
            f"factored enumeration covered {tally.total} pairs, expected "
            f"{expected_total}")
    if tally.failure_count == 0:
        # The factored pass claims a clean sweep; spot-check random pairs
        # with direct forward evaluation.
        draws = ((_bits(rng.getrandbits(m), m), _bits(rng.getrandbits(m), m))
                 for _ in range(64))
        for f in tally_pairs(spec, map(sorted, draws)).failures[:1]:
            raise RuntimeError(
                "spot check found a failure the factored pass missed: "
                f"y={f.y} z={f.z}")
    return tally


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
                           construction: str) -> VerifyReport:
    """Exhaustively verify an already-built (possibly modified) spec,
    factored where fold_split finds a split and pair by pair otherwise."""
    start = time.monotonic()
    s = fold_split(spec, promises)
    if s is None:
        tally = tally_pairs(spec, promise_pairs(promises, spec.m))
    else:
        rng = random.Random(f"{construction}:{spec.m}:exhaustive")
        tally = _factored_exhaustive(spec, s, rng,
                                     _count_pairs(promises, spec.m))
    return _report(spec, construction, "exhaustive", tally, start)


def verify_exhaustive(construction: str, m: int | None = None,
                      t: int | None = None, e: int | None = None,
                      n: int | None = None,
                      precision_delta: int = 0) -> VerifyReport:
    """Check every promise pair of a named construction, optionally with
    every stage format thinned by precision_delta bits."""
    spec, promises = make(construction, m=m, t=t, e=e, n=n)
    spec = precision_delta_spec(spec, precision_delta)
    return verify_exhaustive_spec(spec, promises, construction)


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
                   seed: int = 0, precision_delta: int = 0) -> VerifyReport:
    """Check uniform promise pairs plus a deterministic adversarial set."""
    spec, promises = make(construction, m=m, t=t, e=e, n=n)
    spec = precision_delta_spec(spec, precision_delta)
    start = time.monotonic()
    rng = random.Random(seed)
    pairs = promise_pairs(promises, spec.m, samples, rng) if samples else []
    pairs += _adversarial_pairs(promises, spec.m, rng)
    return _report(spec, construction, "sampled",
                   tally_pairs(spec, pairs), start)
