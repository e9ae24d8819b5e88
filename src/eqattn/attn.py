"""Single-head attention pipeline over the exact scalar kernels.

The query/key stage is lossless: logits are carried as exact dyadic
coefficients of ln 2, so exponentiation is an exact power of two.  Bounded
precision enters exactly where the stage formats say it does: the numerator
is a left fold of the rounded products A_j * value_j in the fold format
(scaled so the trailing multiplication by W^V lands in the numerator
format), the denominator is a left fold of the exact A_j with rounding after
every addition, the division rounds once into the output format, and the MLP
runs entirely in the output format.

The query row is constant and logits are exact, so all a token row feeds
into the folds depends only on the row's contents, not on its position.  A
spec compiles, on first use, one cell per distinct row value, built from one
token_logits call, and a map per position from the input bits it reads to
its cell, so token_cells and forward take the pair (y, z) and read each
position's cell with one lookup.  One resumable kernel, fold, runs both
folds over any range of positions from any (numerator, denominator) state:
forward is one fold plus the divide and the MLP; the factored verifier, each
fold alone over the bits fold_reads finds it reading, and the one-way
protocol cut it at Alice's prefix (alice_len) and resume it for Bob.

A fold's state at any boundary is one value of its bounded format, so each
fold step is a small finite map (state, term) -> next state.  A compiled
spec interns one canonical scalar per full representation of each fold
format (inexact flag and sign of zero included) and memoises that map in a
step table; the memo is exact because the bounded add reads only its
operands' representations.  Two or more constant positions in a row add
the same cells on every input, so they are one entry of the same table,
keyed on (state, run).  The tables are cleared once they reach a fixed
size, so a wide format, whose states rarely repeat, keeps bounded memory.

The tail after the folds is memoised the same way, in smaller tables.  The
W^V scale (and a linear head's attention output) is kept per numerator fold
value, and the MLP (with its answer bit) per full representation of the
attention output sa, since the MLP reads nothing else; many pairs share one
sa.  The divide is not memoised: its (num, den) pairs rarely repeat.  No
error is ever stored, so an indeterminate form is raised on every visit.
forward records no per-token list: its trace refolds them when they are
first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby, product
from operator import itemgetter
from typing import NamedTuple

from .bitnum import (
    FpFormat,
    FpNum,
    FxFormat,
    FxNum,
    IndeterminateForm,
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
)

SOFTMAX = "softmax"
LINEAR = "linear"


class StageError(RuntimeError):
    """An arithmetic error annotated with the pipeline stage that raised it."""

    def __init__(self, stage: str, token: int | None, original: Exception):
        where = stage if token is None else f"{stage}[token {token}]"
        super().__init__(f"{where}: {original}")
        self.stage = stage
        self.token = token
        self.original = original


def _ops(fmt):
    if isinstance(fmt, FxFormat):
        return fx_add, fx_mul, fx_div, fx_round, FxNum
    return fp_add, fp_mul, fp_div, fp_round, FpNum


@dataclass(frozen=True)
class TokenRule:
    """Embedding rule for one position.

    source is a tuple of ("y" or "z", index) references naming the 1-based
    input bits this token carries; it is empty for constant positions.  rows
    holds one row per bit pattern, indexed by the pattern read as a binary
    number with the first reference as the most significant bit.  Rows are
    (marker, key, value) with exact dyadic entries; a key of None is the
    minus-large-constant sentinel whose attention weight is exactly zero.
    """

    source: tuple
    rows: tuple


@dataclass(frozen=True)
class MlpSpec:
    """Two hidden relu units and one relu output, all exact dyadics."""

    w1: tuple
    b1: tuple
    w2: tuple
    b2: Fraction


@dataclass
class TransformerSpec:
    m: int
    n: int
    attention_kind: str
    fold_fmt: FxFormat | FpFormat
    num_fmt: FxFormat | FpFormat
    den_fmt: FxFormat | FpFormat
    out_fmt: FxFormat | FpFormat
    embedding: list
    wq: tuple
    wk: tuple
    wv: tuple
    mlp: MlpSpec
    index_base: int = 0

    @property
    def d(self) -> int:
        return 3

    @property
    def formats(self) -> dict:
        return {"fold": self.fold_fmt, "num": self.num_fmt,
                "den": self.den_fmt, "out": self.out_fmt}

    def validate(self):
        if len(self.embedding) != self.n + 1:
            raise ValueError(f"embedding has {len(self.embedding)} positions, "
                             f"expected n+1 = {self.n + 1}")
        for rule in self.embedding:
            if len(rule.rows) != 1 << len(rule.source):
                raise ValueError(
                    f"rule with {len(rule.source)} source bits needs "
                    f"{1 << len(rule.source)} rows, got {len(rule.rows)}")
            for name, idx in rule.source:
                if name not in ("y", "z") or not 1 <= idx <= self.m:
                    raise ValueError(f"bad bit reference ({name!r}, {idx})")
            for row in rule.rows:
                if len(row) != self.d:
                    raise ValueError("embedding rows must have 3 coordinates")
        if self.attention_kind not in (SOFTMAX, LINEAR):
            raise ValueError(f"unknown attention kind {self.attention_kind}")
        if sum(1 for c in self.wv if c) != 1:
            raise ValueError("wv must select exactly one coordinate")
        fx_like = isinstance(self.num_fmt, FxFormat)
        for f in (self.fold_fmt, self.den_fmt, self.out_fmt):
            if isinstance(f, FxFormat) != fx_like:
                raise ValueError("stage formats must agree on fx/fp kind")
        if fx_like and self.num_fmt.p != self.den_fmt.p:
            raise ValueError("num and den formats may differ only in scale")
        return self

    def encode(self, y: str, z: str):
        """Token rows (exact dyadics) for an input pair, query row last.

        Each position looks its row up by the bits its getter reads from
        y + z, so the rows are the spec's own objects.  A character other
        than 0 or 1 misses the lookup and raises ValueError.
        """
        if len(y) != self.m or len(z) != self.m:
            raise ValueError(f"inputs must have m = {self.m} bits")
        comp = self._compiled
        bits = y + z
        try:
            if not (comp.unread and bits.strip("01")):
                return [rows[get(bits)] for get, rows in comp.encoders]
        except KeyError:
            pass
        raise ValueError(f"inputs must be bit strings, got {y!r}, {z!r}")

    def value_column(self) -> tuple[int, Fraction]:
        k = next(i for i, c in enumerate(self.wv) if c)
        return k, self.wv[k]

    # The compiled kernel is built on first use and lives in __dict__
    # beside the fields, outside __eq__ and repr.  Assigning any attribute
    # drops it, and so does pickling: the fold steps are keyed by object
    # identity, which a copy in another process does not share.
    @cached_property
    def _compiled(self) -> "_Compiled":
        return _Compiled(self)

    def __setattr__(self, name, value):
        self.__dict__.pop("_compiled", None)
        object.__setattr__(self, name, value)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


def with_stage_widths(spec: TransformerSpec, widths: dict) -> TransformerSpec:
    """The spec with each stage of spec.formats at the width of widths[stage]:
    p of an FxFormat, t and e of an FpFormat.  A stage keeps its rounding,
    and its scale while it stays fixed point.  Weights are untouched."""
    def stage(old, new):
        if isinstance(new, FxFormat):
            scale = old.scale_log2 if isinstance(old, FxFormat) else 0
            return FxFormat(new.p, scale, old.rounding)
        return FpFormat(new.t, new.e, old.rounding)

    return replace(spec, **{f"{name}_fmt": stage(old, widths[name])
                            for name, old in spec.formats.items()})


# The per-token lists a trace from forward fills on first read.
_REFOLDED = ("logits", "weights", "num_terms", "num_partials", "den_partials")


@dataclass
class EvalTrace:
    """Everything the pipeline computed, token by token.

    forward keeps the spec and cells and leaves the lists of _REFOLDED
    unset; the first read of any fills all five by refolding the cells one
    position at a time, up to where an indeterminate form stopped the pass.
    A trace built with its lists holds them as given.
    """

    logits: list
    weights: list
    num_terms: list = field(default_factory=list)
    num_partials: list = field(default_factory=list)
    den_partials: list = field(default_factory=list)
    numerator: object = None
    denominator: object = None
    sa: object = None
    hidden: list = field(default_factory=list)
    output: object = None
    bit: int | None = None
    index_base: int = 0
    indeterminate: bool = False
    spec: object = field(default=None, repr=False, compare=False)
    cells: list | None = field(default=None, repr=False, compare=False)

    def __getattr__(self, name):
        if name not in _REFOLDED or self.cells is None:
            raise AttributeError(name)
        spec, cells, partials = self.spec, self.cells, ([], [])
        den = self.numerator is not None and spec.attention_kind == SOFTMAX
        try:
            for i, state in enumerate([(None, OFF), (OFF, None)][:1 + den]):
                for j in range(len(cells)):
                    state = fold(spec, state, j, j + 1, cells)
                    partials[i].append(state[i])
        except IndeterminateForm:
            pass
        vars(self).update(
            logits=[c.logit for c in cells], weights=[c.weight for c in cells],
            num_terms=[c.num_term for c in cells[:len(partials[0])]],
            num_partials=partials[0], den_partials=partials[1])
        return vars(self)[name]

    def render_lines(self):
        def enc(v):
            return "." if v is None else encode_scalar(v)

        lines = []
        for j, (lg, w) in enumerate(zip(self.logits, self.weights)):
            coeff = "-N" if lg is None else str(lg)
            term = self.num_terms[j] if j < len(self.num_terms) else None
            np_ = self.num_partials[j] if j < len(self.num_partials) else None
            dp = self.den_partials[j] if j < len(self.den_partials) else None
            lines.append(
                f"token {self.index_base + j}: logit={coeff} weight={w} "
                f"num+={enc(term)} num={enc(np_)} den={enc(dp)}")
        lines.append(f"numerator: {enc(self.numerator)}")
        if self.denominator is not None:
            lines.append(f"denominator: {enc(self.denominator)}")
        sa = "indeterminate" if self.indeterminate else enc(self.sa)
        lines.append(f"attention output: {sa}")
        lines.append("mlp hidden: " + ", ".join(enc(h) for h in self.hidden))
        lines.append(f"mlp output: {enc(self.output)} -> bit {self.bit}")
        return lines


def _dot(row, coeffs):
    """Exact dot product; None entries are the neg-large sentinel."""
    acc = Fraction(0)
    for v, c in zip(row, coeffs):
        if c == 0:
            continue
        if v is None:
            return None
        acc += Fraction(v) * c
    return acc


def token_logits(spec: TransformerSpec, x) -> list[Fraction | None]:
    """Exact logits <Q_query, K_j> as coefficients of ln 2; None for a key
    row's sentinel, the "minus large constant" logit."""
    qc = _dot(x[-1], spec.wq)
    if qc is None:
        raise ValueError("query row has a sentinel in a selected coordinate")
    out = []
    for row in x:
        key = _dot(row, spec.wk)
        out.append(None if key is None else qc * key)
    return out


class Cell(NamedTuple):
    """One token row's share of the folds, at any position.  num_term is the
    weight times value rounded into fold_fmt, or the ArithmeticError that
    rounding raised, for the fold to raise on reaching it.  den_first opens
    a denominator fold; den_term is the exact weight later steps add."""

    logit: Fraction | None
    weight: Fraction
    num_term: object
    den_first: object
    den_term: object


def _rep(v):
    """A scalar's full representation.  Unlike ==, it tells an inexact
    value from an exact one and -0 from +0."""
    return v.kind, v.sign, v.sig, v.exp2, v.inexact


# The most entries (steps, runs and interned values) one fold format's tables
# hold.  The largest table of the benchmark workloads, fp-linear (4,4), holds
# about 8,400.  A wide format, where few states repeat, clears its tables each
# time they fill, so memory stays bounded however long the run.  Each table
# of the tail (scale, MLP) holds at most TAIL_LIMIT: an MLP entry costs about
# 600 bytes, and no benchmark command's tail table exceeds 542 entries.
STEP_LIMIT = 1 << 14
TAIL_LIMIT = 1 << 12


class _Steps:
    """One fold's intern table (values) and step table (steps).

    steps keys a step on (id(state), id(term)) and a constant run of
    positions a..b-1 on (id(state), a, b), of canonical objects only, which
    values keeps alive, so no id is reused while it is a key.  Both tables
    are cleared together once they hold STEP_LIMIT entries.  A state of
    None opens the fold.  Folds and traces share the canonical objects, so
    none may be mutated.
    """

    def __init__(self, fmt):
        self.fmt = fmt
        self.add = _ops(fmt)[0]
        self.values = {}
        self.steps = {}

    def intern(self, v):
        return v if v is None else self.values.setdefault(_rep(v), v)

    def _make_room(self):
        if len(self.steps) + len(self.values) >= STEP_LIMIT:
            self.steps.clear()
            self.values.clear()

    def end_run(self, state, a, b, nxt):
        """Store and return nxt, walked from state over the constant run
        a..b-1; both are interned after any clear."""
        self._make_room()
        nxt = self.steps[id(self.intern(state)), a, b] = self.intern(nxt)
        return nxt

    def step(self, state, term, first):
        """The miss path: first is the value a fold opens with at term.
        state and term are interned here, after any clear.  A raised error
        is never stored."""
        if isinstance(term, ArithmeticError):
            raise term
        self._make_room()
        state, term = self.intern(state), self.intern(term)
        key = (id(state), id(term))
        nxt = self.steps.get(key)
        if nxt is None:
            nxt = self.intern(first if state is None
                              else self.add(state, term, self.fmt))
            self.steps[key] = nxt
        return nxt


def _row_lookup(rule: TokenRule, m: int):
    """A position's getter over y + z and the map from what it reads to
    the rule's row.  One source bit reads a character, several read a
    tuple of them, the first reference most significant; a constant
    position reads the empty string."""
    idx = [i - 1 if name == "y" else m + i - 1 for name, i in rule.source]
    if not idx:
        return itemgetter(slice(0, 0)), {"": rule.rows[0]}
    keys = list(product("01", repeat=len(idx)))
    if len(idx) == 1:
        keys = [k for (k,) in keys]
    return itemgetter(*idx), dict(zip(keys, rule.rows))


class _Compiled:
    """A spec's compiled cells; the step tables of its two folds; the memo
    tables of the tail (scaled keyed by the numerator fold value's id, mlps
    by the attention output's full representation); and its constants held
    in their stage formats: W^V's scale and the MLP.

    built maps each distinct row value of the embedding to its cell under
    the constant query row, or to the error building that cell raised;
    without a constant query row it is empty.  encoders holds each
    position's getter over y + z and its map from the bits read to the
    rule's row; lookups holds the same getter and a map from the bits read
    to the row's cell, for the cells a fold can use: not those whose build
    raised or whose num_term is an error, which are built afresh each time.
    consts holds each constant position's cell in lookups, else None.
    """

    def __init__(self, spec: TransformerSpec):
        last = spec.embedding[-1]
        self.query = None if last.source else last.rows[0]
        self.num = _Steps(spec.fold_fmt)
        self.den = _Steps(spec.den_fmt)
        self.scaled = {}
        self.mlps = {}
        self.encoders = [_row_lookup(rule, spec.m) for rule in spec.embedding]
        read = {ref for rule in spec.embedding for ref in rule.source}
        self.unread = len(read) < 2 * spec.m
        self.col, scale = spec.value_column()
        self.scale = hold_exact(scale, spec.num_fmt)
        self.mlp = _hold_mlp(spec.mlp, spec.out_fmt)
        self.built = self._build(spec)
        usable = {row: cell for row, cell in self.built.items()
                  if isinstance(cell, Cell)
                  and not isinstance(cell.num_term, ArithmeticError)}
        self.lookups = [(get, {bits: usable[row] for bits, row in rows.items()
                               if row in usable})
                        for get, rows in self.encoders]
        self.consts = [cells.get("") for _, cells in self.lookups]
        self.plans = {}

    def plan(self, lo: int, hi: int) -> list:
        """Positions lo..hi-1 as segments (a, b, run), memoised: run is
        true when a..b-1 are two or more consts in a row."""
        segments = []
        for const, group in groupby(range(lo, hi),
                                    lambda j: self.consts[j] is not None):
            positions = list(group)
            segments.append((positions[0], positions[-1] + 1,
                             const and len(positions) > 1))
        self.plans[lo, hi] = segments
        return segments

    def _build(self, spec):
        """One token_logits call and one cell per distinct row value."""
        if self.query is None:
            return {}
        distinct = list(dict.fromkeys(
            row for rule in spec.embedding for row in rule.rows))
        try:
            logits = token_logits(spec, distinct + [self.query])
        except ValueError as exc:       # a sentinel in the query row
            return dict.fromkeys(distinct, exc)
        built = {}
        for row, logit in zip(distinct, logits):
            try:
                built[row] = _make_cell(spec, self, row, logit)
            except ValueError as exc:   # a logit exp_logit_exact refuses
                built[row] = exc
        return built


def _make_cell(spec: TransformerSpec, comp: _Compiled, row,
               logit: Fraction | None) -> Cell:
    round_ = _ops(spec.fold_fmt)[3]
    w = exp_logit_exact(logit)
    try:
        term = comp.num.intern(
            round_(w * Fraction(row[comp.col] or 0), spec.fold_fmt))
    except ArithmeticError as exc:
        term = exc
    return Cell(logit, w, term, comp.den.intern(round_(w, spec.den_fmt)),
                comp.den.intern(hold_exact(w, spec.den_fmt)))


def token_cells(spec: TransformerSpec, y: str, z: str) -> list[Cell]:
    """The cell of every position for the input pair, query row last.

    Each position reads its cell from the compiled lookups by the bits it
    reads of y + z.  On a miss (a query row that reads input bits, a row
    whose cell raised or whose num_term is an error, or input encode
    refuses) every cell is built uncached from encode's rows: their logits
    are computed once and every cell is built, in position order, before
    folding starts, so an error is raised at the first position that
    reaches it.
    """
    comp = spec._compiled
    bits = y + z
    try:
        if len(y) == spec.m == len(z) and \
                not (comp.unread and bits.strip("01")):
            return [cells[get(bits)] for get, cells in comp.lookups]
    except KeyError:
        pass
    x = spec.encode(y, z)
    return [_make_cell(spec, comp, row, logit)
            for row, logit in zip(x, token_logits(spec, x))]


def fold_reads(spec: TransformerSpec) -> tuple[set, set]:
    """The input bits each fold reads: (numerator bits, denominator bits),
    as 1-based indices counted for y and z alike.

    A position's source bits count for a fold when that fold's term
    differs, by full representation, between the compiled cells of its
    rule's rows; an error term differs from every other term, itself on
    another row included.  A query row that reads input bits, or a row
    whose cell could not be built, puts every bit in both sets.
    """
    comp = spec._compiled
    every = set(range(1, spec.m + 1))
    if comp.query is None or \
            not all(isinstance(cell, Cell) for cell in comp.built.values()):
        return every, set(every)

    def varies(terms):
        return len({i if isinstance(t, ArithmeticError) else _rep(t)
                    for i, t in enumerate(terms)}) > 1

    num, den = set(), set()
    for rule in spec.embedding:
        mine = [comp.built[row] for row in rule.rows]
        bits = {idx for _, idx in rule.source}
        if varies([c.num_term for c in mine]):
            num |= bits
        if varies([c.den_term for c in mine]):
            den |= bits
    return num, den


def alice_len(spec: TransformerSpec) -> int:
    """The protocol prefix: how many leading positions read no z bit, so
    Alice can fold them from y alone."""
    return next((j for j, rule in enumerate(spec.embedding)
                 if any(name == "z" for name, _ in rule.source)),
                len(spec.embedding))


OFF = "off"
# Per fold: the stage a StageError names, and the indices in Cell of the term
# each step adds (num_term, den_term) and of the value it opens with.
_FOLDS = (("numerator", 2, 2), ("denominator", 4, 3))


def fold(spec: TransformerSpec, state, lo: int, hi: int, cells):
    """Resume the bounded left folds over the cells of positions lo..hi-1.

    state is (num, den): the numerator fold (in the fold format, before the
    W^V scale) and the denominator fold so far, each None before its first
    term.  A fold given as OFF stays OFF and is skipped.  The numerator runs
    over the whole range before the denominator starts.  Returns the new
    (num, den) and records nothing else.  IndeterminateForm propagates;
    other arithmetic errors are raised as a StageError naming the fold and
    the token.

    Each fold walks its step table: the incoming state is interned once,
    then each position is one dict lookup on the canonical state and the
    cell's canonical term, and fx_add / fp_add runs only on a miss.  This is
    exact because a bounded add's result, its inexact flag included, depends
    only on the two operands' representations.  Two or more constant
    positions in a row within lo..hi are one lookup on (state, run); a miss
    walks them one by one and stores the end.  This is exact for cells from
    token_cells: a constant position holds its compiled cell, or one built
    afresh from the same row, whose terms have the same representations.
    An indeterminate form is never stored, so it is raised on every visit.
    A table cleared at its size limit only turns later steps back into
    misses.
    """
    comp = spec._compiled
    plan = comp.plans.get((lo, hi)) or comp.plan(lo, hi)
    out = []
    for s, table, (stage, t, f) in zip(state, (comp.num, comp.den), _FOLDS):
        if s is not OFF:
            get = table.steps.get
            s = table.intern(s)
            j = lo
            try:
                for a, b, run in plan:
                    if run:
                        start, hit = s, get((id(s), a, b))
                        if hit is not None:
                            s = hit
                            continue
                    for j in range(a, b):
                        term = cells[j][t]
                        nxt = get((id(s), id(term)))
                        s = table.step(s, term, cells[j][f]) \
                            if nxt is None else nxt
                    if run:
                        s = table.end_run(start, a, b, s)
            except IndeterminateForm:
                raise
            except ArithmeticError as exc:
                raise StageError(stage, spec.index_base + j, exc) from exc
        out.append(s)
    return tuple(out)


def _store(table: dict, key, value):
    """table[key] = value, clearing a table that holds TAIL_LIMIT entries
    first.  Callers store only what was computed, never an error."""
    if len(table) >= TAIL_LIMIT:
        table.clear()
    table[key] = value
    return value


def _scaled(spec: TransformerSpec, num):
    """(num, num times W^V rounded into num_fmt, and for a linear head the
    attention output), memoised on id(num): the entry holds num, so the id
    stays unique while it is a key.  Folds return canonical values, so
    repeats hit."""
    comp = spec._compiled
    hit = comp.scaled.get(id(num))
    if hit is None:
        scaled = _ops(spec.num_fmt)[1](num, comp.scale, spec.num_fmt)
        sa = _attend(spec, scaled, None) \
            if spec.attention_kind == LINEAR else None
        hit = _store(comp.scaled, id(num), (num, scaled, sa))
    return hit


def scale_numerator(spec: TransformerSpec, num):
    """The finished numerator fold times W^V, rounded into num_fmt."""
    return _scaled(spec, num)[1]


def linear_output(spec: TransformerSpec, num):
    """A linear head's attention output from its finished numerator fold:
    the scaled numerator, rounded into out_fmt."""
    return _scaled(spec, num)[2]


def relu(v):
    if v.is_inf:
        return v if v.sign > 0 else type(v).zero(v.fmt)
    if v.sign < 0 and not v.is_zero:
        return type(v).zero(v.fmt)
    return v


def _hold_mlp(mlp: MlpSpec, fmt):
    """The head's (w1, b1, w2, b2) held exactly in fmt."""
    return (tuple(hold_exact(w, fmt) for w in mlp.w1),
            tuple(hold_exact(b, fmt) for b in mlp.b1),
            tuple(hold_exact(w, fmt) for w in mlp.w2),
            hold_exact(mlp.b2, fmt))


def mlp_eval(mlp: MlpSpec, v, fmt, held=None):
    """Run the output head in fmt; returns (output, hidden pair).

    held is the head's weights already held in fmt, as a compiled spec
    keeps them; without it they are wrapped here.
    """
    add, mul, _, _, _ = _ops(fmt)
    w1, b1, w2, b2 = held or _hold_mlp(mlp, fmt)
    hidden = []
    for w, b in zip(w1, b1):
        u = mul(v, w, fmt)
        u = add(u, b, fmt)
        hidden.append(relu(u))
    acc = None
    for h, w in zip(hidden, w2):
        term = mul(h, w, fmt)
        acc = term if acc is None else add(acc, term, fmt)
    acc = add(acc, b2, fmt)
    return relu(acc), hidden


def _accept_bit(out) -> int:
    return int(out.is_finite and out.as_fraction() == 1)


def _head(spec: TransformerSpec, sa):
    """(output, hidden units as a tuple, answer bit) of the MLP at sa,
    memoised on sa's full representation: mlp_eval reads nothing else."""
    comp = spec._compiled
    key = _rep(sa)
    hit = comp.mlps.get(key)
    if hit is None:
        out, hidden = mlp_eval(spec.mlp, sa, spec.out_fmt, comp.mlp)
        hit = _store(comp.mlps, key, (out, tuple(hidden), _accept_bit(out)))
    return hit


def _attend(spec: TransformerSpec, num, den):
    """The attention output in out_fmt: num / den, or for a linear head
    (den None) the scaled numerator itself."""
    _, _, div, round_, num_cls = _ops(spec.out_fmt)
    if den is not None:
        return div(num, den, spec.out_fmt)
    if num.is_finite:
        return round_(num, spec.out_fmt)
    return num_cls.inf(num.sign, spec.out_fmt)


def finish_softmax(spec: TransformerSpec, num, den):
    """Divide prepared numerator/denominator folds and run the output head.

    Returns (bit, sa, output); as in forward, an indeterminate form in the
    division or the MLP answers 0 with sa and output None.  Lets verifiers
    that compute the two folds independently share the exact tail of the
    pipeline.  A den of None finishes a linear head: num is then its
    attention output, as linear_output gives it.
    """
    try:
        sa = num if den is None else _attend(spec, num, den)
        out, _, bit = _head(spec, sa)
    except IndeterminateForm:
        return 0, None, None
    return bit, sa, out


def forward(spec: TransformerSpec, y: str, z: str) -> EvalTrace:
    """The whole head on the input pair: numerator fold, the denominator
    fold and divide for softmax attention, then the MLP.  The trace keeps
    the cells and fills its per-token lists only when they are read (see
    EvalTrace)."""
    cells = token_cells(spec, y, z)
    trace = EvalTrace.__new__(EvalTrace)    # with the lists of _REFOLDED unset
    vars(trace).update(spec=spec, cells=cells,
                       index_base=spec.index_base, hidden=[])
    stage = "numerator"
    try:
        num, _ = fold(spec, (None, OFF), 0, len(cells), cells)
        _, trace.numerator, sa = _scaled(spec, num)
        if spec.attention_kind == SOFTMAX:
            stage = "attention"
            _, trace.denominator = fold(spec, (OFF, None), 0, len(cells),
                                        cells)
            sa = _attend(spec, trace.numerator, trace.denominator)
        trace.sa = sa
        stage = "mlp"
        trace.output, hidden, trace.bit = _head(spec, sa)
        trace.hidden = list(hidden)
    except IndeterminateForm:
        # Inf - Inf and Inf/Inf under the saturating formats behave like a
        # NaN: every later comparison is false, so the head answers 0
        # without evaluating further.
        trace.indeterminate = True
        trace.bit = 0
    except ArithmeticError as exc:
        raise StageError(stage, None, exc) from exc
    return trace
