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
position's cell with one lookup.  One resumable kernel, fold, runs one
fold, the numerator or the denominator, over any range of positions from
any state of it: forward runs each fold once, then the divide and the MLP;
the one-way protocol cuts each at Alice's prefix (alice_len) and resumes it
for Bob; the factored verifier steps each fold through its step table
(fold_stepper).

A fold's state at any boundary is one value of its bounded format, so each
fold step is a small finite map (state, term) -> next state.  A compiled
spec memoises that map in a step table keyed by value: a scalar's key is
its full representation (_rep: inexact flag and sign of zero included), a
function of the value alone, so equal values share their steps however
they were reached and no table has to keep a canonical object alive.  The
memo is exact because the bounded add reads only its operands'
representations.  Two or more constant positions in a row add the same
cells on every input, so they are one entry of the same table, keyed on
(state, run).  A table is cleared once it reaches a fixed size, so a wide
format, whose states rarely repeat, keeps bounded memory.

The tail after the folds is memoised the same way, in smaller tables: the
W^V scale (and a linear head's attention output) per full representation
of the numerator fold value, and the MLP (with its answer bit) per full
representation of the attention output sa, since each reads nothing else;
many pairs share one sa.  The divide is not memoised: its (num, den) pairs
rarely repeat.  No error is ever stored, so an indeterminate form is raised
on every visit.  forward records no per-token list: its trace's tokens()
refolds them from the cells on each call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import groupby, product, zip_longest
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


class TokenRule(NamedTuple):
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


class MlpSpec(NamedTuple):
    """Two hidden relu units and one relu output, all exact dyadics."""

    w1: tuple
    b1: tuple
    w2: tuple
    b2: Fraction


class _SpecFields(NamedTuple):
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


class TransformerSpec(_SpecFields):
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

    # The compiled kernel is built on first use and lives in the instance
    # __dict__, beside the tuple of fields, so == and repr never see it.
    # The fields are read-only, so it never goes stale; _replace and
    # pickling start the copy without it, since it rebuilds on first use:
    # a pickle carries only the fields, not the memo tables.
    @cached_property
    def _compiled(self) -> "_Compiled":
        return _Compiled(self)

    def __getstate__(self):
        return None


def with_stage_widths(spec: TransformerSpec, widths: dict) -> TransformerSpec:
    """The spec with each stage of spec.formats at the width of widths[stage]:
    p of an FxFormat, t and e of an FpFormat.  A stage keeps its rounding,
    and its scale while it stays fixed point.  Weights are untouched."""
    def stage(old, new):
        if isinstance(new, FxFormat):
            scale = old.scale_log2 if isinstance(old, FxFormat) else 0
            return FxFormat(new.p, scale, old.rounding)
        return FpFormat(new.t, new.e, old.rounding)

    return spec._replace(**{f"{name}_fmt": stage(old, widths[name])
                            for name, old in spec.formats.items()})


class EvalTrace(NamedTuple):
    """What forward computed on one pair: the end of each stage, and the
    spec and cells that tokens() refolds into the per-token lists.

    A field left None was not reached: the denominator of a linear head, or
    any stage at or after an indeterminate form, which sets indeterminate,
    answers 0 and leaves hidden empty.
    """

    numerator: object
    denominator: object
    sa: object
    hidden: tuple
    output: object
    bit: int
    indeterminate: bool
    spec: TransformerSpec
    cells: list

    def tokens(self):
        """(logits, weights, num_terms, num_partials, den_partials), fresh
        lists on every call: the cells refolded one position at a time, up
        to where an indeterminate form stopped the pass."""
        spec, cells, partials = self.spec, self.cells, ([], [])
        try:
            for which in range(1 + (spec.attention_kind == SOFTMAX)):
                state = None
                for j in range(len(cells)):
                    state = fold(spec, which, state, j, j + 1, cells)
                    partials[which].append(state)
        except IndeterminateForm:
            pass
        return ([c.logit for c in cells], [c.weight for c in cells],
                [c.num_term for c in cells[:len(partials[0])]],
                partials[0], partials[1])

    def render_lines(self):
        def enc(v):
            return "." if v is None else encode_scalar(v)

        lines = []
        # logits and weights cover every position; a fold an indeterminate
        # form stopped pads with None
        for j, (lg, w, term, np_, dp) in enumerate(
                zip_longest(*self.tokens())):
            coeff = "-N" if lg is None else str(lg)
            lines.append(
                f"token {self.spec.index_base + j}: logit={coeff} weight={w} "
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
    a denominator fold; den_term is the exact weight later steps add.
    num_key and den_key are the two terms' step-table keys: _rep of the
    term, or a num_term error itself, which no table stores."""

    logit: Fraction | None
    weight: Fraction
    num_term: object
    den_first: object
    den_term: object
    num_key: object
    den_key: object


def _rep(v):
    """A scalar's full representation.  Unlike ==, it tells an inexact
    value from an exact one and -0 from +0."""
    return v.kind, v.sign, v.sig, v.exp2, v.inexact


# The most entries (steps and runs) one fold's table holds.  The largest table
# of the benchmark workloads, fp-linear (4,4), holds about 8,350.  A wide
# format, where few states repeat, clears its table each time it fills, so
# memory stays bounded however long the run.  Each table of the tail (scale,
# MLP) holds at most TAIL_LIMIT: an MLP entry costs about 600 bytes, and no
# benchmark command's tail table exceeds 542 entries.
STEP_LIMIT = 1 << 14
TAIL_LIMIT = 1 << 12


class _Steps:
    """One fold's step table.

    steps maps (key of state, key of term) to the fold after that step,
    and (key of state, a, b) to the fold after the constant run of
    positions a..b-1, each as the entry (state, key of state).  A key is
    the value's _rep; None is the state before the first term.  The table
    is cleared once it holds STEP_LIMIT entries.  Folds and traces share
    the stored states, so none may be mutated.
    """

    def __init__(self, fmt):
        self.fmt = fmt
        self.add = _ops(fmt)[0]
        self.steps = {}

    def store(self, key, entry):
        if len(self.steps) >= STEP_LIMIT:
            self.steps.clear()
        self.steps[key] = entry
        return entry

    def step(self, entry, term, term_key, first):
        """The miss path from entry, (state, key), over term: first is the
        value a fold opens with at term.  A raised error is never
        stored."""
        if isinstance(term, ArithmeticError):
            raise term
        state, key = entry
        nxt = first if state is None else self.add(state, term, self.fmt)
        return self.store((key, term_key), (nxt, _rep(nxt)))


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
    tables of the tail (scaled keyed by the numerator fold value's full
    representation, mlps by the attention output's); and its constants
    held in their stage formats: W^V's scale and the MLP.

    built maps each distinct row value of the embedding to its cell under
    the constant query row, or to the error building that cell raised;
    without a constant query row it is empty.  encoders holds each
    position's getter over y + z and its map from the bits read to the
    rule's row; lookups holds the same getter and a map from the bits read
    to the row's cell, for the cells a fold can use: not those whose build
    raised or whose num_term is an error, which are built afresh each time.
    consts holds each constant position's cell in lookups, else None.
    alice_len is the protocol prefix alice_len(spec) returns.
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
        self.alice_len = next((j for j, rule in enumerate(spec.embedding)
                               if any(name == "z" for name, _ in rule.source)),
                              len(spec.embedding))
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
        term = round_(w * Fraction(row[comp.col] or 0), spec.fold_fmt)
        key = _rep(term)
    except ArithmeticError as exc:
        term = key = exc
    den_term = hold_exact(w, spec.den_fmt)
    return Cell(logit, w, term, round_(w, spec.den_fmt), den_term, key,
                _rep(den_term))


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
    return spec._compiled.alice_len


# Per fold: the stage a StageError names, and the indices in Cell of the term
# each step adds (num_term, den_term), of the value it opens with and of the
# term's key.
_FOLDS = (("numerator", 2, 2, 5), ("denominator", 4, 3, 6))


def fold(spec: TransformerSpec, which: int, state, lo: int, hi: int, cells):
    """Resume the numerator (which 0) or denominator (which 1) bounded left
    fold over the cells of positions lo..hi-1.

    state is that fold so far, None before its first term: the numerator in
    the fold format, before the W^V scale, or the denominator.  Returns the
    new state and records nothing else.  IndeterminateForm propagates;
    other arithmetic errors are raised as a StageError naming the fold and
    the token.

    The fold walks its step table: the incoming state's key is computed
    once, then each position is one dict lookup on the state's key and the
    cell's term key, and fx_add / fp_add runs only on a miss.  This is
    exact because a bounded add's result, its inexact flag included,
    depends only on the two operands' representations.  Two or more
    constant positions in a row within lo..hi are one lookup on (state,
    run); a miss walks them one by one and stores the end.  This is exact
    for cells from token_cells: a constant position holds its compiled
    cell, or one built afresh from the same row, whose terms have the same
    representations.  An indeterminate form is never stored, so it is
    raised on every visit.  A table cleared at its size limit only turns
    later steps back into misses.
    """
    comp = spec._compiled
    plan = comp.plans.get((lo, hi)) or comp.plan(lo, hi)
    table, (stage, t, f, k) = (comp.num, comp.den)[which], _FOLDS[which]
    get = table.steps.get
    entry = (state, None if state is None else _rep(state))
    j = lo
    try:
        for a, b, run in plan:
            if run:
                run_key = (entry[1], a, b)
                hit = get(run_key)
                if hit is not None:
                    entry = hit
                    continue
            for j in range(a, b):
                cell = cells[j]
                entry = get((entry[1], cell[k])) or \
                    table.step(entry, cell[t], cell[k], cell[f])
            if run:
                table.store(run_key, entry)
    except IndeterminateForm:
        raise
    except ArithmeticError as exc:
        raise StageError(stage, spec.index_base + j, exc) from exc
    return entry[0]


def fold_stepper(spec: TransformerSpec, which: int):
    """(stage a StageError names, step) of the numerator (which 0) or
    denominator (which 1) fold.  step(entry, cell) is the fold after cell
    from entry, a table entry (state, key), (None, None) to open it, as
    the next entry, through the step table."""
    comp = spec._compiled
    table = (comp.num, comp.den)[which]
    stage, t, f, k = _FOLDS[which]
    return stage, lambda entry, cell: table.steps.get(
        (entry[1], cell[k])) or table.step(entry, cell[t], cell[k], cell[f])


def _store(table: dict, key, value):
    """table[key] = value, clearing a table that holds TAIL_LIMIT entries
    first.  Callers store only what was computed, never an error."""
    if len(table) >= TAIL_LIMIT:
        table.clear()
    table[key] = value
    return value


def _scaled(spec: TransformerSpec, num):
    """(num times W^V rounded into num_fmt, and for a linear head the
    attention output), memoised on num's full representation: the multiply
    reads nothing else.  It never raises IndeterminateForm, which takes
    0 * Inf: the scale is held exactly, so it is finite, and validate
    requires it to be nonzero."""
    comp = spec._compiled
    key = _rep(num)
    hit = comp.scaled.get(key)
    if hit is None:
        scaled = _ops(spec.num_fmt)[1](num, comp.scale, spec.num_fmt)
        sa = _attend(spec, scaled, None) \
            if spec.attention_kind == LINEAR else None
        hit = _store(comp.scaled, key, (scaled, sa))
    return hit


def scale_numerator(spec: TransformerSpec, num):
    """The finished numerator fold times W^V, rounded into num_fmt."""
    return _scaled(spec, num)[0]


def linear_output(spec: TransformerSpec, num):
    """A linear head's attention output from its finished numerator fold:
    the scaled numerator, rounded into out_fmt."""
    return _scaled(spec, num)[1]


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


def _output_bounds(spec: TransformerSpec, lo, hi):
    """The least and greatest MLP output at any out_fmt value from lo to
    hi: each MLP step is monotone under either rounding, so the hidden
    units at lo and hi (_head) bound the w2 terms, rising with sa where w1
    and w2 agree in sign, and mlp_eval's fold of the lower and of the upper
    terms bounds the output."""
    fmt = spec.out_fmt
    add, mul, _, _, _ = _ops(fmt)
    w1, _, w2, b2 = spec._compiled.mlp
    low = high = None
    for a, b, v, w in zip(_head(spec, lo)[1], _head(spec, hi)[1], w1, w2):
        ta, tb = mul(a, w, fmt), mul(b, w, fmt)
        if v.sign != w.sign:
            ta, tb = tb, ta
        low = ta if low is None else add(low, ta, fmt)
        high = tb if high is None else add(high, tb, fmt)
    return relu(add(low, b2, fmt)), relu(add(high, b2, fmt))


def head_class(spec: TransformerSpec, lo, hi):
    """(answer bit, output infinite) at every out_fmt value from the
    attention output lo up to hi, when both are finite and the output
    bounds are equal or finite on one side of 1; else None, as also on an
    indeterminate form while bounding."""
    if lo.is_inf or hi.is_inf:
        return None
    try:
        low, high = _output_bounds(spec, lo, hi)
    except IndeterminateForm:
        return None
    if low == high:
        return _accept_bit(low), low.is_inf
    if high.is_inf or (low.as_fraction() - 1) * (high.as_fraction() - 1) <= 0:
        return None
    return 0, False


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
    the cells for EvalTrace.tokens to refold."""
    cells = token_cells(spec, y, z)
    num = den = sa = None
    stage = "numerator"
    try:
        num, sa = _scaled(spec, fold(spec, 0, None, 0, len(cells), cells))
        if spec.attention_kind == SOFTMAX:
            stage = "attention"
            den = fold(spec, 1, None, 0, len(cells), cells)
            sa = _attend(spec, num, den)
        stage = "mlp"
        out, hidden, bit = _head(spec, sa)
    except IndeterminateForm:
        # Inf - Inf and Inf/Inf under the saturating formats behave like a
        # NaN: every later comparison is false, so the head answers 0
        # without evaluating further.
        return EvalTrace(num, den, sa, (), None, 0, True, spec, cells)
    except ArithmeticError as exc:
        raise StageError(stage, None, exc) from exc
    return EvalTrace(num, den, sa, hidden, out, bit, False, spec, cells)
