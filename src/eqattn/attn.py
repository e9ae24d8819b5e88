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
spec compiles, on first use, in one pass that numbers its distinct rows,
then one token_logits call and one cell per distinct row.  A position reads
the pair as one number, int(y + z, 2), masked to its bits: its index map
gives its rule's row index (encode) and its lookup, built from the row
numbers, the row's cell (token_cells).  One kernel, fold, runs one fold
over cells from any state of it, and one pipeline, resume, runs both folds
of a pair from a position and given nodes, then the W^V scale, the divide
and the MLP: forward from 0 and fresh folds, Bob from Alice's end nodes
(prefix_folds).  The factored verifier steps each fold (fold_stepper).

A fold's state at any boundary is one value of its bounded format, so each
fold step is a small finite map (state, term) -> next state.  A compiled
spec memoises that map in a step table, a graph with one node per state
value: the value, its value code and its edges, a map from a term's code
to the next node.  A value code (_code) is an int, an injective function
of the value's full representation (_rep: inexact flag and sign of zero
included) computed with no table, so equal values share one node however
they were reached, also after the table was cleared, as it is at a fixed
size to bound its memory.  The memo is exact because the bounded add reads
only its operands' representations.

Most positions add the same term for every pair, so resume steps a fold
a segment at a time (_segments), from a position whose cells differ, 0 or
the cut, to the next.  The tail is one probe keyed on the two fold ends'
codes; a miss runs the W^V scale, memoised per numerator fold value, the
divide and the MLP, memoised per attention output.  No error is stored, so
an indeterminate form is raised on every visit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count, zip_longest
from typing import NamedTuple

from .bitnum import (
    FpFormat,
    FpNum,
    FxFormat,
    FxNum,
    KINDS,
    IndeterminateForm,
    InvalidFormat,
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
                if len(row) != 3:
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

        Each position's index map takes int(y + z, 2) masked to the bits it
        reads to the index of its rule's row, so the rows are the spec's
        own objects.  A character other than 0 or 1, which int would read
        as a sign, a separator, a space or a digit, raises ValueError
        first.
        """
        if len(y) != self.m or len(z) != self.m:
            raise ValueError(f"inputs must have m = {self.m} bits")
        bits = y + z
        if bits.strip("01"):
            raise ValueError(f"inputs must be bit strings, got {y!r}, {z!r}")
        bits = int(bits, 2)
        return [rule.rows[index[bits & mask]] for rule, (mask, index)
                in zip(self.embedding, self._compiled.encoders)]

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
    and its scale while it stays fixed point; a refusal names the stage."""
    def stage(name, old, new):
        try:
            if isinstance(new, FxFormat):
                scale = old.scale_log2 if isinstance(old, FxFormat) else 0
                return FxFormat(new.p, scale, old.rounding)
            return FpFormat(new.t, new.e, old.rounding)
        except InvalidFormat as exc:
            raise InvalidFormat(f"{name}: {exc}") from None

    return spec._replace(**{f"{name}_fmt": stage(name, old, widths[name])
                            for name, old in spec.formats.items()})


class EvalTrace(NamedTuple):
    """What resume computed for a pair: the end of each stage, and the spec
    and pair that tokens() refolds into the per-token lists.

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
    y: str
    z: str

    def tokens(self):
        """(logits, weights, num_terms, num_partials, den_partials), new on
        each call: the pair's cells refolded one at a time from fresh folds,
        up to where an indeterminate form stopped them."""
        spec, partials = self.spec, ([], [])
        cells = token_cells(spec, self.y, self.z)
        try:
            for which in range(1 + (spec.attention_kind == SOFTMAX)):
                state = None
                for j in range(len(cells)):
                    state = fold(spec, which, state, cells[j:j + 1])[0]
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
    weight times value rounded into fold_fmt; den_first opens a denominator
    fold; den_term is the exact weight later steps add.  num_key and
    den_key are the two terms' value codes, their step-table keys."""

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


_KIND_CODES = {kind: i for i, kind in enumerate(KINDS)}


def _code(v):
    """A scalar's value code: an int that is an injective function of
    _rep(v), computed from the value alone.  It is the Cantor pair of sig
    and exp2 (exp2 folded onto the naturals as 2e or -2e - 1), times 16,
    plus the kind (4 values), the sign and the inexact flag."""
    e = v.exp2
    e = e + e if e >= 0 else -1 - e - e
    n = v.sig + e
    return ((n * n + n >> 1) + e) << 4 | _KIND_CODES[v.kind] << 2 | \
        (v.sign < 0) << 1 | v.inexact


# The most edges one fold's table holds: the benchmark's largest, fp-linear
# (4,4), holds 9,029, 7,996 for terms and 1,033 for segments.  A wide
# format, where few states repeat, clears its table each time it fills, so
# memory stays bounded.  Each tail table holds at most TAIL_LIMIT: an MLP
# entry costs about 600 bytes; the largest, fp-softmax (4,7)'s, 1,473.
STEP_LIMIT = 1 << 14
TAIL_LIMIT = 1 << 12


class _Steps:
    """One fold's step table: a graph of canonical nodes.

    A node is (state, code, edges): a value of the fold's format, its value
    code (_code) and a map from a term's code, or a negative segment key,
    to the node after it.  root, (None, None, edges), is the fold before
    its first term; nodes holds one node per code.  size counts the edges;
    at STEP_LIMIT every edge and node is dropped in place, so a walk that
    holds a node only misses and links it to new ones.  No state may be
    mutated."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.add = _ops(fmt)[0]
        self.root = (None, None, {})
        self.nodes = {}
        self.size = 0

    def node(self, state):
        """The canonical node of state, the root for None."""
        if state is None:
            return self.root
        code = _code(state)
        return self.nodes.get(code) or \
            self.nodes.setdefault(code, (state, code, {}))

    def step(self, node, term, term_code, first):
        """The miss path from node over term: first is the value a fold
        opens with at term.  A raised error is never stored."""
        nxt = first if node[0] is None else self.add(node[0], term, self.fmt)
        if self.size >= STEP_LIMIT:
            for old in (self.root, *self.nodes.values()):
                old[2].clear()
            self.nodes.clear()
            self.size = 0
        self.size += 1
        node[2][term_code] = nxt = self.node(nxt)
        return nxt

    def link(self, node, key, cells, which):
        """Walk a segment's cells from node in fold which; link its negative
        key to the end, counted in size, unless full (a term's miss clears)."""
        end = _walk(self, node, cells, which)
        if key < 0 and self.size < STEP_LIMIT:
            self.size += 1      # dropped at STEP_LIMIT like a term's edge
            node[2][key] = end
        return end


def submasks(mask: int) -> list[int]:
    """Every int whose set bits are some of mask's, in ascending order."""
    subs = [0]
    while v := subs[-1] - mask & mask:
        subs.append(v)
    return subs


def _row_lookup(rule: TokenRule, m: int):
    """A position's mask over int(y + z, 2), where y_i is bit 2m - i and z_i
    bit m - i, and its index map from each masked number to its rule's row
    index, the first reference most significant: over ascending submasks,
    the index without the lowest set bit, OR that bit's weight, the index
    bits of every reference to it."""
    weight = {}
    for k, (name, i) in enumerate(reversed(rule.source)):
        bit = 1 << (2 * m - i if name == "y" else m - i)
        weight[bit] = weight.get(bit, 0) | 1 << k
    mask = sum(weight)
    index = {0: 0}
    for v in submasks(mask)[1:]:
        index[v] = index[v & v - 1] | weight[v & -v]
    return mask, index


class _Compiled:
    """A spec's compiled cells; its two folds' step tables, their segments
    per cut and keys, the source of negative segment keys; the tail's memo
    tables (tails keyed by the two fold ends' codes, scaled by the fold
    value's, mlps by the attention output's); and W^V's scale and the MLP
    held in their stage formats.

    built maps each distinct row of the embedding to its cell under the
    constant query row, or to the ValueError building it raised (a logit
    exp_logit_exact refuses, or a sentinel in the query row); without a
    constant query row it is empty.  encoders holds each position's
    _row_lookup, its mask and index map; lookups the same mask and a map
    from the masked number to the row's cell, for built cells; complete
    says every cell was built.  alice_len is alice_len(spec)."""

    def __init__(self, spec: TransformerSpec):
        last = spec.embedding[-1]
        self.query = None if last.source else last.rows[0]
        self.num = _Steps(spec.fold_fmt)
        self.den = _Steps(spec.den_fmt)
        self.segments = {}
        self.keys = count(-1, -1)
        self.tails = {}
        self.scaled = {}
        self.mlps = {}
        self.encoders = [_row_lookup(rule, spec.m) for rule in spec.embedding]
        self.alice_len = next((j for j, rule in enumerate(spec.embedding)
                               if any(name == "z" for name, _ in rule.source)),
                              len(spec.embedding))
        self.col, scale = spec.value_column()
        self.scale = hold_exact(scale, spec.num_fmt)
        self.mlp = _hold_mlp(spec.mlp, spec.out_fmt)
        number = {}     # distinct row -> its number, each row hashed once
        ids = [[number.setdefault(row, len(number)) for row in rule.rows]
               for rule in spec.embedding]
        cells = self._build(spec, list(number))
        self.built = {r: c for r, c in zip(number, cells) if c is not None}
        self.lookups = [(mask, {v: c for v, i in index.items()
                                if isinstance(c := cells[mine[i]], Cell)})
                        for (mask, index), mine in zip(self.encoders, ids)]
        self.complete = all(isinstance(cell, Cell) for cell in cells)

    def _build(self, spec, distinct):
        """Per distinct row, from one token_logits call: its cell, or the
        ValueError building it raised; None without a constant query row."""
        if self.query is None:
            return [None] * len(distinct)
        try:
            logits = token_logits(spec, distinct + [self.query])
        except ValueError as exc:       # a sentinel in the query row
            return [exc] * len(distinct)
        built = []
        for row, logit in zip(distinct, logits):
            try:
                built.append(_make_cell(spec, self, row, logit))
            except ValueError as exc:   # a logit exp_logit_exact refuses
                built.append(exc)
        return built


def _make_cell(spec: TransformerSpec, comp: _Compiled, row,
               logit: Fraction | None) -> Cell:
    round_ = _ops(spec.fold_fmt)[3]
    w = exp_logit_exact(logit)
    term = round_(w * Fraction(row[comp.col] or 0), spec.fold_fmt)
    den_term = hold_exact(w, spec.den_fmt)
    return Cell(logit, w, term, round_(w, spec.den_fmt), den_term, _code(term),
                _code(den_term))


def token_cells(spec: TransformerSpec, y: str, z: str) -> list[Cell]:
    """The cell of every position for the input pair, query row last: read
    from the compiled lookups by int(y + z, 2) masked to its bits.  On a
    miss (a query row that reads input bits, a cell that was not built, or
    input encode refuses) every cell is built uncached from encode's rows,
    in position order and before any fold, so an error is raised at the
    first position that reaches it."""
    comp = spec._compiled
    bits = y + z
    if len(y) == spec.m == len(z) and not bits.strip("01"):
        bits = int(bits, 2)
        try:
            return [cells[bits & mask] for mask, cells in comp.lookups]
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
    rule's rows.  A query row that reads input bits, or a row whose cell
    could not be built, puts every bit in both sets.
    """
    comp = spec._compiled
    every = set(range(1, spec.m + 1))
    if not comp.complete:
        return every, set(every)
    num, den = set(), set()
    for rule in spec.embedding:
        mine = [comp.built[row] for row in rule.rows]
        for reads, (term, _, _) in zip((num, den), _FOLDS):
            if len({_rep(cell[term]) for cell in mine}) > 1:
                reads.update(idx for _, idx in rule.source)
    return num, den


def alice_len(spec: TransformerSpec) -> int:
    """The protocol prefix: how many leading positions read no z bit, so
    Alice can fold them from y alone."""
    return spec._compiled.alice_len


# Per fold: the indices in Cell of the term each step adds (num_term,
# den_term), of the value it opens with and of the term's code.
_FOLDS = ((2, 2, 5), (4, 3, 6))


def fold(spec: TransformerSpec, which: int, state, cells):
    """Resume the numerator (which 0) or denominator (which 1) bounded left
    fold from state, that fold so far (None before its first term; the
    numerator before the W^V scale), over cells, and return the end node
    of its step table: (state, value code, edges), the root for no state
    and no cells.  Each cell is one lookup of its term code in the current
    node's edges; fx_add / fp_add runs only on a miss.  The only error a
    step can raise is IndeterminateForm (every format's sizes are bounded
    where it is made), never stored, so it is raised on every visit.
    """
    table = (spec._compiled.num, spec._compiled.den)[which]
    return _walk(table, table.node(state), cells, which)


def _walk(table: _Steps, node, cells, which: int):
    """fold's walk over cells from node, in the fold which's table."""
    t, f, k = _FOLDS[which]
    for cell in cells:
        node = node[2].get(cell[k]) or table.step(node, cell[t], cell[k],
                                                  cell[f])
    return node


def fold_stepper(spec: TransformerSpec, which: int):
    """(step, root) of the numerator (which 0) or denominator (which 1)
    fold: step(node, cell) is the node of its step table after cell, and
    root opens the fold.  Like fold, it raises only IndeterminateForm."""
    comp = spec._compiled
    table, (t, f, k) = (comp.num, comp.den)[which], _FOLDS[which]
    return (lambda node, cell: node[2].get(cell[k])
            or table.step(node, cell[t], cell[k], cell[f])), table.root


def _store(table: dict, key, value):
    """table[key] = value, clearing a table that holds TAIL_LIMIT entries
    first.  Callers store only what was computed, never an error."""
    if len(table) >= TAIL_LIMIT:
        table.clear()
    table[key] = value
    return value


def _scaled(spec: TransformerSpec, num, code):
    """num times W^V rounded into num_fmt, memoised on num's value code:
    the multiply reads nothing else.  It never raises IndeterminateForm,
    which takes 0 * Inf: the scale is held exactly, so it is finite, and
    validate requires it to be nonzero."""
    comp = spec._compiled
    hit = comp.scaled.get(code)
    if hit is None:
        mul = _ops(spec.num_fmt)[1]
        hit = _store(comp.scaled, code, mul(num, comp.scale, spec.num_fmt))
    return hit


def scale_numerator(spec: TransformerSpec, num):
    """The finished numerator fold times W^V, rounded into num_fmt."""
    return _scaled(spec, num, _code(num))


def relu(v):
    if v.sign < 0 and not v.is_zero:    # -inf included
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
    hidden = [relu(add(mul(v, w, fmt), b, fmt)) for w, b in zip(w1, b1)]
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
    memoised on sa's value code: mlp_eval reads nothing else."""
    comp = spec._compiled
    key = _code(sa)
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
    """(bit, sa, output) of a softmax head's scaled numerator divided by its
    denominator fold, then the output head; as in resume, an indeterminate
    form answers 0 with sa and output None.  Verifiers that compute the two
    folds apart share the exact tail through it."""
    try:
        sa = _attend(spec, num, den)
        out, _, bit = _head(spec, sa)
    except IndeterminateForm:
        return 0, None, None
    return bit, sa, out


def _segments(comp: _Compiled, cut: int):
    """Per fold, (all, before cut, after) of its segments, memoised: each
    (mask, keys, runs) from 0, cut or a position whose cells differ in the
    fold's term or opening (_rep) to the next.  keys maps the pair's number
    masked to that position's bits to a key, runs the key to the cells: one
    cell's term code, else a new negative int from comp.keys."""
    folds = comp.segments[cut] = []
    for _, f, k in _FOLDS:
        starts = [j for j, (_, cs) in enumerate(comp.lookups) if j in (0, cut)
                  or len({(c[k], _rep(c[f])) for c in cs.values()}) > 1]
        segs = []
        for a, b in zip(starts, starts[1:] + [len(comp.lookups)]):
            mask, cells = comp.lookups[a]
            rest = [comp.lookups[j][1][0] for j in range(a + 1, b)]
            keys = {c[k]: next(comp.keys) if rest else c[k]
                    for c in cells.values()}   # term code at a -> key
            segs.append((mask, {v: keys[c[k]] for v, c in cells.items()},
                         {keys[c[k]]: (c, *rest) for c in cells.values()}))
        j = sum(start < cut for start in starts)
        folds.append((segs, segs[:j], segs[j:]))
    return folds


def _fold_ends(spec: TransformerSpec, ends, nodes, y, z, cut, part):
    """Append to ends each fold's end node (numerator, softmax denominator)
    as it ends, from nodes (None: a root) over part 0 (all), 1 or 2 (before,
    after) of the pair's segments cut at cut, or cells if not all built."""
    comp, bits, cells = spec._compiled, y + z, None
    if comp.complete and len(y) == spec.m == len(z) and not bits.strip("01"):
        bits, segs = int(bits, 2), comp.segments.get(cut)
        segs = segs or _segments(comp, cut)
    else:
        cells = token_cells(spec, y, z)
        cells = cells[cut:] if part == 2 else cells[:cut] if part else cells
    for which in range(1 + (spec.attention_kind == SOFTMAX)):
        table = comp.den if which else comp.num
        node = nodes[which] or table.root
        if cells is not None:
            node = _walk(table, node, cells, which)
        else:
            for mask, keys, runs in segs[which][part]:
                key = keys[bits & mask]
                node = node[2].get(key) or \
                    table.link(node, key, runs[key], which)
        ends.append(node)


def prefix_folds(spec: TransformerSpec, y: str, z: str, k: int):
    """Alice's share: the end nodes of the pair's folds over its first k
    positions (den None for a linear head).  Raises IndeterminateForm."""
    ends = []
    _fold_ends(spec, ends, (None, None), y, z, k, 1)
    return (*ends, None)[:2]


def resume(spec: TransformerSpec, num, den, y, z, k=0) -> EvalTrace:
    """The head on the pair from position k and nodes num and den (None: a
    root; a linear head reads no den): folds cut at k (at alice_len from 0),
    then the tail memo on the end codes; its numerator is the scaled fold."""
    comp, ends = spec._compiled, []
    numer = denom = sa = None
    try:
        _fold_ends(spec, ends, (num, den), y, z,
                   *((k, 2) if k else (comp.alice_len, 0)))
        key = ends[0][1], ends[-1][1]
        hit = comp.tails.get(key)
        if hit is None:
            numer, denom = _scaled(spec, *ends[0][:2]), \
                ends[1][0] if len(ends) == 2 else None
            sa = _attend(spec, numer, denom)
            out, hidden, bit = _head(spec, sa)
            hit = _store(comp.tails, key, (numer, denom, sa, hidden, out, bit))
    except IndeterminateForm:
        # Inf - Inf and Inf/Inf under the saturating formats behave like a
        # NaN: every later comparison is false, so the head answers 0
        # without evaluating further.
        if ends and numer is None:      # the denominator fold stopped
            numer = _scaled(spec, *ends[0][:2])
        return EvalTrace(numer, denom, sa, (), None, 0, True, spec, y, z)
    return EvalTrace(*hit, False, spec, y, z)


def forward(spec: TransformerSpec, y: str, z: str) -> EvalTrace:
    """The whole head on the input pair: resume from 0 and fresh folds."""
    return resume(spec, None, None, y, z)
