"""Single-head attention pipeline over the exact scalar kernels.

The query/key stage is lossless: logits are carried as exact dyadic
coefficients of ln 2, so exponentiation is an exact power of two.  Bounded
precision enters exactly where the stage formats say it does: the numerator
is a left fold of the rounded products A_j * value_j in the fold format
(scaled so the trailing multiplication by W^V lands in the numerator
format), the denominator is a left fold of the exact A_j with rounding after
every addition, the division rounds once into the output format, and the MLP
runs entirely in the output format.

The query row is constant and logits are exact, so all a position feeds
into the folds depends only on (position, token row).  A spec compiles
lazily into cached per-position cells (token_cells).  One resumable kernel,
fold, runs both folds over any range of positions from any (numerator,
denominator) state: forward is one fold plus the divide and the MLP, the
factored verifier folds half-spaces with it, and the one-way protocol cuts
it at Alice's prefix and resumes it for Bob.

A fold's state at any boundary is one value of its bounded format, so each
fold step is a small finite map (state, term) -> next state.  A compiled
spec interns one canonical scalar per full representation of each fold
format (inexact flag and sign of zero included) and memoises that map in a
step table; the memo is exact because the bounded add reads only its
operands' representations.  The tables are cleared once they reach a fixed
size, so a wide format, whose states rarely repeat, keeps bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .bitnum import (
    FpFormat,
    FpNum,
    FxFormat,
    FxNum,
    IndeterminateForm,
    Logit,
    _to_sig_exp,
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


def _wrap_exact(value: Fraction, fmt):
    """Hold an exact dyadic in a scalar wrapper without rounding it."""
    num_cls = FxNum if isinstance(fmt, FxFormat) else FpNum
    sign, sig, exp2 = _to_sig_exp(value)
    if sig == 0:
        return num_cls.zero(fmt)
    return num_cls(fmt, "finite", sign, sig, exp2)


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

    def token_of(self, y: str, z: str) -> int:
        code = 0
        for name, idx in self.source:
            bits = y if name == "y" else z
            code = code * 2 + int(bits[idx - 1])
        return code

    def row_for(self, y: str, z: str):
        return self.rows[self.token_of(y, z)]


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
        if fx_like and (self.num_fmt.p, self.num_fmt.budget) != \
                (self.den_fmt.p, self.den_fmt.budget):
            raise ValueError("num and den formats may differ only in scale")
        return self

    def encode(self, y: str, z: str):
        """Token rows (exact dyadics) for an input pair, query row last."""
        if len(y) != self.m or len(z) != self.m:
            raise ValueError(f"inputs must have m = {self.m} bits")
        return [rule.row_for(y, z) for rule in self.embedding]

    def value_column(self) -> tuple[int, Fraction]:
        k = next(i for i, c in enumerate(self.wv) if c)
        return k, self.wv[k]

    # The compiled kernel is built on first use and lives in __dict__
    # beside the fields, outside __eq__ and repr.  Assigning any attribute
    # drops it, and so does pickling: cached cells and fold steps are keyed
    # by object identity, which a copy in another process does not share.
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


@dataclass
class EvalTrace:
    """Everything the pipeline computed, token by token."""

    x: list
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

    def any_inexact(self) -> bool:
        steps = (self.num_partials + self.den_partials + self.num_terms
                 + self.hidden)
        steps += [v for v in (self.numerator, self.denominator, self.sa,
                              self.output) if v is not None]
        return any(getattr(v, "inexact", False) for v in steps)

    def render_lines(self):
        def enc(v):
            return "." if v is None else encode_scalar(v)

        lines = []
        for j, (lg, w) in enumerate(zip(self.logits, self.weights)):
            coeff = "-N" if lg.is_neg_large else str(lg.coeff)
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


def token_logits(spec: TransformerSpec, x) -> list[Logit]:
    """Exact logits <Q_query, K_j> as coefficients of ln 2."""
    qc = _dot(x[-1], spec.wq)
    if qc is None:
        raise ValueError("query row has a sentinel in a selected coordinate")
    out = []
    for row in x:
        key = _dot(row, spec.wk)
        out.append(Logit.neg_large() if key is None else Logit(qc * key))
    return out


class Cell(NamedTuple):
    """One token row's share of the folds at its position.  num_term is the
    weight times value rounded into fold_fmt, or the ArithmeticError that
    rounding raised, for the fold to raise on reaching it.  den_first opens
    a denominator fold; den_term is the exact weight later steps add."""

    row: tuple
    logit: Logit
    weight: Fraction
    num_term: object
    den_first: object
    den_term: object


def _rep(v):
    """A scalar's full representation.  Unlike ==, it tells an inexact
    value from an exact one and -0 from +0."""
    return v.kind, v.sign, v.sig, v.exp2, v.inexact


# The most entries (steps plus interned values) one fold format's tables
# hold.  The largest table of the benchmark workloads, fp-linear (4,4), holds
# about 8,400.  A wide format, where few states repeat, clears its tables each
# time they fill, so memory stays bounded however long the run.
STEP_LIMIT = 1 << 14


class _Steps:
    """One fold format's intern table (values) and step table (steps).

    steps keys on (id(state), id(term)) of canonical objects only, which
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

    def step(self, state, term, first):
        """The miss path: first is the value a fold opens with at term.
        state and term are interned here, after any clear.  A raised error
        is never stored."""
        if isinstance(term, ArithmeticError):
            raise term
        if len(self.steps) + len(self.values) >= STEP_LIMIT:
            self.steps.clear()
            self.values.clear()
        state, term = self.intern(state), self.intern(term)
        key = (id(state), id(term))
        nxt = self.steps.get(key)
        if nxt is None:
            nxt = self.intern(first if state is None
                              else self.add(state, term, self.fmt))
            self.steps[key] = nxt
        return nxt


class _Compiled:
    """A spec's cell cache, one dict per position keyed by row id; the step
    tables of its two folds; and its constants held in their stage formats:
    W^V's scale and the MLP."""

    def __init__(self, spec: TransformerSpec):
        last = spec.embedding[-1]
        self.query = None if last.source else last.rows[0]
        self.cells = [{} for _ in spec.embedding]
        self.num = _Steps(spec.fold_fmt)
        self.den = _Steps(spec.den_fmt)
        self.col, scale = spec.value_column()
        self.scale = _wrap_exact(scale, spec.num_fmt)
        self.mlp = _hold_mlp(spec.mlp, spec.out_fmt)


def _make_cell(spec: TransformerSpec, comp: _Compiled, row,
               logit: Logit) -> Cell:
    round_ = _ops(spec.fold_fmt)[3]
    w = exp_logit_exact(logit)
    try:
        term = comp.num.intern(
            round_(w * Fraction(row[comp.col] or 0), spec.fold_fmt))
    except ArithmeticError as exc:
        term = exc
    return Cell(row, logit, w, term, comp.den.intern(round_(w, spec.den_fmt)),
                comp.den.intern(_wrap_exact(w, spec.den_fmt)))


def token_cells(spec: TransformerSpec, x) -> list[Cell]:
    """The cell of every position of a token sequence, query row last.

    Cells are cached for the spec's own rows under its own constant query
    row and looked up by identity; a cell keeps its row alive, so the id
    stays unique.  On any miss the logits are computed once and every
    missing cell is built, in position order, before folding starts.
    """
    comp = spec._compiled
    cache = comp.cells
    if x[-1] is not comp.query or \
            not len(x) == len(cache) == len(spec.embedding):
        cache = None
    else:
        try:
            return [cache[j][id(row)] for j, row in enumerate(x)]
        except KeyError:
            pass
    logits = token_logits(spec, x)
    cells = []
    for j, row in enumerate(x):
        cell = None if cache is None else cache[j].get(id(row))
        if cell is None:
            cell = _make_cell(spec, comp, row, logits[j])
            if cache is not None and \
                    not isinstance(cell.num_term, ArithmeticError) and \
                    any(r is row for r in spec.embedding[j].rows):
                cache[j][id(row)] = cell
        cells.append(cell)
    return cells


OFF = "off"


def fold(spec: TransformerSpec, state, lo: int, hi: int, cells, trace=None):
    """Resume the bounded left folds over the cells of positions lo..hi-1.

    state is (num, den): the numerator fold (in the fold format, before the
    W^V scale) and the denominator fold so far, each None before its first
    term.  A fold given as OFF stays OFF and is skipped.  The numerator runs
    over the whole range before the denominator starts.  Returns the new
    (num, den); with a trace, every term and partial is recorded on it.
    IndeterminateForm propagates; other arithmetic errors are raised as a
    StageError naming the fold and the token.

    Each fold walks its format's step table: the incoming state is interned
    once, then each position is one dict lookup on the canonical state and
    the cell's canonical term, and fx_add / fp_add runs only on a miss.
    This is exact because a bounded add's result, its inexact flag
    included, depends only on the two operands' representations, never on
    their flags.  An indeterminate form is never stored, so it is raised on
    every visit.  A table cleared at its size limit only turns later steps
    back into misses.
    """
    num, den = state
    comp = spec._compiled
    stage, j = "numerator", lo
    try:
        if num is not OFF:
            table = comp.num
            get = table.steps.get
            num = table.intern(num)
            for j in range(lo, hi):
                term = cells[j].num_term
                nxt = get((id(num), id(term)))
                num = table.step(num, term, term) if nxt is None else nxt
                if trace is not None:
                    trace.num_terms.append(term)
                    trace.num_partials.append(num)
        stage = "denominator"
        if den is not OFF:
            table = comp.den
            get = table.steps.get
            den = table.intern(den)
            for j in range(lo, hi):
                cell = cells[j]
                nxt = get((id(den), id(cell.den_term)))
                den = table.step(den, cell.den_term, cell.den_first) \
                    if nxt is None else nxt
                if trace is not None:
                    trace.den_partials.append(den)
    except IndeterminateForm:
        raise
    except ArithmeticError as exc:
        raise StageError(stage, spec.index_base + j, exc) from exc
    return num, den


def scale_numerator(spec: TransformerSpec, num):
    """The finished numerator fold times W^V, rounded into num_fmt."""
    mul = _ops(spec.num_fmt)[1]
    return mul(num, spec._compiled.scale, spec.num_fmt)


def relu(v):
    if v.is_inf:
        return v if v.sign > 0 else type(v).zero(v.fmt)
    if v.sign < 0 and not v.is_zero:
        return type(v).zero(v.fmt)
    return v


def _hold_mlp(mlp: MlpSpec, fmt):
    """The head's (w1, b1, w2, b2) held exactly in fmt."""
    return (tuple(_wrap_exact(w, fmt) for w in mlp.w1),
            tuple(_wrap_exact(b, fmt) for b in mlp.b1),
            tuple(_wrap_exact(w, fmt) for w in mlp.w2),
            _wrap_exact(mlp.b2, fmt))


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
    return int(out.is_finite and not out.is_zero and out.as_fraction() == 1)


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
    pipeline.  A den of None finishes a linear head, whose scaled numerator
    is the attention output.
    """
    try:
        sa = _attend(spec, num, den)
        out, _ = mlp_eval(spec.mlp, sa, spec.out_fmt, spec._compiled.mlp)
    except IndeterminateForm:
        return 0, None, None
    return _accept_bit(out), sa, out


def _forward(spec: TransformerSpec, x, normalize: bool) -> EvalTrace:
    cells = token_cells(spec, x)
    trace = EvalTrace(x=x, logits=[c.logit for c in cells],
                      weights=[c.weight for c in cells],
                      index_base=spec.index_base)

    def nan_like():
        # Inf - Inf and Inf/Inf under the saturating formats behave like a
        # NaN: every later comparison is false, so the head answers 0
        # without evaluating further.
        trace.indeterminate = True
        trace.bit = 0
        return trace

    try:
        num, _ = fold(spec, (None, OFF), 0, len(cells), cells, trace)
        num = scale_numerator(spec, num)
    except IndeterminateForm:
        return nan_like()
    except ArithmeticError as exc:
        raise StageError("numerator", None, exc) from exc
    trace.numerator = num

    den = None
    try:
        if normalize:
            _, den = fold(spec, (OFF, None), 0, len(cells), cells, trace)
            trace.denominator = den
        sa = _attend(spec, num, den)
    except IndeterminateForm:
        return nan_like()
    except ArithmeticError as exc:
        raise StageError("attention", None, exc) from exc
    trace.sa = sa

    try:
        out, hidden = mlp_eval(spec.mlp, sa, spec.out_fmt,
                               spec._compiled.mlp)
    except IndeterminateForm:
        return nan_like()
    except ArithmeticError as exc:
        raise StageError("mlp", None, exc) from exc
    trace.hidden = hidden
    trace.output = out
    trace.bit = _accept_bit(out)
    return trace


def forward_softmax(spec: TransformerSpec, x) -> EvalTrace:
    """Normalized attention: numerator fold, denominator fold, divide, MLP."""
    if spec.attention_kind != SOFTMAX:
        raise ValueError("spec is not a softmax construction")
    return _forward(spec, x, normalize=True)


def forward_linear(spec: TransformerSpec, x) -> EvalTrace:
    """Unnormalized attention: the weight fold only, then the MLP."""
    if spec.attention_kind != LINEAR:
        raise ValueError("spec is not a linear construction")
    return _forward(spec, x, normalize=False)


def forward(spec: TransformerSpec, x) -> EvalTrace:
    if spec.attention_kind == SOFTMAX:
        return forward_softmax(spec, x)
    return forward_linear(spec, x)


def spec_to_payload(spec: TransformerSpec) -> dict:
    """JSON-ready dict; exact scalars use the textual encoding."""
    def enc(v):
        return "neglarge" if v is None else encode_scalar(Fraction(v))

    def enc_row(row):
        return [enc(v) for v in row]

    return {
        "version": 1,
        "m": spec.m,
        "n": spec.n,
        "attention_kind": spec.attention_kind,
        "index_base": spec.index_base,
        "formats": {k: f.descriptor() for k, f in spec.formats.items()},
        "embedding": [
            {"source": [[name, idx] for name, idx in rule.source],
             "rows": [enc_row(r) for r in rule.rows]}
            for rule in spec.embedding
        ],
        "wq": enc_row(spec.wq),
        "wk": enc_row(spec.wk),
        "wv": enc_row(spec.wv),
        "mlp": {
            "w1": enc_row(spec.mlp.w1),
            "b1": enc_row(spec.mlp.b1),
            "w2": enc_row(spec.mlp.w2),
            "b2": enc(spec.mlp.b2),
        },
    }


def spec_from_payload(payload: dict) -> TransformerSpec:
    from .bitnum import decode_scalar, parse_format

    if payload.get("version") != 1:
        raise ValueError(f"unsupported weights version {payload.get('version')}")

    def dec(s):
        if s == "neglarge":
            return None
        v = decode_scalar(s)
        if isinstance(v, float):
            raise ValueError("weights must be finite")
        return v

    def dec_row(row):
        return tuple(dec(v) for v in row)

    fmts = {k: parse_format(v) for k, v in payload["formats"].items()}
    embedding = [
        TokenRule(source=tuple((name, idx) for name, idx in e["source"] or ()),
                  rows=tuple(dec_row(r) for r in e["rows"]))
        for e in payload["embedding"]
    ]
    mlp = MlpSpec(w1=dec_row(payload["mlp"]["w1"]),
                  b1=dec_row(payload["mlp"]["b1"]),
                  w2=dec_row(payload["mlp"]["w2"]),
                  b2=dec(payload["mlp"]["b2"]))
    return TransformerSpec(
        m=payload["m"], n=payload["n"],
        attention_kind=payload["attention_kind"],
        fold_fmt=fmts["fold"], num_fmt=fmts["num"],
        den_fmt=fmts["den"], out_fmt=fmts["out"],
        embedding=embedding, wq=dec_row(payload["wq"]),
        wk=dec_row(payload["wk"]), wv=dec_row(payload["wv"]),
        mlp=mlp, index_base=payload.get("index_base", 0),
    ).validate()
