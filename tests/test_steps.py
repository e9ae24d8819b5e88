"""The kernel's memo tables against fresh bounded arithmetic.

attn._Steps memoises a fold format's bounded add over (state, term) pairs,
keyed by value: by each scalar's full representation, _rep.  A memoised
step must equal a fresh fx_add / fp_add in representation and in its
inexact flag, for random small formats under both rounding policies;
values equal but for the inexact flag or the sign of zero must take
separate entries; Inf - Inf must raise on every visit and leave nothing
behind; a pass that repeats earlier steps must add nothing; and every key,
of a step or of a constant run, must be made of value keys, so a fold
resumed from a fresh copy of a state repeats no addition.

The tail's tables, the W^V scale keyed by the fold value and the MLP keyed
by the attention output, obey the same rules: equal to fresh arithmetic,
no stored error, no trace sharing a mutable list, bounded by TAIL_LIMIT.
A verify run pins the adds and MLP evaluations the memos leave.
"""

import random
from fractions import Fraction

import pytest

from conftest import build_toy_spec
from eqattn import attn
from eqattn.attn import (
    MlpSpec,
    _rep,
    _Steps,
    fold,
    forward,
    mlp_eval,
    scale_numerator,
    token_cells,
)
from eqattn.bitnum import (
    NEAREST,
    TRUNC,
    FpFormat,
    FpNum,
    FxFormat,
    FxNum,
    IndeterminateForm,
    fp_add,
    fp_mul,
    fp_round,
    fx_add,
    fx_mul,
    fx_round,
    hold_exact,
)
from eqattn.constructs import make
from reffwd import ref_forward


def _formats(rng, count=16):
    fmts = []
    for i in range(count):
        rounding = (NEAREST, TRUNC)[i % 2]
        if i % 4 < 2:
            fmts.append(FxFormat(rng.randrange(2, 7), rng.randrange(-3, 4),
                                 rounding))
        else:
            fmts.append(FpFormat(rng.randrange(1, 5), rng.randrange(2, 5),
                                 rounding))
    return fmts


def _kit(fmt):
    if isinstance(fmt, FxFormat):
        return FxNum, fx_round, fx_add
    return FpNum, fp_round, fp_add


def _operands(rng, fmt, count=14):
    """Both infinities, both zeros with both flags, and random rounded
    values, each also with its inexact flag flipped."""
    cls, round_, _ = _kit(fmt)
    zero = cls.zero(fmt)
    pool = [cls.inf(1, fmt), cls.inf(-1, fmt), zero,
            cls.zero(fmt, inexact=True), cls(fmt, zero.kind, -1, 0, 0)]
    for _ in range(count):
        v = round_(Fraction(rng.randrange(-40, 41), 1 << rng.randrange(5))
                   * Fraction(2) ** rng.randrange(-4, 5), fmt)
        flipped = cls(fmt, v.kind, v.sign, v.sig, v.exp2, not v.inexact)
        pool += [v, flipped]
    return pool


def _walk(table, entry, term):
    """The table's entry after term from entry, as fold_stepper steps:
    the stored one, or the miss path's."""
    key = _rep(term)
    return table.steps.get((entry[1], key)) or \
        table.step(entry, term, key, term)


def test_values_equal_but_for_a_flag_take_separate_entries():
    """A value and its copy with the inexact flag flipped, and +0 and -0,
    are equal under == but are two keys, as terms and as states: each step
    stores its own entry, with the flag a fresh add gives."""
    rng = random.Random(0x51)
    for fmt in _formats(rng):
        table = _Steps(fmt)
        add = _kit(fmt)[2]
        pool = [v for v in _operands(rng, fmt) if v.is_finite]
        keys = {_rep(v) for v in pool}
        assert len(keys) > len(set(pool))
        term = pool[-1]
        for v in pool:
            assert _rep(_walk(table, (None, None), v)[0]) == _rep(v)
            state, key = _walk(table, (v, _rep(v)), term)
            assert key == _rep(state) == _rep(add(v, term, fmt))
        assert set(table.steps) == {(None, k) for k in keys} | \
            {(k, _rep(term)) for k in keys}


def test_memoised_steps_equal_fresh_adds():
    rng = random.Random(0x52)
    for fmt in _formats(rng):
        table = _Steps(fmt)
        add = _kit(fmt)[2]
        pool = _operands(rng, fmt)
        pairs = [(a, b) for a in pool for b in pool]
        rng.shuffle(pairs)
        for _ in range(2):   # the second pass reads the stored steps
            for a, b in pairs:
                entry = (a, _rep(a))
                try:
                    want = add(a, b, fmt)
                except IndeterminateForm:
                    with pytest.raises(IndeterminateForm):
                        _walk(table, entry, b)
                    continue
                got = _walk(table, entry, b)
                assert got[1] == _rep(got[0]) == _rep(want), (fmt, a, b)
                assert got[0].fmt == fmt
                assert table.steps[(_rep(a), _rep(b))] is got


def test_inf_minus_inf_raises_on_every_visit_and_is_never_stored():
    rng = random.Random(0x53)
    for fmt in _formats(rng):
        cls = _kit(fmt)[0]
        table = _Steps(fmt)
        pinf, ninf = cls.inf(1, fmt), cls.inf(-1, fmt)
        for _ in range(3):
            for a, b in ((pinf, ninf), (ninf, pinf)):
                with pytest.raises(IndeterminateForm):
                    _walk(table, (a, _rep(a)), b)
        assert table.steps == {}
        assert _walk(table, (pinf, _rep(pinf)), pinf)[1] == _rep(pinf)
        assert len(table.steps) == 1


def _counting(monkeypatch, name):
    calls = [0]
    real = getattr(attn, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(attn, name, counted)
    return calls


def test_a_repeated_pass_makes_no_additions(monkeypatch):
    rng = random.Random(0x54)
    for fmt in _formats(rng, 8):
        calls = _counting(monkeypatch, _kit(fmt)[2].__name__)
        table = _Steps(fmt)
        pool = _operands(rng, fmt, 6)
        finite = [v for v in pool if not v.is_inf]
        pairs = [((a, _rep(a)), b) for a in pool for b in finite]
        for a, b in pairs:
            _walk(table, a, b)
        assert calls[0] > 0
        calls[0] = 0
        for a, b in pairs:
            _walk(table, a, b)
        assert calls[0] == 0
        monkeypatch.undo()


@pytest.mark.parametrize("name,kwargs,add", [
    ("fx-tight", {"m": 7}, "fx_add"),
    ("fp-softmax", {"t": 4, "e": 7}, "fp_add"),
])
def test_a_repeated_fold_makes_no_additions(monkeypatch, name, kwargs, add):
    calls = _counting(monkeypatch, add)
    spec = make(name, **kwargs)[0]
    rng = random.Random(0x55)
    m = spec.m
    pairs = [(format(rng.getrandbits(m), f"0{m}b"),
              format(rng.getrandbits(m), f"0{m}b")) for _ in range(40)]

    def one_pass():
        out = []
        for y, z in pairs:
            cells = token_cells(spec, y, z)
            out.append([fold(spec, which, None, 0, len(cells), cells)
                        for which in (0, 1)])
        return out

    first = one_pass()
    assert calls[0] > 0
    calls[0] = 0
    assert [[_rep(v) for v in s] for s in one_pass()] == \
        [[_rep(v) for v in s] for s in first]
    assert calls[0] == 0


def test_table_keys_are_value_keys(monkeypatch):
    """A step is keyed on (key of the state, key of the term), a constant
    run on (key of the state, a, b), a state's key being its _rep, or None
    before the first term; every entry is (state, _rep(state)).  So a fold
    resumed from a fresh copy of a state it reached before adds nothing."""
    adds = _counting(monkeypatch, "fp_add")
    spec = make("fp-softmax", t=4, e=7)[0]
    pairs = _wide_pairs(spec, random.Random(0x56), 30)
    terms = [set(), set()]     # the term keys of each fold, all _rep
    for y, z in pairs:
        cells = token_cells(spec, y, z)
        for which in (0, 1):
            fold(spec, which, None, 0, len(cells), cells)
        for cell in cells:
            assert cell.num_key == _rep(cell.num_term)
            assert cell.den_key == _rep(cell.den_term)
            terms[0].add(cell.num_key)
            terms[1].add(cell.den_key)
    comp = spec._compiled
    runs = set()
    for table, keys in zip((comp.num, comp.den), terms):
        assert table.steps
        states = {None} | {key for _, key in table.steps.values()}
        for key, (state, state_key) in table.steps.items():
            assert state_key == _rep(state)
            assert key[0] in states
            if len(key) == 2:
                assert key[1] in keys
            else:   # a constant run: a range of constant positions
                runs.add(key[1:])
                assert all(comp.consts[j] is not None
                           for j in range(*key[1:]))
    assert runs
    adds[0] = 0
    for i, (y, z) in enumerate(pairs):
        cells = token_cells(spec, y, z)
        k = i % len(cells)
        num = fold(spec, 0, None, 0, k, cells)
        if num is not None:   # resume from a copy the table does not hold
            num = type(num)(num.fmt, num.kind, num.sign, num.sig, num.exp2,
                            num.inexact)
        fold(spec, 0, num, k, len(cells), cells)
    assert adds[0] == 0


def _wide_pairs(spec, rng, count):
    m = spec.m
    return [(format(rng.getrandbits(m), f"0{m}b"),
             format(rng.getrandbits(m), f"0{m}b")) for _ in range(count)]


def _table_sizes(comp):
    return [len(t.steps) for t in (comp.num, comp.den)]


def test_a_full_table_is_cleared_and_folds_stay_exact(monkeypatch):
    """A wide format, where few fold states repeat, clears its tables each
    time they fill; every fold still matches the plain forward pass."""
    limit = 256
    monkeypatch.setattr(attn, "STEP_LIMIT", limit)
    spec = make("fx-tight", m=41)[0]
    comp = spec._compiled
    cleared = [False, False]
    for y, z in _wide_pairs(spec, random.Random(0x57), 60):
        before = _table_sizes(comp)
        cells = token_cells(spec, y, z)
        trace = ref_forward(spec, spec.encode(y, z))
        num, den = [fold(spec, which, None, 0, len(cells), cells)
                    for which in (0, 1)]
        assert _rep(num) == _rep(trace.num_partials[-1])
        assert _rep(den) == _rep(trace.den_partials[-1])
        # a full table is cleared before the entry that would pass the
        # limit is stored
        for i, size in enumerate(_table_sizes(comp)):
            assert size <= limit
            cleared[i] |= size < before[i]
    assert cleared == [True, True]


def test_wide_format_tables_stay_bounded():
    spec = make("fx-tight", m=41)[0]
    comp = spec._compiled
    peak, sizes, cleared = [0, 0], [0, 0], False
    for y, z in _wide_pairs(spec, random.Random(0x58), 600):
        cells = token_cells(spec, y, z)
        for which in (0, 1):
            fold(spec, which, None, 0, len(cells), cells)
        before, sizes = sizes, _table_sizes(comp)
        peak = [max(p, s) for p, s in zip(peak, sizes)]
        for size, last in zip(sizes, before):
            if size < last:   # cleared in this fold, at STEP_LIMIT entries:
                # a fold adds at most one entry per position and one per
                # constant run, so the last fold ended near the limit
                assert last >= attn.STEP_LIMIT - 2 * (spec.n + 1)
                cleared = True
    assert cleared   # at least one table filled
    assert max(peak) <= attn.STEP_LIMIT


def _dyadic(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 8),
                    1 << rng.randrange(4))


def _tail_spec(rng, fmt):
    """The toy head with every stage in fmt, a random W^V scale and a
    random MLP, all dyadic."""
    mlp = MlpSpec(w1=(_dyadic(rng), _dyadic(rng)),
                  b1=(_dyadic(rng), _dyadic(rng)),
                  w2=(_dyadic(rng), _dyadic(rng)), b2=_dyadic(rng))
    return build_toy_spec()._replace(
        fold_fmt=fmt, num_fmt=fmt, den_fmt=fmt, out_fmt=fmt,
        wv=(0, 0, _dyadic(rng)), mlp=mlp).validate()


def _outcome(fn, *args):
    """fn's result as full representations, or the type of its error."""
    try:
        got = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return [[_rep(v) for v in vs] if isinstance(vs, (list, tuple))
            else _rep(vs) for vs in got]


def test_memoised_scale_and_mlp_equal_fresh_evaluations(monkeypatch):
    """Two passes over every operand, the second from the tables, each
    against a fresh fx_mul / fp_mul and a fresh mlp_eval."""
    rng = random.Random(0x59)
    evals = _counting(monkeypatch, "mlp_eval")
    raised = 0
    for fmt in _formats(rng):
        spec = _tail_spec(rng, fmt)
        mul = fx_mul if isinstance(fmt, FxFormat) else fp_mul
        scale = hold_exact(spec.wv[2], fmt)
        pool = _operands(rng, fmt)
        for again in (False, True):
            evals[0] = 0
            for v in pool:
                assert _outcome(lambda: [scale_numerator(spec, v)]) == \
                    _outcome(lambda: [mul(v, scale, fmt)])
                want = _outcome(mlp_eval, spec.mlp, v, fmt)
                before = evals[0]
                got = _outcome(lambda: attn._head(spec, v)[:2])
                assert got == want, (fmt, v)
                raised += want is IndeterminateForm
                if want is IndeterminateForm:   # raised on every visit
                    assert evals[0] == before + 1
            if again:   # only the errors run again
                assert evals[0] == sum(
                    _outcome(mlp_eval, spec.mlp, v, fmt) is IndeterminateForm
                    for v in pool)
        assert len(spec._compiled.mlps) <= len({_rep(v) for v in pool})
    assert raised > 0


def test_traces_share_no_mutable_list():
    """The hidden units are the memoised tuple, which no trace can change,
    and each tokens() call returns new lists: changing one changes no
    other trace's, nor the next call's."""
    spec = make("fx-tight", m=7)[0]
    y = z = "0010100"
    first = forward(spec, y, z)
    want = [_rep(h) for h in first.hidden]
    assert type(first.hidden) is tuple and len(want) == 2
    lists = first.tokens()
    before = [list(vs) for vs in lists]
    for vs in lists:
        vs.append(first.sa)
    for trace in (first, forward(spec, y, z),
                  ref_forward(spec, spec.encode(y, z))):
        assert [_rep(h) for h in trace.hidden] == want
        assert list(trace.tokens()) == before
    again = first.tokens()
    assert not any(a is b for a, b in zip(lists, again))


@pytest.mark.parametrize("name,kwargs", [
    ("fx-tight", {"m": 41}),
    ("fp-softmax", {"t": 4, "e": 7}),
])
def test_tail_tables_stay_bounded_and_exact(monkeypatch, name, kwargs):
    limit = 8
    monkeypatch.setattr(attn, "TAIL_LIMIT", limit)
    spec = make(name, **kwargs)[0]
    comp = spec._compiled
    cleared = [False, False]
    for y, z in _wide_pairs(spec, random.Random(0x5A), 60):
        before = [len(comp.scaled), len(comp.mlps)]
        got, want = forward(spec, y, z), ref_forward(spec, spec.encode(y, z))
        assert got.bit == want.bit
        for a, b in ((got.numerator, want.numerator), (got.sa, want.sa),
                     (got.output, want.output)):
            assert _rep(a) == _rep(b)
        assert [_rep(h) for h in got.hidden] == \
            [_rep(h) for h in want.hidden]
        sizes = [len(comp.scaled), len(comp.mlps)]
        assert max(sizes) <= limit
        cleared = [c or s < b for c, s, b in zip(cleared, sizes, before)]
    assert cleared == [True, True]


def test_a_verify_run_pins_its_adds_and_mlp_evaluations(monkeypatch,
                                                       run_cli):
    """fx-tight m=7 exhaustive: the factored verifier's tables, its
    certified runs and spot checks.  A change that drops a memo changes
    these counts: without the two tail tables they are 1,026 adds, 1,036
    multiplications and 180 evaluations.  Each evaluation makes 4 adds and
    4 multiplications, and so does each of the 29 output bounds the
    combine takes (attn._output_bounds); the other 11 multiplications are
    the scale table's misses.  So 240 of the adds are the MLP's (27
    evaluations in the combine, 4 in the spot checks); the other 190 are
    the fold-step misses of the two bucket passes, one per distinct
    (state, term) step.  The numerator pass drops a path once a compared
    bit shows a > b; here every path it keeps still ends in a pair it
    counts, so it takes the steps of one whole fold per counted pair, as
    the per-pair walk did.  The spot checks' folds all hit."""
    adds = _counting(monkeypatch, "fx_add")
    muls = _counting(monkeypatch, "fx_mul")
    evals = _counting(monkeypatch, "mlp_eval")
    code, out, _ = run_cli("verify", "--construction", "fx-tight", "--m", "7")
    assert code == 0 and "8256 pairs, 0 failures" in out
    assert (adds[0], muls[0], evals[0]) == (430, 251, 31)
