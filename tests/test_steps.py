"""The fold's step tables against fresh bounded additions.

attn._Steps interns one canonical scalar per full representation of a fold
format and memoises the bounded add over canonical (state, term) pairs.  A
memoised step must equal a fresh fx_add / fp_add in representation and in
its inexact flag, for random small formats under both rounding policies;
Inf - Inf must raise on every visit and leave nothing behind; a pass that
repeats earlier steps must add nothing; and every id the table keys on must
be one of its own live canonical objects.
"""

import gc
import random
from fractions import Fraction

import pytest

from eqattn import attn
from eqattn.attn import OFF, _rep, _Steps, fold, token_cells
from eqattn.bitnum import (
    NEAREST,
    TRUNC,
    FpFormat,
    FpNum,
    FxFormat,
    FxNum,
    IndeterminateForm,
    _neg,
    fp_add,
    fp_round,
    fx_add,
    fx_round,
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
            cls.zero(fmt, inexact=True), _neg(zero)]
    for _ in range(count):
        v = round_(Fraction(rng.randrange(-40, 41), 1 << rng.randrange(5))
                   * Fraction(2) ** rng.randrange(-4, 5), fmt)
        flipped = cls(fmt, v.kind, v.sign, v.sig, v.exp2, not v.inexact)
        pool += [v, flipped]
    return pool


def test_interning_keeps_every_flag_and_sign():
    rng = random.Random(0x51)
    for fmt in _formats(rng):
        table = _Steps(fmt)
        pool = _operands(rng, fmt)
        canon = [table.intern(v) for v in pool]
        for v, c in zip(pool, canon):
            assert _rep(c) == _rep(v)
            assert table.intern(c) is c
        distinct = {_rep(v) for v in pool}
        assert len({id(c) for c in canon}) == len(distinct)


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
                state = table.intern(a)
                try:
                    want = add(a, b, fmt)
                except IndeterminateForm:
                    with pytest.raises(IndeterminateForm):
                        table.step(state, b, b)
                    continue
                got = table.step(state, b, b)
                assert _rep(got) == _rep(want), (fmt, a, b)
                assert got.fmt == fmt
                stored = table.steps[(id(state), id(table.intern(b)))]
                assert stored is got


def test_inf_minus_inf_raises_on_every_visit_and_is_never_stored():
    rng = random.Random(0x53)
    for fmt in _formats(rng):
        cls = _kit(fmt)[0]
        table = _Steps(fmt)
        pinf = table.intern(cls.inf(1, fmt))
        ninf = table.intern(cls.inf(-1, fmt))
        for _ in range(3):
            for a, b in ((pinf, ninf), (ninf, pinf)):
                with pytest.raises(IndeterminateForm):
                    table.step(a, b, b)
        assert table.steps == {}
        assert _rep(table.step(pinf, pinf, pinf)) == _rep(pinf)
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
        pairs = [(table.intern(a), b) for a in pool for b in finite]
        for a, b in pairs:
            table.step(a, b, b)
        assert calls[0] > 0
        calls[0] = 0
        for a, b in pairs:
            table.step(a, b, b)
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
    seqs = [spec.encode(format(rng.getrandbits(m), f"0{m}b"),
                        format(rng.getrandbits(m), f"0{m}b"))
            for _ in range(40)]

    def one_pass():
        out = []
        for x in seqs:
            cells = token_cells(spec, x)
            out.append(fold(spec, (None, None), 0, len(cells), cells))
        return out

    first = one_pass()
    assert calls[0] > 0
    calls[0] = 0
    assert [[_rep(v) for v in s] for s in one_pass()] == \
        [[_rep(v) for v in s] for s in first]
    assert calls[0] == 0


def test_table_keys_are_ids_of_live_canonical_objects():
    """Folds over copied rows, freed between sequences, and resumed from
    states the caller holds must key only on the tables' own objects."""
    spec = make("fp-softmax", t=4, e=7)[0]
    rng = random.Random(0x56)
    m = spec.m
    for i in range(30):
        x = [tuple(row) for row in
             spec.encode(format(rng.getrandbits(m), f"0{m}b"),
                         format(rng.getrandbits(m), f"0{m}b"))]
        cells = token_cells(spec, x)
        k = i % len(cells)
        num = fold(spec, (None, OFF), 0, k, cells)[0]
        if num is not None:   # resume from a copy the tables do not hold
            num = type(num)(num.fmt, num.kind, num.sign, num.sig, num.exp2,
                            num.inexact)
        fold(spec, (num, OFF), k, len(cells), cells)
        fold(spec, (OFF, None), 0, len(cells), cells)
        del x, cells, num
        gc.collect()
    comp = spec._compiled
    for table in (comp.num, comp.den):
        live = {id(v) for v in table.values.values()} | {id(None)}
        assert table.steps
        for state_id, term_id in table.steps:
            assert state_id in live and term_id in live
        for nxt in table.steps.values():
            assert table.values[_rep(nxt)] is nxt


def _wide_sequences(spec, rng, count):
    m = spec.m
    return [spec.encode(format(rng.getrandbits(m), f"0{m}b"),
                        format(rng.getrandbits(m), f"0{m}b"))
            for _ in range(count)]


def _table_sizes(comp):
    return [len(t.steps) + len(t.values) for t in (comp.num, comp.den)]


def test_a_full_table_is_cleared_and_folds_stay_exact(monkeypatch):
    """A wide format, where few fold states repeat, clears its tables each
    time they fill; every fold still matches the plain forward pass."""
    limit = 256
    monkeypatch.setattr(attn, "STEP_LIMIT", limit)
    spec = make("fx-tight", m=41)[0]
    comp = spec._compiled
    cleared = [False, False]
    for x in _wide_sequences(spec, random.Random(0x57), 60):
        before = _table_sizes(comp)
        cells = token_cells(spec, x)
        trace = ref_forward(spec, x)
        num, den = fold(spec, (None, None), 0, len(cells), cells)
        assert _rep(num) == _rep(trace.num_partials[-1])
        assert _rep(den) == _rep(trace.den_partials[-1])
        # a step adds at most a state, a term, a result and one key past
        # the limit; building a cell interns three values
        built = sum(len(c) for c in comp.cells)
        for i, size in enumerate(_table_sizes(comp)):
            assert size <= limit + 4 + 3 * built
            cleared[i] |= size < before[i]
    assert cleared == [True, True]


def test_wide_format_tables_stay_bounded():
    spec = make("fx-tight", m=41)[0]
    comp = spec._compiled
    peak = [0, 0]
    for x in _wide_sequences(spec, random.Random(0x58), 400):
        cells = token_cells(spec, x)
        fold(spec, (None, None), 0, len(cells), cells)
        peak = [max(p, s) for p, s in zip(peak, _table_sizes(comp))]
    built = sum(len(c) for c in comp.cells)
    assert max(peak) >= attn.STEP_LIMIT - 4   # at least one table filled
    assert max(peak) <= attn.STEP_LIMIT + 4 + 3 * built
