"""The compiled fold kernel against the plain reference forward pass.

attn.forward folds cells read from the compiled table; reffwd.ref_forward
recomputes every term from the spec.  They must agree on the answer bit, on
every line of the rendered trace, on the inexact and saturation flags and
on how they fail, for every family, below native precision, after
quantization, on rows that are not the spec's own, and across the spec
copies the library makes; also with step tables so small that they clear
in the middle of a constant run, and when an indeterminate form is raised
inside one.  A constant run is one lookup only over its compiled cells.
forward's trace fills its per-token lists when they are first read, after
any later clear, and two traces share none.  The protocol resumes the same
kernel at a prefix boundary, so it must give the forward bit and the
reference partials at every legal prefix length, those that cut a
constant run included.  The compiled encode must return the very row
objects a bit-by-bit reading of each rule selects, and refuse any
character but 0 and 1.
"""

import gc
import pickle
import random
from itertools import groupby
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import build_toy_spec
from eqattn import attn
from eqattn.attn import (_REFOLDED, OFF, StageError, TokenRule, _rep, fold,
                         forward, token_cells)
from eqattn.bitnum import (FxFormat, IndeterminateForm, NonDyadicLogit,
                           encode_scalar)
from eqattn.commsim import default_split, run_protocol
from eqattn.constructs import EqInstance, make
from eqattn.oracle import precision_delta_spec, trace_saturated
from eqattn.quantlab import FP8_E4M3, INT4, INT6, INT8, quantize_spec
from reffwd import ref_forward

SUBJECTS = {
    "fx-simple m=5": ("fx-simple", {"m": 5}),
    "fx-tight m=7": ("fx-tight", {"m": 7}),
    "fp-linear (4,3)": ("fp-linear", {"t": 4, "e": 3}),
    "fp-softmax (4,7)": ("fp-softmax", {"t": 4, "e": 7}),
}
# The default table size, and one so small that the tables clear every few
# steps, in the middle of constant runs too.
LIMITS = (None, 12)


def _pairs(m, count, seed):
    """Random ordered pairs, every other one equal; promises are not
    applied, since both paths must agree on any input."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        y = format(rng.getrandbits(m), f"0{m}b")
        z = y if i % 2 else format(rng.getrandbits(m), f"0{m}b")
        out.append((min(y, z), max(y, z)))
    return out


def _scalars(trace):
    """Every scalar a trace records, as (encoding, inexact flag)."""
    def rep(v):
        return None if v is None else (encode_scalar(v), v.inexact)

    lists = (trace.num_terms, trace.num_partials, trace.den_partials,
             trace.hidden)
    ends = (trace.numerator, trace.denominator, trace.sa, trace.output)
    return [[rep(v) for v in vs] for vs in lists] + [rep(v) for v in ends]


def _assert_same(spec, x):
    got, want = forward(spec, x), ref_forward(spec, x)
    assert got.bit == want.bit
    assert got.render_lines() == want.render_lines()
    assert got.any_inexact() == want.any_inexact()
    assert trace_saturated(got) == trace_saturated(want)
    assert _scalars(got) == _scalars(want)
    return got


def _limited(monkeypatch, limit):
    """Set attn.STEP_LIMIT to limit, or back to its default for None."""
    monkeypatch.undo()
    if limit is not None:
        monkeypatch.setattr(attn, "STEP_LIMIT", limit)


def _runs(spec):
    """The runs of two or more constant positions, as ranges."""
    out, j = [], 0
    for constant, group in groupby(not rule.source for rule in spec.embedding):
        size = len(list(group))
        if constant and size > 1:
            out.append(range(j, j + size))
        j += size
    return out


def _subject(label):
    name, kwargs = SUBJECTS[label]
    return make(name, **kwargs)[0]


@pytest.mark.parametrize("label", SUBJECTS)
def test_native_and_cliff_specs_match_the_reference(label, monkeypatch):
    for limit in LIMITS:
        _limited(monkeypatch, limit)
        spec = _subject(label)
        assert _runs(spec)
        for s in (spec, precision_delta_spec(spec, -1)):
            for y, z in _pairs(s.m, 40, 1):
                _assert_same(s, s.encode(y, z))


@pytest.mark.parametrize("label", ["fx-tight m=7", "fp-linear (4,3)",
                                   "fp-softmax (4,7)", "fx-simple m=5"])
def test_saturating_quantized_specs_match_the_reference(label, monkeypatch):
    """INT4 drives every one of these heads into indeterminate forms, in
    the numerator fold on every family."""
    for limit in LIMITS:
        _limited(monkeypatch, limit)
        indeterminate = in_numerator = 0
        for fmt in (INT6, INT8, FP8_E4M3, INT4):
            spec = quantize_spec(_subject(label), fmt)
            for y, z in _pairs(spec.m, 30, 2):
                trace = _assert_same(spec, spec.encode(y, z))
                indeterminate += trace.indeterminate
                in_numerator += len(trace.num_partials) <= spec.n
        assert indeterminate > 0 and in_numerator > 0


def _const_rows(spec, values):
    """spec with the constant row at each position j of values given key 0
    (weight 1) and the value values[j]."""
    embedding = list(spec.embedding)
    col = spec.value_column()[0]
    for j, value in values.items():
        (row,) = embedding[j].rows
        row = [Fraction(0) if c else v for v, c in zip(row, spec.wk)]
        row[col] = value
        embedding[j] = TokenRule((), (tuple(row),))
    return replace(spec, embedding=embedding).validate()


def _planted_den_add(monkeypatch, spec, name, value):
    """Make the denominator format's add raise IndeterminateForm on
    value + 0, for the kernel and the reference alike."""
    real = getattr(attn, name)

    def add(a, b, fmt):
        if fmt is spec.den_fmt and b.is_zero and a.is_finite and \
                a.as_fraction() == value:
            raise IndeterminateForm("planted")
        return real(a, b, fmt)

    monkeypatch.setattr(attn, name, add)


def test_an_indeterminate_form_inside_a_constant_run(monkeypatch):
    """Raised inside a run, in either fold, the form is never stored: a
    warm or cleared table raises it again at the same token, and the
    trace records the partials up to the step before it."""
    for limit in LIMITS:
        _limited(monkeypatch, limit)
        # fx-simple m=5: positions 10..17 are one constant run.  +2^40 at
        # 12 saturates the numerator to +Inf; -2^40 at 13 meets Inf - Inf.
        spec = _const_rows(_subject("fx-simple m=5"),
                           {12: Fraction(1 << 40), 13: Fraction(-1 << 40)})
        assert range(10, 18) in _runs(spec)
        for y, z in _pairs(spec.m, 20, 12) * 2:
            trace = _assert_same(spec, spec.encode(y, z))
            assert trace.indeterminate and len(trace.num_partials) == 13
            assert trace.den_partials == [] and trace.numerator is None
        # Every weight of the run is 0; where the denominator holds 7/2
        # on entering it, the planted add raises at its second token.
        spec = _subject("fx-simple m=5")
        _planted_den_add(monkeypatch, spec, "fx_add", Fraction(7, 2))
        stopped = 0
        for y, z in _pairs(spec.m, 40, 13) * 2:
            trace = _assert_same(spec, spec.encode(y, z))
            if len(trace.den_partials) <= spec.n:
                stopped += 1
                assert trace.indeterminate and trace.numerator is not None
                assert len(trace.num_partials) == spec.n + 1
                assert len(trace.den_partials) == 11
        assert stopped > 0


@pytest.mark.parametrize("label", SUBJECTS)
def test_a_run_entry_stands_only_for_its_compiled_cells(label):
    """With the run entries warm, a constant position that holds another
    of the spec's rows, or a copy of one, is folded from its own cell."""
    spec = _subject(label)
    pairs = _pairs(spec.m, 4, 15)
    for y, z in pairs:
        _assert_same(spec, spec.encode(y, z))
    rows = list({row: None for rule in spec.embedding for row in rule.rows})
    changed = 0
    for y, z in pairs:
        x = spec.encode(y, z)
        for run in _runs(spec):
            j = run[1]
            for row in random.Random(j).sample(rows, min(len(rows), 6)):
                for held in (row, tuple(v for v in row)):
                    got = _assert_same(spec, x[:j] + [held] + x[j + 1:])
                    changed += got.numerator != forward(spec, x).numerator
    assert changed


@pytest.mark.parametrize("label", SUBJECTS)
def test_trace_lists_are_refolded_when_first_read(label):
    """forward leaves the per-token lists unset; read after the step tables
    were cleared they equal the reference, and a second read gives the
    same values."""
    spec = precision_delta_spec(_subject(label), -1)
    pairs = _pairs(spec.m, 20, 11)
    traces = [forward(spec, spec.encode(y, z)) for y, z in pairs]
    assert not any(set(_REFOLDED) & set(vars(t)) for t in traces)
    comp = spec._compiled
    for table in (comp.num, comp.den):
        table.steps.clear()
        table.values.clear()
    for trace, (y, z) in zip(traces, pairs):
        want = ref_forward(spec, spec.encode(y, z))
        first = [[_rep(v) for v in vs] for vs in (
            trace.den_partials, trace.num_partials, trace.num_terms)]
        assert _scalars(trace) == _scalars(want)
        assert trace.render_lines() == want.render_lines()
        assert [list(map(str, trace.logits)), trace.weights] == \
            [list(map(str, want.logits)), want.weights]
        assert [[_rep(v) for v in vs] for vs in (
            trace.den_partials, trace.num_partials, trace.num_terms)] == first


class _CountingDict(dict):
    """A step table that counts the lookups fold makes."""
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


@pytest.mark.parametrize("name,kwargs,per_fold", [
    ("fp-linear", {"t": 4, "e": 4}, 11),
    ("fp-softmax", {"t": 4, "e": 7}, 19),
    ("fx-tight", {"m": 13}, 31),
])
def test_a_constant_run_is_one_lookup(name, kwargs, per_fold):
    """Warm, a fold of the spec's own cells makes one lookup per variable
    position and one per constant run of two or more; copied rows, whose
    cells are built afresh, make one per position."""
    spec = make(name, **kwargs)[0]
    n = spec.n + 1
    assert n - sum(len(r) for r in _runs(spec)) + len(_runs(spec)) \
        == per_fold
    seqs = [spec.encode(y, z) for y, z in _pairs(spec.m, 20, 14)]
    for x in seqs:
        fold(spec, (None, None), 0, n, token_cells(spec, x))
    comp = spec._compiled
    for x in seqs:
        copies = [tuple(v for v in row) for row in x]
        for own, want in ((x, per_fold), (copies, n)):
            tables = [comp.num, comp.den]
            for table in tables:
                table.steps = _CountingDict(table.steps)
            cells = token_cells(spec, own)
            fold(spec, (None, None), 0, n, cells)
            assert [t.steps.lookups for t in tables] == [want, want]


def test_rows_that_are_not_the_specs_own_are_evaluated_uncached():
    spec = _subject("fx-tight m=7")
    for y, z in _pairs(spec.m, 12, 3):
        own = spec.encode(y, z)
        copies = [tuple(v for v in row) for row in own]
        assert all(a is not b for a, b in zip(own, copies))
        cached = token_cells(spec, own)
        assert all(a is b for a, b in zip(cached, token_cells(spec, own)))
        # Copied token rows under the spec's own query row, then the own
        # token rows under a copied query row, which feeds every logit.
        for x in (copies[:-1] + own[-1:], own[:-1] + copies[-1:]):
            _assert_same(spec, x)
            first, again = token_cells(spec, x), token_cells(spec, x)
            fresh = [a is not b for a, b in zip(first, again)]
            assert fresh[:-1] == [True] * (len(x) - 1)


@pytest.mark.parametrize("label", SUBJECTS)
def test_warm_step_tables_replay_the_cold_folds(label):
    """The first pass fills a fresh spec's step tables; the second, in
    reverse order, answers mostly from them."""
    spec = _subject(label)
    for s in (spec, precision_delta_spec(spec, -1)):
        pairs = _pairs(s.m, 40, 7)
        for y, z in pairs + pairs[::-1]:
            _assert_same(s, s.encode(y, z))


@pytest.mark.parametrize("label", SUBJECTS)
def test_foreign_rows_freed_between_sequences(label):
    """Copied rows die after each sequence, so their ids are reused by the
    next copies; a step stored under a dead row's id would show here."""
    spec = _subject(label)
    for i, (y, z) in enumerate(_pairs(spec.m, 30, 8)):
        own = spec.encode(y, z)
        copies = [tuple(row) for row in own]
        x = copies if i % 2 else copies[:-1] + own[-1:]
        _assert_same(spec, x)
        del own, copies, x
        gc.collect()


def test_cells_of_a_dropped_kernel_still_fold_exactly():
    """Cells built before a pickle round trip hold terms canonical only in
    the original's tables; folding them in the copy must still be exact."""
    spec = _subject("fp-softmax (4,7)")
    copy = pickle.loads(pickle.dumps(spec))
    for y, z in _pairs(spec.m, 20, 9):
        x = spec.encode(y, z)
        cells = token_cells(spec, x)
        n = len(cells)
        want = fold(spec, (None, None), 0, n, cells)
        got = fold(copy, (None, None), 0, n, cells)
        resumed = fold(copy, fold(copy, (None, OFF), 0, 3, cells),
                       3, n, cells)[0]
        assert [encode_scalar(v) for v in got] == \
            [encode_scalar(v) for v in want]
        assert [v.inexact for v in got] == [v.inexact for v in want]
        assert (encode_scalar(resumed), resumed.inexact) == \
            (encode_scalar(want[0]), want[0].inexact)
        del cells
        gc.collect()


def test_derived_specs_start_without_the_parents_cells():
    """precision_delta_spec keeps the parent's embedding rows, so cells
    carried over would fold terms rounded for the wrong formats."""
    spec = _subject("fx-tight m=7")
    pairs = _pairs(spec.m, 20, 4)
    for y, z in pairs:
        forward(spec, spec.encode(y, z))
    thin_fold = FxFormat(3, spec.fold_fmt.scale_log2)
    for derived in (precision_delta_spec(spec, -1),
                    replace(spec, fold_fmt=thin_fold),
                    quantize_spec(spec, INT6)):
        assert "_compiled" not in vars(derived)
        for y, z in pairs:
            _assert_same(derived, derived.encode(y, z))
    for y, z in pairs:
        _assert_same(spec, spec.encode(y, z))


def test_assigning_a_field_drops_the_cells():
    spec = _subject("fx-tight m=7")
    pairs = _pairs(spec.m, 20, 5)
    for y, z in pairs:
        forward(spec, spec.encode(y, z))
    spec.fold_fmt = FxFormat(spec.fold_fmt.p - 1, spec.fold_fmt.scale_log2)
    for y, z in pairs:
        _assert_same(spec, spec.encode(y, z))


def test_the_cache_stays_out_of_equality_repr_and_pickles():
    spec = _subject("fp-linear (4,3)")
    fresh = _subject("fp-linear (4,3)")
    before = repr(spec)
    forward(spec, spec.encode("0010100", "0010100"))
    assert "_compiled" in vars(spec)
    assert spec == fresh and repr(spec) == before
    copy = pickle.loads(pickle.dumps(spec))
    assert "_compiled" not in vars(copy)
    assert copy == spec
    _assert_same(copy, copy.encode("0010100", "0010100"))


def _toy_with_row(pos, code, row):
    spec = build_toy_spec()
    rule = spec.embedding[pos]
    rows = list(rule.rows)
    rows[code] = row
    embedding = list(spec.embedding)
    embedding[pos] = TokenRule(rule.source, tuple(rows))
    return replace(spec, embedding=embedding)


def _failure(fn, spec, x):
    with pytest.raises(Exception) as info:
        fn(spec, x)
    exc = info.value
    return type(exc), getattr(exc, "stage", None), getattr(exc, "token", None)


def test_errors_surface_as_in_the_reference():
    half = Fraction(1, 2)
    cases = [
        # A value that has no exact rational: an arithmetic error in the
        # numerator term of token 1, only for inputs that select the row.
        (_toy_with_row(1, 0, (half, Fraction(0), float("inf"))), "0", "0"),
        # A half-integer logit has no exact power of two.
        (_toy_with_row(0, 1, (half, half, Fraction(1))), "1", "1"),
        # A sentinel in a query coordinate that W^Q reads.
        (_toy_with_row(2, 0, (None, None, Fraction(0))), "0", "1"),
    ]
    for spec, y, z in cases:
        x = spec.encode(y, z)
        got = _failure(forward, spec, x)
        assert got == _failure(ref_forward, spec, x)
    assert _failure(forward, cases[0][0], cases[0][0].encode("0", "0")) == \
        (StageError, "numerator", 1)
    assert _failure(forward, cases[1][0], cases[1][0].encode("1", "1"))[0] \
        is NonDyadicLogit
    # The same specs still answer on inputs that avoid the bad row.
    _assert_same(cases[0][0], cases[0][0].encode("0", "1"))
    _assert_same(cases[1][0], cases[1][0].encode("0", "0"))


@pytest.mark.parametrize("spec", [
    make("fx-simple", m=5)[0],
    make("fx-tight", m=5)[0],
    make("fp-linear", t=4, e=3)[0],
    make("fp-softmax", t=4, e=7)[0],
    quantize_spec(make("fp-linear", t=4, e=3)[0], INT8),
    quantize_spec(make("fx-tight", m=5)[0], INT6),
    _const_rows(make("fx-simple", m=5)[0],
                dict.fromkeys(range(10, 18), Fraction(1, 4))),
], ids=["fx-simple", "fx-tight", "fp-linear", "fp-softmax",
        "fp-linear-int8", "fx-tight-int6", "fx-simple-weighted-run"])
def test_protocol_gives_the_forward_bit_at_every_prefix(spec, monkeypatch):
    """Alice's partials are the reference partials at the cut, also where
    it cuts a constant run, with the default and with tiny step tables.
    The weighted run moves both partials at each of its positions."""
    assert _runs(spec)   # so k = a + 1 cuts the run a..b-1
    for limit in LIMITS:
        _limited(monkeypatch, limit)
        for y, z in _pairs(spec.m, 6, 6):
            ref = ref_forward(spec, spec.encode(y, z))
            want = forward(spec, spec.encode(y, z)).bit
            inst = EqInstance(y, z)
            assert run_protocol(spec, inst).bob_bit == want == ref.bit
            for k in range(1, spec.n + 2):
                split = range(spec.index_base, spec.index_base + k)
                run = run_protocol(spec, inst, s=split)
                assert run.bob_bit == want, (y, z, k)
                if k <= len(ref.num_partials) and run.l2 is not None:
                    assert _rep(run.l2) == _rep(ref.num_partials[k - 1])
                if k <= len(ref.den_partials) and run.l1 is not None:
                    assert _rep(run.l1) == _rep(ref.den_partials[k - 1])


def test_linear_head_with_fixed_point_formats_runs_the_protocol():
    """The split used to read the float significand width off num_fmt,
    which an int8 quantization of fp-linear does not have."""
    spec = quantize_spec(make("fp-linear", t=4, e=3)[0], INT8)
    run = run_protocol(spec, EqInstance("0010100", "0010100"))
    assert run.split == tuple(range(0, 8))
    assert run.bit_cost == 8 and run.l1 is None
    assert run.bob_bit == forward(spec, spec.encode("0010100", "0010100")).bit


def test_split_is_the_z_free_prefix_for_every_family():
    """The derived split equals the prefix the proofs name per family:
    m+2 tokens for fx-tight, m for fx-simple and fp-softmax, 2t for
    fp-linear."""
    cases = [(make("fx-tight", m=m)[0], m + 2) for m in range(5, 14, 2)]
    cases += [(make("fx-simple", m=m)[0], m) for m in range(3, 14, 2)]
    cases += [(make("fp-linear", t=t, e=e)[0], 2 * t)
              for t, e in ((4, 3), (4, 4), (3, 3))]
    softmax = make("fp-softmax", t=4, e=7)[0]
    cases += [(softmax, softmax.m)]
    for spec, k in cases:
        assert default_split(spec) == \
            tuple(range(spec.index_base, spec.index_base + k))


def _ref_encode(spec, y, z):
    """Each rule's row, its source bits read one at a time as a binary
    number, the first reference most significant."""
    x = []
    for rule in spec.embedding:
        code = 0
        for name, idx in rule.source:
            bit = (y if name == "y" else z)[idx - 1]
            assert bit in "01"
            code = 2 * code + (bit == "1")
        x.append(rule.rows[code])
    return x


@pytest.mark.parametrize("spec", [
    make("fx-simple", m=5)[0],
    make("fx-tight", m=7)[0],
    make("fp-linear", t=4, e=4)[0],
    make("fp-softmax", t=4, e=7)[0],
    quantize_spec(make("fp-softmax", t=4, e=7)[0], INT8),
], ids=["fx-simple", "fx-tight", "fp-linear (4,4)", "fp-softmax (4,7)",
        "fp-softmax-int8"])
def test_compiled_encode_returns_the_rules_own_rows(spec):
    m = spec.m
    pairs = _pairs(m, 60, 10) + [("0" * m, "1" * m), ("1" * m, "0" * m)]
    for y, z in pairs:
        got, want = spec.encode(y, z), _ref_encode(spec, y, z)
        assert len(got) == len(want) == spec.n + 1
        assert all(a is b for a, b in zip(got, want)), (y, z)


def test_wide_rules_are_read_most_significant_first():
    """fp-linear (4,4) and fp-softmax (4,7) have rules of 6 and 7 source
    bits; every one of their patterns must select its own row."""
    for spec in (make("fp-linear", t=4, e=4)[0],
                 make("fp-softmax", t=4, e=7)[0]):
        j, rule = max(enumerate(spec.embedding),
                      key=lambda jr: len(jr[1].source))
        assert len(rule.source) >= 6
        for code in range(len(rule.rows)):
            bits = {"y": ["0"] * spec.m, "z": ["0"] * spec.m}
            for k, (name, idx) in enumerate(reversed(rule.source)):
                if code >> k & 1:
                    bits[name][idx - 1] = "1"
            y, z = "".join(bits["y"]), "".join(bits["z"])
            assert spec.encode(y, z)[j] is rule.rows[code]


@pytest.mark.parametrize("spec,y,z", [
    (make("fp-linear", t=4, e=4)[0], "00200000", "0" * 8),
    (make("fx-tight", m=7)[0], "0010100", "001010" + "2"),
    (make("fp-softmax", t=4, e=7)[0], "0" * 14 + " ", "0" * 15),
    (make("fx-simple", m=5)[0], "0a010", "00010"),
    # y_2 and z_2 are read by no rule, so no row lookup sees them.
    (replace(build_toy_spec(), m=2).validate(), "12", "10"),
], ids=["fp-linear", "fx-tight", "fp-softmax", "fx-simple", "unread"])
def test_encode_rejects_characters_that_are_not_bits(spec, y, z):
    with pytest.raises(ValueError, match="bit strings"):
        spec.encode(y, z)
