"""The compiled fold kernel against the plain reference forward pass.

attn.forward folds cells read from the compiled table; reffwd.ref_forward
recomputes every term from the spec.  They must agree on the answer bit, on
every per-token list and end value of the trace, on the inexact and
saturation flags and on how they fail, for every family, below native
precision, after quantization, with a query row that reads an input bit,
and across the spec copies the library makes; also with step tables so
small that they clear in the middle of a constant run, and when an
indeterminate form is raised inside one.  A constant run is one lookup,
also over cells built afresh from the same rows.  forward's trace refolds
its per-token lists on each tokens() call, into new lists, also after the
tables were cleared.
The protocol resumes the same kernel at a prefix boundary, so it must give
the forward bit and the reference partials at every legal prefix length,
those that cut a constant run included.  The compiled encode must return
the very row objects a bit-by-bit reading of each rule selects; it, forward
and token_cells must refuse any character but 0 and 1, and any pair but
two m-bit strings.
"""

import gc
import pickle
import random
from functools import partial
from itertools import groupby, product
from fractions import Fraction

import pytest

from conftest import build_toy_spec
from eqattn import attn, oracle
from eqattn.attn import (StageError, TokenRule, _make_cell, _rep, alice_len,
                         fold, fold_reads, forward, token_cells, token_logits)
from eqattn.bitnum import (FxFormat, IndeterminateForm, NonDyadicLogit,
                           encode_scalar)
from eqattn.commsim import run_protocol
from eqattn.constructs import PromiseSet, make
from eqattn.oracle import (precision_delta_spec, trace_saturated,
                           verify_exhaustive_spec)
from eqattn.quantlab import (FP8_E4M3, INT4, INT6, INT8, DegenerateTensor,
                             quantize_spec)
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

    lists = trace.tokens()[2:] + (trace.hidden,)
    ends = (trace.numerator, trace.denominator, trace.sa, trace.output)
    return [[rep(v) for v in vs] for vs in lists] + [rep(v) for v in ends]


def _assert_same(spec, y, z):
    got, want = forward(spec, y, z), ref_forward(spec, spec.encode(y, z))
    assert got.bit == want.bit and got.indeterminate == want.indeterminate
    assert got.tokens()[:2] == want.tokens()[:2]
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
                _assert_same(s, y, z)


def _quantized(spec, fmt):
    """quantize_spec(spec, fmt), asserting the DegenerateTensor warning an
    integer target gives a head whose mlp.b1 is all zero, as fp-linear's
    is."""
    if isinstance(fmt, FxFormat) and not any(spec.mlp.b1):
        with pytest.warns(DegenerateTensor, match="mlp.b1"):
            return quantize_spec(spec, fmt)
    return quantize_spec(spec, fmt)


@pytest.mark.parametrize("label", ["fx-tight m=7", "fp-linear (4,3)",
                                   "fp-softmax (4,7)", "fx-simple m=5"])
def test_saturating_quantized_specs_match_the_reference(label, monkeypatch):
    """INT4 drives every one of these heads into indeterminate forms, in
    the numerator fold on every family."""
    for limit in LIMITS:
        _limited(monkeypatch, limit)
        indeterminate = in_numerator = 0
        for fmt in (INT6, INT8, FP8_E4M3, INT4):
            spec = _quantized(_subject(label), fmt)
            for y, z in _pairs(spec.m, 30, 2):
                trace = _assert_same(spec, y, z)
                indeterminate += trace.indeterminate
                in_numerator += len(trace.tokens()[3]) <= spec.n
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
    return spec._replace(embedding=embedding).validate()


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
            trace = _assert_same(spec, y, z)
            _, _, _, nums, dens = trace.tokens()
            assert trace.indeterminate and len(nums) == 13
            assert dens == [] and trace.numerator is None
        # Every weight of the run is 0; where the denominator holds 7/2
        # on entering it, the planted add raises at its second token.
        spec = _subject("fx-simple m=5")
        _planted_den_add(monkeypatch, spec, "fx_add", Fraction(7, 2))
        stopped = 0
        for y, z in _pairs(spec.m, 40, 13) * 2:
            trace = _assert_same(spec, y, z)
            _, _, _, nums, dens = trace.tokens()
            if len(dens) <= spec.n:
                stopped += 1
                assert trace.indeterminate and trace.numerator is not None
                assert len(nums) == spec.n + 1
                assert len(dens) == 11
        assert stopped > 0


@pytest.mark.parametrize("label", SUBJECTS)
def test_trace_lists_are_refolded_when_first_read(label):
    """forward records no per-token list; tokens() refolds them, after the
    step tables were cleared too, to the reference's, and a second call
    gives the same values in new lists."""
    spec = precision_delta_spec(_subject(label), -1)
    pairs = _pairs(spec.m, 20, 11)
    traces = [forward(spec, y, z) for y, z in pairs]
    comp = spec._compiled
    for table in (comp.num, comp.den):
        table.steps.clear()
    for trace, (y, z) in zip(traces, pairs):
        want = ref_forward(spec, spec.encode(y, z))
        first = trace.tokens()
        assert _scalars(trace) == _scalars(want)
        assert [list(map(str, first[0])), first[1]] == \
            [list(map(str, want.logits)), want.weights]
        again = trace.tokens()
        assert not any(a is b for a, b in zip(first, again))
        assert [[_rep(v) for v in vs] for vs in again[2:]] == \
            [[_rep(v) for v in vs] for vs in first[2:]]


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
    """Warm, a fold makes one lookup per variable position and one per
    constant run of two or more."""
    spec = make(name, **kwargs)[0]
    n = spec.n + 1
    assert n - sum(len(r) for r in _runs(spec)) + len(_runs(spec)) \
        == per_fold
    pairs = _pairs(spec.m, 20, 14)
    for y, z in pairs:
        for which in (0, 1):
            fold(spec, which, None, 0, n, token_cells(spec, y, z))
    comp = spec._compiled
    for y, z in pairs:
        tables = [comp.num, comp.den]
        for table in tables:
            table.steps = _CountingDict(table.steps)
        for which in (0, 1):
            fold(spec, which, None, 0, n, token_cells(spec, y, z))
        assert [t.steps.lookups for t in tables] == [per_fold, per_fold]


@pytest.mark.parametrize("label", SUBJECTS)
def test_warm_step_tables_replay_the_cold_folds(label):
    """The first pass fills a fresh spec's step tables; the second, in
    reverse order, answers mostly from them."""
    spec = _subject(label)
    for s in (spec, precision_delta_spec(spec, -1)):
        pairs = _pairs(s.m, 40, 7)
        for y, z in pairs + pairs[::-1]:
            _assert_same(s, y, z)


def test_cells_of_a_dropped_kernel_still_fold_exactly():
    """Cells built before a pickle round trip carry their terms' value
    keys into the copy's new tables; folding them there must still be
    exact."""
    spec = _subject("fp-softmax (4,7)")
    copy = pickle.loads(pickle.dumps(spec))
    for y, z in _pairs(spec.m, 20, 9):
        cells = token_cells(spec, y, z)
        n = len(cells)
        want = [fold(spec, which, None, 0, n, cells) for which in (0, 1)]
        got = [fold(copy, which, None, 0, n, cells) for which in (0, 1)]
        resumed = fold(copy, 0, fold(copy, 0, None, 0, 3, cells), 3, n, cells)
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
        forward(spec, y, z)
    thin_fold = FxFormat(3, spec.fold_fmt.scale_log2)
    for derived in (precision_delta_spec(spec, -1),
                    spec._replace(fold_fmt=thin_fold),
                    quantize_spec(spec, INT6)):
        assert "_compiled" not in vars(derived)
        for y, z in pairs:
            _assert_same(derived, y, z)
    for y, z in pairs:
        _assert_same(spec, y, z)


def test_assigning_a_field_raises_and_keeps_the_cells():
    """The fields are read-only, so the compiled cells never go stale."""
    spec = _subject("fx-tight m=7")
    pairs = _pairs(spec.m, 20, 5)
    for y, z in pairs:
        forward(spec, y, z)
    compiled = vars(spec)["_compiled"]
    with pytest.raises(AttributeError):
        spec.fold_fmt = FxFormat(spec.fold_fmt.p - 1,
                                 spec.fold_fmt.scale_log2)
    assert vars(spec)["_compiled"] is compiled
    for y, z in pairs:
        _assert_same(spec, y, z)


def test_the_cache_stays_out_of_equality_repr_and_pickles():
    spec = _subject("fp-linear (4,3)")
    fresh = _subject("fp-linear (4,3)")
    before = repr(spec)
    forward(spec, "0010100", "0010100")
    assert "_compiled" in vars(spec)
    assert spec == fresh and repr(spec) == before
    copy = pickle.loads(pickle.dumps(spec))
    assert "_compiled" not in vars(copy)
    assert copy == spec
    _assert_same(copy, "0010100", "0010100")


def _toy_with_row(pos, code, row):
    spec = build_toy_spec()
    rule = spec.embedding[pos]
    rows = list(rule.rows)
    rows[code] = row
    embedding = list(spec.embedding)
    embedding[pos] = TokenRule(rule.source, tuple(rows))
    return spec._replace(embedding=embedding)


def _failure(fn, spec, *args):
    with pytest.raises(Exception) as info:
        fn(spec, *args)
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
        got = _failure(forward, spec, y, z)
        assert got == _failure(ref_forward, spec, spec.encode(y, z))
    assert _failure(forward, cases[0][0], "0", "0") == \
        (StageError, "numerator", 1)
    assert _failure(forward, cases[1][0], "1", "1")[0] is NonDyadicLogit
    # The same specs still answer on inputs that avoid the bad row.
    _assert_same(cases[0][0], "0", "1")
    _assert_same(cases[1][0], "0", "0")


def test_a_query_row_that_reads_an_input_bit():
    """The toy head with its query row reading y_1 (a key of 0, so weight
    1 and value 1, when y_1 is 1) has no compiled cells: every pair is
    built uncached, the folds read every bit, and verification runs pair
    by pair."""
    spec = build_toy_spec()
    (row,) = spec.embedding[-1].rows
    query = TokenRule((("y", 1),), (row, (Fraction(1), Fraction(0),
                                           Fraction(1))))
    spec = spec._replace(embedding=spec.embedding[:-1] + [query]).validate()
    comp = spec._compiled
    assert comp.built == {} and comp.consts == [None] * (spec.n + 1)
    assert fold_reads(spec) == ({1}, {1})
    pairs = list(product("01", repeat=2))
    bits = [_assert_same(spec, y, z).bit for y, z in pairs]
    assert bits != [int(y == z) for y, z in pairs]
    promises = PromiseSet("fx-tight", flags=("y_le_z",))
    assert oracle.fold_split(spec, promises) is None
    rep = verify_exhaustive_spec(spec, promises, "toy")
    assert rep.total == 3
    assert rep.failure_count == sum(bit != int(y == z) for bit, (y, z)
                                    in zip(bits, pairs) if y <= z)


@pytest.mark.parametrize("label", SUBJECTS)
def test_a_run_entry_stands_for_cells_built_afresh(label):
    """fold keeps no check on the cells of a constant run: cells built
    uncached from the same rows, as token_cells builds them on a miss,
    fold through the warm run entries to the reference partials."""
    spec = _subject(label)
    pairs = _pairs(spec.m, 10, 15)
    for y, z in pairs:
        forward(spec, y, z)
    comp = spec._compiled
    for y, z in pairs:
        x = spec.encode(y, z)
        fresh = [_make_cell(spec, comp, row, logit)
                 for row, logit in zip(x, token_logits(spec, x))]
        assert not any(a is b for a, b in zip(fresh, comp.consts))
        want = ref_forward(spec, x)
        softmax = spec.attention_kind == "softmax"
        for which in range(1 + softmax):
            partials = (want.num_partials, want.den_partials)[which]
            try:
                end = _rep(fold(spec, which, None, 0, len(x), fresh))
            except IndeterminateForm:
                end = None
            if len(partials) == len(x):
                assert end == _rep(partials[-1])
            elif partials or which == 0:  # the reference stopped in this fold
                assert end is None


@pytest.mark.parametrize("spec", [
    make("fx-simple", m=5)[0],
    make("fx-tight", m=5)[0],
    make("fp-linear", t=4, e=3)[0],
    make("fp-softmax", t=4, e=7)[0],
    _quantized(make("fp-linear", t=4, e=3)[0], INT8),
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
            want = forward(spec, y, z).bit
            assert run_protocol(spec, y, z).bob_bit == want == ref.bit
            for k in range(1, spec.n + 2):
                run = run_protocol(spec, y, z, k)
                assert run.bob_bit == want, (y, z, k)
                if k <= len(ref.num_partials) and run.l2 is not None:
                    assert _rep(run.l2) == _rep(ref.num_partials[k - 1])
                if k <= len(ref.den_partials) and run.l1 is not None:
                    assert _rep(run.l1) == _rep(ref.den_partials[k - 1])


def test_linear_head_with_fixed_point_formats_runs_the_protocol():
    """The split used to read the float significand width off num_fmt,
    which an int8 quantization of fp-linear does not have."""
    spec = _quantized(make("fp-linear", t=4, e=3)[0], INT8)
    run = run_protocol(spec, "0010100", "0010100")
    assert run.prefix == 8
    assert run.bit_cost == 8 and run.l1 is None
    assert run.bob_bit == forward(spec, "0010100", "0010100").bit


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
        assert alice_len(spec) == k


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


@pytest.mark.parametrize("spec,y,z,match", [
    (make("fp-linear", t=4, e=4)[0], "00200000", "0" * 8, "bit strings"),
    (make("fx-tight", m=7)[0], "0010100", "001010" + "2", "bit strings"),
    (make("fp-softmax", t=4, e=7)[0], "0" * 14 + " ", "0" * 15,
     "bit strings"),
    (make("fx-simple", m=5)[0], "0a010", "00010", "bit strings"),
    # y_2 and z_2 are read by no rule, so no row lookup sees them.
    (build_toy_spec()._replace(m=2).validate(), "12", "10", "bit strings"),
    # 14 bits in all, as y + z of m = 7 has: only the split is wrong.
    (make("fx-tight", m=7)[0], "0" * 8, "0" * 6,
     "inputs must have m = 7 bits"),
], ids=["fp-linear", "fx-tight", "fp-softmax", "fx-simple", "unread",
        "split-length"])
def test_encode_rejects_characters_that_are_not_bits(spec, y, z, match):
    for fn in (spec.encode, partial(forward, spec),
               partial(token_cells, spec)):
        with pytest.raises(ValueError, match=match):
            fn(y, z)
