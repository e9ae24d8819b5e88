"""The compiled fold kernel against the plain reference forward pass.

attn.forward folds cached per-position cells; reffwd.ref_forward recomputes
every term from the spec.  They must agree on the answer bit, on every line
of the rendered trace, on the inexact and saturation flags and on how they
fail, for every family, below native precision, after quantization, on rows
that are not the spec's own, and across the spec copies the library makes.
The protocol resumes the same kernel at a prefix boundary, so it must give
the forward bit at every legal prefix length.
"""

import gc
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import build_toy_spec
from eqattn.attn import OFF, StageError, TokenRule, fold, forward, token_cells
from eqattn.bitnum import FxFormat, NonDyadicLogit, encode_scalar
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


def _subject(label):
    name, kwargs = SUBJECTS[label]
    return make(name, **kwargs)[0]


@pytest.mark.parametrize("label", SUBJECTS)
def test_native_and_cliff_specs_match_the_reference(label):
    spec = _subject(label)
    for s in (spec, precision_delta_spec(spec, -1)):
        for y, z in _pairs(s.m, 40, 1):
            _assert_same(s, s.encode(y, z))


@pytest.mark.parametrize("label", ["fx-tight m=7", "fp-linear (4,3)",
                                   "fp-softmax (4,7)"])
def test_saturating_quantized_specs_match_the_reference(label):
    """INT4 drives every one of these heads into indeterminate forms."""
    indeterminate = 0
    for fmt in (INT6, INT8, FP8_E4M3, INT4):
        spec = quantize_spec(_subject(label), fmt)
        for y, z in _pairs(spec.m, 30, 2):
            trace = _assert_same(spec, spec.encode(y, z))
            indeterminate += trace.indeterminate
    assert indeterminate > 0


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
], ids=["fx-simple", "fx-tight", "fp-linear", "fp-softmax",
        "fp-linear-int8", "fx-tight-int6"])
def test_protocol_gives_the_forward_bit_at_every_prefix(spec):
    for y, z in _pairs(spec.m, 6, 6):
        want = forward(spec, spec.encode(y, z)).bit
        inst = EqInstance(y, z)
        assert run_protocol(spec, inst).bob_bit == want
        for k in range(1, spec.n + 2):
            split = range(spec.index_base, spec.index_base + k)
            assert run_protocol(spec, inst, s=split).bob_bit == want, (y, z, k)


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
