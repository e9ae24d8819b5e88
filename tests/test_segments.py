"""Segment folds and the fold-end tail memo against the per-cell pipeline.

resume and prefix_folds fold a pair one segment edge at a time: a run of
positions from one whose cells differ in that fold's term (or from 0, or
the protocol cut) up to the next, keyed by the pair's bits at its first
position (attn._segments).  After the folds, one probe keyed on the two
fold ends gives the whole tail.  Both must give what the per-cell folds
(attn.fold) over token_cells and the tail's own steps give, by full
representation on every stage value, the partial values of indeterminate
traces included: on the four built heads, on fx-tight m=7 quantized to its
native integer width and one bit below (where every pair's numerator fold
raises Inf - Inf), on heads whose divide or denominator fold raises, and
in the one-way protocol at every prefix length 1..n+1.  A spec whose cells
are not all built folds cell by cell.  On the benchmark's protocol
commands the tail memo leaves one divide per distinct pair of fold ends.
An exhaustive verify's bucket passes walk the same segments, so its spot
checks link no new segment edge.
"""

import warnings
from fractions import Fraction
from itertools import product

import pytest

from conftest import build_toy_spec
from eqattn import attn, oracle
from eqattn.attn import (TokenRule, _rep, fold, forward, prefix_folds,
                         resume, token_cells)
from eqattn.bitnum import IndeterminateForm
from eqattn.commsim import run_protocol
from eqattn.constructs import make
from eqattn.quantlab import INT4, int_format, quantize_spec
from test_kernel import _pairs, _planted_den_add


def _quantized(name, delta=None, **kwargs):
    """The head quantized to its native integer width plus delta, or to
    INT4 for None; the zero-bias warning an integer target can give is
    not under test here."""
    spec = make(name, **kwargs)[0]
    fmt = INT4 if delta is None else int_format(spec.num_fmt.p + delta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return quantize_spec(spec, fmt)


def _planted(monkeypatch):
    """fx-simple m=5 with a denominator add that raises on 7/2 + 0, so
    some pairs stop in the denominator fold after a finished numerator."""
    spec = make("fx-simple", m=5)[0]
    _planted_den_add(monkeypatch, spec, "fx_add", Fraction(7, 2))
    return spec


SUBJECTS = {
    "fx-simple m=5": lambda mp: make("fx-simple", m=5)[0],
    "fx-tight m=7": lambda mp: make("fx-tight", m=7)[0],
    "fp-linear (4,3)": lambda mp: make("fp-linear", t=4, e=3)[0],
    "fp-softmax (4,7)": lambda mp: make("fp-softmax", t=4, e=7)[0],
    "fx-tight m=7 native": lambda mp: _quantized("fx-tight", 0, m=7),
    "fx-tight m=7 native-1": lambda mp: _quantized("fx-tight", -1, m=7),
    "fx-simple m=5 int4": lambda mp: _quantized("fx-simple", m=5),
    "fx-simple m=5 planted": _planted,
}


def _stages(numer, denom, sa, hidden, out, bit, indeterminate):
    def rep(v):
        return None if v is None else _rep(v)

    return [rep(numer), rep(denom), rep(sa), [rep(h) for h in hidden],
            rep(out), bit, indeterminate]


def _trace_stages(trace):
    return _stages(trace.numerator, trace.denominator, trace.sa,
                   trace.hidden, trace.output, trace.bit, trace.indeterminate)


def _cell_resume(spec, num, den, cells):
    """The stage values of the head over cells from the fold states num
    and den, folded one cell a step by attn.fold, the tail run step by
    step: W^V scale, divide, MLP."""
    numer = denom = sa = None
    try:
        numer = attn._scaled(spec, *fold(spec, 0, num, cells)[:2])
        if spec.attention_kind == "softmax":
            denom = fold(spec, 1, den, cells)[0]
        sa = attn._attend(spec, numer, denom)
        out, hidden, bit = attn._head(spec, sa)
    except IndeterminateForm:
        return _stages(numer, denom, sa, (), None, 0, True)
    return _stages(numer, denom, sa, hidden, out, bit, False)


@pytest.mark.parametrize("limit", [None, 12])
@pytest.mark.parametrize("label", SUBJECTS)
def test_segment_folds_match_the_per_cell_pipeline(label, limit,
                                                   monkeypatch):
    """forward against the per-cell pipeline on a fresh copy of the spec,
    cold and warm, also with step tables so small that they clear inside
    a segment's walk."""
    spec = SUBJECTS[label](monkeypatch)
    if limit:
        monkeypatch.setattr(attn, "STEP_LIMIT", limit)
    ref = spec._replace()
    pairs = _pairs(spec.m, 30, 21) * 2
    reached = []    # per indeterminate trace: numerator, denominator, sa set
    for y, z in pairs:
        want = _cell_resume(ref, None, None, token_cells(ref, y, z))
        assert _trace_stages(forward(spec, y, z)) == want, (y, z)
        if want[-1]:
            reached.append(tuple(v is not None for v in want[:3]))
    comp = spec._compiled
    assert comp.complete and comp.segments
    if "native" in label:       # every pair stops in the numerator fold
        assert reached == [(False, False, False)] * len(pairs)
    elif label.endswith(("int4", "planted")):   # some stop after it
        assert any(stage[0] for stage in reached)


@pytest.mark.parametrize("label", SUBJECTS)
def test_the_protocol_matches_the_per_cell_pipeline_at_every_cut(
        label, monkeypatch):
    """At each prefix length k, Alice's partials are the per-cell folds of
    the first k cells, and Bob's trace from her end nodes is the per-cell
    pipeline over the rest resumed from them."""
    spec = SUBJECTS[label](monkeypatch)
    ref = spec._replace()
    softmax = spec.attention_kind == "softmax"
    for y, z in _pairs(spec.m, 6, 22):
        cells = token_cells(ref, y, z)
        for k in range(1, spec.n + 2):
            run = run_protocol(spec, y, z, k)
            try:
                l2 = fold(ref, 0, None, cells[:k])[0]
                l1 = fold(ref, 1, None, cells[:k])[0] if softmax else None
            except IndeterminateForm:
                assert (run.l1, run.l2, run.bob_bit) == (None, None, 0)
                continue
            assert _rep(run.l2) == _rep(l2)
            assert (run.l1 and _rep(run.l1)) == (l1 and _rep(l1))
            want = _cell_resume(ref, l2, l1, cells[k:])
            num, den = prefix_folds(spec, y, z, k)
            assert _trace_stages(resume(spec, num, den, y, z, k)) == want
            assert run.bob_bit == want[5]


def test_a_spec_with_unbuilt_cells_folds_cell_by_cell():
    """The toy head with its query row reading y_1 has no compiled cells,
    so forward and the protocol fold its cells one by one: no segment is
    built, and both match the per-cell pipeline."""
    spec = build_toy_spec()
    (row,) = spec.embedding[-1].rows
    query = TokenRule((("y", 1),), (row, (Fraction(1), Fraction(0),
                                           Fraction(1))))
    spec = spec._replace(embedding=spec.embedding[:-1] + [query]).validate()
    ref = spec._replace()
    for y, z in product("01", repeat=2):
        cells = token_cells(ref, y, z)
        assert _trace_stages(forward(spec, y, z)) == \
            _cell_resume(ref, None, None, cells)
        for k in range(1, spec.n + 2):
            num, den = prefix_folds(spec, y, z, k)
            assert _trace_stages(resume(spec, num, den, y, z, k)) == \
                _cell_resume(ref, num[0], den[0], cells[k:])
    comp = spec._compiled
    assert not comp.complete and comp.segments == {}
    assert comp.num.size > 0


def test_one_segmentation_serves_a_whole_verify_run(monkeypatch):
    """fx-tight m=13 exhaustive: the bucket passes walk each fold over the
    segments forward walks, cut at alice_len, so the run leaves that one
    segmentation, and the 64 spot checks link no segment edge the passes
    did not (attn._Steps.link is not called after them)."""
    passes, links = [], [0]
    real_buckets, real_link = oracle._buckets, attn._Steps.link

    def buckets(spec, which, s):
        out = real_buckets(spec, which, s)
        passes.append((spec, links[0]))
        return out

    def link(self, *args):
        links[0] += 1
        return real_link(self, *args)

    monkeypatch.setattr(oracle, "_buckets", buckets)
    monkeypatch.setattr(attn._Steps, "link", link)
    report = oracle.verify_exhaustive("fx-tight", m=13)
    assert report.total == 33_558_528 and report.passed
    (spec, _), (_, linked) = passes
    comp = spec._compiled
    assert list(comp.segments) == [comp.alice_len]
    assert linked > 0 and links[0] == linked


@pytest.mark.parametrize("argv,name,calls", [
    (("--construction", "fx-tight", "--m", "9", "--count", "3000"),
     "fx_div", 333),
    (("--construction", "fp-softmax", "--t", "4", "--e", "7",
      "--count", "500"), "fp_div", 491),
])
def test_a_protocol_run_divides_once_per_pair_of_fold_ends(
        argv, name, calls, monkeypatch, run_cli):
    """The benchmark's protocol commands at seed 1: each transcript is one
    run_protocol and one forward, 6,000 and 1,000 divides without the
    tail memo; with it, one per distinct (numerator, denominator) end."""
    real, count = getattr(attn, name), [0]

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(attn, name, counted)
    code, out, _ = run_cli("protocol", *argv, "--seed", "1")
    assert code == 0 and "MISMATCH" not in out
    assert count[0] == calls
