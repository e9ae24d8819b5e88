"""The factored verifier's buckets against a per-pair reference.

oracle._buckets walks each fold's segments once, the same segments forward
walks (attn.fold_segments), carrying a count per fold state.  The
reference below is the plain builder: token_cells and one whole fold
per pair, in (a, b) order.  Both must give the same buckets, compared by
the full representation of each key's value (the indeterminate marker
included), with the same counts, the same listed pairs and the same
insertion order, which fixes the failure lists and the order the verifier
combines buckets in.  Besides the built heads, hand-built subjects read
field bits in ways those heads never do, and cut segments where those
heads do not.  The pass walks step-table nodes and merges fold states by
value code, so step tables that clear in the middle of it change neither
its steps nor its buckets.
"""

import pytest

from eqattn import attn, oracle
from eqattn.attn import (
    TokenRule,
    _rep,
    fold,
    scale_numerator,
    token_cells,
)
from eqattn.bitnum import IndeterminateForm
from eqattn.constructs import make
from eqattn.oracle import fold_split, precision_delta_spec
from eqattn.quantlab import INT6, INT8, quantize_spec


def _ref_buckets(spec, pairs, width, lead, trail, which):
    """One whole fold of the kernel per pair, from token 0."""
    buckets = {}
    for a, b in pairs:
        cells = token_cells(spec, lead + format(a, f"0{width}b") + trail,
                            lead + format(b, f"0{width}b") + trail)
        try:
            value = fold(spec, which, None, cells)[0]
            if which == 0:
                value = scale_numerator(spec, value)
        except IndeterminateForm:
            value = oracle._NAN
        bucket = buckets.setdefault((value, (a > b) - (a < b)), [0, []])
        bucket[0] += 1
        if len(bucket[1]) < oracle.FAILURE_LIST_CAP:
            bucket[1].append((a, b))
    return buckets


def _ref_pass(spec, which, s):
    """The reference with the pass's arguments, in (a, b) order: for the
    numerator every pair a <= b of the fields y[:s] and z[:s], trailed by
    zeros; for the denominator every pair of y[s:] and z[s:], led by
    zeros."""
    second = spec.m - s
    width, lead, trail = (second, "0" * s, "") if which else \
        (s, "", "0" * second)
    fields = range(1 << width)
    pairs = ((a, b) for a in fields for b in fields[0 if which else a:])
    return _ref_buckets(spec, pairs, width, lead, trail, which)


def _both_folds(builder, spec, s):
    """The numerator and denominator buckets as _factored_exhaustive asks
    for them, each as an ordered list of (value rep, order, count, pairs)."""
    return [[(value if value is oracle._NAN else _rep(value), rel, cnt, ex)
             for (value, rel), (cnt, ex) in builder(spec, which, s).items()]
            for which in (0, 1)]


def _counted(monkeypatch, spec, s):
    """Both folds' buckets as _both_folds lists them, and how many segment
    steps the pass takes through fold_segments's walk."""
    steps = [0]
    real = oracle.fold_segments

    def counting(spec, which):
        walk, root, segs = real(spec, which)

        def counted(*args):
            steps[0] += 1
            return walk(*args)

        return counted, root, segs

    monkeypatch.setattr(oracle, "fold_segments", counting)
    return _both_folds(oracle._buckets, spec, s), steps[0]


def test_states_merge_by_value_across_table_clears(monkeypatch):
    """fx-tight m=13 with step tables so small that they clear many times
    in each pass: a fold value reached before a clear and the same value
    reached after it, at two nodes, are one state, since the pass merges
    on the node's value code; so it takes the 2,917 segment steps and
    makes the buckets it does with tables that never clear."""
    spec, promises = make("fx-tight", m=13)
    s = fold_split(spec, promises)
    want = _counted(monkeypatch, spec, s)
    assert want[1] == 2917
    monkeypatch.setattr(attn, "STEP_LIMIT", 64)
    small = make("fx-tight", m=13)[0]
    assert _counted(monkeypatch, small, s) == want
    assert all(0 < t.size <= 64 for t in (small._compiled.num,
                                          small._compiled.den))


def _subjects():
    out = []
    for m in range(5, 12, 2):
        spec, promises = make("fx-tight", m=m)
        out += [(f"fx-tight-{m}{delta:+d}", precision_delta_spec(spec, delta),
                 promises) for delta in (0, -1, 1)]
    for m in range(5, 10, 2):
        out.append((f"fx-simple-{m}", *make("fx-simple", m=m)))
    spec, promises = make("fx-tight", m=7)
    out += [(f"fx-tight-7-{name}", quantize_spec(spec, fmt), promises)
            for name, fmt in (("int6", INT6), ("int8", INT8))]
    spec, promises = make("fx-tight", m=5)
    out.append(("fx-tight-5-w2-zero",
                spec._replace(mlp=spec.mlp._replace(w2=(0, 0))), promises))
    # Indeterminate folds: in Bob's part on fx-simple one bit short, in
    # Alice's prefix too on fx-tight two bits short.
    for m in range(5, 10, 2):
        spec, promises = make("fx-simple", m=m)
        out.append((f"fx-simple-{m}-1", precision_delta_spec(spec, -1),
                    promises))
    spec, promises = make("fx-tight", m=7)
    out.append(("fx-tight-7-2", precision_delta_spec(spec, -2), promises))
    return out


SUBJECTS = _subjects()


@pytest.mark.parametrize("label,spec,promises", SUBJECTS,
                         ids=[label for label, _, _ in SUBJECTS])
def test_resumed_buckets_match_one_fold_per_pair(label, spec, promises):
    s = fold_split(spec, promises)
    assert s is not None, label
    want = _both_folds(_ref_pass, spec, s)
    assert _both_folds(oracle._buckets, spec, s) == want


def test_fx_tight_reads_a_field_bit_at_two_positions():
    """The built subjects cover a field bit read twice: fx-tight's copy-y1
    and copy-z1 rules read y1 and z1 at two positions each, so the pass
    carries a compared bit until its second read."""
    spec, _ = make("fx-tight", m=7)
    sources = [rule.source for rule in spec.embedding]
    assert sources.count((("y", 1),)) == sources.count((("z", 1),)) == 2


def _hand_built():
    """fx-tight m=7 with rules no built head has, folded as split after
    bit 4.  Alice's prefix is positions 0..8, Bob's part 9..17."""
    spec, _ = make("fx-tight", m=7)
    e = list(spec.embedding)

    def rule(refs, values):
        return TokenRule(tuple(refs), tuple((1, -6, v) for v in values))

    silent = TokenRule((), ((1, None, 0),))
    subjects = [
        # Bob reads z7 down to z1: no bit is compared until his last reads.
        ("bob-reads-z-backwards", e[:9] + e[9:18][::-1] + e[18:]),
        # One rule reads z3 and then z2, and no rule reads them alone.
        ("one-rule-reads-z3-z2",
         e[:12] + [rule([("z", 3), ("z", 2)], (0, -64, -32, -96)), silent]
         + e[14:]),
        # y1 and z1 first read together, so compared at the same position.
        ("one-rule-reads-y1-z1",
         e[:1] + [rule([("y", 1), ("z", 1)], (0, -64, 64, 0))] + e[2:]),
        # y4 read last, after z4: b's bit known before a's.
        ("y4-read-after-z4", e[:5] + [silent] + e[6:18] + [e[5]] + e[19:]),
        # y4 and z4 read nowhere: the pass branches on them at the end.
        ("y4-z4-unread", e[:5] + [silent] + e[6:14] + [silent] + e[15:]),
        # Two constant positions between y1's second read and y2's: one
        # numerator segment spans them.
        ("constants-inside-a-segment",
         e[:3] + [e[11], e[18]] + e[3:11] + e[12:18] + e[19:]),
        # y3 read only by a rule whose rows are equal: no segment reads it,
        # so the numerator's last segment branches on it.
        ("y3-read-but-ignored",
         e[:4] + [TokenRule((("y", 3),), e[4].rows[:1] * 2)] + e[5:]),
        # Alice's prefix ends at a rule that reads z7 with equal rows: the
        # cut splits a segment of each fold there.
        ("cut-inside-a-run",
         e[:9] + [TokenRule((("z", 7),), e[9].rows[:1] * 2)] + e[10:]),
    ]
    return [(label, spec._replace(embedding=emb).validate())
            for label, emb in subjects]


HAND_BUILT = _hand_built()


@pytest.mark.parametrize("label,spec", HAND_BUILT,
                         ids=[label for label, _ in HAND_BUILT])
def test_hand_built_buckets_match_one_fold_per_pair(label, spec):
    want = _both_folds(_ref_pass, spec, 4)
    assert _both_folds(oracle._buckets, spec, 4) == want


def test_the_short_subjects_reach_indeterminate_buckets():
    """fx-simple one bit short and fx-tight m=7 two bits short each give
    the reference at least one _NAN key."""
    short = [(spec, pr) for label, spec, pr in SUBJECTS
             if label.startswith("fx-simple") and label.endswith("-1")
             or label == "fx-tight-7-2"]
    assert len(short) == 4
    for spec, pr in short:
        keys = [value for fold_ in
                _both_folds(_ref_pass, spec, fold_split(spec, pr))
                for value, *_ in fold_]
        assert oracle._NAN in keys
