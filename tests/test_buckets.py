"""The factored verifier's buckets against a per-pair reference.

oracle._buckets folds Alice's prefix once per field value of y and resumes
each pair over Bob's cells.  The reference below is the plain builder it
replaced: token_cells and one whole fold per pair.  Both must give the same
buckets, compared by the full representation of each key's value (the
indeterminate marker included), with the same counts, the same listed pairs
and the same insertion order, which fixes the failure lists and the order
the verifier combines buckets in.
"""

from itertools import product

import pytest

from eqattn import oracle
from eqattn.attn import (
    OFF,
    StageError,
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


def _ref_buckets(spec, pairs, width, lead, trail, state):
    """One whole fold of the kernel per pair, from token 0."""
    buckets = {}
    for a, b in pairs:
        cells = token_cells(spec, lead + format(a, f"0{width}b") + trail,
                            lead + format(b, f"0{width}b") + trail)
        try:
            num, den = fold(spec, state, 0, len(cells), cells)
            value = den if num is OFF else scale_numerator(spec, num)
        except IndeterminateForm:
            value = oracle._NAN
        bucket = buckets.setdefault((value, (a > b) - (a < b)), [0, []])
        bucket[0] += 1
        if len(bucket[1]) < oracle.FAILURE_LIST_CAP:
            bucket[1].append((a, b))
    return buckets


def _both_folds(builder, spec, s):
    """The numerator and denominator buckets as _factored_exhaustive asks
    for them, each as an ordered list of (value rep, order, count, pairs)."""
    second = spec.m - s
    heads = range(1 << s)
    calls = [
        (((a, b) for a in heads for b in heads[a:]), s, "", "0" * second,
         (None, OFF)),
        (product(range(1 << second), repeat=2), second, "0" * s, "",
         (OFF, None)),
    ]
    return [[(value if value is oracle._NAN else _rep(value), rel, cnt, ex)
             for (value, rel), (cnt, ex) in builder(spec, *call).items()]
            for call in calls]


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
    want = _both_folds(_ref_buckets, spec, s)
    assert _both_folds(oracle._buckets, spec, s) == want


def test_the_short_subjects_reach_indeterminate_buckets():
    """fx-simple one bit short and fx-tight m=7 two bits short each give
    the reference at least one _NAN key."""
    short = [(spec, pr) for label, spec, pr in SUBJECTS
             if label.startswith("fx-simple") and label.endswith("-1")
             or label == "fx-tight-7-2"]
    assert len(short) == 4
    for spec, pr in short:
        keys = [value for fold_ in
                _both_folds(_ref_buckets, spec, fold_split(spec, pr))
                for value, *_ in fold_]
        assert oracle._NAN in keys


def _poisoned(side):
    """fx-tight m=7 with an infinite value on bit 3 of one side: the
    numerator term of that row is an arithmetic error."""
    spec, promises = make("fx-tight", m=7)
    embedding = [TokenRule(rule.source,
                           (rule.rows[0], rule.rows[1][:2] + (float("inf"),)))
                 if rule.source == ((side, 3),) else rule
                 for rule in spec.embedding]
    return spec._replace(embedding=embedding).validate(), promises


def _first_error(builder, spec, s):
    """(stage, token, pair being folded) of the StageError builder raises
    on the numerator pass."""
    seen = []
    heads = range(1 << s)
    pairs = ((a, b) for a in heads for b in heads[a:]
             if not seen.append((a, b)))
    with pytest.raises(StageError) as info:
        builder(spec, pairs, s, "", "0" * (spec.m - s), (None, OFF))
    return info.value.stage, info.value.token, seen[-1]


@pytest.mark.parametrize("side", ["y", "z"])
def test_a_stage_error_surfaces_at_the_same_pair_and_token(side):
    """An error term in Alice's prefix (y) or in Bob's part (z) is raised
    where one whole fold per pair raises it."""
    spec, promises = _poisoned(side)
    s = fold_split(spec, promises)
    assert s == 4
    want = _first_error(_ref_buckets, spec, s)
    assert _first_error(oracle._buckets, spec, s) == want
    assert want[0] == "numerator"
