"""The compiled cells against cells built fresh.

A spec compiles one cell per distinct row value, from one token_logits call,
and a map per position from the input bits it reads, int(y + z, 2) masked to
them, to its cell; token_cells and fold_reads read every cell from these.
At every position and for every pattern of its bits, the mapped cell must
equal a fresh _make_cell of the encoded row on every field, its term codes
included, for every family and its quantizations, whose rows are shared
objects; a row whose cell cannot be built is mapped at no position and
still fails at the first position that reaches it; fold_reads must give
what a fresh build of every cell gives.  Each position's index map
(_row_lookup) must give, for every number its mask admits, the row index
its references read bit by bit, on random rules.
"""

import warnings
from fractions import Fraction
from itertools import product

import pytest
from conftest import build_toy_spec
from hypothesis import example, given
from hypothesis import strategies as st

from eqattn import attn
from eqattn.attn import (Cell, TokenRule, _make_cell, _rep, _row_lookup,
                         fold_reads, forward, token_cells, token_logits)
from eqattn.bitnum import LogitOutOfRange
from eqattn.constructs import make
from eqattn.quantlab import (DegenerateTensor, _resolve_format,
                             quantize_spec)

FAMILIES = {
    "fx-simple m=5": ("fx-simple", {"m": 5}),
    "fx-tight m=7": ("fx-tight", {"m": 7}),
    "fp-linear (4,3)": ("fp-linear", {"t": 4, "e": 3}),
    "fp-softmax (4,7)": ("fp-softmax", {"t": 4, "e": 7}),
}
# native is the subject itself; every other name is a quantization target
FORMATS = ("native", "int6", "fp8_e4m3", "fp_e2m1")
# more targets of the quantize benchmark, whose quantized rows are shared
# objects across rules (quantize_spec rounds each distinct row once)
TARGETS = [("fx-tight m=7", "native-1"), ("fx-tight m=7", "int8"),
           ("fp-softmax (4,7)", "fp16"), ("fp-softmax (4,7)", "int8")]
SUBJECTS = [pytest.param(*subject, id="-".join(subject))
            for subject in [*product(FAMILIES, FORMATS), *TARGETS]]


def _subject(family, fmt):
    name, size = FAMILIES[family]
    spec = make(name, **size)[0]
    if fmt == "native":
        return spec
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTensor)
        return quantize_spec(spec, _resolve_format(fmt, spec))


def _fresh(spec, row):
    """The row's cell built anew under the query row, or the error."""
    comp = spec._compiled
    try:
        return _make_cell(spec, comp, row,
                          token_logits(spec, [row, comp.query])[0])
    except ValueError as exc:
        return exc


def _fields(cell):
    return (cell.logit, cell.weight, _rep(cell.num_term),
            _rep(cell.den_first), _rep(cell.den_term), cell.num_key,
            cell.den_key)


def _patterns(spec, j):
    """(y, z) for every pattern of the bits position j reads, the first
    reference most significant, with every other bit 0."""
    source = spec.embedding[j].source
    for code in range(1 << len(source)):
        bits = {"y": ["0"] * spec.m, "z": ["0"] * spec.m}
        for k, (name, idx) in enumerate(reversed(source)):
            if code >> k & 1:
                bits[name][idx - 1] = "1"
        yield "".join(bits["y"]), "".join(bits["z"])


@pytest.mark.parametrize("family,fmt", SUBJECTS)
def test_every_table_cell_equals_a_fresh_build(family, fmt):
    spec = _subject(family, fmt)
    comp = spec._compiled
    rows = {row for rule in spec.embedding for row in rule.rows}
    assert set(comp.built) == rows
    missing, mapped = set(), {}
    for j, (mask, cells) in enumerate(comp.lookups):
        reads = {1 << (2 * spec.m - i if name == "y" else spec.m - i)
                 for name, i in spec.embedding[j].source}
        assert mask == sum(reads)
        assert all(v & mask == v for v in cells)
        for y, z in _patterns(spec, j):
            row = spec.encode(y, z)[j]
            fresh = _fresh(spec, row)
            if isinstance(fresh, Exception):
                assert int(y + z, 2) & mask not in cells
                missing.add(row)
            else:
                cell = cells[int(y + z, 2) & mask]
                assert _fields(cell) == _fields(fresh)
                mapped.setdefault(row, cell)
                assert mapped[row] is cell
        assert len(cells) == len(spec.embedding[j].rows) - sum(
            row in missing for row in spec.embedding[j].rows)
    assert bool(missing) == (fmt == "fp_e2m1")
    assert len(mapped) + len(missing) == len(rows)
    # one cell per distinct row value, at every position it is read from
    assert len({id(cell) for cell in mapped.values()}) == len(mapped)


def _rule_of(source):
    """A rule over source whose rows are distinct objects, one per pattern:
    a key of 0, so weight 1, and the pattern as the value."""
    return TokenRule(source, tuple((Fraction(1, 2), Fraction(0), Fraction(k))
                                   for k in range(1 << len(source))))


@st.composite
def lookup_rules(draw):
    """(m, rule) for m = 3..7 and 1-4 references, y and z mixed, in any
    order and possibly repeated."""
    m = draw(st.integers(3, 7))
    refs = st.tuples(st.sampled_from("yz"), st.integers(1, m))
    return m, _rule_of(tuple(draw(st.lists(refs, min_size=1, max_size=4))))


@example((3, _rule_of((("z", 2), ("y", 1), ("z", 2)))))
@example((4, _rule_of((("y", 4), ("y", 4), ("z", 1), ("y", 4)))))
@given(lookup_rules())
def test_row_lookup_indexes_each_submask_by_the_per_bit_formula(case):
    """Every number the rule's mask admits maps to the row its references
    read, bit by bit, the first most significant; a bit read twice sets
    both index bits.  encode reads the rule's own row objects."""
    m, rule = case
    shifts = [2 * m - i if name == "y" else m - i
              for name, i in rule.source][::-1]
    mask, index = _row_lookup(rule, m)
    assert mask == sum({1 << s for s in shifts})
    subs = sorted({sum(bits) for bits in
                   product(*[(0, 1 << s) for s in set(shifts)])})
    assert sorted(index) == subs
    toy = build_toy_spec()
    spec = toy._replace(m=m, n=1,
                        embedding=[rule, toy.embedding[-1]]).validate()
    for v in subs:
        want = sum((v >> s & 1) << k for k, s in enumerate(shifts))
        assert index[v] == want
        bits = format(v, f"0{2 * m}b")
        assert spec.encode(bits[:m], bits[m:])[0] is rule.rows[want]


def _old_fold_reads(spec):
    """fold_reads from cells built fresh, row by row: the cells of every
    rule's rows under the query row."""
    comp = spec._compiled
    every = set(range(1, spec.m + 1))
    if comp.query is None:
        return every, set(every)
    rows = [row for rule in spec.embedding for row in rule.rows]
    try:
        cells = iter([_make_cell(spec, comp, row, logit) for row, logit in
                      zip(rows, token_logits(spec, rows + [comp.query]))])
    except ValueError:
        return every, set(every)

    def varies(terms):
        return len({_rep(t) for t in terms}) > 1

    num, den = set(), set()
    for rule in spec.embedding:
        mine = [next(cells) for _ in rule.rows]
        bits = {idx for _, idx in rule.source}
        if varies(c.num_term for c in mine):
            num |= bits
        if varies(c.den_term for c in mine):
            den |= bits
    return num, den


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("family", FAMILIES)
def test_fold_reads_matches_fresh_cells(family, fmt):
    spec = _subject(family, fmt)
    assert fold_reads(spec) == _old_fold_reads(spec)


def _infinity_keyed_pair(spec):
    comp = spec._compiled
    for v in range(1 << spec.m):
        y = format(v, f"0{spec.m}b")
        if any(not isinstance(comp.built[row], Cell)
               for row in spec.encode(y, y)):
            return y
    raise AssertionError("no sequence reaches an infinity-coded key")


def test_an_infinity_coded_key_still_raises(run_cli):
    spec = _subject("fx-tight m=7", "fp_e2m1")
    y = _infinity_keyed_pair(spec)
    with pytest.raises(LogitOutOfRange):
        token_cells(spec, y, y)
    with pytest.raises(LogitOutOfRange):
        forward(spec, y, y)
    code, out, err = run_cli("quantize", "--construction", "fx-tight",
                             "--m", "7", "--formats", "fp_e2m1")
    assert code == 2 and out == ""
    assert "infinity-code exponent" in err


def test_one_logit_pass_per_compiled_spec(run_cli, monkeypatch):
    calls = []
    real = attn.token_logits

    def counted(spec, x):
        calls.append(len(x))
        return real(spec, x)

    monkeypatch.setattr(attn, "token_logits", counted)
    code, out, _ = run_cli("protocol", "--construction", "fp-softmax",
                           "--t", "4", "--e", "7", "--count", "500")
    assert code == 0
    assert "500/500 transcripts agree" in out
    assert len(calls) == 1
