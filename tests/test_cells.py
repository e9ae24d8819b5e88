"""The compiled cells against cells built fresh.

A spec compiles one cell per distinct row value, from one token_logits call,
and a map per position from the input bits it reads, int(y + z, 2) masked to
them, to its cell; token_cells and fold_reads read every cell from these.
At every position and for every pattern of its bits, the mapped cell must
equal a fresh _make_cell of the encoded row on every field, its term codes
included, for every family and its quantizations; a row
whose cell cannot be built is mapped at no position and still fails at the
first position that reaches it; fold_reads must give what a fresh build of
every cell gives.
"""

import warnings

import pytest

from eqattn import attn
from eqattn.attn import (Cell, _make_cell, _rep, fold_reads, forward,
                         token_cells, token_logits)
from eqattn.bitnum import LogitOutOfRange
from eqattn.constructs import make
from eqattn.quantlab import (FP8_E4M3, INT6, DegenerateTensor,
                             parse_quant_format, quantize_spec)

FP_E2M1 = parse_quant_format("fp_e2m1")

FAMILIES = {
    "fx-simple m=5": ("fx-simple", {"m": 5}),
    "fx-tight m=7": ("fx-tight", {"m": 7}),
    "fp-linear (4,3)": ("fp-linear", {"t": 4, "e": 3}),
    "fp-softmax (4,7)": ("fp-softmax", {"t": 4, "e": 7}),
}
FORMATS = {"native": None, "int6": INT6, "fp8_e4m3": FP8_E4M3,
           "fp_e2m1": FP_E2M1}


def _subject(family, fmt):
    name, size = FAMILIES[family]
    spec = make(name, **size)[0]
    if FORMATS[fmt] is None:
        return spec
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTensor)
        return quantize_spec(spec, FORMATS[fmt])


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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("family", FAMILIES)
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
