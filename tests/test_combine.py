"""The factored verifier's combine by runs against the per-pair combine.

oracle._combine classes each numerator fold value against runs of the
sorted denominator values: it divides at the ends of a run, and
attn.head_class certifies the class of every attention output between.
The finite numerator values are visited in sorted order, each sign apart,
and oracle._runs seeds each row's runs from the run ends of the row
before, galloping right from a seed that certifies and bisecting down
from one that does not.  The reference below is the combine it replaced:
one finish_softmax per (numerator bucket, denominator bucket) pair.  On
the buckets of one exhaustive run both must give the same total, failure
count and saturated count, and list the same failures in the same order;
and every row's runs are checked against head_class and finish_softmax
directly.
"""

import bisect
from itertools import islice, product

import pytest

from eqattn import oracle
from eqattn.attn import finish_softmax, forward, head_class
from eqattn.constructs import make
from eqattn.oracle import (FAILURE_LIST_CAP, Failure, Tally, fold_split,
                           precision_delta_spec, verify_exhaustive_spec)
from eqattn.quantlab import parse_quant_format, quantize_spec


def _per_pair_combine(spec, num_buckets, den_buckets, s):
    """One finish_softmax per bucket pair, failures listed in bucket order
    and re-checked with forward."""
    second = spec.m - s
    total = wrong = saturated = 0
    listed = []
    for (num, rel1), (cnt1, ex1) in num_buckets.items():
        for (den, rel2), (cnt2, ex2) in den_buckets.items():
            if rel1 == 0 and rel2 > 0:
                continue  # would violate y <= z
            expected = int(rel1 == rel2 == 0)
            if num is oracle._NAN or den is oracle._NAN:
                bit, combo_inf = 0, True
            else:
                bit, sa, out = finish_softmax(spec, num, den)
                combo_inf = sa is None or oracle._any_inf(num, den, sa, out)
            count = cnt1 * cnt2
            total += count
            saturated += count * combo_inf
            if bit == expected:
                continue
            wrong += count
            room = FAILURE_LIST_CAP - len(listed)
            for (a, b), (c, d) in islice(product(ex1, ex2), room):
                y = format(a, f"0{s}b") + format(c, f"0{second}b")
                z = format(b, f"0{s}b") + format(d, f"0{second}b")
                trace = forward(spec, y, z)
                assert trace.bit == bit, (y, z)
                listed.append(Failure(y, z, expected, bit, trace))
    return Tally(total, wrong, tuple(listed), saturated)


def _subjects():
    out = []
    for m in range(5, 14, 2):
        spec, promises = make("fx-tight", m=m)
        # m=5 has a 3-bit stage, which two bits fewer would leave 1 bit
        out += [(f"fx-tight-{m}{d:+d}", precision_delta_spec(spec, d),
                 promises) for d in range(-1 if m == 5 else -2, 4)]
    for m in (9, 11):
        spec, promises = make("fx-simple", m=m)
        out += [(f"fx-simple-{m}{d:+d}", precision_delta_spec(spec, d),
                 promises) for d in (-1, 0, 1)]
    for m in (9, 11, 13):
        spec, promises = make("fx-tight", m=m)
        out += [(f"fx-tight-{m}-{name}",
                 quantize_spec(spec, parse_quant_format(name)), promises)
                for name in ("int6", "int8", "int16", "fp8_e4m3", "fp16")]
    return out


SUBJECTS = _subjects()


def _outcome(tally):
    """The counts and the listed failures, in listing order."""
    return (tally.total, tally.failure_count, tally.saturated,
            [(f.y, f.z, f.expected, f.got) for f in tally.failures])


@pytest.mark.parametrize("label,spec,promises", SUBJECTS,
                         ids=[label for label, _, _ in SUBJECTS])
def test_runs_match_the_per_pair_combine(label, spec, promises,
                                         monkeypatch):
    assert fold_split(spec, promises) is not None, label
    combine, seen = oracle._combine, []

    def both(*args):
        got = combine(*args)
        seen.append((got, _per_pair_combine(*args)))
        return got

    monkeypatch.setattr(oracle, "_combine", both)
    monkeypatch.setattr(oracle, "PAIR_CAP", 10 ** 12)
    verify_exhaustive_spec(spec, promises, label)
    (got, want), = seen
    assert _outcome(got) == _outcome(want)


def _rows(spec, promises, monkeypatch):
    """(num, dens, npos, seeds, runs) of each oracle._runs call in one
    exhaustive run, in call order."""
    runs, rows = oracle._runs, []

    def record(spec, num, dens, npos, seeds):
        got = runs(spec, num, dens, npos, seeds)
        rows.append((num, dens, npos, list(seeds), got))
        return got

    monkeypatch.setattr(oracle, "_runs", record)
    monkeypatch.setattr(oracle, "PAIR_CAP", 10 ** 12)
    verify_exhaustive_spec(spec, promises, "runs")
    return rows


def _cell(spec, num, den):
    """(bit, saturated, sa) of one cell, as the combine classes it alone."""
    if num is oracle._NAN or den is oracle._NAN:
        return 0, True, None
    bit, sa, out = finish_softmax(spec, num, den)
    return bit, sa is None or oracle._any_inf(num, den, sa, out), sa


@pytest.mark.parametrize("label,spec,promises", SUBJECTS,
                         ids=[label for label, _, _ in SUBJECTS])
def test_every_row_of_runs_is_certified(label, spec, promises,
                                        monkeypatch):
    rows = _rows(spec, promises, monkeypatch)
    assert rows, label
    for num, dens, npos, seeds, runs in rows:
        assert sorted(k for i, j, _, _ in runs
                      for k in range(i, j + 1)) == list(range(len(dens)))
        for i, j, bit, sat in runs:
            for k in range(i, j + 1):
                assert _cell(spec, num, dens[k])[0] == bit, (label, num, k)
            if i == j:
                assert _cell(spec, num, dens[i])[:2] == (bit, sat)
                continue
            assert num.is_finite and j < npos, (label, num, i, j)
            lo, hi = _cell(spec, num, dens[i])[2], _cell(spec, num, dens[j])[2]
            if num.sign > 0:
                lo, hi = hi, lo
            assert head_class(spec, lo, hi) == (bit, sat), (label, i, j)


def test_a_seed_that_overshoots_is_bisected_down(monkeypatch):
    """fx-simple m=9 one bit up, a subject above: some row that is not the
    first of its sign, so seeded from the run ends of the row before, has
    a run that ends before its seed end.  That seed did not certify, and
    the run was bisected down from it."""
    spec, promises = make("fx-simple", m=9)
    rows = [row for row in _rows(precision_delta_spec(spec, 1), promises,
                                 monkeypatch) if row[3]]   # finite rows
    fell_back = [
        k for k, (num, _, npos, seeds, runs) in enumerate(rows)
        if k and (num.as_fraction() < 0) == (rows[k - 1][0].as_fraction() < 0)
        and any(j < seeds[bisect.bisect_left(seeds, i)]
                for i, j, _, _ in runs if j < npos)]
    assert fell_back


def test_the_seeded_runs_pin_their_certifications_and_divides(
        monkeypatch):
    """fx-tight m=13: 95 numerator values against 97 positive
    denominators.  Bisecting each row from scratch took 1,031 head_class
    calls and 753 divides; the runs seeded from the row before take 255
    and 435."""
    calls = {"head_class": 0, "finish_softmax": 0}
    for name in calls:
        def counted(*args, real=getattr(oracle, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(oracle, name, counted)
    report = oracle.verify_exhaustive("fx-tight", m=13)
    assert (report.total, report.failure_count) == (33558528, 0)
    assert calls == {"head_class": 255, "finish_softmax": 435}
