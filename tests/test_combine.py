"""The factored verifier's combine by runs against the per-pair combine.

oracle._combine classes each numerator fold value against runs of the
sorted denominator values: it divides at the ends of a run, and
attn.head_class certifies the class of every attention output between.
The reference below is the combine it replaced: one finish_softmax per
(numerator bucket, denominator bucket) pair.  On the buckets of one
exhaustive run both must give the same total, failure count and saturated
count, and list the same failures in the same order.
"""

from itertools import islice, product

import pytest

from eqattn import oracle
from eqattn.attn import finish_softmax, forward
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
