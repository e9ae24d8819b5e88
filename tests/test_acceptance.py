"""Acceptance gate: ten release criteria, one test and one verdict line
each under pytest -v.

The criteria pin the analytic heads (exhaustive correctness and the
one-bit cliff), the floating-point families, protocol equivalence, the
fooling-set counting, the worked arithmetic walkthroughs, randomized
rounding properties, the quantization cliff, the dataset generator, and
report determinism.
"""

import random
from fractions import Fraction

import gridref
from reffwd import sum_left
from eqattn.attn import forward
from eqattn.bitnum import (
    FpFormat,
    FxFormat,
    IndeterminateForm,
    decode_scalar,
    encode_scalar,
    fp_round,
    fx_round,
)
from eqattn.commsim import enumerate_fooling, run_protocol
from eqattn.constructs import make, native_precision
from eqattn.oracle import to_csv, verify_exhaustive, verify_sampled
from eqattn.quantlab import gen_dataset, int_format, sweep

ODD_MS = (5, 7, 9, 11, 13)


def _promise_pairs(m, promises):
    strings = [format(v, f"0{m}b") for v in range(1 << m)]
    return [(y, z) for y in strings for z in strings
            if y <= z and not promises.check(y, z)]


def test_criterion_01_exhaustive_upper_bound_verification():
    """Both fixed-point heads answer every promise pair correctly for all
    odd m from 5 to 13, at p = ceil(m/2)+1 (simple) and ceil(m/2) (tight),
    over all 2^(m-1) * (2^m + 1) pairs."""
    for m in ODD_MS:
        half_up = (m + 1) // 2
        for name, p_want in (("fx-simple", half_up + 1), ("fx-tight", half_up)):
            report = verify_exhaustive(name, m=m)
            assert report.p == p_want
            assert report.total == (1 << (m - 1)) * ((1 << m) + 1)
            assert report.failure_count == 0, (
                f"{name} m={m}: {report.failure_count} failures")


def test_criterion_02_one_bit_precision_cliff():
    """Shaving one bit from every stage breaks both heads at every tested
    m; a concrete counterexample pair is printed for each run."""
    for m in ODD_MS:
        for name in ("fx-simple", "fx-tight"):
            report = verify_exhaustive(name, m=m, precision_delta=-1)
            assert report.failure_count >= 1, f"{name} m={m} survived p-1"
            first = report.failures[0]
            assert len(first.y) == m and len(first.z) == m
            line = (f"cliff counterexample {name} m={m}: y={first.y} "
                    f"z={first.z} expected={first.expected} got={first.got}")
            print(line)
            assert any(f"y={first.y} z={first.z}" in ln
                       for ln in report.render_lines())


def test_criterion_03_floating_point_families():
    """fp-linear verifies exhaustively at (t,e) in {(4,3),(5,3),(4,4)} and
    fp-softmax at (4,7) survives 10^5 seeded samples plus the adversarial
    single-flip set with zero failures."""
    for (t, e), pairs in (((4, 3), 1568), ((5, 3), 3504), ((4, 4), 13920)):
        report = verify_exhaustive("fp-linear", t=t, e=e)
        assert report.m == t + e
        assert report.total == pairs
        assert report.failure_count == 0, (
            f"fp-linear t={t} e={e}: {report.failure_count} failures")
    big = verify_sampled("fp-softmax", t=4, e=7, samples=10**5, seed=0)
    assert big.m == 15
    assert big.total >= 10**5
    assert big.failure_count == 0, f"fp-softmax: {big.failure_count} failures"


def test_criterion_04_protocol_matches_forward_pass():
    """The one-way protocol reproduces the forward pass on 100% of promise
    pairs for fx-tight at m in {5, 7, 9}, always spending exactly 2p bits."""
    for m in (5, 7, 9):
        spec, promises = make("fx-tight", m=m)
        p = native_precision(spec)
        pairs = _promise_pairs(m, promises)
        assert len(pairs) == (1 << (m - 1)) * ((1 << m) + 1)
        costs = set()
        for y, z in pairs:
            run = run_protocol(spec, y, z)
            ref = forward(spec, y, z)
            assert run.bob_bit == ref.bit, f"m={m} y={y} z={z} disagrees"
            costs.add(run.bit_cost)
        assert costs == {2 * p}


def test_criterion_05_fooling_set_counts_and_bounds():
    """The closed form 3*2^(m-2)*(1-2^-e) implies an m-bit lower bound for
    every 2 <= e < m <= 16; the enumeration matches it exactly wherever the
    exponent and tail windows are disjoint (e <= m-3), and the boundary
    divergence is pinned, 8 enumerated against 9 closed-form at (4, 2)."""
    for m in range(3, 17):
        for e in range(2, m):
            rep = enumerate_fooling(m, e)
            closed = 3 * Fraction(1 << (m - 2)) * (1 - Fraction(1, 1 << e))
            assert rep.formula == closed
            assert rep.formula_bound == m
            if e <= m - 3:
                assert rep.enumerated == closed
                assert (rep.enumerated - 1).bit_length() == m
            elif e == m - 2:
                assert rep.enumerated == closed - 1
            else:
                assert rep.enumerated == 3 * (1 << (m - 2)) - 2
    example = enumerate_fooling(4, 2)
    assert (example.enumerated, example.formula) == (8, Fraction(9))
    assert example.formula_bound == 4


def test_criterion_06_worked_arithmetic_goldens(run_cli):
    """The demo walkthroughs stay pinned: the product rounds to 100.1 under
    nearest-ties-truncate, and the three-term fold splits into 100 (left)
    against 101 (right-nested) under truncation."""
    code, out, err = run_cli("arith-demo")
    assert code == 0 and err == ""
    assert ("multiply 1.101 * 10.11 (4 significant bits, "
            "nearest-ties-truncate): 100.1 (4.5)") in out
    trunc_fold = out.split("fold ")[1]
    assert trunc_fold.startswith("10 + 1.01 + 1.11 (3 significant bits, "
                                 "truncate):")
    assert "left: 100 (4)" in trunc_fold
    assert "right: 101 (5)" in trunc_fold


def _rational(rng, span=9):
    shape = rng.randrange(4)
    if shape == 0:
        return Fraction(rng.randrange(-(1 << span), 1 << span))
    if shape == 1:
        return Fraction(rng.randrange(-(1 << span), 1 << span),
                        1 << rng.randrange(span))
    if shape == 2:
        d = rng.randrange(1, 1 << span) * 2 + 1
        return Fraction(rng.randrange(-(1 << span), 1 << span), d)
    return Fraction(rng.randrange(-(1 << span), 1 << span),
                    rng.randrange(1, 1 << span))


def _property_battery(rng, fmt, round_num, sum_left, round_ref, ulp_step, n):
    """Round-trip, monotonicity, half-ulp and fold equivalence, n cases
    each; returns the number of checks that ran, all of them passing."""
    ran = 0
    for _ in range(n):
        v = _rational(rng)
        r = round_num(v, fmt)
        if r.is_finite:
            fr = r.as_fraction()
            assert round_num(fr, fmt).as_fraction() == fr
            assert decode_scalar(encode_scalar(r)) == fr
        ran += 1

    vals = sorted(_rational(rng) for _ in range(n))
    rounded = [gridref.unwrap(round_num(v, fmt)) for v in vals]
    keyed = [r[1] * Fraction(10) ** 9 if isinstance(r, tuple) else r
             for r in rounded]
    assert keyed == sorted(keyed)
    ran += n

    for _ in range(n):
        v = _rational(rng)
        got = round_num(v, fmt)
        if got.is_finite and not got.is_zero and v != 0:
            assert abs(got.as_fraction() - v) <= ulp_step(v, fmt) / 2
        ran += 1

    consumed = 0
    while consumed < n:
        seq = [_rational(rng, 6) for _ in range(rng.randrange(2, 9))]
        consumed += len(seq)
        ref = gridref.fold_ref(seq, lambda v: round_ref(v, fmt))
        try:
            got = gridref.unwrap(sum_left(seq, fmt))
        except IndeterminateForm:
            got = "indeterminate"
        assert got == ref, f"fold mismatch on {seq}"
    ran += consumed
    return ran


def test_criterion_07_rounding_property_battery():
    """10^4 randomized cases per property per format class: representable
    values survive rounding and the text codec, rounding is monotone, the
    nearest mode stays within half a grid step, and left folds agree with
    the brute-force reference."""
    def fx_step(v, fmt):
        scale = Fraction(2) ** fmt.scale_log2
        u = abs(v) / scale
        octave = gridref.floor_log2(u) + 1
        return Fraction(2) ** (max(octave, 0) - fmt.budget) * scale

    def fp_step(v, fmt):
        return Fraction(2) ** (gridref.floor_log2(abs(v)) - (fmt.t - 1))

    n = 10**4
    rng = random.Random(0xACC7)
    ran = _property_battery(rng, FxFormat(5, scale_log2=-1), fx_round,
                            sum_left, gridref.fx_round_ref, fx_step, n)
    assert ran >= 4 * n
    ran = _property_battery(rng, FpFormat(4, 4), fp_round, sum_left,
                            gridref.fp_round_ref, fp_step, n)
    assert ran >= 4 * n


def test_criterion_08_quantization_cliff_sweep():
    """Quantizing fx-tight at m=13 to native, native-1 and native-2 integer
    widths over the full exhaustive set scores 1.0 only at native width:
    at these three widths (int7, int6 and int5), accuracy is 1.0 exactly
    when the capacity column reaches m.  Wider targets detune the head, so
    the rule does not extend to them (int8 and int16 fail pairs here)."""
    rows = sweep("fx-tight", [int_format(7), int_format(6), int_format(5)],
                 ms=[13], exhaustive=True)
    assert [r.capacity for r in rows] == [14, 12, 10]
    assert all(r.total == 33558528 for r in rows)
    assert rows[0].accuracy == 1
    assert rows[1].accuracy < 1
    assert rows[2].accuracy < 1
    for r in rows:
        assert (r.capacity >= 13) == (r.accuracy == 1)


def test_criterion_09_dataset_generator_contract():
    """At m=15 every unequal pair differs in exactly 11 positions and the
    equal fraction sits within 0.5 +- 0.02 over 10^4 pairs at a fixed
    seed."""
    ds = gen_dataset(15, 10**4, seed=0)
    for y, z, lab in ds:
        diff = sum(a != b for a, b in zip(y, z))
        assert diff == (0 if lab else 11)
    equal = Fraction(sum(lab for _, _, lab in ds), len(ds))
    assert abs(equal - Fraction(1, 2)) <= Fraction(2, 100)


def test_criterion_10_csv_reports_are_deterministic(run_cli):
    """Repeating any report-producing run with the same seed yields a
    byte-identical CSV: the exhaustive and sampled verifiers, the
    quantization sweep, and the fooling row."""
    a = verify_sampled("fp-softmax", t=4, e=7, samples=500, seed=3)
    b = verify_sampled("fp-softmax", t=4, e=7, samples=500, seed=3)
    assert to_csv([a]) == to_csv([b])

    c = verify_exhaustive("fx-tight", m=5)
    d = verify_exhaustive("fx-tight", m=5)
    assert to_csv([c, d]).count("fx-tight,5,,,3,528,0,0.000") == 2

    qa = sweep("fx-tight", [int_format(6)], ms=[9], count=400, seed=7)
    qb = sweep("fx-tight", [int_format(6)], ms=[9], count=400, seed=7)
    assert to_csv(qa) == to_csv(qb)

    first = run_cli("fooling", "--m", "6", "--e", "3", "--format", "csv")
    second = run_cli("fooling", "--m", "6", "--e", "3", "--format", "csv")
    assert first == second and first[0] == 0
