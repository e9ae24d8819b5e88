"""Analytic construction builders, promise sets and layout tables."""

import random

import pytest

from eqattn.attn import LINEAR, SOFTMAX, forward
from eqattn.constructs import (
    UnsupportedM,
    half_len,
    make,
    native_precision,
    table_outline,
)

FX_TIGHT_M5_OUTLINE = [
    "shift-neg: positions -1..-1, key -(K-1), value -(2^K - 2)",
    "copy-y1: positions 0..1, key -6, value +(y_1) * 2^6",
    "top-y: positions 2..3, key -6, value +(y_i) * 2^(8-i)",
    "den-y: positions 4..5, key m-i if y_i = 0 else -N, value 0",
    "copy-z1: positions 6..7, key -6, value -(z_1) * 2^6",
    "shift-pos: positions 8..8, key -(K-1), value +(2^K - 2)",
    "top-z: positions 9..10, key -6, value -(z_j) * 2^(8-j) for j = i-m-2",
    "den-z: positions 11..12, key m-j if z_j = 1 else -N, value 0",
    "shift-tail: positions 13..13, key -(K-1), value +2",
    "rest: positions 14..14, key -N, value 0 (padding and query)",
]

FX_SIMPLE_M5_OUTLINE = [
    "top-y: positions 1..3, key -6, value -(y_i) * 2^(7-i)",
    "den-y: positions 4..5, key m-i if y_i = 0 else -N, value 0",
    "top-z: positions 6..8, key -6, value +(z_j) * 2^(7-j) for j = i-m",
    "den-z: positions 9..10, key 2m-i if z_j = 1 else -N, value 0",
    "dummy: positions 11..11, key -1, value 4 - 2^(2-K)",
    "rest: positions 12..18, key -N, value 0 (padding and query)",
]


def all_pairs(m):
    strings = [format(v, f"0{m}b") for v in range(1 << m)]
    return [(y, z) for i, y in enumerate(strings)
            for z in strings[i:]]


class TestBuilders:
    def test_families_and_shapes(self):
        """Each family builds a validated head with the documented size,
        attention kind and native precision."""
        cases = [
            ("fx-simple", {"m": 5}, SOFTMAX, 4),
            ("fx-tight", {"m": 5}, SOFTMAX, 3),
            ("fp-linear", {"t": 4, "e": 3}, LINEAR, 7),
            ("fp-softmax", {"t": 4, "e": 7}, SOFTMAX, 11),
        ]
        for name, kw, kind, p in cases:
            spec, promises = make(name, **kw)
            assert spec.attention_kind == kind
            assert native_precision(spec) == p
            assert len(spec.embedding) == spec.n + 1
            spec.validate()

    def test_fx_precision_tracks_half_length(self):
        """fx-simple spends one bit more than the half length; fx-tight
        spends exactly the half length."""
        for m in (5, 7, 9, 11):
            assert half_len(m) == (m + 1) // 2
            simple, _ = make("fx-simple", m=m)
            tight, _ = make("fx-tight", m=m)
            assert native_precision(simple) == half_len(m) + 1
            assert native_precision(tight) == half_len(m)

    def test_fp_linear_size_is_t_plus_e(self):
        for t, e in ((4, 3), (5, 3), (4, 4)):
            spec, _ = make("fp-linear", t=t, e=e)
            assert spec.m == t + e

    def test_unsupported_parameters(self):
        with pytest.raises(UnsupportedM, match="needs m"):
            make("fx-simple")
        with pytest.raises(UnsupportedM, match="odd"):
            make("fx-simple", m=4)
        with pytest.raises(UnsupportedM, match="t and e"):
            make("fp-linear", t=4)
        with pytest.raises(UnsupportedM, match="takes t and e, not m"):
            make("fp-linear", m=7, t=4, e=3)
        with pytest.raises(UnsupportedM, match="takes m, not t and e"):
            make("fx-tight", m=5, t=4, e=3)
        with pytest.raises(UnsupportedM, match="unknown construction"):
            make("nope", m=5)

    def test_token_count_override(self):
        spec, _ = make("fx-tight", m=5, n=40)
        assert len(spec.embedding) == 41
        with pytest.raises(UnsupportedM, match="n >="):
            make("fx-tight", m=5, n=3)
        for y, z in (("00000", "00000"), ("00101", "11010")):
            wide = forward(spec, y, z)
            assert wide.bit == int(y == z)


class TestPromises:
    def test_fx_promises_accept_every_canonical_pair(self):
        """The fixed-point families promise nothing beyond the canonical
        ordering y <= z; every ordered pair is admissible."""
        rng = random.Random(7)
        for name in ("fx-simple", "fx-tight"):
            _, promises = make(name, m=7)
            for _ in range(200):
                y = format(rng.getrandbits(7), "07b")
                z = format(rng.getrandbits(7), "07b")
                if y > z:
                    y, z = z, y
                assert promises.check(y, z) == []
            assert promises.check("1000000", "0000000") \
                == ["y_le_z"]

    def test_fp_linear_promise_is_an_exponent_window(self):
        """(t, e) = (4, 3) admits exactly the strings whose exponent field
        lies in [t-1, 2^e - 2] and whose last two bits are not 10:
        2 signs x 4 exponents x 6 of the 8 mantissa patterns."""
        _, promises = make("fp-linear", t=4, e=3)
        good = [y for v in range(1 << 7)
                if promises.y_ok(y := format(v, "07b"))]
        assert len(good) == 48
        assert all(y[-2:] != "10" for y in good)
        flags = promises.check("0000000", "1111111")
        assert "y_exp_positive" in flags
        assert "z_exp_window" in flags

    def test_fp_softmax_promise_flags_small_exponents(self):
        _, promises = make("fp-softmax", t=4, e=7)
        assert promises.check("0" * 15, "0" * 15) \
            == ["exp_head_min"]
        assert promises.y_ok("011100101010101")

    def test_equal_pairs_are_always_admissible_when_either_side_is(self):
        _, promises = make("fp-linear", t=4, e=3)
        for v in range(1 << 7):
            y = format(v, "07b")
            if promises.y_ok(y) and promises.z_ok(y):
                assert promises.check(y, y) == []


class TestOutlines:
    def test_fx_outlines_are_frozen(self):
        """The layout tables are part of the contract: downstream notes
        reference these row groups by name."""
        assert table_outline("fx-tight", m=5) == FX_TIGHT_M5_OUTLINE
        assert table_outline("fx-simple", m=5) == FX_SIMPLE_M5_OUTLINE

    def test_fp_outlines_name_their_stages(self):
        linear = table_outline("fp-linear", t=4, e=3)
        assert linear[0].startswith("head-y: positions 0..0")
        assert linear[-1].endswith("(padding and query)")
        softmax = table_outline("fp-softmax", t=4, e=7)
        assert any(ln.startswith("dummy:") for ln in softmax)
        assert any("den-z" in ln for ln in softmax)


class TestGroundTruth:
    def test_fx_tight_m5_is_exact_over_all_pairs(self):
        """Brute force, no oracle shortcuts: the m = 5 tight head answers
        every one of the 528 canonical pairs correctly at its native
        precision."""
        spec, promises = make("fx-tight", m=5)
        wrong = []
        for y, z in all_pairs(5):
            assert promises.check(y, z) == []
            trace = forward(spec, y, z)
            if trace.bit != int(y == z):
                wrong.append((y, z))
        assert wrong == []

    def test_fx_simple_m5_is_exact_over_all_pairs(self):
        spec, _ = make("fx-simple", m=5)
        for y, z in all_pairs(5):
            trace = forward(spec, y, z)
            assert trace.bit == int(y == z), (y, z)

    def test_fp_linear_43_is_exact_on_admissible_pairs(self):
        spec, promises = make("fp-linear", t=4, e=3)
        good = 0
        for y, z in all_pairs(7):
            if promises.check(y, z):
                continue
            good += 1
            trace = forward(spec, y, z)
            assert trace.bit == int(y == z), (y, z)
        assert good == 1568

    def test_fp_softmax_answers_a_seeded_sample(self):
        spec, promises = make("fp-softmax", t=4, e=7)
        rng = random.Random(21)
        done = 0
        while done < 150:
            y = format(rng.getrandbits(15), "015b")
            z = format(rng.getrandbits(15), "015b")
            if rng.random() < 0.5:
                z = y
            if promises.check(y, z):
                continue
            trace = forward(spec, y, z)
            assert trace.bit == int(y == z), (y, z)
            done += 1
