"""One-way protocol simulation and the counting lower bound."""

import random
from fractions import Fraction

import pytest

from eqattn.attn import forward
from eqattn.commsim import FoolingReport, enumerate_fooling, run_protocol
from eqattn.constructs import make, native_precision
from eqattn.oracle import BudgetExceeded
from eqattn.quantlab import INT4, DegenerateTensor, quantize_spec
from reffwd import ref_forward


def all_pairs(m):
    strings = [format(v, f"0{m}b") for v in range(1 << m)]
    return [(y, z) for i, y in enumerate(strings) for z in strings[i:]]


class TestProtocol:
    def test_matches_forward_on_every_m5_pair(self):
        """Cutting the fold at the y/z boundary and resuming on the other
        side gives the single-machine answer on all 528 pairs, at a cost
        of exactly two native-precision scalars."""
        spec, _ = make("fx-tight", m=5)
        p = native_precision(spec)
        for y, z in all_pairs(5):
            run = run_protocol(spec, y, z)
            ref = forward(spec, y, z)
            assert run.bob_bit == ref.bit, (y, z)
            assert run.bit_cost == 2 * p

    def test_a_linear_transcript_keeps_alices_message(self):
        """When Bob's part of a linear head meets an indeterminate form,
        the transcript still shows the numerator partial Alice sent."""
        spec, _ = make("fp-linear", t=4, e=3)
        with pytest.warns(DegenerateTensor):
            spec = quantize_spec(spec, INT4)
        y, z = "0011000", "0110000"
        run = run_protocol(spec, y, z)
        ref = ref_forward(spec, spec.encode(y, z))
        assert ref.indeterminate and run.bob_bit == 0
        assert run.l2 == ref.num_partials[run.prefix - 1]

    def test_default_prefix_is_the_y_tokens(self):
        for spec, k in ((make("fx-tight", m=5)[0], 7),
                        (make("fx-simple", m=5)[0], 5),
                        (make("fp-linear", t=4, e=3)[0], 8)):
            run = run_protocol(spec, "0" * spec.m, "0" * spec.m)
            assert run.prefix == k

    def test_any_prefix_length_gives_the_same_bit(self):
        """Left folds decompose at every prefix boundary, not just the
        default one, so longer or shorter Alice shares cannot change the
        answer."""
        spec, _ = make("fx-tight", m=5)
        rng = random.Random(3)
        pairs = [("00000", "00000"), ("00011", "10100"), ("01101", "01101")]
        pairs += [(format(rng.getrandbits(5), "05b"),
                   format(rng.getrandbits(5), "05b")) for _ in range(12)]
        for y, z in pairs:
            y, z = min(y, z), max(y, z)
            ref = forward(spec, y, z).bit
            for k in (1, 3, 7, 10, spec.n + 1):
                run = run_protocol(spec, y, z, k)
                assert (run.prefix, run.bob_bit) == (k, ref), (y, z)

    def test_linear_protocol_sends_one_scalar(self):
        spec, promises = make("fp-linear", t=4, e=3)
        p = native_precision(spec)
        done = 0
        rng = random.Random(4)
        while done < 60:
            y = format(rng.getrandbits(7), "07b")
            z = format(rng.getrandbits(7), "07b")
            y, z = min(y, z), max(y, z)
            if promises.check(y, z):
                continue
            run = run_protocol(spec, y, z)
            assert run.l1 is None
            assert run.bit_cost == p
            assert run.bob_bit == forward(spec, y, z).bit
            done += 1

    def test_prefix_lengths_past_the_sequence_are_rejected(self):
        """Alice holds 1 to n + 1 tokens: the empty share, a negative one
        and one past the last token are refused."""
        spec, _ = make("fx-tight", m=5)
        for k in (0, -1, spec.n + 2, 40):
            with pytest.raises(ValueError, match="prefix length"):
                run_protocol(spec, "00000", "00000", k)


class TestFooling:
    def test_small_set_recounted_independently(self):
        """m = 5, e = 2: strings with a nonzero exponent field and a tail
        other than 10, counted here by explicit filtering."""
        want = 0
        for v in range(32):
            x = format(v, "05b")
            if x[1:3] != "00" and not x.endswith("10"):
                want += 1
        rep = enumerate_fooling(5, 2)
        assert rep.enumerated == want == 18
        assert rep.formula == Fraction(18)
        assert rep.formula_exact
        assert (rep.enumerated - 1).bit_length() == 5
        assert rep.formula_bound == 5

    def test_closed_formula_on_disjoint_windows(self):
        for m, e in ((6, 3), (8, 2), (9, 5), (10, 7)):
            rep = enumerate_fooling(m, e)
            assert rep.formula == \
                3 * Fraction(1 << (m - 2)) * (1 - Fraction(1, 1 << e))
            assert rep.formula_exact
            assert (rep.enumerated - 1).bit_length() == m

    def test_overlapping_windows_fall_short(self):
        """At e = m - 2 the exponent field reaches the tail and the closed
        formula overcounts; the canonical example is (4, 2): 8 enumerated
        against 9 from the formula."""
        rep = enumerate_fooling(4, 2)
        assert rep.enumerated == 8
        assert rep.formula == Fraction(9)
        assert not rep.formula_exact
        assert (rep.enumerated - 1).bit_length() == 3
        assert rep.formula_bound == 4

    def test_formula_bound_ceils_fractional_forms_exactly(self):
        """ceil(log2(45/2)) is 5 and ceil(log2(9/2)) is 3; the second one
        separates exact rational handling from any integer fallback."""
        frac = FoolingReport(m=5, e=4, enumerated=21,
                             formula=Fraction(45, 2))
        assert frac.formula_bound == 5
        tiny = FoolingReport(m=3, e=2, enumerated=4,
                             formula=Fraction(9, 2))
        assert tiny.formula_bound == 3

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            enumerate_fooling(5, 1)
        with pytest.raises(ValueError):
            enumerate_fooling(5, 5)
        with pytest.raises(BudgetExceeded):
            enumerate_fooling(25, 3)

