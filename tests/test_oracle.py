"""Exhaustive and sampled verification against ground-truth equality."""

import pytest

from eqattn import oracle
from conftest import build_toy_spec
from eqattn.attn import TokenRule, fold_reads, forward
from eqattn.bitnum import FpFormat
from eqattn.constructs import (
    PromiseSet,
    half_len,
    make,
    native_precision,
)
from eqattn.oracle import (
    BudgetExceeded,
    fold_split,
    precision_delta_spec,
    promise_pairs,
    to_csv,
    trace_saturated,
    verify_exhaustive,
    verify_exhaustive_spec,
    verify_sampled,
)
from eqattn.quantlab import parse_quant_format, quantize_spec


def _direct(spec, promises):
    """The pair-by-pair tally of every promise pair, as the verifier runs
    it when the spec does not factor."""
    return oracle.tally_pairs(spec, promise_pairs(promises, spec.m))


class TestPrecisionDelta:
    def test_delta_thins_every_stage(self):
        spec, _ = make("fx-tight", m=7)
        thin = precision_delta_spec(spec, -1)
        for key in ("fold", "num", "den", "out"):
            assert thin.formats[key].p == spec.formats[key].p - 1
            assert thin.formats[key].scale_log2 == \
                spec.formats[key].scale_log2
        assert native_precision(thin) == native_precision(spec) - 1

    def test_delta_zero_is_identity(self):
        spec, _ = make("fp-linear", t=4, e=3)
        same = precision_delta_spec(spec, 0)
        assert same.formats == spec.formats

    def test_delta_on_floats_moves_significand_bits(self):
        spec, _ = make("fp-linear", t=4, e=3)
        thin = precision_delta_spec(spec, -1)
        fmt = thin.num_fmt
        assert isinstance(fmt, FpFormat)
        assert native_precision(thin) == 6


class TestExhaustive:
    def test_native_precision_has_zero_failures(self):
        """Both fixed-point families answer all 528 canonical m = 5 pairs;
        saturated traces are tallied but are not failures."""
        simple = verify_exhaustive("fx-simple", m=5)
        tight = verify_exhaustive("fx-tight", m=5)
        for rep in (simple, tight):
            assert rep.passed
            assert rep.total == 528
            assert rep.mode == "exhaustive"
        assert simple.inf_count == 496
        assert tight.inf_count == 224

    def test_one_bit_below_native_breaks(self):
        rep = verify_exhaustive("fx-tight", m=5, precision_delta=-1)
        assert rep.failure_count == 249
        assert not rep.passed
        first = rep.failures[0]
        assert (first.y, first.z) == ("00000", "00001")
        assert "den=inf" in first.digest

    def test_factored_and_direct_pipelines_agree(self):
        """The half-space factorization must reproduce the direct pair
        enumeration exactly: totals, failures and saturation tallies."""
        for name, m in (("fx-simple", 5), ("fx-tight", 5), ("fx-tight", 7)):
            spec, promises = make(name, m=m)
            fast = verify_exhaustive_spec(spec, promises, name)
            direct = _direct(spec, promises)
            assert (fast.total, fast.failure_count, fast.inf_count) == \
                (direct.total, direct.failure_count, direct.saturated)

    def test_factored_failures_match_direct_failures(self):
        """Both pipelines find the same number of failures below native
        precision, and everything either one lists really does fail."""
        spec, promises = make("fx-tight", m=5)
        thin = precision_delta_spec(spec, -1)
        fast = verify_exhaustive_spec(thin, promises, "fx-tight")
        direct = _direct(thin, promises)
        assert fast.failure_count == direct.failure_count
        assert fast.inf_count == direct.saturated
        for f in list(fast.failures)[:6] + list(direct.failures)[:6]:
            trace = forward(thin, f.y, f.z)
            assert trace.bit == f.got != f.expected

    def test_every_reported_failure_reproduces(self):
        rep = verify_exhaustive("fx-tight", m=5, precision_delta=-1)
        spec, _ = make("fx-tight", m=5)
        thin = precision_delta_spec(spec, -1)
        for f in rep.failures[:8]:
            trace = forward(thin, f.y, f.z)
            assert trace.bit == f.got
            assert int(f.y == f.z) == f.expected

    def test_spot_check_catches_a_miss_of_the_factored_pass(self,
                                                           monkeypatch):
        """A clean factored sweep is spot-checked with direct forward
        passes; a forward that flips every bit makes the spot check find
        a failure the factored pass did not."""
        real = oracle.forward

        def flipped(spec, y, z):
            trace = real(spec, y, z)
            return trace._replace(bit=trace.bit ^ 1)

        monkeypatch.setattr(oracle, "forward", flipped)
        with pytest.raises(RuntimeError,
                           match="spot check found a failure"):
            verify_exhaustive("fx-tight", m=5)

    def test_factored_cap_bounds_the_work_not_the_pairs(self, monkeypatch):
        """fx-tight m=7 splits after bit 4 and folds 16*17/2 + 8*8 = 200
        field pairs, so a cap of 200 admits its 8,256 promise pairs and 199
        does not.  One bit wider at m=11 it folds 64*65/2 + 32*32 = 3,104
        field pairs into 64 x 94 bucket pairs, checked once bucketed."""
        monkeypatch.setattr(oracle, "PAIR_CAP", 200)
        assert verify_exhaustive("fx-tight", m=7).total == 8256
        monkeypatch.setattr(oracle, "PAIR_CAP", 199)
        with pytest.raises(BudgetExceeded, match="^200 field pairs"):
            verify_exhaustive("fx-tight", m=7)
        monkeypatch.setattr(oracle, "PAIR_CAP", 3104)
        with pytest.raises(BudgetExceeded, match="^6016 bucket pairs"):
            verify_exhaustive("fx-tight", m=11, precision_delta=1)

    def test_pair_cap_guards_runaway_enumerations(self, monkeypatch):
        with pytest.raises(BudgetExceeded):
            verify_exhaustive("fp-softmax", t=4, e=7)
        monkeypatch.setattr(oracle, "PAIR_CAP", 10)
        with pytest.raises(BudgetExceeded):
            verify_exhaustive("fp-linear", t=4, e=3)



def _with_rows(spec, source, row_fn):
    """The spec with the rule reading exactly source given new rows."""
    embedding = [TokenRule(rule.source, tuple(map(row_fn, rule.rows)))
                 if rule.source == source else rule
                 for rule in spec.embedding]
    assert embedding != spec.embedding
    return spec._replace(embedding=embedding).validate()


def _both_paths(spec, promises):
    """(total, failures, saturated) from verify_exhaustive_spec and from
    the direct pair-by-pair path."""
    rep = verify_exhaustive_spec(spec, promises, "fx-tight")
    direct = _direct(spec, promises)
    return (rep.total, rep.failure_count, rep.inf_count), \
        (direct.total, direct.failure_count, direct.saturated)


class TestFoldSplit:
    def test_fixed_point_heads_split_at_the_half(self):
        """The numerator reads bits 1..ceil(m/2) and the denominator the
        rest, on the built heads and on their quantizations."""
        subjects = [make("fx-tight", m=m) for m in range(5, 17, 2)]
        subjects += [make("fx-simple", m=m) for m in range(3, 15, 2)]
        for m in (7, 9):
            spec, promises = make("fx-tight", m=m)
            subjects += [(quantize_spec(spec, parse_quant_format(f)),
                          promises) for f in ("int6", "int8", "fp8_e4m3")]
        for spec, promises in subjects:
            k = half_len(spec.m)
            assert fold_split(spec, promises) == k
        for spec, _ in subjects[:12]:
            k = half_len(spec.m)
            assert fold_reads(spec) == (set(range(1, k + 1)),
                                        set(range(k + 1, spec.m + 1)))

    def test_no_split_without_two_ordered_folds(self):
        """Linear heads have one fold; fp-softmax's folds share bits 10-12;
        the one-bit toy head's denominator reads nothing after bit 1.  Under
        fp_e2m1 a key overflows the grid, so no cell can be built and every
        bit counts for both folds."""
        for t, e in ((4, 3), (4, 4)):
            assert fold_split(*make("fp-linear", t=t, e=e)) is None
        fp, promises = make("fp-softmax", t=4, e=7)
        assert fold_split(fp, promises) is None
        num, den = fold_reads(fp)
        assert (max(num), min(den)) == (12, 10)
        assert fold_split(fp, PromiseSet("fx-tight")) is None
        assert fold_split(build_toy_spec(), PromiseSet("fx-tight")) is None
        tight, promises = make("fx-tight", m=7)
        broken = quantize_spec(tight, parse_quant_format("fp_e2m1"))
        assert fold_reads(broken) == (set(range(1, 8)), set(range(1, 8)))
        assert fold_split(broken, promises) is None

    def test_valueless_bit_moves_the_split(self):
        """With y4 and z4 carrying value 0 the numerator stops at bit 3,
        and the split there counts what the direct path counts."""
        spec, promises = make("fx-tight", m=7)
        for side in ("y", "z"):
            spec = _with_rows(spec, ((side, 4),), lambda r: (r[0], r[1], 0))
        assert fold_split(spec, promises) == 3
        fast, direct = _both_paths(spec, promises)
        assert fast == direct == (8256, 120, 3900)

    def test_shared_bit_goes_direct(self):
        """A value on the den-y rule at y5 puts bit 5 in both folds: no
        split, and the report is the direct path's."""
        spec, promises = make("fx-tight", m=7)
        spec = _with_rows(spec, (("y", 5),), lambda r: (r[0], r[1], 1))
        assert fold_split(spec, promises) is None
        fast, direct = _both_paths(spec, promises)
        assert fast == direct == (8256, 64, 5164)

    @pytest.mark.parametrize("delta", [0, -1], ids=["p", "p-1"])
    @pytest.mark.parametrize("bit", [5, 6, 7], ids=["z5", "z6", "z7"])
    def test_a_y_bit_after_alices_prefix_still_splits(self, bit, delta):
        """The den-z rule at z5, z6 or z7 reading y instead leaves the
        folds' bits split after bit 4.  Bob's cells then depend on y, which
        the denominator's pass branches on as on any field bit, so the run
        still factors and counts what the direct path counts."""
        spec, promises = make("fx-tight", m=7)
        embedding = [TokenRule((("y", bit),), rule.rows)
                     if rule.source == (("z", bit),) else rule
                     for rule in spec.embedding]
        spec = precision_delta_spec(
            spec._replace(embedding=embedding).validate(), delta)
        assert fold_reads(spec) == ({1, 2, 3, 4}, {5, 6, 7})
        assert fold_split(spec, promises) == 4
        fast, direct = _both_paths(spec, promises)
        assert fast == direct

    def test_one_sided_flag_goes_direct(self):
        """A flag on y alone is not a pair-wide promise, so the run counts
        the pairs the promise admits, not every y <= z."""
        spec, _ = make("fx-tight", m=7)
        promises = PromiseSet("fx-tight",
                              flags=("m_odd", "y_le_z", "y_tail_ok"))
        assert fold_split(spec, promises) is None
        rep = verify_exhaustive_spec(spec, promises, "fx-tight")
        assert rep.total == len(list(promise_pairs(promises, 7))) == 6208
        assert rep.passed


class TestSampled:
    def test_same_seed_means_same_report(self):
        a = verify_sampled("fx-tight", m=7, samples=400, seed=9)
        b = verify_sampled("fx-tight", m=7, samples=400, seed=9)
        assert (a.total, a.failure_count, a.inf_count) == \
            (b.total, b.failure_count, b.inf_count)
        assert to_csv([a]) == to_csv([b])

    def test_adversarial_single_flips_ride_along(self):
        """The sampled verifier appends near-collision pairs, so the total
        exceeds the requested sample count."""
        rep = verify_sampled("fx-tight", m=7, samples=100, seed=0)
        assert rep.total > 100
        assert rep.mode == "sampled"
        assert rep.passed

    def test_sampling_respects_the_promise(self):
        rep = verify_sampled("fp-linear", t=4, e=3, samples=300, seed=1)
        assert rep.passed


class TestReporting:
    def test_csv_is_deterministic_and_zeroes_seconds(self):
        rep = verify_exhaustive("fx-tight", m=5)
        text = to_csv([rep])
        assert text.splitlines()[0] == \
            "construction,m,t,e,p,total,failures,seconds"
        assert text.splitlines()[1] == "fx-tight,5,,,3,528,0,0.000"

    def test_render_lines_caps_the_listing(self):
        rep = verify_exhaustive("fx-tight", m=5, precision_delta=-1)
        lines = rep.render_lines()
        assert "249 failures" in lines[0]
        assert len([ln for ln in lines if ln.startswith("  y=")]) == 10

    def test_trace_saturated_matches_the_tally(self):
        spec, promises = make("fx-simple", m=5)
        strings = [format(v, "05b") for v in range(32)]
        manual = 0
        for i, y in enumerate(strings):
            for z in strings[i:]:
                if trace_saturated(forward(spec, y, z)):
                    manual += 1
        assert manual == 496
