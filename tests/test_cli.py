"""End-to-end checks of the command line: exit codes, report shapes,
file output, and the pinned demo text.

Everything runs in-process through the run_cli fixture, so stdout and
stderr assertions see exactly what a shell user would.
"""

import hashlib
import json
import random
import re

import pytest

from eqattn import cli, oracle
from eqattn.constructs import make
from eqattn.quantlab import int_format, quantize_spec


class TestExitContract:
    def test_clean_verify_exits_zero(self, run_cli):
        code, out, err = run_cli("verify", "--construction", "fx-tight",
                                 "--m", "5")
        assert code == 0
        assert err == ""
        assert "0 failures" in out

    def test_precision_cliff_exits_one_with_counterexample(self, run_cli):
        """Thinning every stage by one bit must surface a concrete pair."""
        code, out, _ = run_cli("verify", "--construction", "fx-tight",
                               "--m", "5", "--precision-delta", "-1")
        assert code == 1
        assert "y=00000 z=00001" in out
        assert "num=1;den=inf" in out

    def test_even_m_is_a_usage_error(self, run_cli):
        code, out, err = run_cli("verify", "--construction", "fx-tight",
                                 "--m", "6")
        assert code == 2
        assert out == ""
        assert "m must be odd" in err

    def test_budget_guard_maps_to_usage_error(self, run_cli):
        code, _, err = run_cli("verify", "--construction", "fp-softmax",
                               "--t", "4", "--e", "7")
        assert code == 2
        assert err.startswith("error:")
        assert "cap" in err

    def test_unexpected_exception_exits_three(self, run_cli, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli.oracle, "verify_exhaustive", boom)
        code, _, err = run_cli("verify", "--construction", "fx-tight",
                               "--m", "5")
        assert code == 3
        assert "internal invariant breach: wires crossed" in err

    def test_unknown_flag_raises_argparse_exit(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--construction", "fx-tight", "--no-such"])
        assert info.value.code == 2

    def test_missing_subcommand_raises_argparse_exit(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestVerifyCommand:
    def test_text_report_names_the_subject(self, run_cli):
        _, out, _ = run_cli("verify", "--construction", "fx-tight",
                            "--m", "5")
        assert "fx-tight m=5" in out
        assert "528 pairs" in out

    def test_csv_report_row_is_frozen(self, run_cli):
        code, out, _ = run_cli("verify", "--construction", "fx-tight",
                               "--m", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "construction,m,t,e,p,total,failures,seconds"
        assert lines[1] == "fx-tight,5,,,3,528,0,0.000"

    def test_trace_flag_dumps_stage_lines_for_failures(self, run_cli):
        _, out, _ = run_cli("verify", "--construction", "fx-tight",
                            "--m", "5", "--precision-delta", "-1",
                            "--trace")
        assert "trace y=" in out
        assert "logit=" in out

    def test_trace_renders_the_traces_the_failures_were_found_with(
            self, run_cli, monkeypatch):
        """The factored run re-checks each of its 32 listed failures with
        forward and keeps that trace; --trace renders three of them and
        evaluates no pair again."""
        calls = []
        real = cli.forward

        def counted(spec, y, z):
            calls.append((y, z))
            return real(spec, y, z)

        monkeypatch.setattr(oracle, "forward", counted)
        monkeypatch.setattr(cli, "forward", counted)
        code, out, _ = run_cli("verify", "--construction", "fx-tight",
                               "--m", "5", "--precision-delta", "-1",
                               "--trace")
        assert code == 1
        assert len(calls) == 32
        thin = oracle.precision_delta_spec(make("fx-tight", m=5)[0], -1)
        blocks = out.split("\ntrace ")[1:]
        assert len(blocks) == 3
        for block in blocks:
            head, *body = block.rstrip("\n").split("\n")
            y, z = re.fullmatch(r"y=([01]+) z=([01]+):", head).groups()
            assert (y, z) in calls
            assert body == ["  " + ln
                            for ln in real(thin, y, z).render_lines()]

    def test_sampled_mode_respects_the_promise(self, run_cli):
        code, out, _ = run_cli("verify", "--construction", "fx-simple",
                               "--m", "7", "--samples", "40")
        assert code == 0
        assert "0 failures" in out

    def test_out_flag_writes_under_the_env_root(self, run_cli, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("EQATTN_OUT_DIR", str(tmp_path))
        code, out, _ = run_cli("verify", "--construction", "fx-tight",
                               "--m", "5", "--format", "csv",
                               "--out", "reports/run.csv")
        assert code == 0
        assert out == ""
        text = (tmp_path / "reports" / "run.csv").read_text()
        assert "fx-tight,5,,,3,528,0,0.000" in text

    def test_factored_run_is_capped_on_its_work(self, run_cli):
        """fx-tight m=15 has 536,887,296 promise pairs, past the pair cap,
        but the factored run folds only 2^8(2^8+1)/2 + 4^7 field pairs."""
        argv = ("verify", "--construction", "fx-tight", "--m", "15",
                "--format", "csv")
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "fx-tight,15,,,8,536887296,0,0.000"
        code, out, err = run_cli(*argv, "--precision-delta", "-1")
        assert (code, err) == (1, "")
        assert out.splitlines()[1] == \
            "fx-tight,15,,,7,536887296,236875922,0.000"

    @pytest.mark.parametrize("m,delta,row", [
        (19, 0, "fx-tight,19,,,10,137439215616,0,0.000"),
        (19, -1, "fx-tight,19,,,9,137439215616,60259323122,0.000"),
        (17, -1, "fx-tight,17,,,8,8590000128,3774227165,0.000"),
    ], ids=["m19", "m19-1", "m17-1"])
    def test_a_proof_at_scale(self, run_cli, m, delta, row):
        """The claim and its cliff at m = 17 and 19: 2^(m-1)(2^m + 1)
        promise pairs each, counted by the bucket pass without visiting
        them.  The field-pair walk that pass replaced gave the same rows."""
        code, out, err = run_cli("verify", "--construction", "fx-tight",
                                 "--m", str(m), "--precision-delta",
                                 str(delta), "--format", "csv")
        assert (code, err) == (int(delta < 0), "")
        assert out.splitlines()[1] == row


class TestSweepCommand:
    def test_grid_of_sizes_in_csv(self, run_cli):
        code, out, _ = run_cli("sweep", "--construction", "fx-tight",
                               "--ms", "5,7", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("fx-tight,5,")
        assert lines[2].startswith("fx-tight,7,")

    def test_cliff_sweep_exits_one(self, run_cli):
        code, out, _ = run_cli("sweep", "--construction", "fx-tight",
                               "--ms", "5", "--precision-delta", "-1")
        assert code == 1
        assert "failures" in out

    def test_garbled_ms_is_a_usage_error(self, run_cli):
        code, _, err = run_cli("sweep", "--construction", "fx-tight",
                               "--ms", "5,seven")
        assert code == 2
        assert "comma-separated integer list" in err

    def test_empty_grid_is_a_usage_error(self, run_cli):
        code, _, err = run_cli("sweep", "--construction", "fx-tight")
        assert code == 2
        assert "nothing to sweep" in err


class TestProtocolCommand:
    def test_explicit_pair_reports_the_transcript(self, run_cli):
        code, out, _ = run_cli("protocol", "--construction", "fx-simple",
                               "--m", "5", "--y", "10101", "--z", "10101")
        assert code == 0
        assert "1/1 transcripts agree" in out
        assert "(expected 8)" in out

    def test_random_equal_pairs_always_agree(self, run_cli):
        """Equal inputs satisfy the promise for free, so any drawn string
        makes a valid explicit pair."""
        rng = random.Random(11)
        for _ in range(4):
            s = format(rng.getrandbits(5), "05b")
            code, out, _ = run_cli("protocol", "--construction", "fx-tight",
                                   "--m", "5", "--y", s, "--z", s)
            assert code == 0
            assert "bob=1 model=1 ok" in out

    def test_exhaustive_run_covers_every_pair(self, run_cli):
        code, out, _ = run_cli("protocol", "--construction", "fx-tight",
                               "--m", "5", "--exhaustive")
        assert code == 0
        assert "528/528 transcripts agree" in out
        assert "bit cost 6 (expected 6)" in out

    def test_sampled_run_is_seeded(self, run_cli):
        a = run_cli("protocol", "--construction", "fx-simple", "--m", "5",
                    "--count", "20", "--seed", "9")
        b = run_cli("protocol", "--construction", "fx-simple", "--m", "5",
                    "--count", "20", "--seed", "9")
        assert a == b
        assert a[0] == 0

    def test_pair_against_the_promise_is_rejected(self, run_cli):
        code, _, err = run_cli("protocol", "--construction", "fp-linear",
                               "--t", "4", "--e", "3",
                               "--y", "0000000", "--z", "0000000")
        assert code == 2
        assert "pair violates the promise" in err
        assert "y_exp_positive" in err

    def test_half_a_pair_is_rejected(self, run_cli):
        code, _, err = run_cli("protocol", "--construction", "fx-tight",
                               "--m", "5", "--y", "10101")
        assert code == 2
        assert "--y and --z must be given together" in err

    def test_wrong_length_pair_is_rejected(self, run_cli):
        code, _, err = run_cli("protocol", "--construction", "fx-tight",
                               "--m", "5", "--y", "101", "--z", "10101")
        assert code == 2
        assert "must be 5 bits long" in err

    def test_trace_renders_the_checked_forward_pass(self, run_cli,
                                                    monkeypatch):
        """--trace prints the forward trace each transcript was checked
        against instead of evaluating the pair a second time."""
        calls = []
        real = cli.forward

        def counted(spec, y, z):
            calls.append((y, z))
            return real(spec, y, z)

        monkeypatch.setattr(cli, "forward", counted)
        code, out, _ = run_cli("protocol", "--construction", "fx-tight",
                               "--m", "5", "--count", "10", "--trace")
        assert code == 0
        assert len(calls) == 10
        assert out.count("  token -1: ") == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "438361fad3bfcaeca5c5e5e4991553dc"
            "9916d8e1e06b25694563c569ec01b6c5")


class TestFoolingCommand:
    def test_text_report_flags_the_inexact_closed_form(self, run_cli):
        code, out, _ = run_cli("fooling", "--m", "4", "--e", "2")
        assert code == 0
        assert "row: 4,2,8,9,4" in out
        assert "closed form differs" in out

    def test_csv_row_where_formula_is_exact(self, run_cli):
        code, out, _ = run_cli("fooling", "--m", "6", "--e", "3",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,e,enumerated,formula,bound"
        assert lines[1] == "6,3,42,42,6"

    def test_exponent_range_guard(self, run_cli):
        code, _, err = run_cli("fooling", "--m", "4", "--e", "4")
        assert code == 2
        assert "need 1 < e < m" in err

    def test_enumeration_budget_guard(self, run_cli):
        code, _, err = run_cli("fooling", "--m", "26", "--e", "3")
        assert code == 2
        assert "budget" in err


class TestQuantizeCommand:
    def test_native_ladder_defaults_to_csv(self, run_cli):
        code, out, _ = run_cli("quantize", "--construction", "fx-tight",
                               "--m", "9", "--formats",
                               "native,native-1,native-2", "--count", "200")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("construction,m,t,e,format,capacity")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[4] for r in rows] == ["int5", "int4", "int3"]
        assert [r[5] for r in rows] == ["10", "8", "6"]
        assert rows[0][8] == "1.000000"

    def test_text_mode_shows_capacity(self, run_cli):
        code, out, _ = run_cli("quantize", "--construction", "fx-tight",
                               "--m", "9", "--formats", "int8",
                               "--count", "100", "--format", "text")
        assert code == 0
        assert "(capacity 16)" in out

    def test_int16_at_m13_rejects_exactly_the_equal_pairs(self, run_cli):
        """int16 keeps every fx-tight weight but widens the stage formats:
        the exhaustive row is pinned, and every failure the same spec
        lists is an equal pair the head rejects, 2^13 of them, none
        saturated."""
        code, out, err = run_cli("quantize", "--construction", "fx-tight",
                                 "--ms", "13", "--formats", "int16",
                                 "--exhaustive", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == \
            "fx-tight,13,,,int16,32,33558528,33550336,0.999756,0,0.000"
        spec, promises = make("fx-tight", m=13)
        report = oracle.verify_exhaustive_spec(
            quantize_spec(spec, int_format(16)), promises, "fx-tight")
        assert (report.failure_count, report.inf_count) == (1 << 13, 0)
        assert len(report.failures) == oracle.FAILURE_LIST_CAP
        assert all((f.y, f.expected, f.got) == (f.z, 1, 0)
                   for f in report.failures)

    def test_formats_flag_is_required(self, run_cli):
        with pytest.raises(SystemExit):
            cli.main(["quantize", "--construction", "fx-tight", "--m", "9"])

    def test_subject_is_required(self, run_cli):
        code, _, err = run_cli("quantize", "--construction", "fx-tight",
                               "--formats", "int8")
        assert code == 2
        assert "needs --m, --ms or --t/--e" in err

    def test_imported_weights_are_scored_without_a_promise(self, run_cli,
                                                           tmp_path):
        path = tmp_path / "head.json"
        code, _, _ = run_cli("build", "--construction", "fx-tight",
                             "--m", "5", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli("quantize", "--weights", str(path),
                               "--formats", "int8", "--count", "60")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[0] == "imported"

    def test_degenerate_tensor_is_one_plain_stderr_line(self, run_cli):
        """The library warns; the command line prints the warning's class
        and message once, without the source location of the warn call."""
        code, _, err = run_cli("quantize", "--construction", "fp-linear",
                               "--t", "4", "--e", "3", "--formats",
                               "native,native-1,int8,fp16", "--exhaustive")
        assert code == 0
        assert err == ("warning: DegenerateTensor: tensor mlp.b1 has no "
                       "nonzero weight; scale defaults to 1\n")
        assert ".py:" not in err

    def test_exhaustive_needs_a_named_construction(self, run_cli, tmp_path):
        path = tmp_path / "head.json"
        run_cli("build", "--construction", "fx-tight", "--m", "5",
                "--out", str(path))
        code, _, err = run_cli("quantize", "--weights", str(path),
                               "--formats", "int8", "--exhaustive")
        assert code == 2
        assert "promise set" in err


class TestArithDemo:
    def test_multiply_walkthrough_is_pinned(self, run_cli):
        """The two rounding modes must land on 100.1 and 100 for the
        worked product 1.101 * 10.11."""
        code, out, _ = run_cli("arith-demo")
        assert code == 0
        assert ("multiply 1.101 * 10.11 (4 significant bits, "
                "nearest-ties-truncate): 100.1 (4.5)") in out
        assert ("multiply 1.101 * 10.11 (4 significant bits, "
                "truncate): 100 (4)") in out

    def test_fold_walkthrough_shows_the_order_split(self, run_cli):
        _, out, _ = run_cli("arith-demo")
        trunc, nearest = out.split("fold ")[1:]
        assert trunc.startswith("10 + 1.01 + 1.11 (3 significant bits, "
                                "truncate):")
        assert "left: 100 (4)" in trunc
        assert "right: 101 (5)" in trunc
        assert "left: 101 (5)" in nearest
        assert "right: 101 (5)" in nearest


class TestWeightsRoundTrip:
    def test_build_then_import_check(self, run_cli, tmp_path):
        path = tmp_path / "fx_simple_m5.json"
        code, _, _ = run_cli("build", "--construction", "fx-simple",
                             "--m", "5", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli("import-check", str(path))
        assert code == 0
        assert out.startswith("ok: m=5 n=17")
        assert "p=4" in out
        assert "formats:" in out

    def test_truncated_tensor_is_rejected(self, run_cli, tmp_path):
        path = tmp_path / "head.json"
        run_cli("build", "--construction", "fx-simple", "--m", "5",
                "--out", str(path))
        payload = json.loads(path.read_text())
        payload["wq"] = payload["wq"][:2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run_cli("import-check", str(bad))
        assert code == 1
        assert err.startswith("weights file rejected:")
        assert "wq" in err

    def test_unparsable_file_is_rejected(self, run_cli, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{this is not json")
        code, _, err = run_cli("import-check", str(path))
        assert code == 1
        assert "weights file rejected" in err

    def test_missing_file_is_rejected(self, run_cli, tmp_path):
        code, _, err = run_cli("import-check", str(tmp_path / "ghost.json"))
        assert code == 1
        assert "weights file rejected" in err
