"""Seeded fuzz of the command-line flags: every combination ends with a
documented exit code (0 success, 1 verified failure or rejected weights,
2 usage error), never 3, the internal invariant breach."""

import random

import pytest

from eqattn import cli

# Each flag draws a value from its first tuple, or with probability 1/5
# from its second, which argparse or the command refuses.  Each command
# offers only the flags it reads, so each draws only those.
SEED = {"--seed": (("0", "3"), ("-5",))}
JOBS = {"--jobs": (("1",), ("0", "-1", "x"))}
TRACE = {"--trace": None}
OUT = {"--out": (("report.txt",), ())}
REPORT = {**SEED, **OUT, "--format": (("text", "csv"), ("json",)), **JOBS}
SIZES = {
    "--m": (("5", "3"), ("1", "4", "0", "-1", "x")),
    "--t": (("3", "4"), ("2", "0")),
    "--e": (("2", "3"), ("-1", "0")),
}
TOKENS = {"--n": (("20",), ("1", "0", "-3"))}
DELTA = {"--precision-delta": (("-1", "0", "1", "3"), ("-9",))}
COMMANDS = {
    "verify": {**REPORT, **TRACE, **SIZES, **TOKENS, **DELTA,
               "--samples": (("5", "20", "0"), ("-1",))},
    "sweep": {**REPORT, "--t": SIZES["--t"], "--e": SIZES["--e"], **TOKENS,
              **DELTA, "--ms": (("5", "3,5"), ("4", "x", "")),
              "--samples": (("5", "0"), ("-1",))},
    "protocol": {**SEED, **OUT, **JOBS, **TRACE, **SIZES, **TOKENS,
                 "--count": (("5",), ("0", "-1")), "--exhaustive": None,
                 "--y": (("00000", "01010"), ("0101", "abcde")),
                 "--z": (("00000", "11111"), ("0", "0z000"))},
    "fooling": {**OUT, "--format": REPORT["--format"],
                "--m": (("3", "5", "7"), ("0", "-2")),
                "--e": (("2", "3"), ("0", "9"))},
    "quantize": {**REPORT, **SIZES,
                 "--formats": (("int8", "native,native-1", "fp8_e4m3"),
                               ("int1", "bogus", "")),
                 "--ms": (("5", "3,5"), ("4", "x")),
                 "--count": (("5",), ("0", "-1")), "--exhaustive": None,
                 "--weights": (("good.json",), ("bad.json", "absent.json"))},
    "arith-demo": OUT,
    "build": {**OUT, **SIZES, **TOKENS},
    "import-check": OUT,
}
# A named subject, drawn before the flags above, which may then override
# its size; the sizes are small enough for an exhaustive run.
SUBJECTS = (("fx-tight", "--m", "5"), ("fx-simple", "--m", "5"),
            ("fp-linear", "--t", "3", "--e", "3"),
            ("fp-softmax", "--t", "4", "--e", "7"), ("nope",))
# Arguments kept in most draws: those argparse requires, so the run gets
# past the parser, and a small --count in place of the default.
REQUIRED = {"fooling": ("--m", "--e"), "quantize": ("--formats", "--count"),
            "protocol": ("--count",)}


def _pick(rng: random.Random, values):
    good, bad = values
    return rng.choice(bad if bad and rng.random() < 0.2 else good)


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(sorted(COMMANDS))
    argv = [command]
    if command == "import-check":
        argv.append(_pick(rng, (("good.json",), ("bad.json", "absent.json"))))
    if "--t" in COMMANDS[command] and rng.random() < 0.9:
        # sweep takes no --m; it sweeps the subject's m as --ms.
        argv += ["--construction", *(
            "--ms" if a == "--m" and "--m" not in COMMANDS[command] else a
            for a in rng.choice(SUBJECTS))]
    for flag, values in COMMANDS[command].items():
        keep = 0.9 if flag in REQUIRED.get(command, ()) else 0.25
        if rng.random() < keep:
            argv.append(flag)
            if values is not None:
                argv.append(_pick(rng, values))
    return argv


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:       # argparse refuses the flags
        return exc.code


@pytest.fixture
def weights_dir(tmp_path, monkeypatch):
    """A working directory holding one good and one bad weights file,
    with reports written beneath it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EQATTN_OUT_DIR", str(tmp_path / "out"))
    assert cli.main(["build", "--construction", "fx-tight", "--m", "5",
                     "--out", str(tmp_path / "good.json")]) == 0
    (tmp_path / "bad.json").write_text('{"version": 1, "m": true}')
    return tmp_path


def test_flag_combinations_exit_with_a_documented_code(weights_dir, capsys):
    rng = random.Random(7)
    codes = {}
    for _ in range(200):
        argv = _argv(rng)
        code = _exit_code(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 1, 2}, codes


@pytest.mark.parametrize("argv,needle", [
    # Refused from the closed-form pair count, before any string is made.
    (["protocol", "--construction", "fx-tight", "--m", "99",
      "--exhaustive"], "promise pairs exceed the cap"),
    # A negative exponent width is refused before it is used as a shift.
    (["build", "--construction", "fp-linear", "--t", "3", "--e", "-1"],
     "fp-linear needs e >= 2"),
    # Only the report commands take --format; protocol refuses it.
    (["protocol", "--construction", "fp-linear", "--t", "3", "--e", "3",
      "--count", "3", "--format", "csv"],
     "unrecognized arguments: --format csv"),
    # Each command offers only the flags it reads.
    (["fooling", "--m", "5", "--e", "2", "--trace"],
     "unrecognized arguments: --trace"),
    (["quantize", "--construction", "fx-tight", "--m", "7", "--formats",
      "int8", "--count", "20", "--n", "3"], "unrecognized arguments: --n 3"),
    (["sweep", "--construction", "fx-tight", "--ms", "5", "--trace"],
     "unrecognized arguments: --trace"),
    (["arith-demo", "--seed", "1", "--jobs", "1"],
     "unrecognized arguments: --seed 1 --jobs 1"),
    (["build", "--construction", "fx-tight", "--m", "5", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    # sweep reads --ms, and --m is not taken as its abbreviation.
    (["sweep", "--construction", "fx-tight", "--ms", "5", "--m", "9"],
     "unrecognized arguments: --m 9"),
    # A family refuses a size it does not take; only a family that takes
    # m needs an odd one.
    (["verify", "--construction", "fp-linear", "--t", "3", "--e", "3",
      "--m", "5"], "fp-linear takes t and e, not m"),
    (["verify", "--construction", "fp-linear", "--t", "3", "--e", "3",
      "--m", "4"], "fp-linear takes t and e, not m"),
    (["verify", "--construction", "fx-tight", "--m", "6"], "m must be odd"),
    (["verify", "--construction", "fx-tight", "--m", "5", "--t", "3"],
     "fx-tight takes m, not t"),
    # One source per choice: --weights is the subject, and --y/--z the
    # pair, so the flags that would choose another are refused.
    (["quantize", "--weights", "good.json", "--formats", "int8", "--count",
      "20", "--construction", "fp-linear", "--m", "9", "--ms", "3"],
     "--weights is the subject"),
    (["quantize", "--weights", "good.json", "--formats", "int8", "--t", "3"],
     "--weights is the subject"),
    (["protocol", "--construction", "fx-tight", "--m", "5", "--y", "00000",
      "--z", "00001", "--exhaustive", "--count", "7", "--seed", "9"],
     "--y/--z name the one pair"),
    (["protocol", "--construction", "fx-tight", "--m", "5", "--y", "00000",
      "--z", "00001", "--seed", "0"], "--y/--z name the one pair"),
    # --exhaustive runs every promise pair, so it takes no --count or --seed.
    (["protocol", "--construction", "fx-tight", "--m", "5", "--exhaustive",
      "--count", "3"], "--exhaustive runs every promise pair"),
    (["protocol", "--construction", "fx-tight", "--m", "5", "--exhaustive",
      "--seed", "0"], "--exhaustive runs every promise pair"),
    (["quantize", "--construction", "fx-tight", "--m", "5", "--formats",
      "int8", "--exhaustive", "--count", "3"],
     "--exhaustive runs every promise pair"),
    (["quantize", "--construction", "fx-tight", "--m", "5", "--formats",
      "int8", "--exhaustive", "--seed", "0"],
     "--exhaustive runs every promise pair"),
    # A target needs a mantissa bit (native-3 of t = 4 leaves none), two
    # integer bits and two exponent bits.
    (["quantize", "--construction", "fp-linear", "--t", "4", "--e", "4",
      "--formats", "native-3"],
     "float formats need at least 1 mantissa bit, got 0"),
    (["quantize", "--construction", "fx-tight", "--m", "5", "--formats",
      "int1"], "p must be at least 2, got 1"),
    (["quantize", "--construction", "fx-tight", "--m", "5", "--formats",
      "fp_e1m2"], "e must be at least 2, got 1"),
])
def test_pinned_usage_errors(argv, needle, weights_dir, capsys):
    assert _exit_code(argv) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["quantize", "--construction", "fp-linear", "--t", "4", "--e", "4",
      "--formats", "native-3"], "native-3"),
    (["quantize", "--construction", "fx-tight", "--m", "5", "--formats",
      "int1"], "int1"),
    (["quantize", "--construction", "fx-tight", "--m", "5", "--formats",
      "fp_e1m2"], "fp_e1m2"),
])
def test_a_refused_target_is_named(argv, name, capsys):
    # The message names the target as it was given on the command line.
    assert _exit_code(argv) == 2
    assert f"{name}: " in capsys.readouterr().err
