"""Pinned report bytes: the stdout of every report command, in text and CSV,
digested with sha256 next to its exit code.

Text reports of `verify` and `sweep` carry each run's wall time; it is
masked to `0.000s` before digesting, so the pins hold on any machine.  CSV
reports zero their seconds column themselves.
"""

import hashlib
import re

import pytest

from eqattn import cli

_SECONDS = re.compile(r"\d+\.\d{3}s\b")

FX5 = ("--construction", "fx-tight", "--m", "5")
FP43 = ("--construction", "fp-linear", "--t", "4", "--e", "3")
FP47 = ("--construction", "fp-softmax", "--t", "4", "--e", "7")
CLIFF = ("--precision-delta", "-1")
FX_MS = ("--construction", "fx-tight", "--ms", "5,7")
SAMPLED = ("--samples", "200", "--seed", "1")
QUANT = ("--formats", "native,native-1,int8,fp8_e4m3", "--count", "64")
QUANT_SEED2 = (*QUANT, "--seed", "2")
QUANT_FP = ("--formats", "native,fp16", "--count", "64")
EXHAUSTIVE = ("--formats", "native,native-1,int4", "--exhaustive")
CSV = ("--format", "csv")
TEXT = ("--format", "text")
# An admissible YES pair of fp-softmax (4,7).
PAIR47 = ("--y", "010000010110010", "--z", "010000010110010")

# (argv, exit code, sha256 of the masked stdout); "WEIGHTS" stands for a
# weights file of fx-tight at m=5.
CASES = {
    "verify-text": (("verify", *FX5), 0,
        "9522982cc5341da5e7e645744818a5de"
        "fabad1662ad3443feb1da5dd84009438"),
    "verify-csv": (("verify", *FX5, *CSV), 0,
        "cbe64ef4ba1425760b6048cc15c58eba"
        "46d580e3f61f3ed226016f2e8050112c"),
    "verify-trace-cliff": (("verify", *FX5, *CLIFF, "--trace"), 1,
        "c6fecfc49ee6d96271822c3017a7daa5"
        "94a4bf8dede18f81869ff4624ec91697"),
    "verify-sampled-fp47": (("verify", *FP47, *SAMPLED), 0,
        "e7811723e5373180e998c2d7f2e7b591"
        "e33b3078a08bd12fd07f39363a17675a"),
    "verify-sampled-fp47-csv": (("verify", *FP47, *SAMPLED, *CSV), 0,
        "1e3f483663055d89c20fbe3d80b9d1e7"
        "6fa0683be9da09f72b3fdfedddf9907d"),
    "sweep-ms-cliff": (("sweep", *FX_MS, *CLIFF), 1,
        "d5d1c6b67592c46e980adcf44cacd338"
        "b144edf712e2a79a4441735c59b7c80e"),
    "sweep-ms-cliff-csv": (("sweep", *FX_MS, *CLIFF, *CSV), 1,
        "09a183863c9ebd7ac2c3edf93df57577"
        "cf1ded08f3fc234e0e03216837b3ceb7"),
    "sweep-fp43": (("sweep", *FP43), 0,
        "64f91be83edfc8cb1e641fc18158fff3"
        "b649541f6fc56c2a208d54d52b3e1f45"),
    "sweep-fp43-csv": (("sweep", *FP43, *CSV), 0,
        "80bd86b343dff1559e1dedfd8565caf7"
        "22d086c938161d5a6a0027138e51b75b"),
    "quantize-sampled": (("quantize", *FX_MS, *QUANT_SEED2), 0,
        "ddc86e5988774f07d8f935ebb2adbfc7"
        "ff679a36f79f98e5f45fb0ca78957094"),
    "quantize-sampled-text": (("quantize", *FX_MS, *QUANT_SEED2, *TEXT), 0,
        "4c16a77b75a0dc8ea761e9b7331d0477"
        "d3c40333b39031ebeef2391f0cf473a7"),
    "quantize-fp43": (("quantize", *FP43, *QUANT_FP), 0,
        "70c575959fe0779bc2412747495b9610"
        "9e5d00d01e1cc78ca4e6214ff825f305"),
    "quantize-exhaustive": (("quantize", *FX5, *EXHAUSTIVE), 0,
        "6914e1cc902734b89a8f6159770ab633"
        "2f0d427794b97d3e5690d816100e5d40"),
    "quantize-exhaustive-text": (("quantize", *FX5, *EXHAUSTIVE, *TEXT), 0,
        "83fbb1925f9302d26e4e59ad77fe54c9"
        "07eb97c8ab8151139432d0eb2cf548f3"),
    "quantize-weights": (("quantize", "--weights", "WEIGHTS", *QUANT), 0,
        "cd6746fd287b1cd3156d02c2561b1278"
        "a454047a25c11146c1293977fd37d12a"),
    "quantize-weights-text": (("quantize", "--weights", "WEIGHTS", *QUANT,
                               *TEXT), 0,
        "be54b8e9ac55f311e7608f3d84ab8d94"
        "7d2efea86d31ee7f9d78ced842ba6eb6"),
    "protocol-fx5": (("protocol", *FX5, "--count", "64", "--seed", "1"), 0,
        "c5088ba8f13ae043dde9017ff5528566"
        "1114c955203e263ad3174b380eeff5ad"),
    "protocol-fp43-trace": (("protocol", *FP43, "--count", "64", "--seed",
                             "1", "--trace"), 0,
        "fe13096aac4e18df35479229cc1facec"
        "a4b1c85b399323a530031219636bbaf7"),
    "protocol-fp47-pair": (("protocol", *FP47, *PAIR47), 0,
        "9d63998f10bf060dcf9fb8ba6f358105"
        "d4c56db6944a93ffa280becb8908a975"),
    "fooling-text": (("fooling", "--m", "6", "--e", "3"), 0,
        "069b8c6600fb51bec1d24faeedb90d72"
        "09f3b61539651f0cc0b81e77ff9047aa"),
    "fooling-csv": (("fooling", "--m", "6", "--e", "3", *CSV), 0,
        "d07b9ba87591b75d174b965a314cd02a"
        "742300f5df68c7c03ebf89075db8ffb8"),
    "fooling-inexact-text": (("fooling", "--m", "3", "--e", "2"), 0,
        "e72401ccc8e65d8e3d8acb936fdc0716"
        "92e87903909012b28a870c0705459aea"),
    "fooling-inexact-csv": (("fooling", "--m", "3", "--e", "2", *CSV), 0,
        "92072fc3e5e82523c9d744150cc0b87e"
        "c1f6ab3db5fa2dc0ca6d1f6b2ac43fb0"),
}


@pytest.fixture(scope="module")
def weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "fx5.json"
    assert cli.main(["build", *FX5, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, weights, capsys):
    argv, code, digest = CASES[name]
    argv = [weights if a == "WEIGHTS" else a for a in argv]
    assert cli.main(argv) == code
    out = _SECONDS.sub("0.000s", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
