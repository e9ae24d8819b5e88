"""Inputs that once crashed: each now ends with its documented outcome."""

import json

import pytest

from eqattn import oracle
from eqattn.constructs import make
from eqattn.oracle import verify_exhaustive_spec


def test_factored_verifier_survives_an_indeterminate_mlp():
    """Zero output weights times an infinite hidden unit is 0 * Inf: the
    factored verifier answers 0 there, as forward does."""
    spec, promises = make("fx-tight", m=5)
    spec = spec._replace(mlp=spec.mlp._replace(w2=(0, 0)))
    fast = verify_exhaustive_spec(spec, promises, "fx-tight")
    direct = oracle.tally_pairs(spec, oracle.promise_pairs(promises, 5))
    assert (fast.total, fast.failure_count, fast.inf_count) == \
        (direct.total, direct.failure_count, direct.saturated) == \
        (528, 488, 224)


@pytest.mark.parametrize("argv", [
    ("fx-tight", "--m", "5", "--formats", "fp_e2m1"),
    ("fx-tight", "--m", "5", "--formats", "fp_e2m2"),
    ("fx-simple", "--m", "7", "--formats", "fp_e2m1"),
    ("fp-softmax", "--t", "4", "--e", "7", "--formats", "fp_e3m1"),
])
def test_infinity_coded_key_is_a_usage_error(run_cli, argv):
    code, out, err = run_cli("quantize", "--construction", *argv,
                             "--count", "64")
    assert code == 2
    assert out == ""
    assert "infinity" in err


def test_unreached_infinity_coded_keys_still_quantize(run_cli):
    """fp-linear (4, 3) keeps its infinity-coded keys in rows the promise
    never reaches, so the exhaustive sweep runs to the end."""
    code, out, _ = run_cli("quantize", "--construction", "fp-linear",
                           "--t", "4", "--e", "3", "--formats", "fp_e2m1",
                           "--exhaustive")
    assert code == 0
    row = dict(zip(*(ln.split(",") for ln in out.splitlines())))
    assert (row["total"], row["correct"], row["inf_count"]) == \
        ("1568", "1480", "1336")


@pytest.mark.parametrize("rule,column,cell,message", [
    (0, 1, 0.5, "embedding[0]: logit 1/2 is not an integer"),
    (-1, 0, "neglarge", "query row has a sentinel"),
])
def test_weights_that_cannot_run_are_rejected_at_import(
        run_cli, tmp_path, rule, column, cell, message):
    """A key of 1/2 gives a logit with no exact exponential; a neg-large
    query coordinate under W^Q gives no logit at all."""
    code, text, _ = run_cli("build", "--construction", "fx-tight", "--m", "5")
    assert code == 0
    doc = json.loads(text)
    doc["embedding"][rule]["rows"][0][column] = cell
    path = tmp_path / "head.json"
    path.write_text(json.dumps(doc))
    for argv in (("import-check", str(path)),
                 ("quantize", "--weights", str(path), "--formats", "int8")):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert message in err


def test_protocol_input_that_is_not_bits_is_a_usage_error(run_cli):
    code, out, err = run_cli("protocol", "--construction", "fx-tight",
                             "--m", "7", "--y", "01x1010", "--z", "0101010")
    assert code == 2
    assert out == ""
    assert "bit strings" in err


@pytest.mark.parametrize("argv,flag", [
    (("quantize", "--construction", "fx-tight", "--m", "5",
      "--formats", "int8", "--count", "0"), "--count"),
    (("quantize", "--construction", "fx-tight", "--m", "5",
      "--formats", "int8", "--count", "-1"), "--count"),
    (("protocol", "--construction", "fx-tight", "--m", "5",
      "--count", "0"), "--count"),
    (("protocol", "--construction", "fx-tight", "--m", "5",
      "--count", "-3"), "--count"),
    (("verify", "--construction", "fx-tight", "--m", "5",
      "--samples", "-5"), "--samples"),
    (("sweep", "--construction", "fp-linear", "--t", "4", "--e", "3",
      "--samples", "-2"), "--samples"),
], ids=["quantize-0", "quantize-neg", "protocol-0", "protocol-neg",
        "verify-samples", "sweep-samples"])
def test_counts_out_of_range_are_usage_errors(run_cli, argv, flag):
    """A count below 1, or a negative sample count, used to crash, report
    0/0 transcripts, or quietly verify only the adversarial pairs."""
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert flag in err
