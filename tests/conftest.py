"""Shared fixtures: a tiny hand-built head, a CLI runner and the
hypothesis profiles.

Property tests run the `eqattn` profile.  Setting the environment variable
EQATTN_HEAVY_PROPS to a non-empty value runs the `eqattn-heavy` profile
instead: 2,000 examples per property, drawn afresh on every run, e.g.

    EQATTN_HEAVY_PROPS=1 PYTHONPATH=src python -m pytest tests/test_quantize_props.py
"""

import os
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from eqattn import cli
from eqattn.attn import SOFTMAX, MlpSpec, TokenRule, TransformerSpec
from eqattn.bitnum import FxFormat

# Property tests draw a fixed number of examples, derandomized, with no
# per-example deadline and no example database: every run tries the same
# examples on any machine.  The explain phase is left out: on a spec
# holding the 16,385-bit infinity code it ran for minutes after a failure
# had been shrunk.
settings.register_profile(
    "eqattn", max_examples=40, deadline=None, derandomize=True,
    database=None, phases=[p for p in Phase if p is not Phase.explain])
settings.register_profile(
    "eqattn-heavy", settings.get_profile("eqattn"), max_examples=2000,
    derandomize=False)
settings.load_profile("eqattn-heavy" if os.environ.get("EQATTN_HEAVY_PROPS")
                      else "eqattn")


def build_toy_spec(p: int = 5) -> TransformerSpec:
    """A two-token softmax head over one-bit inputs that answers equality.

    Token 0 carries y_1 with value y_1, token 1 carries z_1 with value
    1 - z_1; both keys are 0 and the query row is muted with the sentinel
    key, so the attention output is (y_1 + 1 - z_1)/2, which is 1/2 exactly
    when the bits agree.  The output head fires on the midpoint:
    relu(1 - relu(2s - 1) - relu(1 - 2s)).
    """
    fmt = FxFormat(p)
    half = Fraction(1, 2)
    rules = [
        TokenRule(source=(("y", 1),),
                  rows=((half, Fraction(0), Fraction(0)),
                        (half, Fraction(0), Fraction(1)))),
        TokenRule(source=(("z", 1),),
                  rows=((half, Fraction(0), Fraction(1)),
                        (half, Fraction(0), Fraction(0)))),
        TokenRule(source=(), rows=((Fraction(1), None, Fraction(0)),)),
    ]
    mlp = MlpSpec(w1=(Fraction(2), Fraction(-2)),
                  b1=(Fraction(-1), Fraction(1)),
                  w2=(Fraction(-1), Fraction(-1)),
                  b2=Fraction(1))
    return TransformerSpec(
        m=1, n=2, attention_kind=SOFTMAX,
        fold_fmt=fmt, num_fmt=fmt, den_fmt=fmt, out_fmt=fmt,
        embedding=rules, wq=(Fraction(1), Fraction(0), Fraction(0)),
        wk=(Fraction(0), Fraction(1), Fraction(0)),
        wv=(Fraction(0), Fraction(0), Fraction(1)),
        mlp=mlp).validate()


@pytest.fixture
def toy_spec():
    return build_toy_spec()


@pytest.fixture
def run_cli(capsys):
    """Invoke the command line in-process: returns (exit code, out, err)."""

    def runner(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner
