"""Property tests of the head bound the factored combine certifies runs with.

attn._output_bounds bounds the MLP output over every out_fmt value from one
attention output up to another, and attn.head_class reads a class off
those bounds.  On built, narrowed, quantized and truncating heads, and on
heads whose MLP saturates or meets 0 * Inf, with interval ends drawn in
order from every value of the small out format and its infinities: each
value between the ends must give an output inside the bounds, and the
returned class whenever one is returned; a value whose MLP hits an
indeterminate form must leave the interval uncertified.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from eqattn.attn import _head, _output_bounds, head_class
from eqattn.bitnum import TRUNC, FpNum, FxFormat, FxNum, IndeterminateForm, \
    hold_exact
from eqattn.constructs import make
from eqattn.oracle import precision_delta_spec
from eqattn.quantlab import parse_quant_format, quantize_spec
from gridref import fp_values, fx_values


def _heads():
    heads = []
    for m in (5, 7, 9):
        spec, _ = make("fx-tight", m=m)
        heads += [precision_delta_spec(spec, d) for d in (-1, 0, 1)]
    heads += [make("fx-simple", m=m)[0] for m in (5, 7)]
    tight, _ = make("fx-tight", m=5)
    quantized = [quantize_spec(tight, parse_quant_format(name))
                 for name in ("int3", "int4", "int6", "fp8_e4m3")]
    heads += quantized
    heads += [head._replace(out_fmt=head.out_fmt._replace(rounding=TRUNC))
              for head in heads[:4]]
    # An MLP whose output saturates, and one that meets 0 * Inf at an
    # infinite hidden unit, in a fixed- and a floating-point out format.
    for head in (tight, quantized[-1]):
        heads += [head._replace(mlp=head.mlp._replace(w2=w2, b2=b2))
                  for w2, b2 in (((4, 4), -1), ((0, 0), 1))]
    return heads


def _values(spec):
    """Every value of spec's out format in ascending order, infinities
    included."""
    fmt = spec.out_fmt
    fixed = isinstance(fmt, FxFormat)
    cls = FxNum if fixed else FpNum
    grid = fx_values(fmt) if fixed else fp_values(fmt)
    return [cls.inf(-1, fmt), *(hold_exact(v, fmt) for v in grid),
            cls.inf(1, fmt)]


HEADS = [(spec, _values(spec)) for spec in _heads()]


@st.composite
def intervals(draw):
    spec, values = draw(st.sampled_from(HEADS))
    i = draw(st.integers(0, len(values) - 1))
    j = draw(st.integers(i, min(i + 24, len(values) - 1)))
    return spec, values[i:j + 1]


def _place(v):
    return v.sign * float("inf") if v.is_inf else v.as_fraction()


def _class(spec, v):
    """(bit, saturated) of the head at v, as finish_softmax would class it,
    or None on an indeterminate form."""
    try:
        out, _, bit = _head(spec, v)
    except IndeterminateForm:
        return None
    return bit, v.is_inf or out.is_inf


@settings(max_examples=400, deadline=None)
@given(intervals())
def test_every_value_between_the_ends_has_the_certified_class(case):
    spec, between = case
    lo, hi = between[0], between[-1]
    cls = head_class(spec, lo, hi)
    classes = [_class(spec, v) for v in between]
    if cls is not None:
        assert all(c == cls for c in classes)
    if lo.is_inf or hi.is_inf:
        return
    try:
        low, high = _output_bounds(spec, lo, hi)
    except IndeterminateForm:
        assert cls is None
        return
    for v in between:
        try:
            out = _head(spec, v)[0]
        except IndeterminateForm:
            assert cls is None
            continue
        assert _place(low) <= _place(out) <= _place(high)
