"""Property tests of quantize_spec on random small dyadic heads.

quantize_spec rounds each distinct (tensor, value) once and each distinct
(tensor, row) once.  Whatever it shares, it must give the weights a plain
value-by-value rounding gives, with each tensor calibrated over all its
values, for every preset; and quantizing again at the same width must give
the same head back.
"""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqattn.attn import LINEAR, SOFTMAX, MlpSpec, TokenRule, TransformerSpec
from eqattn.bitnum import FpFormat, FxFormat
from eqattn.quantlab import (_INF_CODE, PRESETS, DegenerateTensor,
                             _float_rounder, _int_rounder, _spec_tensors,
                             _stage_format, is_inf_code, quantize_spec)


class _InfCode(Fraction):
    """The infinity code, printed by name: its 4,933 decimal digits are
    past what int-to-str converts, so a falsifying example could not be
    shown."""

    __slots__ = ()

    def __repr__(self):
        return "INF_CODE" if self > 0 else "-INF_CODE"


dyadics = st.builds(lambda k, j: Fraction(k, 1 << j),
                    st.integers(-64, 64), st.integers(0, 6))
# mostly small dyadics, some far past the top of the small grids, and the
# infinity code, which passes through
scalars = st.one_of(dyadics, dyadics.map(lambda v: v * (1 << 20)),
                    st.sampled_from((_InfCode(_INF_CODE),
                                     _InfCode(-_INF_CODE))))
keys = st.one_of(scalars, st.none())
triples = st.tuples(scalars, scalars, scalars)
pairs = st.tuples(scalars, scalars)


@st.composite
def rules(draw, m):
    refs = [(side, i) for side in ("y", "z") for i in range(1, m + 1)]
    source = tuple(draw(st.lists(st.sampled_from(refs), max_size=2,
                                 unique=True)))
    rows = draw(st.lists(st.tuples(scalars, keys, scalars),
                         min_size=1 << len(source),
                         max_size=1 << len(source)))
    # equal rows, within a rule and across rules, are common in real heads
    if len(rows) > 1 and draw(st.booleans()):
        rows[-1] = rows[0]
    return TokenRule(source=source, rows=tuple(rows))


@st.composite
def specs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    embedding = [draw(rules(m)) for _ in range(n + 1)]
    col = draw(st.integers(0, 2))
    wv = tuple(draw(dyadics.filter(bool)) if i == col else Fraction(0)
               for i in range(3))
    fmt = draw(st.sampled_from((FxFormat(8, -2), FpFormat(4, 3))))
    return TransformerSpec(
        m=m, n=n, attention_kind=draw(st.sampled_from((SOFTMAX, LINEAR))),
        fold_fmt=fmt, num_fmt=fmt, den_fmt=fmt, out_fmt=fmt,
        embedding=embedding, wq=draw(triples), wk=draw(triples), wv=wv,
        mlp=MlpSpec(w1=draw(pairs), b1=draw(pairs), w2=draw(pairs),
                    b2=draw(scalars))).validate()


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTensor)
        return fn(*args)


def _per_value(spec, fmt):
    """The quantized weights and formats, each value rounded on its own by
    a rounder calibrated over its tensor's full value list."""
    rounders = {}
    for label, values in _spec_tensors(spec):
        rounders[label] = _int_rounder(label, values, fmt.p) \
            if isinstance(fmt, FxFormat) else _float_rounder(fmt)

    def row(label, values):
        return tuple(None if v is None else
                     _short(rounders[label](Fraction(v))) for v in values)

    return (
        [tuple(row("embedding", r) for r in rule.rows)
         for rule in spec.embedding],
        row("wq", spec.wq), row("wk", spec.wk), row("wv", spec.wv),
        row("mlp.w1", spec.mlp.w1), row("mlp.b1", spec.mlp.b1),
        row("mlp.w2", spec.mlp.w2), row("mlp.b2", (spec.mlp.b2,))[0],
        [_stage_format(f, fmt) for f in (spec.fold_fmt, spec.num_fmt,
                                         spec.den_fmt, spec.out_fmt)],
    )


def _short(v):
    """A weight, with the infinity code by name."""
    return _InfCode(v) if is_inf_code(v) else v


def _fields(spec):
    def row(values):
        return tuple(map(_short, values))

    return (
        [tuple(map(row, rule.rows)) for rule in spec.embedding],
        row(spec.wq), row(spec.wk), row(spec.wv), row(spec.mlp.w1),
        row(spec.mlp.b1), row(spec.mlp.w2), _short(spec.mlp.b2),
        [spec.fold_fmt, spec.num_fmt, spec.den_fmt, spec.out_fmt],
    )


@pytest.mark.parametrize("preset", PRESETS)
@given(spec=specs())
def test_shared_rounding_equals_per_value_rounding(preset, spec):
    fmt = PRESETS[preset]
    got = _quiet(quantize_spec, spec, fmt)
    assert _fields(got) == _quiet(_per_value, spec, fmt)


@pytest.mark.parametrize("preset", PRESETS)
@given(spec=specs())
def test_quantizing_again_at_the_same_width_is_the_identity(preset, spec):
    fmt = PRESETS[preset]
    once = _quiet(quantize_spec, spec, fmt)
    assert _fields(_quiet(quantize_spec, once, fmt)) == _fields(once)
