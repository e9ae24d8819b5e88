"""The plain forward pass the compiled kernel replaced, kept as a reference.

Like gridref, nothing here is fast: every pair recomputes its logits,
weights, rounded numerator terms and denominator terms from the spec, and
the folds run position by position exactly as the pipeline is specified.
The differential tests check attn.forward against it trace for trace: its
RefTrace holds the per-token lists EvalTrace.tokens refolds and the end
values EvalTrace holds.
sum_left is the same left fold over a bare list of values, which the scalar
tests check against gridref.fold_ref.
"""

from fractions import Fraction
from typing import NamedTuple

from eqattn.attn import (
    StageError,
    _accept_bit,
    _ops,
    mlp_eval,
    token_logits,
)
from eqattn.bitnum import IndeterminateForm, exp_logit_exact, hold_exact


def sum_left(values, fmt):
    """Left-associative fold with rounding after every addition: each value
    rounded into fmt (unless it already is a scalar), then added in order;
    zero for no values."""
    add, _, _, round_, num_cls = _ops(fmt)
    acc = None
    for v in values:
        num = v if isinstance(v, num_cls) else round_(v, fmt)
        acc = num if acc is None else add(acc, num, fmt)
    return acc if acc is not None else num_cls.zero(fmt)


class RefTrace(NamedTuple):
    """ref_forward's record: the five lists EvalTrace.tokens returns, in
    its order, then EvalTrace's end values; None where a stage was not
    reached."""

    logits: list
    weights: list
    num_terms: list
    num_partials: list
    den_partials: list
    numerator: object = None
    denominator: object = None
    sa: object = None
    hidden: tuple = ()
    output: object = None
    bit: int | None = None
    indeterminate: bool = False

    def tokens(self):
        return self[:5]


def ref_forward(spec, x, normalize=None) -> RefTrace:
    if normalize is None:
        normalize = spec.attention_kind == "softmax"
    add, mul, div, round_, num_cls = _ops(spec.fold_fmt)
    logits = token_logits(spec, x)
    weights = [exp_logit_exact(lg) for lg in logits]
    col, scale = spec.value_column()
    trace = RefTrace(logits, weights, [], [], [])

    def nan_like():
        return trace._replace(indeterminate=True, bit=0)

    num = None
    for j, (w, row) in enumerate(zip(weights, x)):
        try:
            term = round_(w * Fraction(row[col] or 0), spec.fold_fmt)
            num = term if num is None else add(num, term, spec.fold_fmt)
        except IndeterminateForm:
            return nan_like()
        except ArithmeticError as exc:
            raise StageError("numerator", spec.index_base + j, exc) from exc
        trace.num_terms.append(term)
        trace.num_partials.append(num)
    # The scale is held exactly and is not zero, so no head can meet an
    # error here; one would propagate, not pass as an answer.
    num = mul(num, hold_exact(scale, spec.num_fmt), spec.num_fmt)
    trace = trace._replace(numerator=num)

    if normalize:
        den = None
        for j, w in enumerate(weights):
            try:
                term = hold_exact(w, spec.den_fmt)
                den = round_(w, spec.den_fmt) if den is None else \
                    add(den, term, spec.den_fmt)
            except IndeterminateForm:
                return nan_like()
            except ArithmeticError as exc:
                raise StageError("denominator", spec.index_base + j,
                                 exc) from exc
            trace.den_partials.append(den)
        trace = trace._replace(denominator=den)
        try:
            sa = div(num, den, spec.out_fmt)
        except IndeterminateForm:
            return nan_like()
        except ArithmeticError as exc:
            raise StageError("attention", None, exc) from exc
    else:
        sa = round_(num, spec.out_fmt) if num.is_finite else \
            num_cls.inf(num.sign, spec.out_fmt)
    trace = trace._replace(sa=sa)

    try:
        out, hidden = mlp_eval(spec.mlp, sa, spec.out_fmt)
    except IndeterminateForm:
        return nan_like()
    except ArithmeticError as exc:
        raise StageError("mlp", None, exc) from exc
    return trace._replace(hidden=tuple(hidden), output=out,
                          bit=_accept_bit(out))
