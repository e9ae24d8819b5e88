"""One-way communication protocols compiled from attention, plus the
counting arguments that lower-bound them.

The reduction: the bounded left fold decomposes at any prefix boundary, so
Alice's share is a prefix length k of the fold order.  Alice (holding y)
folds the first k tokens (by default the attn.alice_len(spec) tokens that
read no z bit) with attn.prefix_folds and sends the partial numerator and
denominator as two p-bit scalars.  Bob runs attn.resume at k from the
nodes of those states: the one pipeline, folds cut into segments at k, W^V
scale, divide and MLP, that forward runs from 0 and fresh folds.  So the
answer bit equals the single-machine forward pass by construction; the
tests still check it pair-exhaustively at small m.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .attn import (
    LINEAR,
    TransformerSpec,
    alice_len,
    prefix_folds,
    resume,
)
from .bitnum import IndeterminateForm, ceil_log2
from .constructs import native_precision
from .oracle import BudgetExceeded


class ProtocolRun(NamedTuple):
    """Transcript of one simulated protocol execution."""

    prefix: int
    l1: object
    l2: object
    bit_cost: int
    bob_bit: int


class FoolingReport(NamedTuple):
    """The fooling-set count at (m, e) against its closed form."""

    CSV_HEADER = "m,e,enumerated,formula,bound"

    m: int
    e: int
    enumerated: int
    formula: Fraction

    @property
    def formula_exact(self) -> bool:
        return self.enumerated == self.formula

    @property
    def formula_bound(self) -> int:
        """Bits implied by the closed form: the least k >= 0 with
        2^k >= formula, exact on fractional counts too."""
        return max(ceil_log2(self.formula), 0)

    def csv_row(self) -> str:
        return (f"{self.m},{self.e},{self.enumerated},{self.formula},"
                f"{self.formula_bound}")

    def render_lines(self) -> list[str]:
        note = ("" if self.formula_exact
                else " (closed form differs from the enumeration here)")
        return [f"fooling m={self.m} e={self.e}: closed form {self.formula}, "
                f"enumerated {self.enumerated}, implied bound "
                f"{self.formula_bound} bits{note}",
                f"row: {self.csv_row()}"]


def bit_cost(spec: TransformerSpec) -> int:
    """Bits Alice sends: the partial numerator, plus the partial
    denominator for a softmax head, p bits each."""
    return native_precision(spec) * (1 if spec.attention_kind == LINEAR
                                     else 2)


def run_protocol(spec: TransformerSpec, y: str, z: str,
                 k: int | None = None) -> ProtocolRun:
    """Simulate the one-way protocol on the pair (y, z) and return its
    transcript.

    Alice's share is the prefix length k, 1 to spec.n + 1 tokens (default
    alice_len(spec), the tokens that read no z bit): she evaluates the
    bounded folds over those tokens and sends the partials; Bob resumes
    the head from them over the rest (attn.resume) and answers.
    """
    if k is None:
        k = alice_len(spec)
    elif not 1 <= k <= spec.n + 1:
        raise ValueError(f"Alice's prefix length must be 1 to {spec.n + 1} "
                         f"tokens, got {k}")
    try:
        num, den = prefix_folds(spec, y, z, k)
    except IndeterminateForm:
        return ProtocolRun(prefix=k, l1=None, l2=None,
                           bit_cost=bit_cost(spec), bob_bit=0)
    return ProtocolRun(prefix=k, l1=den and den[0], l2=num[0],
                       bit_cost=bit_cost(spec),
                       bob_bit=resume(spec, num, den, y, z, k).bit)


def enumerate_fooling(m: int, e: int) -> FoolingReport:
    """Count the promise-valid fooling strings and compare to the closed
    formula 3*2^(m-2)*(1-2^-e).

    The set is every x whose exponent field x_{2:e+1} is nonzero and whose
    tail x_{m-1}x_m is not 10; each (x, x) is then a legal YES instance and
    any two of them are separated by the cross pair.  The closed formula
    counts the same set whenever the three bit windows (exponent field,
    free middle, tail) are disjoint, i.e. e <= m-3; at e = m-2 and e = m-1
    the windows overlap and the true count is smaller.
    """
    if not 1 < e < m:
        raise ValueError(f"need 1 < e < m, got e={e}, m={m}")
    if m > 24:
        raise BudgetExceeded(f"2^{m} strings is past the m <= 24 budget")
    count = 0
    for v in range(1 << m):
        x = format(v, f"0{m}b")
        if x[1:e + 1] == "0" * e:
            continue
        if x[m - 2] + x[m - 1] == "10":
            continue
        count += 1
    formula = 3 * Fraction(1 << (m - 2)) * (1 - Fraction(1, 1 << e))
    return FoolingReport(m=m, e=e, enumerated=count, formula=formula)
