"""One-way communication protocols compiled from attention, plus the
counting arguments that lower-bound them.

The reduction: the bounded left fold decomposes at any prefix boundary, so
Alice's share is a prefix length k of the fold order.  Alice (holding y)
folds the first k tokens, by default the attn.alice_len(spec) tokens that
read no z bit (the cut the factored verifier makes too), and sends the
partial numerator and denominator as two p-bit scalars; Bob resumes the
same fold from that state over the rest and finishes the pipeline.  Both
halves run the one kernel that forward runs end to end, so the answer bit
equals the single-machine forward pass by construction; the tests still
check it pair-exhaustively at small m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .attn import (
    LINEAR,
    OFF,
    TransformerSpec,
    alice_len,
    finish_softmax,
    fold,
    linear_output,
    scale_numerator,
    token_cells,
)
from .bitnum import IndeterminateForm, ceil_log2
from .constructs import native_precision
from .oracle import BudgetExceeded


@dataclass(frozen=True)
class ProtocolRun:
    """Transcript of one simulated protocol execution."""

    prefix: int
    l1: object
    l2: object
    bit_cost: int
    bob_bit: int


@dataclass(frozen=True)
class FoolingReport:
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
    and answers.
    """
    if k is None:
        k = alice_len(spec)
    elif not 1 <= k <= spec.n + 1:
        raise ValueError(f"Alice's prefix length must be 1 to {spec.n + 1} "
                         f"tokens, got {k}")
    linear = spec.attention_kind == LINEAR
    cost = bit_cost(spec)

    cells = token_cells(spec, y, z)
    try:
        l2, l1 = fold(spec, (None, OFF if linear else None), 0, k, cells)
    except IndeterminateForm:
        return ProtocolRun(prefix=k, l1=None, l2=None, bit_cost=cost,
                           bob_bit=0)
    try:
        num, den = fold(spec, (l2, l1), k, len(cells), cells)
        num = (linear_output if linear else scale_numerator)(spec, num)
        bit = finish_softmax(spec, num, None if linear else den)[0]
    except IndeterminateForm:
        bit = 0
    return ProtocolRun(prefix=k, l1=None if linear else l1, l2=l2,
                       bit_cost=cost, bob_bit=bit)


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
