"""Brute-force reference models for the scalar formats.

Everything here is recomputed from the format definitions alone: the
representable sets are enumerated outright and rounding walks the octave
arithmetic in plain Fractions.  The fast library code is then checked
value by value against these slow models.
"""

from fractions import Fraction

INF = "inf"


def positional_bits(u: Fraction) -> int:
    """Binary digits needed to write the positive dyadic u, counting every
    position from the most significant digit down to the point on one side
    and from the point down to the least significant digit on the other."""
    if u <= 0:
        raise ValueError("positional_bits wants a positive value")
    frac_bits = u.denominator.bit_length() - 1
    int_bits = (u.numerator // u.denominator).bit_length()
    return int_bits + frac_bits


def floor_log2(u: Fraction) -> int:
    """Largest k with 2**k <= u, for positive u."""
    k = u.numerator.bit_length() - u.denominator.bit_length()
    while Fraction(2) ** (k + 1) <= u:
        k += 1
    while Fraction(2) ** k > u:
        k -= 1
    return k


def round_to_multiple(u: Fraction, step: Fraction, mode: str) -> Fraction:
    """Round positive u to a multiple of step; "trunc" drops toward zero,
    "nearest" picks the closer multiple and sends exact ties toward zero."""
    q, rem = divmod(u, step)
    if rem == 0:
        return q * step
    if mode == "nearest" and rem > step / 2:
        q += 1
    return q * step


def fx_values(fmt) -> list:
    """Every finite value of a fixed-point format, in ascending order."""
    budget = fmt.p - 1
    scale = Fraction(2) ** fmt.scale_log2
    mags = set()
    for f in range(budget + 1):
        for a in range(1, 1 << budget):
            u = Fraction(a, 1 << f)
            if positional_bits(u) <= budget:
                mags.add(u)
    out = {Fraction(0)}
    for u in mags:
        out.add(u * scale)
        out.add(-u * scale)
    return sorted(out)


def fp_values(fmt) -> list:
    """Every finite value of a floating-point format, in ascending order."""
    out = {Fraction(0)}
    q = (1 << fmt.e - 1) - 1
    for msb in range(-q, q + 1):
        for a in range(1 << (fmt.t - 1)):
            sig = (1 << (fmt.t - 1)) + a
            u = Fraction(sig) * Fraction(2) ** (msb - (fmt.t - 1))
            out.add(u)
            out.add(-u)
    return sorted(out)


def fx_round_ref(value, fmt):
    """Slow fixed-point rounding: saturate past the top octave, otherwise
    round onto the grid whose spacing the value's own octave dictates.

    Returns a Fraction, or ("inf", sign) for saturation.
    """
    v = Fraction(value)
    if v == 0:
        return Fraction(0)
    sign = 1 if v > 0 else -1
    u = abs(v) / Fraction(2) ** fmt.scale_log2
    budget = fmt.p - 1
    octave = floor_log2(u) + 1
    if octave > budget:
        return (INF, sign)
    step = Fraction(2) ** (max(octave, 0) - budget)
    r = round_to_multiple(u, step, fmt.rounding)
    if r == 0:
        return Fraction(0)
    if positional_bits(r) > budget:
        return (INF, sign)
    return sign * r * Fraction(2) ** fmt.scale_log2


def fp_round_ref(value, fmt):
    """Slow floating-point rounding: keep t significand bits at the value's
    own exponent, then saturate above the exponent range and flush to zero
    below it.  Returns a Fraction, or ("inf", sign) for saturation."""
    v = Fraction(value)
    if v == 0:
        return Fraction(0)
    sign = 1 if v > 0 else -1
    u = abs(v)
    lsb = floor_log2(u) - (fmt.t - 1)
    r = round_to_multiple(u, Fraction(2) ** lsb, fmt.rounding)
    if r == 0:
        return Fraction(0)
    msb = floor_log2(r)
    q = (1 << fmt.e - 1) - 1
    if msb > q:
        return (INF, sign)
    if msb < -q:
        return Fraction(0)
    return sign * r


def unwrap(num):
    """Library scalar -> Fraction or ("inf", sign), for comparisons."""
    if num.is_inf:
        return (INF, num.sign)
    return num.as_fraction()


def fold_ref(values, round_one) -> object:
    """Left fold with rounding after every step, entirely in Fractions.

    round_one maps an exact value to a Fraction or ("inf", sign); infinities
    of matched sign absorb, a mixed-sign sum returns "indeterminate".
    """
    acc = None
    for v in values:
        cur = round_one(v)
        if acc is None:
            acc = cur
            continue
        a_inf = isinstance(acc, tuple)
        c_inf = isinstance(cur, tuple)
        if a_inf and c_inf:
            if acc[1] != cur[1]:
                return "indeterminate"
            continue
        if a_inf:
            continue
        if c_inf:
            acc = cur
            continue
        acc = round_one(acc + cur)
    return acc
