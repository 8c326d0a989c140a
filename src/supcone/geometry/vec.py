"""Exact rational scalars and fixed-length vectors.

Directions are primitive int tuples; points and scalars are Fractions.
Fractions keep values in lowest terms with a positive denominator, and a
Python int is an integral rational with the same numerator, denominator,
hash, order and equality as the Fraction of the same value, so the helpers
below take either and never round or touch floats. The canonical
constructors in sets.py store every ray and halfspace row as the int tuple
primitive_ints returns, and the exact kernels (the double description in
dd.py and the simplex in lp.py) run on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from ..errors import InputError

Vec = tuple[Fraction, ...]

RationalLike = Union[Fraction, int, str]


def parse_rat(text: str) -> Fraction:
    """Fraction(text) for an integer, 'p/q' or decimal string. An exponent
    raises ValueError, as a malformed string does: "1e999999999" is 11
    bytes of a 3.3e9-bit integer."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent in rational {text!r}")
    return Fraction(text)


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rat(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed rational {value!r}: {exc}") from None
    raise InputError(f"cannot interpret {value!r} as a rational")


def format_rat(q: Fraction) -> str:
    """Canonical text form: 'p' for integers, 'p/q' otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(values: Iterable[RationalLike]) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact inner product, summed as one int fraction and reduced once."""
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
    num, den = 0, 1
    for x, y in zip(a, b):
        d = x.denominator * y.denominator
        num = num * d + x.numerator * y.numerator * den
        den *= d
    return Fraction(num, den)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(s: Fraction, a: Vec) -> Vec:
    return tuple(s * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def primitive_ints(a: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer form of a direction, as a tuple of ints: the
    one representation of rays and halfspace rows.

    Clears denominators, divides by the gcd of the absolute numerators, and
    keeps the orientation (rays and halfspace normals are scale-invariant
    under positive factors only). The zero vector maps to zeros.
    """
    mult = lcm(*(x.denominator for x in a))
    return divide_gcd([x.numerator * (mult // x.denominator) for x in a])


def divide_gcd(xs: list[int]) -> tuple[int, ...]:
    """xs divided by the gcd of its entries; all zeros stay zeros."""
    g = gcd(*xs)
    return tuple(x // g for x in xs) if g > 1 else tuple(xs)
