"""Exact rational scalars and fixed-length vectors.

Everything is built on fractions.Fraction, which keeps values in lowest terms
with a positive denominator. Vectors are plain tuples of Fractions; the
helpers below never round and never touch floats. The exact kernels (the
double description in dd.py and the simplex in lp.py) and the canonical
constructors in sets.py take and return these Fraction vectors but run on
Python ints internally: primitive_ints and to_fractions convert at their
boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from ..errors import InputError

Rational = Fraction
Vec = tuple[Fraction, ...]

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
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


def unit_vec(dim: int, k: int) -> Vec:
    return tuple(Fraction(1 if i == k else 0) for i in range(dim))


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


def sup_norm(a: Vec) -> Fraction:
    return max((abs(x) for x in a), default=Fraction(0))


def primitive_ints(a: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer form of a direction, as a tuple of ints.

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


def to_fractions(a: Iterable[int]) -> Vec:
    return tuple(Fraction(n) for n in a)


def primitive(a: Vec) -> Vec:
    """Scale a direction to its primitive integer form (see primitive_ints).

    The zero vector maps to itself.
    """
    if is_zero_vec(a):
        return a
    return to_fractions(primitive_ints(a))
