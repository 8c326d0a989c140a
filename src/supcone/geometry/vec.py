"""Exact rational scalars and fixed-length vectors.

Everything is built on fractions.Fraction, which keeps values in lowest terms
with a positive denominator. Vectors are plain tuples of Fractions; the
helpers below never round and never touch floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


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


def primitive(a: Vec) -> Vec:
    """Scale a direction to its primitive integer form.

    Clears denominators, divides by the gcd of the absolute numerators, and
    keeps the orientation (rays and halfspace normals are scale-invariant
    under positive factors only). The zero vector maps to itself.
    """
    if is_zero_vec(a):
        return a
    mult = 1
    for x in a:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in a]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(Fraction(n // g) for n in ints)


def lex_key(a: Vec) -> tuple:
    return tuple(a)
