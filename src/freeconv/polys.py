"""Minimal exact polynomial arithmetic on ascending coefficient lists.

Just enough to carry the numerator/denominator recurrences of the
continued-fraction approximants and their cross-multiplication checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_trim(p: Sequence[Fraction]) -> list[Fraction]:
    out = [_frac(c) for c in p]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    return poly_add(a, [-_frac(c) for c in b])


def poly_scale(a: Sequence[Fraction], s) -> list[Fraction]:
    s = _frac(s)
    return poly_trim([c * s for c in a])


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += _frac(ca) * _frac(cb)
    return poly_trim(out)


def poly_eq(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    return poly_trim(a) == poly_trim(b)
