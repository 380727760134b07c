"""Exact linear algebra over the rationals.

Vectors are immutable tuples of ``fractions.Fraction``; matrices are tuples of
row vectors.  Everything here is plain Gaussian elimination, which is all the
rest of the package needs: solving small square systems, row reduction,
kernels and span membership.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"3/2"`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c: Fraction, a: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def int_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with ints / d == values and d > 0 the least such."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """(ints, d) with each ints[i] / d == rows[i] and d > 0 the least
    common denominator of every entry."""
    d = math.lcm(*(v.denominator for row in rows for v in row))
    return [tuple(v.numerator * (d // v.denominator) for v in row)
            for row in rows], d


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def is_integral(a: Vec) -> bool:
    return all(x.denominator == 1 for x in a)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (reduced rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Basis of {x : rows @ x = 0}, one vector per free column."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def solve(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec | None:
    """One solution of A x = b, or None when the system is inconsistent."""
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b, strict=True)]
    red, pivots = rref(aug)
    for i, row in enumerate(red):
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][ncols]
    return tuple(x)


def in_span(vectors: Sequence[Vec], target: Vec) -> bool:
    """Whether target lies in the linear span of the given vectors."""
    if is_zero_vec(target):
        return True
    base = [list(v) for v in vectors]
    return rank(base + [list(target)]) == rank(base)


def span_basis(vectors: Sequence[Vec], dim: int) -> list[Vec]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    red, pivots = rref([list(v) for v in vectors]) if vectors else ([], [])
    return [tuple(red[i]) for i in range(len(pivots))]


def subspace_intersection(basis_a: Sequence[Vec], basis_b: Sequence[Vec],
                          dim: int) -> list[Vec]:
    """Basis of span(basis_a) intersect span(basis_b).

    A point of the intersection is sum(alpha_i a_i) = sum(beta_j b_j); the
    coefficient pairs form the kernel of [A^T | -B^T].
    """
    a = list(basis_a)
    bvs = list(basis_b)
    if not a or not bvs:
        return []
    p, q = len(a), len(bvs)
    rows = [[a[i][k] for i in range(p)] + [-bvs[j][k] for j in range(q)]
            for k in range(dim)]
    combos = nullspace(rows, p + q)
    points = []
    for co in combos:
        x = [ZERO] * dim
        for i in range(p):
            if co[i] != 0:
                x = [xi + co[i] * ai for xi, ai in zip(x, a[i])]
        points.append(tuple(x))
    return span_basis(points, dim)


def primitive(v: Vec) -> Vec:
    """Primitive integer vector on the ray of v, sign fixed by the first
    nonzero entry being positive.  Canonical key for lines through 0."""
    if is_zero_vec(v):
        return v
    from math import gcd, lcm

    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(Fraction(x) for x in ints)
