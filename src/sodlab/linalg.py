"""Exact linear algebra over the rationals.

Vectors are immutable tuples of ``fractions.Fraction``; matrices are tuples of
row vectors.  Row reduction, rank, span membership, kernels and solving all
run one fraction-free Gauss-Jordan elimination on integer rows: each input row
is scaled to ints by its least common denominator, and only the results are
turned back into ``Fraction`` tuples, so every function takes and returns
them as before.  ``primitive`` reads the same scaled integers and returns
them as an int tuple, and ``line_decomposition`` keys vectors by it.  No
floating point is used anywhere.
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


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def is_integral(a: Vec) -> bool:
    return all(x.denominator == 1 for x in a)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def ray_ints(row) -> list[int]:
    """row times its least common denominator, divided by the gcd of its
    entries: the primitive integer row on its ray (a zero row stays zero)."""
    ints = int_row(row)[0]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _clear(row: list[int], prow: list[int], c: int) -> list[int]:
    """row with its column-c entry cleared by prow (pivot at c): both
    cross-multiplied by their entries' cofactors, then divided by the gcd."""
    p, f = prow[c], row[c]
    g = math.gcd(p, f)
    p, f = p // g, f // g
    new = [p * x - f * y for x, y in zip(row, prow)]
    g = math.gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _eliminate(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on the rows scaled to ints (after Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968, with a gcd division per updated row in
    place of his exact division by the previous pivot).  Pivots come in the
    textbook order: the first nonzero entry in row order, column by column.
    Returns (rows, pivot columns) with the pivot rows first; each pivot row
    divided by its pivot entry is the RREF row, and the rest are zero."""
    m = [ray_ints(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        for k, row in enumerate(m):
            if k != r and row[c]:
                m[k] = _clear(row, prow, c)
        pivots.append(c)
        r += 1
    return m, pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (reduced rows, pivot columns); the
    rows past the rank are zero."""
    m, pivots = _eliminate(rows)
    red = [[Fraction(x, row[c]) if x else ZERO for x in row]
           for row, c in zip(m, pivots)]
    red.extend([ZERO] * len(row) for row in m[len(pivots):])
    return red, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate(rows)[1])


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
    """Whether target lies in the linear span of the given vectors: whether
    the reduced vectors clear target in every pivot column to zero."""
    if is_zero_vec(target):
        return True
    m, pivots = _eliminate(vectors)
    t = ray_ints(target)
    for prow, c in zip(m, pivots):
        if t[c]:
            t = _clear(t, prow, c)
    return not any(t)


def span_basis(vectors: Sequence[Vec], dim: int) -> list[Vec]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    red, pivots = rref([list(v) for v in vectors]) if vectors else ([], [])
    return [tuple(red[i]) for i in range(len(pivots))]


def primitive(v) -> tuple[int, ...]:
    """Primitive integer vector on the ray of v (ints or Fractions), as an
    int tuple, sign fixed by the first nonzero entry being positive; a zero
    vector gives int zeros.  Canonical key for lines through 0."""
    ints = ray_ints(v)
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def line_decomposition(pairs, mult=int) -> dict[tuple[int, ...], tuple]:
    """The (v, payload) pairs by line through 0: for each primitive line l
    = primitive(v) of a nonzero v, in the order the pairs first reach it,
    (classes, a, b) with classes the (k, payload) of v = k l (k an int at
    an int v), a = sum m k over k > 0, b = sum m |k| over k < 0, m =
    mult(payload).  A zero v lies on no line and is left out."""
    found: dict[tuple[int, ...], list] = {}
    for v, payload in pairs:
        if not is_zero_vec(v):
            line = primitive(v)
            i = next(i for i, x in enumerate(line) if x)
            k, rest = divmod(v[i], line[i])
            found.setdefault(line, []).append(
                (Fraction(v[i], line[i]) if rest else k, payload))
    return {line: (classes,
                   sum(mult(p) * k for k, p in classes if k > 0),
                   sum(mult(p) * -k for k, p in classes if k < 0))
            for line, classes in found.items()}
