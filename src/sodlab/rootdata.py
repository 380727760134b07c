"""Root data for a catalog of connected reductive groups.

Supported groups: Torus(n), GL(n), SL(n), Sp(2n) and finite products.  All
weights live in the L_i coordinates of the ambient diagonal torus.  SL(n) is
stored in GL(n) coordinates with characters taken modulo the determinant
direction (1,...,1); its one-parameter subgroups are the sum-zero vectors.
Weights of an SL block are normalized to a canonical section representative
with last block coordinate zero.

Positive roots are L_i - L_j (i < j) for GL/SL and additionally L_i + L_j
(i < j) and 2 L_i for Sp(2n); dominant weights have non-increasing block
coordinates (and a nonnegative tail coordinate for Sp).

The Weyl group is never enumerated: dominant conjugates, signed orbits and
fixed spaces all come from the simple reflections s_a(v) = v - <a^vee, v> a
(Humphreys, *Introduction to Lie Algebras and Representation Theory*, 10).
The invariant form of every catalog group is the dot product, so the coroot
of a is a^vee = 2 a / (a . a) (Humphreys, 9.1) and its ray is the root's
own.  No coroot is stored as a vector: the primitive int tuple of each root
gives the ``dominance_rows`` (simple coroots) and ``weyl_rows`` (positive
coroots), and with a . a it gives the reflections.  Descent and orbits
run on int tuples (weights times a common denominator): each simple
reflection, followed by ``normalize_weight``, is one integer matrix and one
positive denominator (``LeviDatum.reflections``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from operator import mul, sub

from .linalg import (Mat, Vec, ZERO, ONE, in_span, int_row, int_rows,
                     is_zero_vec, nullspace, ray_ints, rref, span_basis, vadd,
                     vdot, vneg, vscale, vsub, vec, zero_vec)
from .linprog import InputError

# Integer rows and a positive denominator: the linear map v -> rows v / d.
Reflection = tuple[tuple[tuple[int, ...], ...], int]


@dataclass(frozen=True)
class RootDatum:
    """Immutable root datum of a catalog group in L_i coordinates."""

    label: str
    rank: int
    roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    rho_bar: Vec
    # Character directions modded out (one per SL block), paired with the
    # block coordinate pinned to zero by the canonical section.
    quotient_pairs: tuple[tuple[Vec, int], ...] = ()

    def __post_init__(self):
        if any(x.denominator != 1 for c, _ in self.quotient_pairs for x in c):
            raise InputError("quotient directions must be integral")
        scale, roots, positives = self.root_ints
        root_set = set(roots)
        if any(tuple(-x for x in a) not in root_set for a in roots):
            raise InputError("roots not closed under negation")
        if _half_sum(scale, positives, self.rank) != self.rho_bar:
            raise InputError("rho_bar is not half the sum of positive roots")
        # 2 a / (a . a) is the coroot of every nonzero a
        if any(not any(a) for a in roots):
            raise InputError("a root is zero, so it has no coroot")

    @cached_property
    def root_ints(self) -> tuple[int, tuple[tuple[int, ...], ...],
                                 tuple[tuple[int, ...], ...]]:
        """(d, roots, positive roots): every root times d, one common
        positive integer, as an int tuple, in the order of ``roots`` and
        ``positive_roots``.  Zero pairings, sums and differences of roots
        read the same at that scale."""
        ints, d = int_rows(self.roots + self.positive_roots)
        n = len(self.roots)
        return d, tuple(ints[:n]), tuple(ints[n:])

    @cached_property
    def dominance_rows(self) -> tuple[tuple[int, ...], ...]:
        return _coroot_rows(self.simple_roots)

    @property
    def central_directions(self) -> tuple[Vec, ...]:
        return tuple(c for c, _ in self.quotient_pairs)

    def coweight_ok(self, lam: Vec) -> bool:
        """Whether lam lies in Y(T)_R (sum-zero on SL blocks)."""
        return all(vdot(lam, c) == 0 for c in self.central_directions)

    @cached_property
    def quotient_ints(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """``quotient_pairs`` with each (integral) direction as ints."""
        return tuple((tuple(x.numerator for x in c), pin)
                     for c, pin in self.quotient_pairs)

    def normalize_weight(self, chi):
        """Canonical section representative modulo the quotient directions:
        Fraction tuples stay Fraction tuples and int tuples stay int tuples
        (weights times any common denominator)."""
        for c, pin in self.quotient_ints:
            t = chi[pin]
            chi = tuple(x - t * y for x, y in zip(chi, c, strict=True))
        return chi


def _coroot_rows(roots) -> tuple[tuple[int, ...], ...]:
    """The coroot 2 a / (a . a) of each root on its ray: the root's own
    primitive int tuple.  With the simple roots these are the dominance
    rows, every positive coroot being a nonnegative sum of simple ones."""
    return tuple(tuple(ray_ints(a)) for a in roots)


def _half_sum(scale: int, ints, rank: int) -> Vec:
    """Half the sum of the roots whose int tuples at ``scale`` are given."""
    total = [sum(col) for col in zip(*ints)] or [0] * rank
    return tuple(Fraction(x, 2 * scale) for x in total)


def _unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


# ---------------------------------------------------------------------------
# Catalog constructors.
# ---------------------------------------------------------------------------

def _build_torus(n: int) -> RootDatum:
    return RootDatum(
        label=f"Torus({n})", rank=n, roots=(), positive_roots=(),
        simple_roots=(), rho_bar=zero_vec(n))


def _from_positive_roots(label: str, n: int, pos: list[Vec], simple: list[Vec],
                         quotient_pairs=()) -> RootDatum:
    """Root datum with the given positive and simple roots."""
    ints, scale = int_rows(pos)
    return RootDatum(
        label=label, rank=n, roots=tuple(pos) + tuple(vneg(a) for a in pos),
        positive_roots=tuple(pos), simple_roots=tuple(simple),
        rho_bar=_half_sum(scale, ints, n),
        quotient_pairs=quotient_pairs)


def _type_a_roots(n: int):
    pos = [vsub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
    return pos, simple


def _build_gl(n: int) -> RootDatum:
    return _from_positive_roots(f"GL({n})", n, *_type_a_roots(n))


def _build_sl(n: int) -> RootDatum:
    return _from_positive_roots(f"SL({n})", n, *_type_a_roots(n),
                                quotient_pairs=(((ONE,) * n, n - 1),))


def _build_sp(two_n: int) -> RootDatum:
    if two_n % 2 != 0 or two_n < 2:
        raise InputError(f"Sp rank parameter must be even and positive, got {two_n}")
    n = two_n // 2
    pos = [vsub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
    pos += [vscale(Fraction(2), _unit(n, i)) for i in range(n)]
    simple = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
    simple.append(vscale(Fraction(2), _unit(n, n - 1)))
    return _from_positive_roots(f"Sp({two_n})", n, pos, simple)


def _embed(v: Vec, offset: int, rank: int) -> Vec:
    return zero_vec(offset) + v + zero_vec(rank - offset - len(v))


def _product(factors: list[RootDatum]) -> RootDatum:
    rank = sum(f.rank for f in factors)
    roots: list[Vec] = []
    pos: list[Vec] = []
    simple: list[Vec] = []
    quo: list[tuple[Vec, int]] = []
    rho = zero_vec(rank)
    offset = 0
    for f in factors:
        roots += [_embed(a, offset, rank) for a in f.roots]
        pos += [_embed(a, offset, rank) for a in f.positive_roots]
        simple += [_embed(a, offset, rank) for a in f.simple_roots]
        for c, pin in f.quotient_pairs:
            quo.append((_embed(c, offset, rank), offset + pin))
        rho = vadd(rho, _embed(f.rho_bar, offset, rank))
        offset += f.rank
    label = "Product(" + ",".join(f.label for f in factors) + ")"
    return RootDatum(
        label=label, rank=rank, roots=tuple(roots), positive_roots=tuple(pos),
        simple_roots=tuple(simple), rho_bar=rho,
        quotient_pairs=tuple(quo))


_TAG = re.compile(r"^\s*(torus|gl|sl|sp)\s*\(\s*(\d+)\s*\)\s*$", re.IGNORECASE)

# Largest rank of a group, a product's factors summed.  The tests, presets
# and benchmark jobs build at most GL(7), and a build grows about as rank^4
# (GL(64) takes 1.3 s); a tag past the cap is refused before it is built.
GROUP_RANK_CAP = 32

# Deepest nesting of parentheses in a group tag.  The tests, presets and
# benchmark jobs nest 2 deep (``Product(GL(2),Sp(4))``); each level is one
# recursive build, and 500 of them overflow the interpreter's stack.  A
# Torus(0) factor has rank 0, so the rank cap does not bound the depth; a
# tag past this cap is refused before any recursion.
GROUP_DEPTH_CAP = 8


@cache
def build_group(tag: str) -> RootDatum:
    """Construct a catalog root datum from a tag like ``Sp(4)`` or
    ``Product(SL(2),Torus(1))``, once per tag string: the datum is frozen,
    so every caller of one tag shares it (a malformed tag raises each
    time)."""
    tag = tag.strip()
    low = tag.lower()
    if low.startswith("product(") and tag.endswith(")"):
        inner = tag[len("product("):-1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            depth += (ch == "(") - (ch == ")")
            if depth >= GROUP_DEPTH_CAP:
                raise InputError(f"group tag nests parentheses past the cap "
                                 f"of {GROUP_DEPTH_CAP}")
            if ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        if any(not p.strip() for p in parts):
            raise InputError(f"malformed product tag {tag!r}")
        factors, rank = [], 0
        for p in parts:
            factors.append(build_group(p))
            rank += factors[-1].rank
            if rank > GROUP_RANK_CAP:
                raise InputError(f"the factors of {tag!r} have rank above "
                                 f"the cap of {GROUP_RANK_CAP}")
        return _product(factors)
    m = _TAG.match(tag)
    if not m:
        raise InputError(f"unknown group tag {tag!r}")
    kind, digits = m.group(1).lower(), m.group(2).lstrip("0") or "0"
    # Sp(2n) has rank n; a long digit string is refused before int() reads it
    limit = 2 * GROUP_RANK_CAP if kind == "sp" else GROUP_RANK_CAP
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise InputError(f"{m.group(1)} parameter above {limit}, past the "
                         f"rank cap of {GROUP_RANK_CAP}")
    n = int(digits)
    if kind == "torus":
        return _build_torus(n)
    if n < 1:
        raise InputError(f"group parameter must be positive in {tag!r}")
    if kind == "gl":
        return _build_gl(n)
    if kind == "sl":
        if n < 2:
            raise InputError("SL(n) needs n >= 2")
        return _build_sl(n)
    return _build_sp(n)


# ---------------------------------------------------------------------------
# Pairings, dominance, Weyl action.
# ---------------------------------------------------------------------------

def pairing(lam: Vec, chi: Vec) -> Fraction:
    """Canonical pairing of a one-parameter subgroup with a character."""
    if len(lam) != len(chi):
        raise InputError("pairing dimension mismatch")
    return vdot(lam, chi)


def is_dominant(datum: RootDatum, chi: Vec, levi: "LeviDatum | None" = None) -> bool:
    """Whether chi (ints or Fractions) pairs nonnegatively with every
    positive coroot of the datum, or of the Levi when one is given."""
    rows = (datum if levi is None else levi).dominance_rows
    return all(sum(map(mul, c, chi)) >= 0 for c in rows)


# Most points an orbit search may visit, counted as they are found.  The
# largest orbit of the tests, golden presets and benchmark jobs has 384
# points (a regular orbit of Sp(8), in the tests; the benchmark's largest
# has 8); past the cap the search is refused, not left to run through a
# Weyl group of millions of elements.
ORBIT_CAP = 50_000


def reflect(reflection: Reflection, x: tuple[int, ...]) -> tuple[int, ...]:
    """Image of the int tuple x under a reflection (rows, d): rows x / d.
    InputError when that leaves the int lattice, which the reflections of a
    catalog group, whose roots and coroots are integral, never do."""
    rows, d = reflection
    y = tuple(sum(map(mul, row, x)) for row in rows)
    if d == 1:
        return y
    if any(v % d for v in y):
        raise InputError("a Weyl reflection leaves the lattice of the point")
    return tuple(v // d for v in y)


def descend(lv: "LeviDatum", chi: tuple[int, ...], lowest: bool = False):
    """Dominant (antidominant when ``lowest``) conjugate, in section form,
    of the int tuple chi under the Weyl group of the Levi, and a reduced
    word of the unique shortest w taking chi there:
    w = s_{word[0]} ... s_{word[-1]}.  Each step reflects in a simple root
    whose coroot pairs negatively (positively) with the point, one positive
    root fewer doing so."""
    chi = lv.datum.normalize_weight(chi)
    applied: list[int] = []
    while True:
        for i, row in enumerate(lv.dominance_rows):
            c = sum(map(mul, row, chi))
            if (c > 0) if lowest else (c < 0):
                chi = reflect(lv.reflections[i], chi)
                applied.append(i)
                break
        else:
            return chi, tuple(reversed(applied))


def orbit(lv: "LeviDatum",
          chi: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Every point, in section form, of the Levi Weyl orbit of the int tuple
    chi with the sign (-1)^l, for l the length of the shortest element
    reaching it, found breadth-first from chi by simple reflections.  At a
    regular point the points are the w(chi), one per element w, and the sign
    is det w.  InputError once more than ``ORBIT_CAP`` points are found."""
    chi = lv.datum.normalize_weight(chi)
    reflections = lv.reflections
    signs, frontier, sign = {chi: 1}, [chi], 1
    while frontier:
        sign, nxt = -sign, []
        for v in frontier:
            for r in reflections:
                u = reflect(r, v)
                if u not in signs:
                    if len(signs) == ORBIT_CAP:
                        raise InputError(f"a Weyl orbit has more points "
                                         f"than the cap of {ORBIT_CAP}")
                    signs[u] = sign
                    nxt.append(u)
        frontier = nxt
    return list(signs.items())


def make_dominant(datum: RootDatum, chi: Vec,
                  levi: "LeviDatum | None" = None) -> tuple[Vec, tuple[int, ...]]:
    """Dominant representative of the plain Weyl orbit together with a
    reduced word of the unique shortest element taking chi there."""
    ints, d = int_row(chi)
    dom, word = descend(levi or full_levi(datum), tuple(ints))
    return tuple(Fraction(x, d) for x in dom), word


def star_dominate(datum: RootDatum, chi: Vec,
                  levi: "LeviDatum | None" = None):
    """Dominant representative under w * chi = w(chi + rho) - rho.

    Returns (chi_plus, sign, word) or None when chi + rho lies on a
    reflection wall, in which case no representative is defined.  The word
    is a reduced word of the unique shortest w, and the sign is det w.
    """
    rho = datum.rho_bar if levi is None else levi.rho_bar_lambda
    dom, word = make_dominant(datum, vadd(chi, rho), levi)
    if any(not sum(map(mul, row, dom))
           for row in (levi or full_levi(datum)).weyl_rows):
        return None
    result = datum.normalize_weight(vsub(dom, rho))
    return result, (-1 if len(word) % 2 else 1), word


# ---------------------------------------------------------------------------
# Levi subdata.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeviDatum:
    """Centralizer data of a one-parameter subgroup: the roots vanishing on
    it, their positive half and its simple roots.  The Levi Weyl group is
    present only through the reflections in those simple roots; fixed
    spaces, projections, dominant conjugates and orbits all come from them,
    and the group itself is never enumerated."""

    datum: RootDatum
    lam: Vec
    phi_lambda: tuple[Vec, ...]
    phi_lambda_plus: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    rho_bar_lambda: Vec

    @cached_property
    def dominance_rows(self) -> tuple[tuple[int, ...], ...]:
        return _coroot_rows(self.simple_roots)

    @cached_property
    def reflections(self) -> tuple[Reflection, ...]:
        """One (rows, d) per simple root, in the order of ``simple_roots``:
        the reflection in the root followed by ``normalize_weight`` is
        v -> rows v / d, with int rows and d > 0 the least such.  For the
        root a = a' / t with a' an int tuple the coroot is
        2 t a' / (a' . a'), so N s_a = N - 2 (N a') a'^T / (a' . a') for the
        normalization N, whose columns are the normalized units."""
        datum = self.datum
        n = datum.rank
        units = [datum.normalize_weight(tuple(int(i == j) for i in range(n)))
                 for j in range(n)]
        out = []
        for a in self.simple_roots:
            a = tuple(int_row(a)[0])
            norm = sum(map(mul, a, a))
            na = datum.normalize_weight(a)
            rows = [[norm * u[i] - 2 * na[i] * aj for u, aj in zip(units, a)]
                    for i in range(n)]
            g = math.gcd(norm, *(x for row in rows for x in row))
            out.append((tuple(tuple(x // g for x in row) for row in rows),
                        norm // g))
        return tuple(out)

    @cached_property
    def weyl_rows(self) -> tuple[tuple[int, ...], ...]:
        """One primitive int row on the ray of each positive coroot, in the
        order of ``phi_lambda_plus``: the factors of the Weyl product."""
        return _coroot_rows(self.phi_lambda_plus)

    def _fixed_basis(self) -> list[Vec]:
        """Canonical basis of the Weyl-fixed subspace of the ambient
        coordinates.  s_a - I is v -> -<a^vee, v> a, so the fixed space is
        the common kernel of the simple coroots, that is of the
        ``dominance_rows`` on their rays."""
        n = self.datum.rank
        return span_basis(nullspace(self.dominance_rows, n), n)

    def invariant_projector(self) -> Mat:
        """Orthogonal projection onto the Weyl-fixed subspace:
        B (B^T B)^-1 B^T for a basis B of the fixed space.  The group
        preserves the dot product, so this is the Weyl-group average."""
        n = self.datum.rank
        basis = self._fixed_basis()
        k = len(basis)
        red, _ = rref([[vdot(basis[i], basis[j]) for j in range(k)]
                       + list(basis[i]) for i in range(k)])
        coeffs = [row[k:] for row in red]                   # (B^T B)^-1 B^T
        return tuple(
            tuple(sum((basis[t][i] * coeffs[t][j] for t in range(k)), ZERO)
                  for j in range(n))
            for i in range(n))

    def invariant_vectors(self) -> list[Vec]:
        """Canonical basis of Weyl-fixed directions of X(T)_R, taken modulo
        the quotient directions of SL blocks."""
        central = list(self.datum.central_directions)
        out = []
        for v in self._fixed_basis():
            if not in_span(central + out, v):
                out.append(self.datum.normalize_weight(v))
        return [v for v in out if not is_zero_vec(v)]

    def is_invariant(self, v: Vec) -> bool:
        return not any(sum(map(mul, row, v)) for row in self.dominance_rows)

    def label(self) -> str:
        return _levi_label(self)


def levi(datum: RootDatum, lam: Vec) -> LeviDatum:
    """Levi subdatum attached to a (rational) one-parameter subgroup."""
    lam = vec(lam)
    if len(lam) != datum.rank:
        raise InputError("coweight has wrong dimension")
    if not datum.coweight_ok(lam):
        raise InputError("coweight not in Y(T) (fails SL block constraints)")
    row = int_row(lam)[0]
    scale, roots, positives = datum.root_ints
    phi = tuple(compress(datum.roots,
                         [not sum(map(mul, row, a)) for a in roots]))
    on_wall = [not sum(map(mul, row, a)) for a in positives]
    plus = tuple(compress(datum.positive_roots, on_wall))
    plus_ints = list(compress(positives, on_wall))
    # a positive root is simple iff it is no positive root plus another
    plus_set = set(plus_ints)
    simple = tuple(a for a, ai in zip(plus, plus_ints)
                   if not any(tuple(map(sub, ai, b)) in plus_set
                              for b in plus_ints))
    rho = _half_sum(scale, plus_ints, datum.rank)
    return LeviDatum(datum, lam, phi, plus, simple, rho)


# The whole-group Levi of the datum asked for last.  It is kept here, not
# on the datum: the Levi refers back to its datum, so a cache on the datum
# would be a cycle that only the cyclic collector frees.  Holding the Levi
# holds its datum, so the identity test below cannot match a new object.
_FULL_LEVI: list[LeviDatum] = []


def full_levi(datum: RootDatum) -> LeviDatum:
    """The Levi subdatum of the zero subgroup (the whole group), built once
    per run of calls on one datum."""
    if not (_FULL_LEVI and _FULL_LEVI[0].datum is datum):
        _FULL_LEVI[:] = [levi(datum, zero_vec(datum.rank))]
    return _FULL_LEVI[0]


def invariant_subspace(datum: RootDatum) -> list[Vec]:
    """Basis of the Weyl-fixed subspace of X(T)_R (modulo SL quotients)."""
    return full_levi(datum).invariant_vectors()


def _levi_label(lv: LeviDatum) -> str:
    datum = lv.datum
    if set(lv.phi_lambda) == set(datum.roots):
        return datum.label
    simple = lv.simple_roots
    n = len(simple)
    adj = [[i != j and sum(map(mul, row, simple[j])) != 0 for j in range(n)]
           for i, row in enumerate(lv.dominance_rows)]
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        comp = [i]
        seen[i] = True
        stack = [i]
        while stack:
            k = stack.pop()
            for j in range(n):
                if adj[k][j] and not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        # type C: some simple root is twice a lattice vector (2 L_i)
        kind = "C" if any(all((x / 2).denominator == 1 for x in simple[k])
                          for k in comp) else "A"
        parts.append(f"{kind}{len(comp)}")
    span_dim = len(span_basis(list(lv.phi_lambda), datum.rank))
    torus_rank = datum.rank - span_dim - len(datum.quotient_pairs)
    if torus_rank > 0:
        parts.append(f"T{torus_rank}")
    parts.sort()
    return "x".join(parts) if parts else "T0"
