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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .linalg import (Mat, Vec, ZERO, ONE, identity, in_span, is_zero_vec,
                     mat_mul, mat_vec, nullspace, rref, span_basis, vadd,
                     vdot, vneg, vscale, vsub, vec, zero_vec)
from .linprog import InputError


@dataclass(frozen=True)
class RootDatum:
    """Immutable root datum of a catalog group in L_i coordinates."""

    label: str
    rank: int
    roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    gram: Mat
    weyl_generators: tuple[Mat, ...]
    rho_bar: Vec
    # Character directions modded out (one per SL block), paired with the
    # block coordinate pinned to zero by the canonical section.
    quotient_pairs: tuple[tuple[Vec, int], ...] = ()

    def __post_init__(self):
        root_set = set(self.roots)
        for a in self.roots:
            if tuple(-x for x in a) not in root_set:
                raise InputError("roots not closed under negation")
        half = vscale(Fraction(1, 2), _vec_sum(self.positive_roots, self.rank))
        if half != self.rho_bar:
            raise InputError("rho_bar is not half the sum of positive roots")
        for a in self.roots:
            if coroot_pairing(self, a, a) != 2:
                raise InputError("coroot normalization broken")
        for g in self.weyl_generators:
            if mat_mul(mat_mul(_transpose(g), self.gram), g) != self.gram:
                raise InputError("reflection does not preserve the form")

    @cached_property
    def coroots(self) -> dict[Vec, Vec]:
        """Coroot of every root, computed once per datum.  Kept out of the
        dataclass fields, so hashing and equality see only the datum."""
        return {a: _coroot_under(self.gram, a) for a in self.roots}

    @cached_property
    def positive_coroots(self) -> tuple[Vec, ...]:
        return tuple(self.coroots[a] for a in self.positive_roots)

    @property
    def central_directions(self) -> tuple[Vec, ...]:
        return tuple(c for c, _ in self.quotient_pairs)

    def coweight_ok(self, lam: Vec) -> bool:
        """Whether lam lies in Y(T)_R (sum-zero on SL blocks)."""
        return all(vdot(lam, c) == 0 for c in self.central_directions)

    def normalize_weight(self, chi: Vec) -> Vec:
        """Canonical section representative modulo the quotient directions."""
        for c, pin in self.quotient_pairs:
            chi = vsub(chi, vscale(chi[pin], c))
        return chi


def _transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def _vec_sum(vectors, n: int) -> Vec:
    total = zero_vec(n)
    for v in vectors:
        total = vadd(total, v)
    return total


def _unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _coroot_under(gram: Mat, alpha: Vec) -> Vec:
    q = mat_vec(gram, alpha)
    return vscale(Fraction(2) / vdot(alpha, q), q)


def coroot(datum: RootDatum, alpha: Vec) -> Vec:
    """Coroot of alpha under the stored invariant form."""
    cr = datum.coroots.get(alpha)
    return cr if cr is not None else _coroot_under(datum.gram, alpha)


def coroot_pairing(datum: RootDatum, alpha: Vec, chi: Vec) -> Fraction:
    return vdot(coroot(datum, alpha), chi)


def reflection_matrix(datum: RootDatum, alpha: Vec) -> Mat:
    return _reflection(alpha, coroot(datum, alpha))


def _reflection(alpha: Vec, cr: Vec) -> Mat:
    n = len(alpha)
    return tuple(
        tuple((ONE if i == j else ZERO) - alpha[i] * cr[j] for j in range(n))
        for i in range(n))


# ---------------------------------------------------------------------------
# Catalog constructors.
# ---------------------------------------------------------------------------

def _build_torus(n: int) -> RootDatum:
    return RootDatum(
        label=f"Torus({n})", rank=n, roots=(), positive_roots=(),
        simple_roots=(), gram=identity(n), weyl_generators=(),
        rho_bar=zero_vec(n))


def _from_positive_roots(label: str, n: int, pos: list[Vec], simple: list[Vec],
                         quotient_pairs=()) -> RootDatum:
    """Root datum under the identity form, generated by its simple
    reflections."""
    gram = identity(n)
    return RootDatum(
        label=label, rank=n, roots=tuple(pos) + tuple(vneg(a) for a in pos),
        positive_roots=tuple(pos), simple_roots=tuple(simple), gram=gram,
        weyl_generators=tuple(_reflection(a, _coroot_under(gram, a))
                              for a in simple),
        rho_bar=vscale(Fraction(1, 2), _vec_sum(pos, n)),
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
    gens: list[Mat] = []
    quo: list[tuple[Vec, int]] = []
    rho = zero_vec(rank)
    offset = 0
    for f in factors:
        roots += [_embed(a, offset, rank) for a in f.roots]
        pos += [_embed(a, offset, rank) for a in f.positive_roots]
        simple += [_embed(a, offset, rank) for a in f.simple_roots]
        for g in f.weyl_generators:
            big = [list(r) for r in identity(rank)]
            for i in range(f.rank):
                for j in range(f.rank):
                    big[offset + i][offset + j] = g[i][j]
            gens.append(tuple(tuple(r) for r in big))
        for c, pin in f.quotient_pairs:
            quo.append((_embed(c, offset, rank), offset + pin))
        rho = vadd(rho, _embed(f.rho_bar, offset, rank))
        offset += f.rank
    label = "Product(" + ",".join(f.label for f in factors) + ")"
    return RootDatum(
        label=label, rank=rank, roots=tuple(roots), positive_roots=tuple(pos),
        simple_roots=tuple(simple), gram=identity(rank),
        weyl_generators=tuple(gens), rho_bar=rho, quotient_pairs=tuple(quo))


_TAG = re.compile(r"^\s*(torus|gl|sl|sp)\s*\(\s*(\d+)\s*\)\s*$", re.IGNORECASE)


def build_group(tag: str) -> RootDatum:
    """Construct a catalog root datum from a tag like ``Sp(4)`` or
    ``Product(SL(2),Torus(1))``."""
    tag = tag.strip()
    low = tag.lower()
    if low.startswith("product(") and tag.endswith(")"):
        inner = tag[len("product("):-1]
        parts = []
        depth = 0
        start = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        if not parts or any(not p.strip() for p in parts):
            raise InputError(f"malformed product tag {tag!r}")
        return _product([build_group(p) for p in parts])
    m = _TAG.match(tag)
    if not m:
        raise InputError(f"unknown group tag {tag!r}")
    kind, n = m.group(1).lower(), int(m.group(2))
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
    coroots = datum.positive_coroots if levi is None else levi.positive_coroots
    return all(vdot(c, chi) >= 0 for c in coroots)


@lru_cache(maxsize=None)
def weyl_elements(datum: RootDatum) -> tuple[tuple[Mat, tuple[int, ...], int], ...]:
    """All Weyl group elements as (matrix, reduced word, determinant sign),
    enumerated breadth-first so that shorter words come first and ties are
    broken lexicographically.  Deterministic."""
    return _generate_group(identity(datum.rank), datum.weyl_generators)


def _generate_group(ident: Mat, gens: tuple[Mat, ...]):
    seen = {ident: ()}
    order = [(ident, (), 1)]
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for m, word in frontier:
            for i, g in enumerate(gens):
                m2 = mat_mul(m, g)
                if m2 not in seen:
                    w2 = word + (i,)
                    seen[m2] = w2
                    order.append((m2, w2, -1 if len(w2) % 2 else 1))
                    nxt.append((m2, w2))
        frontier = nxt
    return tuple(order)


def make_dominant(datum: RootDatum, chi: Vec,
                  levi: "LeviDatum | None" = None) -> tuple[Vec, tuple[int, ...]]:
    """Dominant representative of the plain Weyl orbit together with the word
    of the chosen element (shortest, then lexicographically first)."""
    elements = weyl_elements(datum) if levi is None else levi.weyl_elements()
    for m, word, _ in elements:
        image = mat_vec(m, chi)
        if is_dominant(datum, image, levi):
            return datum.normalize_weight(image), word
    raise InputError("weyl orbit contains no dominant element")  # unreachable


def star_dominate(datum: RootDatum, chi: Vec,
                  levi: "LeviDatum | None" = None):
    """Dominant representative under w * chi = w(chi + rho) - rho.

    Returns (chi_plus, sign, word) or None when chi + rho lies on a
    reflection wall, in which case no representative is defined.
    """
    rho = datum.rho_bar if levi is None else levi.rho_bar_lambda
    shifted = vadd(chi, rho)
    positives = datum.positive_roots if levi is None else levi.phi_lambda_plus
    dom, word = make_dominant(datum, shifted, levi)
    if any(coroot_pairing(datum, a, dom) == 0 for a in positives):
        return None
    result = datum.normalize_weight(vsub(dom, rho))
    return result, (-1 if len(word) % 2 else 1), word


# ---------------------------------------------------------------------------
# Levi subdata.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeviDatum:
    """Centralizer data of a one-parameter subgroup: the roots vanishing on
    it, their positive half, and the corresponding Weyl subgroup, given by
    the reflections in its simple roots.  Fixed spaces and projections come
    from those generators; only `weyl_elements` enumerates the group."""

    datum: RootDatum
    lam: Vec
    phi_lambda: tuple[Vec, ...]
    phi_lambda_plus: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    rho_bar_lambda: Vec
    weyl_generators: tuple[Mat, ...]

    def weyl_elements(self):
        return _levi_elements(self.datum.rank, self.weyl_generators)

    @cached_property
    def positive_coroots(self) -> tuple[Vec, ...]:
        return tuple(coroot(self.datum, a) for a in self.phi_lambda_plus)

    def _fixed_basis(self) -> list[Vec]:
        """Canonical basis of the common kernel of (g - I) over the
        generators: the Weyl-fixed subspace of the ambient coordinates."""
        n = self.datum.rank
        rows = [[g[i][j] - (ONE if i == j else ZERO) for j in range(n)]
                for g in self.weyl_generators for i in range(n)]
        return span_basis(nullspace(rows, n), n)

    def invariant_projector(self) -> Mat:
        """Projection onto the Weyl-fixed subspace, orthogonal under the
        stored form: B (B^T G B)^-1 B^T G for a basis B of the fixed space.
        The group preserves the form, so this is the Weyl-group average."""
        n = self.datum.rank
        basis = self._fixed_basis()
        gb = [mat_vec(self.datum.gram, b) for b in basis]   # rows of B^T G
        k = len(basis)
        red, _ = rref([[vdot(basis[i], gb[j]) for j in range(k)] + list(gb[i])
                       for i in range(k)])
        coeffs = [row[k:] for row in red]                   # (B^T G B)^-1 B^T G
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
        return all(mat_vec(g, v) == v for g in self.weyl_generators)

    def label(self) -> str:
        return _levi_label(self)


@lru_cache(maxsize=None)
def _levi_elements(rank: int, gens: tuple[Mat, ...]):
    return _generate_group(identity(rank), gens)


def levi(datum: RootDatum, lam: Vec) -> LeviDatum:
    """Levi subdatum attached to a (rational) one-parameter subgroup."""
    lam = vec(lam)
    if len(lam) != datum.rank:
        raise InputError("coweight has wrong dimension")
    if not datum.coweight_ok(lam):
        raise InputError("coweight not in Y(T) (fails SL block constraints)")
    phi = tuple(a for a in datum.roots if pairing(lam, a) == 0)
    plus = tuple(a for a in datum.positive_roots if pairing(lam, a) == 0)
    plus_set = set(plus)
    simple = tuple(
        a for a in plus
        if not any(vsub(a, b) in plus_set for b in plus if b != a))
    rho = vscale(Fraction(1, 2), _vec_sum(plus, datum.rank))
    gens = tuple(reflection_matrix(datum, a) for a in simple)
    return LeviDatum(datum, lam, phi, plus, simple, rho, gens)


def full_levi(datum: RootDatum) -> LeviDatum:
    return levi(datum, zero_vec(datum.rank))


def invariant_subspace(datum: RootDatum) -> list[Vec]:
    """Basis of the Weyl-fixed subspace of X(T)_R (modulo SL quotients)."""
    return full_levi(datum).invariant_vectors()


def _levi_label(lv: LeviDatum) -> str:
    datum = lv.datum
    if set(lv.phi_lambda) == set(datum.roots):
        return datum.label
    simple = list(lv.simple_roots)
    n = len(simple)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and coroot_pairing(datum, simple[i], simple[j]) != 0:
                adj[i][j] = True
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
        lengths = {vdot(simple[k], mat_vec(datum.gram, simple[k])) for k in comp}
        kind = "C" if len(lengths) > 1 or lengths == {Fraction(4)} else "A"
        parts.append(f"{kind}{len(comp)}")
    span_dim = len(span_basis(list(lv.phi_lambda), datum.rank))
    torus_rank = datum.rank - span_dim - len(datum.quotient_pairs)
    if torus_rank > 0:
        parts.append(f"T{torus_rank}")
    parts.sort()
    return "x".join(parts) if parts else "T0"
