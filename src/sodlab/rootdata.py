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

Every root and every SL quotient direction is a lattice vector, an int
tuple: the catalog constructors build them so, and ``RootDatum`` refuses
any other entry with InputError.  Only the inputs are stored: rho_bar, a
Fraction tuple, and a Levi's simple roots and rho_bar_lambda are derived
once, on first use.  A Levi keeps its one-parameter subgroup as it is
given: an int tuple on the CLI path (``full_levi``,
``zonotope.supporting_lambda``), or a rational one from a library caller.
Like ``build_group``, ``full_levi`` builds once per datum value.

The Weyl group is never enumerated: dominant conjugates, signed orbits,
fixed spaces and the Weyl average all come from the simple roots, whose
reflections s_a(v) = v - <a^vee, v> a generate it (Humphreys,
*Introduction to Lie Algebras and Representation Theory*, 10).  The
invariant form of every catalog group is the dot product, so the coroot
of a is a^vee = 2 a / (a . a) (Humphreys, 9.1), on the root's own ray: the
primitive int tuple of each root gives the ``dominance_rows`` (simple
coroots) and ``weyl_rows`` (positive coroots).  Descent and orbits run on
int tuples, ``reflect`` reading a and a . a off the root and then applying
the section normalization as a step of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import mul, sub

from .linalg import (Vec, ZERO, in_span, int_row, is_zero_vec, nullspace,
                     ray_ints, solve, span_basis, vadd, vdot, vsub)
from .linprog import InputError


@dataclass(frozen=True)
class RootDatum:
    """Immutable root datum of a catalog group in L_i coordinates: its
    positive roots (the roots are these and their negatives), simple roots
    and quotient pairs, all int tuples; rho_bar and the central directions
    are derived from them."""

    label: str
    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    simple_roots: tuple[tuple[int, ...], ...]
    # Character directions modded out (one per SL block), paired with the
    # block coordinate pinned to zero by the canonical section.
    quotient_pairs: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        for v in (*self.positive_roots, *self.simple_roots,
                  *self.central_directions):
            if any(type(x) is not int for x in v):
                raise InputError(f"root or SL direction {list(map(str, v))} "
                                 f"is not an int tuple (a lattice vector)")
        # 2 a / (a . a) is the coroot of every nonzero a
        if any(not any(a) for a in self.positive_roots):
            raise InputError("a root is zero, so it has no coroot")

    @cached_property
    def rho_bar(self) -> Vec:
        """Half the sum of the positive roots, a Fraction tuple."""
        return tuple(Fraction(x, 2)
                     for x in _root_sum(self.positive_roots, self.rank))

    @cached_property
    def dominance_rows(self) -> tuple[tuple[int, ...], ...]:
        return _coroot_rows(self.simple_roots)

    @cached_property
    def central_directions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c, _ in self.quotient_pairs)

    def coweight_ok(self, lam: Vec) -> bool:
        """Whether lam lies in Y(T)_R (sum-zero on SL blocks)."""
        return all(vdot(lam, c) == 0 for c in self.central_directions)

    def normalize_weight(self, chi):
        """Canonical section representative modulo the quotient directions:
        Fraction tuples stay Fraction tuples and int tuples stay int tuples
        (weights times any common denominator).  InputError when chi does
        not have one entry per coordinate."""
        check_length(self, chi, "weight")
        for c, pin in self.quotient_pairs:
            t = chi[pin]
            chi = tuple(x - t * y for x, y in zip(chi, c))
        return chi


def check_length(datum: RootDatum, v, what: str) -> None:
    """InputError unless v has one entry per coordinate of the datum."""
    if len(v) != datum.rank:
        raise InputError(f"{what} has {len(v)} entries, but "
                         f"{datum.label} has rank {datum.rank}")


def _coroot_rows(roots) -> tuple[tuple[int, ...], ...]:
    """The coroot 2 a / (a . a) of each root on its ray: the root's own
    primitive int tuple.  With the simple roots these are the dominance
    rows, every positive coroot being a nonnegative sum of simple ones."""
    return tuple(tuple(ray_ints(a)) for a in roots)


def _root_sum(roots, rank: int) -> tuple[int, ...]:
    """The sum of the given int tuples (zero when there are none)."""
    return tuple(map(sum, zip(*roots))) if roots else (0,) * rank


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


# ---------------------------------------------------------------------------
# Catalog constructors.
# ---------------------------------------------------------------------------

def _build_torus(n: int) -> RootDatum:
    return RootDatum(label=f"Torus({n})", rank=n, positive_roots=(),
                     simple_roots=())


def _from_positive_roots(label: str, n: int, pos: list[tuple[int, ...]],
                         simple: list[tuple[int, ...]],
                         quotient_pairs=()) -> RootDatum:
    """Root datum with the given positive and simple roots."""
    return RootDatum(label=label, rank=n, positive_roots=tuple(pos),
                     simple_roots=tuple(simple), quotient_pairs=quotient_pairs)


def _type_a_roots(n: int):
    pos = [vsub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
    return pos, simple


def _build_gl(n: int) -> RootDatum:
    return _from_positive_roots(f"GL({n})", n, *_type_a_roots(n))


def _build_sl(n: int) -> RootDatum:
    return _from_positive_roots(f"SL({n})", n, *_type_a_roots(n),
                                quotient_pairs=(((1,) * n, n - 1),))


def _build_sp(two_n: int) -> RootDatum:
    if two_n % 2 != 0 or two_n < 2:
        raise InputError(f"Sp rank parameter must be even and positive, got {two_n}")
    n = two_n // 2
    pos, simple = _type_a_roots(n)
    pos += [vadd(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_unit(n, i), _unit(n, i)) for i in range(n)]
    simple.append(pos[-1])
    return _from_positive_roots(f"Sp({two_n})", n, pos, simple)


def _embed(v: tuple[int, ...], offset: int, rank: int) -> tuple[int, ...]:
    return (0,) * offset + v + (0,) * (rank - offset - len(v))


def _product(factors: list[RootDatum]) -> RootDatum:
    rank = sum(f.rank for f in factors)
    pos, simple, quo = [], [], []
    offset = 0
    for f in factors:
        pos += [_embed(a, offset, rank) for a in f.positive_roots]
        simple += [_embed(a, offset, rank) for a in f.simple_roots]
        for c, pin in f.quotient_pairs:
            quo.append((_embed(c, offset, rank), offset + pin))
        offset += f.rank
    label = "Product(" + ",".join(f.label for f in factors) + ")"
    return RootDatum(label=label, rank=rank, positive_roots=tuple(pos),
                     simple_roots=tuple(simple), quotient_pairs=tuple(quo))


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

# Most characters of a tag an error message quotes; a longer tag is quoted
# by this prefix and its length, so a malformed 100,000-character tag gives
# a message of about a hundred bytes, not one as long as the tag.
TAG_QUOTE_LIMIT = 40


def _quote(tag: str) -> str:
    if len(tag) <= TAG_QUOTE_LIMIT:
        return repr(tag)
    return f"{tag[:TAG_QUOTE_LIMIT]!r}... ({len(tag)} characters)"


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
            raise InputError(f"malformed product tag {_quote(tag)}")
        factors, rank = [], 0
        for p in parts:
            factors.append(build_group(p))
            rank += factors[-1].rank
            if rank > GROUP_RANK_CAP:
                raise InputError(f"the factors of {_quote(tag)} have rank "
                                 f"above the cap of {GROUP_RANK_CAP}")
        return _product(factors)
    m = _TAG.match(tag)
    if not m:
        raise InputError(f"unknown group tag {_quote(tag)}")
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
        raise InputError(f"group parameter must be positive in {_quote(tag)}")
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


def reflect(datum: RootDatum, a: tuple[int, ...],
            x: tuple[int, ...]) -> tuple[int, ...]:
    """The int tuple N((a . a) x - 2 (a . x) a) / (a . a), the reflection
    of x in the root a in section form (N the normalization).  InputError
    off the int lattice, which no catalog group, whose roots and coroots
    are integral, reaches."""
    norm = sum(map(mul, a, a))
    c = 2 * sum(map(mul, a, x))
    y = datum.normalize_weight(tuple(norm * v - c * w for v, w in zip(x, a)))
    if any(v % norm for v in y):
        raise InputError("a Weyl reflection leaves the lattice of the point")
    return tuple(v // norm for v in y)


def descend(lv: "LeviDatum", chi: tuple[int, ...]):
    """Dominant conjugate, in section form, of the int tuple chi under the
    Weyl group of the Levi, and a reduced word of the unique shortest w
    taking chi there: w = s_{word[0]} ... s_{word[-1]}.  Each step reflects
    in a simple root whose coroot pairs negatively with the point, one
    positive root fewer doing so."""
    datum, simple = lv.datum, lv.simple_roots
    chi = datum.normalize_weight(chi)
    applied: list[int] = []
    while True:
        for i, row in enumerate(lv.dominance_rows):
            if sum(map(mul, row, chi)) < 0:
                chi = reflect(datum, simple[i], chi)
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
    datum, simple = lv.datum, lv.simple_roots
    chi = datum.normalize_weight(chi)
    signs, frontier, sign = {chi: 1}, [chi], 1
    while frontier:
        sign, nxt = -sign, []
        for v in frontier:
            for a in simple:
                u = reflect(datum, a, v)
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
    """Centralizer data of a one-parameter subgroup: the positive roots
    vanishing on it, from which its simple roots, two_rho and
    rho_bar_lambda are derived.  The Levi Weyl group is present only
    through its simple roots; fixed spaces, the Weyl average, dominant
    conjugates and orbits all come from them, and the group itself is
    never enumerated."""

    datum: RootDatum
    lam: tuple  # ints on the CLI path; a library caller may pass Fractions
    phi_lambda_plus: tuple[tuple[int, ...], ...]

    @cached_property
    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots that are no positive root plus another."""
        plus = set(self.phi_lambda_plus)
        return tuple(a for a in self.phi_lambda_plus
                     if not any(tuple(map(sub, a, b)) in plus for b in plus))

    @cached_property
    def rho_bar_lambda(self) -> Vec:
        """Half the sum of the positive roots, ``two_rho`` / 2."""
        return tuple(Fraction(x, 2) for x in self.two_rho)

    @cached_property
    def dominance_rows(self) -> tuple[tuple[int, ...], ...]:
        return _coroot_rows(self.simple_roots)

    @cached_property
    def two_rho(self) -> tuple[int, ...]:
        """2 rho_lambda, the int sum of ``phi_lambda_plus``."""
        return _root_sum(self.phi_lambda_plus, self.datum.rank)

    @cached_property
    def weyl_rows(self) -> tuple[tuple[int, ...], ...]:
        """One primitive int row on the ray of each positive coroot, in the
        order of ``phi_lambda_plus``: the factors of the Weyl product."""
        return _coroot_rows(self.phi_lambda_plus)

    def weyl_average(self, v: Vec) -> Vec:
        """The average of v over the Levi Weyl group, a Fraction tuple.  The
        group preserves the dot product and fixes exactly the vectors
        orthogonal to its roots, so the average is v - sum c_i a_i over the
        simple roots a_i, with sum_i (a_j . a_i) c_i = a_j . v for each j."""
        simple = self.simple_roots
        c = solve([[vdot(b, a) for a in simple] for b in simple],
                  [vdot(b, v) for b in simple])
        return tuple(x - sum((ci * a[k] for ci, a in zip(c, simple)), ZERO)
                     for k, x in enumerate(v))

    def invariant_vectors(self) -> list[Vec]:
        """Canonical basis of Weyl-fixed directions of X(T)_R, taken modulo
        the quotient directions of SL blocks.  s_a - I is
        v -> -<a^vee, v> a, so the fixed space is the common kernel of the
        simple coroots, that is of the ``dominance_rows`` on their rays."""
        n = self.datum.rank
        central = list(self.datum.central_directions)
        out = []
        for v in span_basis(nullspace(self.dominance_rows, n), n):
            if not in_span(central + out, v):
                out.append(self.datum.normalize_weight(v))
        return [v for v in out if not is_zero_vec(v)]

    def is_invariant(self, v: Vec) -> bool:
        return not any(sum(map(mul, row, v)) for row in self.dominance_rows)

    def label(self) -> str:
        """The datum's label for the whole group; else the Dynkin components
        of the simple roots (A or C with their rank) and the central torus
        rank, sorted and joined by "x"."""
        datum, simple = self.datum, self.simple_roots
        if len(self.phi_lambda_plus) == len(datum.positive_roots):  # a subset
            return datum.label
        parts, todo = [], set(range(len(simple)))
        while todo:
            comp, stack = [], [todo.pop()]
            while stack:
                k = stack.pop()
                comp.append(k)
                row = self.dominance_rows[k]
                linked = {j for j in todo if sum(map(mul, row, simple[j]))}
                todo -= linked
                stack += linked
            # type C: some simple root is twice a lattice vector (2 L_i)
            kind = "C" if any(all(x % 2 == 0 for x in simple[k])
                              for k in comp) else "A"
            parts.append(f"{kind}{len(comp)}")
        span_dim = len(span_basis(list(self.phi_lambda_plus), datum.rank))
        torus_rank = datum.rank - span_dim - len(datum.quotient_pairs)
        if torus_rank > 0:
            parts.append(f"T{torus_rank}")
        return "x".join(sorted(parts)) or "T0"


def levi(datum: RootDatum, lam) -> LeviDatum:
    """Levi subdatum attached to a one-parameter subgroup: an int tuple, or
    a rational one (ints or Fractions), kept as the tuple it is given."""
    lam = tuple(lam)
    check_length(datum, lam, "coweight")
    if not datum.coweight_ok(lam):
        raise InputError("coweight not in Y(T) (fails SL block constraints)")
    row = int_row(lam)[0]
    return LeviDatum(datum, lam, tuple(
        a for a in datum.positive_roots if not sum(map(mul, row, a))))


@cache
def full_levi(datum: RootDatum) -> LeviDatum:
    """The Levi subdatum of the zero subgroup (the whole group), built once
    per datum value: the datum is frozen, so every caller shares it."""
    return levi(datum, (0,) * datum.rank)


def invariant_subspace(datum: RootDatum) -> list[Vec]:
    """Basis of the Weyl-fixed subspace of X(T)_R (modulo SL quotients)."""
    return full_levi(datum).invariant_vectors()
