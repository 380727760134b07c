"""Scaled weight zonotopes, their half-open variants and face data.

A query set is shift + r * Z where Z is generated by a weight list with
coefficients in [-1, 0] (closed), ]-1, 0] (half-open, the default coefficient
set of the windows) or ]-1, 0[ (relative interior).  Generators that are
equal get collapsed to one coefficient with scaled bounds, which is exact:
a sum of m copies of a (half-)open interval is the m-fold scaled interval,
and pinning the combined coefficient at a bound is equivalent to pinning all
copies.  Index sets in face signatures always refer to the expanded list.

For SL blocks the ambient coordinates carry redundant directions; those are
passed as ``central`` vectors and enter every membership system as free
variables, so all sets are effectively computed in the character quotient.

Epsilon-shifted membership and genericity read no LP.  A facet table is
built once per (generators, central, ambient dimension) and kept in a
process memo: the proper flats of the generator lines (the only place they
are enumerated; genericity reads them from the table), an annihilator basis
of span(generators + central) plus both signed normals of every hyperplane
flat with their support values, all normals primitive integer vectors.
``member_eps`` builds one integer predicate per window from it, and that
predicate decides each lattice point with integer arithmetic on those
pairings.  Membership in the half-open and relative-interior variants
(``member``), the minimal radius and the face signature still solve LPs
over the coefficient system; with no generators every variant is shift +
span(central), and ``member`` decides it by span arithmetic.  The
supporting subgroup of a face solves no LP: Weyl symmetry guarantees an
antidominant one (see ``supporting_lambda``), and the integral search finds
the canonical one directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable

from .linalg import (Vec, ZERO, ONE, frac, in_span, is_zero_vec, nullspace,
                     primitive, span_basis, subspace_intersection, vdot, vec,
                     vneg, vsub, zero_vec)
from .linprog import (InputError, LpBuilder, feasible_point, forced_tight,
                      lex_minimal_integral, lp_optimize, strict_feasible)
from .rootdata import LeviDatum, RootDatum, full_levi

Central = tuple[Vec, ...]

CLOSED = "closed"
HALF_OPEN = "half_open"
REL_INT = "rel_int"
_VARIANTS = (CLOSED, HALF_OPEN, REL_INT)


@dataclass(frozen=True)
class ZonotopeQuery:
    generators: tuple[Vec, ...]
    radius: Fraction
    shift: Vec
    variant: str
    central: Central = ()

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        if self.radius <= 0:
            raise InputError("zonotope radius must be positive")


@dataclass(frozen=True)
class FaceSignature:
    """Scale and forced-coefficient pattern of the face whose relative
    interior contains a point.  The trivial signature (r = 0, empty sets) is
    the convention for the point coinciding with the shift."""

    r: Fraction
    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]
    s_zero: tuple[int, ...]
    trivial: bool

    def __post_init__(self):
        if self.trivial:
            if self.r != 0 or self.s_plus or self.s_minus or self.s_zero:
                raise InputError("malformed trivial signature")
        elif not self.s_plus or self.r <= 0:
            raise InputError("nontrivial signature needs r > 0 and forced generators")


@dataclass(frozen=True)
class EpsShift:
    epsilon: Vec
    mode: str  # "plus" | "plus_minus"

    def __post_init__(self):
        if self.mode not in ("plus", "plus_minus"):
            raise InputError(f"unknown eps mode {self.mode!r}")


def _classes(generators) -> list[tuple[Vec, list[int]]]:
    groups: dict[Vec, list[int]] = {}
    for i, g in enumerate(generators):
        groups.setdefault(tuple(g), []).append(i)
    return sorted(groups.items())


def coefficient_system(b: LpBuilder, generators, central, target,
                       radius=None, lower_open=False, upper_open=False,
                       extra=()):
    """Add the system  sum_v c_v v + sum_c t_c c + sum_e s_e e = target  to b.

    One column c_v <= 0 per class of m equal generators, bounded below by
    -radius * m unless ``radius`` is None and open at the flagged ends; one
    free column t_c per central direction; then one column s_e per pair
    (vector e, ``LpBuilder.add_var`` keywords) in ``extra``.  ``target``
    holds the right-hand side of each coordinate's equality row.  Returns
    (classes, class columns).
    """
    classes = _classes(generators)
    cols = [b.add_var(lower=None if radius is None else -frac(radius) * len(idx),
                      upper=0, lower_open=lower_open, upper_open=upper_open)
            for _, idx in classes]
    terms = [(v, col) for (v, _), col in zip(classes, cols)]
    terms += [(c, b.add_var()) for c in central]
    terms += [(e, b.add_var(**bounds)) for e, bounds in extra]
    for k, rhs in enumerate(target):
        b.add_eq({col: v[k] for v, col in terms if v[k] != 0}, rhs)
    return classes, cols


def _coefficient_program(generators, radius, shift, p, variant, central):
    """LP whose feasibility is membership of p in shift + radius * variant."""
    b = LpBuilder()
    classes, cols = coefficient_system(
        b, generators, central, vsub(vec(p), vec(shift)), radius,
        lower_open=variant != CLOSED, upper_open=variant == REL_INT)
    return b, classes, cols


def member(q: ZonotopeQuery, p: Vec) -> bool:
    """Exact membership of p in shift + r * (variant of the zonotope).  With
    no generators every variant is shift + span(central), decided without
    an LP."""
    if not q.generators:
        return in_span(q.central, vsub(vec(p), vec(q.shift)))
    b, _, _ = _coefficient_program(
        q.generators, q.radius, q.shift, p, q.variant, q.central)
    prog = b.build()
    if q.variant == CLOSED:
        return feasible_point(prog) is not None
    return strict_feasible(prog)


def min_radius(generators, shift, p, central: Central = ()) -> Fraction | None:
    """Least r >= 0 with p in shift + r * (closed zonotope); None when p is
    not reachable at any radius."""
    b = LpBuilder()
    classes, cols = coefficient_system(
        b, generators, central, vsub(vec(p), vec(shift)))
    rcol = b.add_var(lower=0)
    for (_, idx), col in zip(classes, cols):
        b.add_ge({col: ONE, rcol: Fraction(len(idx))}, 0)  # c_v >= -m r
    res = lp_optimize(b.build({rcol: ONE}), "min")
    return res.value if res.status == "optimal" else None


def face_signature_at(generators, shift, p, central: Central = ()) -> FaceSignature:
    """The unique minimal (r, S+, S-, S0): r is the minimal radius and the
    sets collect coefficients pinned at -r resp. 0 in every representation
    of p at that radius."""
    r = min_radius(generators, shift, p, central)
    if r is None:
        raise InputError("point lies outside the span of the generators")
    if r == 0:
        return FaceSignature(ZERO, (), (), (), True)
    b, classes, cols = _coefficient_program(
        generators, r, shift, p, CLOSED, central)
    report = forced_tight(b.build())
    if not report.feasible:  # unreachable: r came from a feasible program
        raise InputError("radius minimization produced an infeasible system")
    plus: list[int] = []
    minus: list[int] = []
    zero: list[int] = []
    for (v, idx), col in zip(classes, cols):
        if report.lower_forced[col]:
            plus.extend(idx)
        elif report.upper_forced[col]:
            minus.extend(idx)
        else:
            zero.extend(idx)
    return FaceSignature(r, tuple(sorted(plus)), tuple(sorted(minus)),
                         tuple(sorted(zero)), False)


def signature_classes(sig: FaceSignature, generators):
    """Map each distinct generator value to its sign set ('+', '-', '0'),
    checking that the signature is value-symmetric."""
    plus, minus = set(sig.s_plus), set(sig.s_minus)
    out = []
    for v, idx in _classes(generators):
        marks = {"+" if i in plus else "-" if i in minus else "0" for i in idx}
        if len(marks) != 1:
            raise InputError("signature splits a class of equal generators")
        out.append((v, idx, marks.pop()))
    return out


def supporting_lambda(sig: FaceSignature, datum: RootDatum, generators) -> Vec:
    """Canonical antidominant one-parameter subgroup whose pairing signs with
    the generators reproduce the signature; zero for the trivial signature.

    Such a subgroup exists for every signature that ``face_signature_at``
    gives at a dominant chi with shift nu - rho_bar, nu Weyl-invariant and
    the generators a Weyl-symmetric multiset.  The signature's subgroups
    are the relative interior C of the normal cone of the face F whose
    relative interior holds d = chi + rho_bar - nu, and d is dominant.  Let
    w take some lam in C to the antidominant chamber.  The zonotope is
    Weyl-invariant, so w lam is minimal on it exactly on w F, with the same
    minimum as lam; and <w lam, d> <= <lam, d>, as d is dominant.  So d lies
    on w F, which therefore contains F and, having its dimension, equals
    it: w lam is in C (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.3; Ziegler, Lectures on Polytopes, ch. 7).
    W fixes the central directions, and C meets the antidominant chamber in
    a rational cone, which holds integral points.  A signature that no
    antidominant subgroup realizes is refused by the search's caps with
    InputError.
    """
    if sig.trivial:
        return zero_vec(datum.rank)
    classes = signature_classes(sig, generators)

    def ok(cand: Vec) -> bool:
        if not datum.coweight_ok(cand):
            return False
        for v, _, mark in classes:
            s = vdot(cand, v)
            if mark == "+" and not s > 0:
                return False
            if mark == "-" and not s < 0:
                return False
            if mark == "0" and s != 0:
                return False
        return all(vdot(cand, a) <= 0 for a in datum.positive_roots)

    return lex_minimal_integral(datum.rank, ok)


# ---------------------------------------------------------------------------
# Epsilon-shifted membership by facet arithmetic.
#
# Within V = span(generators + central) the set r * Z + span(central) is cut
# out by its facets.  Their normals are the functionals lam that vanish on
# central and on a hyperplane flat of the generator lines (the flats below
# of corank one in V), taken with both signs, and the support function of Z
# at lam is h(lam) = sum max(0, -<lam, v>) over the expanded generators.  So
# d = p - shift is in the closed set iff d pairs to zero with the
# annihilator of V and <lam, d> <= r * h(lam) on every facet, and -eps points
# into the set at such a d iff <lam, eps> >= 0 on every facet tight at d.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FacetTable:
    """Z + span(central) by its facets within V: ``annihilator`` spans the
    functionals vanishing on V, ``facets`` holds one (lam, h(lam)) pair per
    facet (both signs of every hyperplane-flat normal).  The annihilator
    rows and the normals lam are primitive integer vectors (int tuples).
    ``flats`` holds each proper flat of the distinct nonzero generator
    ``lines`` once, as a set of indices into ``lines``."""

    annihilator: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    lines: tuple[Vec, ...]
    flats: tuple[frozenset, ...]


_FACET_TABLES: dict[tuple, FacetTable] = {}


def facet_table(generators, central: Central, dim: int) -> FacetTable:
    """The facet table of (generators, central) in ambient dimension dim,
    built once per value and kept for the life of the process."""
    key = (tuple(map(tuple, generators)), tuple(map(tuple, central)), dim)
    table = _FACET_TABLES.get(key)
    if table is None:
        table = _FACET_TABLES[key] = _build_facet_table(*key)
    return table


def _int_primitive(v: Vec) -> tuple[int, ...]:
    return tuple(int(x) for x in primitive(v))


def _build_facet_table(generators, central, dim) -> FacetTable:
    gens = [vec(g) for g in generators]
    central = [vec(c) for c in central]
    classes = [(v, len(idx)) for v, idx in _classes(gens)]
    span = span_basis(gens + central, dim)
    lines = _lines(gens)
    flats = _proper_flats(lines, central, dim)
    facets = []
    for _, base in flats:
        if len(base) != len(span) - 1:
            continue
        lam = _int_primitive(next(n for n in nullspace(base, dim)
                                  if any(vdot(n, v) for v in span)))
        for normal in (lam, vneg(lam)):
            h = sum((m * max(0, -sum(map(mul, normal, v)))
                     for v, m in classes), ZERO)
            facets.append((normal, h))
    return FacetTable(tuple(map(_int_primitive, nullspace(span, dim))),
                      tuple(facets), tuple(lines),
                      tuple(flat for flat, _ in flats))


def _scaled_row(lam: tuple[int, ...], bound: Fraction):
    """(den * lam, num) for bound = num / den: <lam, p> compared with bound
    is den * <lam, p> compared with num, integer arithmetic at int p."""
    return tuple(bound.denominator * x for x in lam), bound.numerator


def member_eps(generators, r, shift, e: EpsShift,
               central: Central = ()) -> Callable[[Vec], bool]:
    """The membership predicate of the eps-shifted region: the part of the
    closed set shift + r * Z + span(central) that can be pushed along eps
    (and along -eps in plus_minus mode) while staying inside.

    Built once per window from the facet table of the generators: p must
    pair with each annihilator row as the shift does, and stay at or below
    each facet's bound r * h(lam) + <lam, shift>, strictly below where -eps
    (or eps) leaves through that facet.  The predicate takes int or
    Fraction points; at int points it is integer arithmetic.  InputError
    when eps is not parallel to the zonotope or r <= 0.
    """
    shift = vec(shift)
    table = facet_table(generators, central, len(shift))
    eps = vec(e.epsilon)
    if any(vdot(a, eps) for a in table.annihilator):
        raise InputError("epsilon is not parallel to the zonotope")
    r = frac(r)
    if r <= 0:
        raise InputError("zonotope radius must be positive")
    equal = [_scaled_row(a, vdot(a, shift)) for a in table.annihilator]
    closed, strict = [], []
    for lam, h in table.facets:
        t = vdot(lam, eps)
        may_be_tight = t == 0 or (t > 0 and e.mode == "plus")
        (closed if may_be_tight else strict).append(
            _scaled_row(lam, r * h + vdot(lam, shift)))

    def inside(p) -> bool:
        for a, target in equal:
            if sum(map(mul, a, p)) != target:
                return False
        for lam, bound in closed:
            if sum(map(mul, lam, p)) > bound:
                return False
        for lam, bound in strict:
            if sum(map(mul, lam, p)) >= bound:
                return False
        return True

    return inside


# ---------------------------------------------------------------------------
# Faces as flats of the generator lines, and genericity of epsilon.
#
# The direction space of a proper face of the closed zonotope is the span of
# the generators that a functional lam (vanishing on ``central``) annihilates,
# and those generator sets are exactly the proper flats of the line
# configuration modulo ``central`` (Ziegler, Lectures on Polytopes, ch. 7):
# the sets F of distinct lines holding every line in span(F + central), short
# of the full set.  So the faces come from span arithmetic alone.
# ---------------------------------------------------------------------------

def _lines(gens) -> list[Vec]:
    """The distinct nonzero generator lines, as sorted primitive vectors."""
    return sorted({primitive(g) for g in gens if not is_zero_vec(g)})


def _proper_flats(lines, central, dim) -> list[tuple[frozenset, list[Vec]]]:
    """Each proper flat of the lines modulo ``central`` once, as (line
    indices, RREF basis of span(flat + central)).  The flats grow from the
    closure of the empty set by closure(F + line); a flat holding every
    line is the whole zonotope, not a proper face, and is skipped."""
    everything = frozenset(range(len(lines)))

    def closure(subset):
        base = span_basis([lines[i] for i in subset] + list(central), dim)
        return frozenset(i for i, line in enumerate(lines)
                         if in_span(base, line)), base

    out = []
    seen = set()
    stack = [closure(())]
    while stack:
        flat, base = stack.pop()
        if flat in seen or flat == everything:
            continue
        seen.add(flat)
        out.append((flat, base))
        stack.extend(closure(flat | {i}) for i in sorted(everything - flat))
    return out


def realizable_face_patterns(generators, central: Central = ()):
    """Direction generators of the proper faces of the closed zonotope.

    Returns one generator list per proper flat of the distinct nonzero
    generator lines modulo ``central``, each flat once, in the order of the
    facet table: the generators on the flat's lines followed by every zero
    generator (zero generators lie in every face direction space).
    """
    gens = [vec(g) for g in generators]
    if not gens:
        return []
    table = facet_table(gens, central, len(gens[0]))
    line_of = [None if is_zero_vec(g) else table.lines.index(primitive(g))
               for g in gens]
    zeros = [g for g, li in zip(gens, line_of) if li is None]
    return [[g for g, li in zip(gens, line_of) if li in flat] + zeros
            for flat in table.flats]


def _eps_preconditions(eps: Vec, source: RootDatum | LeviDatum, generators,
                       central) -> LeviDatum:
    """The Levi of ``source`` (the full one for a root datum), once eps is
    checked invariant under it and parallel to the zonotope."""
    src = full_levi(source) if isinstance(source, RootDatum) else source
    if not src.is_invariant(eps):
        raise InputError("epsilon is not Weyl-invariant")
    if not in_span(list(generators) + list(central), eps):
        raise InputError("epsilon is not parallel to the zonotope")
    return src


def is_weakly_generic(eps, source: RootDatum | LeviDatum, generators,
                      central: Central = ()) -> bool:
    """Whether eps avoids every face direction space that fails to contain
    the whole invariant subspace (within the span of the zonotope)."""
    eps = vec(eps)
    src = _eps_preconditions(eps, source, generators, central)
    inv = invariants_in_span(src, generators, central)
    if not inv:
        return True  # every face direction space trivially qualifies
    for zero_gens in realizable_face_patterns(generators, central):
        dspan = zero_gens + list(central)
        if in_span(dspan, eps) and not all(in_span(dspan, v) for v in inv):
            return False
    return True


def is_generic(eps, source: RootDatum | LeviDatum, generators,
               central: Central = ()) -> bool:
    """Whether eps is parallel to the zonotope but to none of its proper
    faces."""
    eps = vec(eps)
    _eps_preconditions(eps, source, generators, central)
    for zero_gens in realizable_face_patterns(generators, central):
        if in_span(zero_gens + list(central), eps):
            return False
    return True


def invariants_in_span(src: LeviDatum, generators, central) -> list[Vec]:
    """Basis of (invariant subspace) intersect (span of the zonotope), both
    taken in ambient coordinates together with the quotient directions."""
    dim = len(central[0]) if central else (
        len(generators[0]) if generators else src.datum.rank)
    inv_amb = list(src.invariant_vectors()) + list(central)
    span_amb = [vec(g) for g in generators] + list(central)
    inter = subspace_intersection(inv_amb, span_amb, dim)
    central_list = list(central)
    return [v for v in inter if not in_span(central_list, v)]
