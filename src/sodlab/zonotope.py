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

Epsilon-shifted and half-open membership and genericity read no LP.  A
facet table is built once per (generators, central, ambient dimension) and
kept in a process memo.  Its build finds the hyperplane flats of the
generator lines by a scan of line subsets and takes both signed normals of
each, with their support values, as the facets.  Those are the only faces
the package enumerates: genericity reads the facet normals from the table
too, as the span of every proper face is an intersection of facet spans,
each the kernel of its normal within V = span(generators + central).  The
table holds the facets and an annihilator basis of V, all normals primitive
integer vectors; every test of epsilon (parallel to V, generic, weakly
generic) is an integer pairing with those rows.  ``member_eps`` and the
half-open variant of ``member`` build one integer predicate per window from
it through one builder (the two differ only in the facets a point may lie
on), and that predicate decides each lattice point with integer arithmetic
on those pairings.  For the closed and relative-interior variants ``member``
builds one predicate per window by assembling the coefficient program once,
and each point solves that program with its own right-hand side.  So do
``min_radius`` and ``face_signature_at``: a partition builds one radius
program and one closed coefficient program, and each dominant point solves
the first with its right-hand side and sweeps the second with its
right-hand side and radius bounds.  Those are the LPs left over the
coefficient system; with no generators every variant of ``member`` is shift
+ span(central), decided by span arithmetic.  The supporting subgroup of a
face solves no LP: Weyl symmetry guarantees an antidominant one (see
``supporting_lambda``), and the integral search finds the canonical one
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Callable

from .linalg import (Vec, ZERO, ONE, frac, in_span, int_row, int_rows,
                     is_zero_vec, nullspace, primitive, rank, span_basis,
                     vdot, vec, vneg, vsub, zero_vec)
from .linprog import (InputError, LpBuilder, feasible_point, forced_tight,
                      lex_minimal_integral, lp_optimize, strict_feasible)
from .rootdata import LeviDatum, RootDatum, full_levi

Central = tuple[Vec, ...]

CLOSED = "closed"
HALF_OPEN = "half_open"
REL_INT = "rel_int"
_VARIANTS = (CLOSED, HALF_OPEN, REL_INT)


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
                       radius=None, lower_open=False, upper_open=False):
    """Add the system  sum_v c_v v + sum_c t_c c = target  to b.

    One column c_v <= 0 per class of m equal generators, bounded below by
    -radius * m unless ``radius`` is None and open at the flagged ends; then
    one free column t_c per central direction.  ``target`` holds the
    right-hand side of each coordinate's equality row.  Returns (classes,
    class columns).
    """
    classes = _classes(generators)
    cols = [b.add_var(lower=None if radius is None else -frac(radius) * len(idx),
                      upper=0, lower_open=lower_open, upper_open=upper_open)
            for _, idx in classes]
    terms = [(v, col) for (v, _), col in zip(classes, cols)]
    terms += [(c, b.add_var()) for c in central]
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


def member(generators, r, shift, variant: str,
           central: Central = ()) -> Callable[[Vec], bool]:
    """The membership predicate of shift + r * (variant of the zonotope).

    Built once per window.  The half-open variant reads the facet table
    through the builder of ``member_eps``: p may lie on a facet only where
    h(lam) = 0 (see the facet arithmetic section below), and its build
    raises InputError past ``HYPERPLANE_SCAN_CAP``.
    The closed and relative-interior variants assemble the coefficient
    program once, and each point solves a copy whose only change is the
    right-hand side p - shift (a phase-1 point for the closed variant, a
    strict sweep for the other).  With no generators every variant is
    shift + span(central), decided without an LP.  The predicate takes int
    or Fraction points.  InputError for an unknown variant or r <= 0.
    """
    if variant not in _VARIANTS:
        raise InputError(f"unknown variant {variant!r}")
    if r <= 0:
        raise InputError("zonotope radius must be positive")
    shift = vec(shift)
    if not generators:
        return lambda p: in_span(central, vsub(vec(p), shift))
    if variant == HALF_OPEN:
        return _facet_predicate(facet_table(generators, central, len(shift)),
                                r, shift, lambda lam, h: h == 0)
    # assembled at p = shift; each point sets its own right-hand side
    b, _, _ = _coefficient_program(generators, r, shift, shift, variant,
                                   central)
    prog = b.build()

    def inside(p) -> bool:
        at_p = replace(prog, eq_rhs=vsub(vec(p), shift))
        if variant == CLOSED:
            return feasible_point(at_p) is not None
        return strict_feasible(at_p)

    return inside


def min_radius(generators, shift,
               central: Central = ()) -> Callable[[Vec], Fraction | None]:
    """The least r >= 0 with p in shift + r * (closed zonotope), as a
    function of p; it gives None when p is not reachable at any radius.

    Built once per (generators, shift, central): the radius program (class
    columns c_v >= -m r, central columns free, minimize r) is assembled
    once, and each point solves it with its own right-hand side p - shift,
    followed by the zero right-hand sides of the radius rows.
    """
    shift = vec(shift)
    b = LpBuilder()
    classes, cols = coefficient_system(b, generators, central,
                                       zero_vec(len(shift)))
    rcol = b.add_var(lower=0)
    for (_, idx), col in zip(classes, cols):
        b.add_ge({col: ONE, rcol: Fraction(len(idx))}, 0)  # c_v >= -m r
    prog = b.build({rcol: ONE})
    tail = prog.eq_rhs[len(shift):]

    def radius(p) -> Fraction | None:
        res = lp_optimize(replace(prog, eq_rhs=vsub(vec(p), shift) + tail),
                          "min")
        return res.value if res.status == "optimal" else None

    return radius


def face_signature_at(generators, shift,
                      central: Central = ()) -> Callable[[Vec], FaceSignature]:
    """The unique minimal (r, S+, S-, S0) of a point p, as a function of p:
    r is the minimal radius and the sets collect coefficients pinned at -r
    resp. 0 in every representation of p at that radius.

    Built once per (generators, shift, central): the radius function and
    the closed coefficient program are assembled once.  Each point with
    r > 0 runs the forced-tightness sweep on that program with the
    right-hand side p - shift and each class column bounded below by
    -r * m.  The point at the shift gets the trivial signature; InputError
    for a point off the span of the generators.
    """
    shift = vec(shift)
    radius = min_radius(generators, shift, central)
    # assembled without lower bounds; each point sets them from its radius
    b, classes, cols = _coefficient_program(generators, None, shift, shift,
                                            CLOSED, central)
    prog = b.build()
    sizes = [len(idx) for _, idx in classes]

    def signature(p) -> FaceSignature:
        r = radius(p)
        if r is None:
            raise InputError("point lies outside the span of the generators")
        if r == 0:
            return FaceSignature(ZERO, (), (), (), True)
        lower = list(prog.lower)
        for col, m in zip(cols, sizes):
            lower[col] = -r * m
        report = forced_tight(replace(prog, eq_rhs=vsub(vec(p), shift),
                                      lower=tuple(lower)))
        if not report.feasible:  # unreachable: r came from a feasible program
            raise InputError("radius minimization produced an infeasible system")
        plus: list[int] = []
        minus: list[int] = []
        zero: list[int] = []
        for (_, idx), col in zip(classes, cols):
            if report.lower_forced[col]:
                plus.extend(idx)
            elif report.upper_forced[col]:
                minus.extend(idx)
            else:
                zero.extend(idx)
        return FaceSignature(r, tuple(sorted(plus)), tuple(sorted(minus)),
                             tuple(sorted(zero)), False)

    return signature


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
    # Each class value, positive root and central direction times a positive
    # integer: only the signs of the pairings with a candidate are read.
    signs = {"+": (1,), "-": (-1,), "0": (0,)}
    rows = [(c, (0,)) for c, _ in datum.quotient_ints]
    rows += [(int_row(v)[0], signs[mark])
             for v, _, mark in signature_classes(sig, generators)]
    rows += [(a, (-1, 0)) for a in datum.root_ints[2]]
    return lex_minimal_integral(datum.rank, lambda cand: True, rows)


# ---------------------------------------------------------------------------
# Epsilon-shifted and half-open membership by facet arithmetic.
#
# Within V = span(generators + central) the set r * Z + span(central) is cut
# out by its facets.  Their normals are the functionals lam that vanish on
# central and on a hyperplane flat of the generator lines (see
# ``_hyperplane_normals`` below), taken with both signs, and the support
# function of Z at lam is h(lam) = sum max(0, -<lam, v>) over the expanded
# generators.  So d = p - shift is in the closed set iff d pairs to zero
# with the annihilator of V and <lam, d> <= r * h(lam) on every facet,
# -eps points into the set at such a d iff <lam, eps> >= 0 on every facet
# tight at d, and d is in the half-open set iff h(lam) = 0 on every facet
# tight at d.  For the last: d misses the half-open set iff every
# representation pins a coefficient at -r.  A tight facet with h > 0 pins
# those its normal pairs negatively with.  If there is none, a functional
# mu in the relative interior of the normal cone of d's minimal face pins
# exactly the generators it pairs negatively with, and it is a positive
# sum of tight normals, so h(mu) = 0 (h is nonnegative and sublinear).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FacetTable:
    """Z + span(central) by its facets within V: ``annihilator`` spans the
    functionals vanishing on V, ``facets`` holds one (lam, h(lam)) pair per
    facet, both signs of the normal of every hyperplane flat, in the order
    the scan finds those.  The annihilator rows and the normals lam are
    primitive integer vectors (int tuples).  No other face is kept: the
    direction space of every proper face is, with span(central), the
    intersection of the facet spans containing it, and a facet span is the
    kernel of its normal within V, so the normals decide genericity (see
    ``realizable_face_patterns``) and the annihilator decides whether
    epsilon is parallel to V."""

    annihilator: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]


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
    # h(lam) = sum m * max(0, -<lam, v>) over the classes, on their values
    # times the common denominator d; h(-lam) = h(lam) + <lam, sum m v>, as
    # max(0, x) - max(0, -x) = x
    classes = _classes(gens)
    values, d = int_rows([v for v, _ in classes])
    sizes = [len(idx) for _, idx in classes]
    total = [sum(m * v[k] for v, m in zip(values, sizes)) for k in range(dim)]
    facets = []
    for lam in _hyperplane_normals(_lines(gens), central, dim):
        h = sum(m * max(0, -sum(map(mul, lam, v)))
                for v, m in zip(values, sizes))
        facets.append((lam, Fraction(h, d)))
        facets.append((vneg(lam), Fraction(h + sum(map(mul, lam, total)), d)))
    annihilator = nullspace(gens + central, dim)
    return FacetTable(tuple(map(_int_primitive, annihilator)), tuple(facets))


def _scaled_row(lam: tuple[int, ...], bound: Fraction):
    """(den * lam, num) for bound = num / den: <lam, p> compared with bound
    is den * <lam, p> compared with num, integer arithmetic at int p."""
    return tuple(bound.denominator * x for x in lam), bound.numerator


def _facet_predicate(table: FacetTable, r, shift: Vec,
                     may_be_tight) -> Callable[[Vec], bool]:
    """p -> whether p pairs with each annihilator row as the shift does and
    <lam, p> <= r * h(lam) + <lam, shift> on each facet, with equality only
    where ``may_be_tight(lam, h)``; integer arithmetic at int points."""
    r = frac(r)
    equal = [_scaled_row(a, vdot(a, shift)) for a in table.annihilator]
    closed, strict = [], []
    for lam, h in table.facets:
        (closed if may_be_tight(lam, h) else strict).append(
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
    _check_parallel(table, eps)
    if frac(r) <= 0:
        raise InputError("zonotope radius must be positive")

    def may_be_tight(lam, h) -> bool:
        t = vdot(lam, eps)
        return t == 0 or (t > 0 and e.mode == "plus")

    return _facet_predicate(table, r, shift, may_be_tight)


# ---------------------------------------------------------------------------
# Faces as flats of the generator lines, and genericity of epsilon.
#
# The direction space of a proper face of the closed zonotope is the span of
# the generators that a functional lam (vanishing on ``central``) annihilates,
# and those generator sets are exactly the proper flats of the line
# configuration modulo ``central`` (Ziegler, Lectures on Polytopes, ch. 7):
# the sets F of distinct lines holding every line in span(F + central), short
# of the full set.  Span arithmetic finds the maximal ones, the hyperplane
# flats, whose normals are the facet normals.  The rest are never
# enumerated: genericity is decided by pairing epsilon and the invariants
# with the facet normals alone (see ``realizable_face_patterns``).
# ---------------------------------------------------------------------------

# Most line subsets the hyperplane scan of ``_hyperplane_normals`` may test,
# counted as C(lines, D - c - 1) before it starts.  The tests reach 36
# (quasi-symmetric Sp(6) Sym^2; 21 in the random comparisons with the
# closure search), the golden presets 1 and the benchmark jobs 3;
# quasi-symmetric Sp(8) Sym^2 needs 560.  At the cap, lines in general
# position (141 in dimension 3, 40 in dimension 4, entries up to 1,000) take
# 1.0-1.7 s to scan and 1.8-3.6 s for the whole table (Python 3.11, 2-core
# Xeon); past it the table is refused, not built for minutes.
HYPERPLANE_SCAN_CAP = 10_000


def _lines(gens) -> list[Vec]:
    """The distinct nonzero generator lines, as sorted primitive vectors."""
    return sorted({primitive(g) for g in gens if not is_zero_vec(g)})


def _hyperplane_normals(lines, central, dim):
    """The primitive normal within V = span(lines + central) of each
    hyperplane flat of the lines modulo ``central``.  Those flats are
    spanned with ``central`` by D - c - 1 lines (D = dim V, c =
    rank(central)), scanned in lexicographic order past the ones inside a
    flat found."""
    top = rank(lines + central)
    size = max(top - rank(central) - 1, 0)
    if comb(len(lines), size) > HYPERPLANE_SCAN_CAP:
        raise InputError(f"hyperplane scan of {comb(len(lines), size)} line "
                         f"subsets exceeds the cap of {HYPERPLANE_SCAN_CAP}")
    ints = [tuple(map(int, v)) for v in lines]
    normals, covered = [], set()
    for subset in combinations(range(len(lines)), size):
        if subset in covered:  # inside a hyperplane flat already found
            continue
        rows = [lines[i] for i in subset] + central
        if rank(rows) == top - 1:
            lam = _int_primitive(next(n for n in nullspace(rows, dim)
                                      if any(vdot(n, v) for v in lines)))
            flat = [i for i, v in enumerate(ints) if not sum(map(mul, lam, v))]
            covered.update(combinations(flat, size))
            normals.append(lam)
    return normals


def realizable_face_patterns(generators, central: Central = ()):
    """The facet normals: the primitive int normal within V = span(generators
    + central) of each hyperplane flat of the generator lines modulo
    ``central``, one per facet pair of the table, in its order.  The name
    is older than this return value; the benchmark's ``EXPECTED_CALLS`` and
    ``patterns_realized`` counter pin it.

    For a hyperplane flat H with normal lam, span(H + central) is ker lam
    within V, and the span of a proper flat F with ``central`` is the
    intersection of those of the hyperplane flats containing F (Oxley,
    Matroid Theory, ch. 1; Ziegler, Lectures on Polytopes, ch. 7): modulo
    span(F + central) the lines off F span the quotient, and the normals of
    the hyperplanes spanned by a basis among them form a dual basis.  So a
    vector of V lies in some proper face span iff some normal vanishes on
    it, and an invariant off span(F + central) with eps on it pairs nonzero
    with some normal that vanishes on eps.
    """
    if not generators:
        return []
    table = facet_table(generators, central, len(generators[0]))
    return [lam for lam, _ in table.facets[::2]]


def _check_parallel(table: FacetTable, eps: Vec) -> None:
    """InputError unless eps lies in V: pairs to zero with every
    annihilator row of the table."""
    if any(vdot(a, eps) for a in table.annihilator):
        raise InputError("epsilon is not parallel to the zonotope")


def _eps_preconditions(eps: Vec, source: RootDatum | LeviDatum, generators,
                       central) -> LeviDatum:
    """The Levi of ``source`` (the full one for a root datum), once eps is
    checked invariant under it and parallel to the zonotope."""
    src = full_levi(source) if isinstance(source, RootDatum) else source
    if not src.is_invariant(eps):
        raise InputError("epsilon is not Weyl-invariant")
    _check_parallel(facet_table(generators, central, len(eps)), eps)
    return src


def is_weakly_generic(eps, source: RootDatum | LeviDatum, generators,
                      central: Central = ()) -> bool:
    """Whether eps avoids every face direction space that fails to contain
    the whole invariant subspace (within the span of the zonotope): whether
    every facet normal that vanishes on eps vanishes on every invariant."""
    eps = vec(eps)
    src = _eps_preconditions(eps, source, generators, central)
    inv = invariants_in_span(src, generators, central)
    if not inv:
        return True  # every face direction space trivially qualifies
    for lam in realizable_face_patterns(generators, central):
        if not vdot(lam, eps) and any(vdot(lam, v) for v in inv):
            return False
    return True


def is_generic(eps, source: RootDatum | LeviDatum, generators,
               central: Central = ()) -> bool:
    """Whether eps is parallel to the zonotope but to none of its proper
    faces: whether it pairs nonzero with every facet normal."""
    eps = vec(eps)
    _eps_preconditions(eps, source, generators, central)
    return all(vdot(lam, eps)
               for lam in realizable_face_patterns(generators, central))


def invariants_in_span(src: LeviDatum, generators, central) -> list[Vec]:
    """Basis of (invariant subspace) intersect V = span(generators +
    central), both taken in ambient coordinates together with the quotient
    directions, less the vectors of span(central).  The intersection is
    spanned by the combinations of the invariants and the central
    directions that the annihilator of V pairs to zero.  The annihilator is
    the kernel of the generators and central directions, not the facet
    table's: standard-mode ``sod`` asks this of all the weights
    (``sod.pick_epsilon``) and must not run a hyperplane scan or its cap."""
    dim = len(central[0]) if central else (
        len(generators[0]) if generators else src.datum.rank)
    inv_amb = list(src.invariant_vectors()) + list(central)
    annihilator = nullspace([vec(g) for g in generators] + list(central), dim)
    combos = nullspace([[vdot(a, v) for v in inv_amb] for a in annihilator],
                       len(inv_amb))
    points = [tuple(sum((c * v[k] for c, v in zip(co, inv_amb) if c), ZERO)
                    for k in range(dim)) for co in combos]
    central_list = list(central)
    return [v for v in span_basis(points, dim)
            if not in_span(central_list, v)]
