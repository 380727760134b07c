"""Scaled weight zonotopes, their half-open variants and face data.

A query set is shift + r * Z where Z is generated by a weight list with
coefficients in [-1, 0] (closed), ]-1, 0] (half-open, the default coefficient
set of the windows) or ]-1, 0[ (relative interior).  The LPs and the facet
table both read the generators by line (``linalg.line_decomposition``),
which is exact: Z is the Minkowski sum of its line segments (Ziegler,
Lectures on Polytopes, ch. 7; McMullen, "On zonotopes", 1971), the
generators k l on a line l sum to one segment u l whose ends sum theirs
(open where theirs are), and u sits at an end in every representation iff
each generator's coefficient does, since over an interior u those range
over a slice through the interior of their box.  Index sets in face
signatures always refer to the expanded list.

Every query takes its generators, shift, points and epsilon in section
form (``RootDatum.normalize_weight``, each pinned SL coordinate at 0) and
computes plain ambient geometry of shift + r * Z.  That is the character
quotient by the SL directions: the section map N is linear with kernel
their span, so p lies in shift + r * Z + span(SL directions) iff N(p) lies
in N(shift) + r * Z(N(generators)).  Callers normalize once, where a
shift or an epsilon is formed; the genericity tests take a Levi
(``full_levi(datum)`` for the whole group) and normalize epsilon
themselves.

Epsilon-shifted, closed and half-open membership and genericity read no
LP.  A facet table is built once per (generators, ambient dimension) and
kept in a process memo.  Its build finds the hyperplane flats of the
generator lines by a scan of line subsets and takes both signed normals of
each, with their support values, as the facets.  Those are the only faces
the package enumerates: genericity reads the facet normals from the table
too, as the span of every proper face is an intersection of facet spans,
each the kernel of its normal within V = span(generators).  The table
holds the facets and an annihilator basis of V, all normals primitive
integer vectors; every test of epsilon (parallel to V, generic, weakly
generic) is an integer pairing with those rows.  ``member_eps`` and the
closed and half-open variants of ``member`` build one integer predicate per
window from it through one builder (they differ only in the facets a point
may lie on), and that predicate decides each lattice point with integer
arithmetic on those pairings.  For the relative-interior variant ``member``
builds one predicate per window by assembling the line program once, and
each point runs a strict sweep of that program with its own right-hand
side.  So do ``min_radius`` and ``face_signature_at``: a partition builds
one radius program, and each dominant point solves it with its right-hand
side and sweeps the optimal face of that solve from its optimal tableau.
Those are the LPs left, all over the system of ``line_program``; with no
generators every variant of ``member`` is the shift point.  The supporting
subgroup of a face solves no LP: Weyl symmetry guarantees an antidominant
one (see ``supporting_lambda``), and the integral search finds the
canonical one directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Callable

from .linalg import (Vec, ZERO, ONE, frac, int_row, is_zero_vec,
                     line_decomposition, nullspace, primitive, rank,
                     span_basis, vdot, vec, vneg, vscale, vsub)
from .linprog import (InputError, LpBuilder, forced_tight,
                      lex_minimal_integral, lp_optimize, strict_feasible)
from .rootdata import LeviDatum, RootDatum

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

    def __post_init__(self):
        if self.trivial:
            if self.s_plus or self.s_minus or self.s_zero:
                raise InputError("malformed trivial signature")
        elif not self.s_plus or self.r < 0:
            raise InputError("nontrivial signature needs r > 0 and forced generators")

    @property
    def trivial(self) -> bool:
        return self.r == 0


TRIVIAL = FaceSignature(ZERO, (), (), ())


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


def line_program(generators, dim, radius=None):
    """(program, lines, corner) of the equalities  sum_l w_l l = p - shift +
    r corner, with zero right-hand sides for a caller to set.

    r Z sums the segments c_v v, c_v in [-r m, 0], of its classes of m
    equal generators v, and those on one line, v = k l for a primitive int
    tuple l, sum to the segment u l with u in [-r a, r b], a = sum m k over
    k > 0 and b = sum m |k| over k < 0 (open at both ends if each c_v is).
    ``lines`` is the ``line_decomposition`` of the classes, each with its
    positions, and column j is w_l = u_l + r a for its line j, in [0, r (a
    + b)], and corner = sum_l a l.  With ``radius`` given, the columns are
    open at both ends (the relative interior).  With ``radius`` None, r is
    the next column, the objective, and w_l <= r (a + b) one row per line
    after the equalities.
    """
    lines = line_decomposition(_classes(generators), len)
    widths = [a + b for _, a, b in lines.values()]
    corner = tuple(sum(a * line[i] for line, (_, a, _) in lines.items())
                   for i in range(dim))
    b = LpBuilder()
    for n in widths:
        b.add_var(lower=0, upper=None if radius is None else radius * n,
                  lower_open=radius is not None,
                  upper_open=radius is not None)
    terms = [(line, j) for j, line in enumerate(lines)]
    if radius is None:
        terms.append((vneg(corner), b.add_var(lower=0)))
    for i in range(dim):
        b.add_eq({col: v[i] for v, col in terms if v[i]}, 0)
    if radius is not None:
        return b.build(), lines, corner
    rcol = terms[-1][1]
    for j, n in enumerate(widths):
        b.add_ge({rcol: n, j: -1}, 0)  # w_l <= r (a + b)
    return b.build({rcol: ONE}), lines, corner


def member(generators, r, shift, variant: str) -> Callable[[Vec], bool]:
    """The membership predicate of shift + r * (variant of the zonotope).

    Built once per window.  The closed and half-open variants read the
    facet table through the builder of ``member_eps``: p may lie on any
    facet of the closed set, and on a facet of the half-open one only where
    h(lam) = 0 (see the facet arithmetic section below).  Their build
    raises InputError past ``HYPERPLANE_SCAN_CAP``; no CLI job builds a
    closed window with generators, so that refusal reaches library callers
    only.  The relative-interior variant assembles the line program once,
    and each point runs a strict sweep of a copy whose only change is the
    right-hand side p - shift + r corner.  With no generators every variant
    is the shift point, decided without an LP or a table.  The
    predicate takes int or Fraction points.  InputError for an unknown
    variant or r <= 0.
    """
    if variant not in _VARIANTS:
        raise InputError(f"unknown variant {variant!r}")
    if r <= 0:
        raise InputError("zonotope radius must be positive")
    shift = vec(shift)
    if not generators:
        return lambda p: p == shift
    if variant != REL_INT:
        return _facet_predicate(facet_table(generators, len(shift)),
                                r, shift,
                                lambda lam, h: variant == CLOSED or h == 0)
    prog, _, corner = line_program(generators, len(shift), frac(r))
    base = vsub(shift, vscale(r, corner))
    return lambda p: strict_feasible(replace(prog, eq_rhs=vsub(p, base)))


def min_radius(generators, shift) -> Callable[[Vec], Fraction | None]:
    """The least r >= 0 with p in shift + r * (closed zonotope), as a
    function of p; it gives None when p is not reachable at any radius.

    Built once per (generators, shift): the radius program (the
    line program with r a column, minimized) is assembled once, and each
    point solves it with its own right-hand side p - shift, followed by the
    zero right-hand sides of the radius rows.  For ``face_signature_at`` the
    function also has ``optimum(p)``, the program at p and its
    ``lp_optimize`` result, and the program's ``lines``.
    """
    shift = vec(shift)
    prog, lines, _ = line_program(generators, len(shift))
    tail = prog.eq_rhs[len(shift):]

    def optimum(p):
        at_p = replace(prog, eq_rhs=vsub(p, shift) + tail)
        return at_p, lp_optimize(at_p, "min")

    def radius(p) -> Fraction | None:
        res = optimum(p)[1]
        return res.value if res.status == "optimal" else None

    radius.optimum, radius.lines = optimum, lines
    return radius


def face_signature_at(generators, shift) -> Callable[[Vec], FaceSignature]:
    """The unique minimal (r, S+, S-, S0) of a point p, as a function of p:
    r is the minimal radius and the sets collect coefficients pinned at -r
    resp. 0 in every representation of p at that radius.

    Built once per (generators, shift) on the radius function.
    Each point with r > 0 sweeps the optimal face of its radius program
    from the optimum of the radius solve (``forced_tight`` with that
    optimum): the representations of p at radius r are that face.  Line j
    is at its lower end where its column w_j is forced to 0, at its upper
    end where the slack r (a + b) - w_j of its radius row is.  A line at
    its lower end pins its classes with k > 0 at -r (S+) and the others at
    0 (S-), at its upper end the other way round; the classes of a line
    pinned at neither end go to S0 (see the module docstring), as do the
    zero generators.  The point at the shift gets the trivial signature;
    InputError for a point off the span of the generators.
    """
    radius = min_radius(generators, shift)
    zeros = [i for i, g in enumerate(generators) if is_zero_vec(g)]

    def signature(p) -> FaceSignature:
        prog, res = radius.optimum(p)
        if res.status != "optimal":
            raise InputError("point lies outside the span of the generators")
        if res.value == 0:
            return TRIVIAL
        report = forced_tight(prog, res)
        # the radius rows' slacks are the last columns, one per line
        slack0 = prog.nvars - len(radius.lines)
        plus: list[int] = []
        minus: list[int] = []
        zero = list(zeros)
        for j, (classes, _, _) in enumerate(radius.lines.values()):
            low = report.lower_forced[j]
            high = report.lower_forced[slack0 + j]
            for k, idx in classes:
                if not (low or high):
                    zero.extend(idx)
                elif (k > 0) == low:
                    plus.extend(idx)
                else:
                    minus.extend(idx)
        return FaceSignature(res.value, tuple(sorted(plus)),
                             tuple(sorted(minus)), tuple(sorted(zero)))

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


def supporting_lambda(sig: FaceSignature, datum: RootDatum,
                      generators) -> tuple[int, ...]:
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
        return (0,) * datum.rank
    # only the signs of the pairings with a candidate are read
    signs = {"+": (1,), "-": (-1,), "0": (0,)}
    rows = [(c, (0,)) for c in datum.central_directions]
    rows += [(v, signs[mark])
             for v, _, mark in signature_classes(sig, generators)]
    rows += [(a, (-1, 0)) for a in datum.positive_roots]
    return lex_minimal_integral(datum.rank, lambda cand: True, rows)


# ---------------------------------------------------------------------------
# Epsilon-shifted, closed and half-open membership by facet arithmetic.
#
# Within V = span(generators) the set r * Z is cut out by its facets.  Their
# normals are the functionals lam that vanish on a hyperplane flat of the
# generator lines (see ``_hyperplane_normals`` below), taken with both
# signs, and the support function of Z at lam is h(lam) = sum max(0, -<lam,
# v>) over the expanded generators, summed by line in
# ``_build_facet_table``.  So d = p - shift is in the closed set iff d pairs
# to zero with the annihilator of V and <lam, d> <= r * h(lam) on every
# facet, -eps points into the set at such a d iff <lam, eps> >= 0 on every
# facet tight at d, and d is in the half-open set iff h(lam) = 0 on every
# facet tight at d.  For the last: d misses the half-open set iff every
# representation pins a coefficient at -r.  A tight facet with h > 0 pins
# those its normal pairs negatively with.  If there is none, a functional
# mu in the relative interior of the normal cone of d's minimal face pins
# exactly the generators it pairs negatively with, and it is a positive
# sum of tight normals, so h(mu) = 0 (h is nonnegative and sublinear).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FacetTable:
    """Z by its facets within V: ``annihilator`` spans the functionals
    vanishing on V, ``facets`` holds one (lam, h(lam)) pair per facet, both
    signs of the normal of every hyperplane flat, in the order the scan
    finds those.  The annihilator rows and the normals lam are primitive
    integer vectors (int tuples), and h(lam) an int at int generators.  No
    other face is kept: the direction space of every proper face is the
    intersection of the facet spans containing it, and a facet span is the
    kernel of its normal within V, so the normals decide genericity (see
    ``realizable_face_patterns``) and the annihilator decides whether
    epsilon is parallel to V."""

    annihilator: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]


_FACET_TABLES: dict[tuple, FacetTable] = {}


def facet_table(generators, dim: int) -> FacetTable:
    """The facet table of the generators in ambient dimension dim, built
    once per value and kept for the life of the process."""
    key = (tuple(map(tuple, generators)), dim)
    table = _FACET_TABLES.get(key)
    if table is None:
        table = _FACET_TABLES[key] = _build_facet_table(*key)
    return table


def _build_facet_table(gens, dim) -> FacetTable:
    # the class k l of m generators adds m k max(0, -<lam, l>) to h(lam)
    # for k > 0 and m |k| max(0, <lam, l>) for k < 0, so h(lam) = sum_l
    # a max(0, -<lam, l>) + b max(0, <lam, l>), and h(-lam) swaps a and b
    lines = line_decomposition(_classes(gens), len)
    facets = []
    for lam in _hyperplane_normals(sorted(lines), dim):
        h = h_neg = 0
        for line, (_, a, b) in lines.items():
            t = sum(map(mul, lam, line))
            if t < 0:
                h, h_neg = h - a * t, h_neg - b * t
            elif t > 0:
                h, h_neg = h + b * t, h_neg + a * t
        facets.append((lam, h))
        facets.append((vneg(lam), h_neg))
    annihilator = nullspace(list(gens), dim)
    return FacetTable(tuple(map(primitive, annihilator)), tuple(facets))


def _facet_predicate(table: FacetTable, r, shift: Vec,
                     may_be_tight) -> Callable[[Vec], bool]:
    """p -> whether p pairs with each annihilator row as the shift does and
    <lam, p> <= r * h(lam) + <lam, shift> on each facet, with equality only
    where ``may_be_tight(lam, h)``.  With shift = s / d and r = a / b over
    ints, each comparison is d b <lam, p> against b <lam, s> + d a h(lam):
    integer arithmetic at int points and int support values."""
    r = frac(r)
    s, d = int_row(shift)
    a, b = r.numerator, r.denominator
    equal = [(tuple(d * x for x in row), sum(map(mul, row, s)))
             for row in table.annihilator]
    closed, strict = [], []
    for lam, h in table.facets:
        (closed if may_be_tight(lam, h) else strict).append(
            (tuple(d * b * x for x in lam),
             b * sum(map(mul, lam, s)) + d * a * h))

    def inside(p) -> bool:
        for row, target in equal:
            if sum(map(mul, row, p)) != target:
                return False
        for lam, bound in closed:
            if sum(map(mul, lam, p)) > bound:
                return False
        for lam, bound in strict:
            if sum(map(mul, lam, p)) >= bound:
                return False
        return True

    return inside


def member_eps(generators, r, shift, e: EpsShift) -> Callable[[Vec], bool]:
    """The membership predicate of the eps-shifted region: the part of the
    closed set shift + r * Z that can be pushed along eps (and along -eps
    in plus_minus mode) while staying inside.

    Built once per window from the facet table of the generators: p must
    pair with each annihilator row as the shift does, and stay at or below
    each facet's bound r * h(lam) + <lam, shift>, strictly below where -eps
    (or eps) leaves through that facet.  The predicate takes int or
    Fraction points; at int points it is integer arithmetic.  InputError
    when eps is not parallel to the zonotope or r <= 0.
    """
    shift = vec(shift)
    table = facet_table(generators, len(shift))
    eps = vec(e.epsilon)
    _check_parallel(table, eps)
    if frac(r) <= 0:
        raise InputError("zonotope radius must be positive")

    eps_row = int_row(eps)[0]

    def may_be_tight(lam, h) -> bool:
        t = sum(map(mul, lam, eps_row))
        return t == 0 or (t > 0 and e.mode == "plus")

    return _facet_predicate(table, r, shift, may_be_tight)


# ---------------------------------------------------------------------------
# Faces as flats of the generator lines, and genericity of epsilon.
#
# The direction space of a proper face of the closed zonotope is the span of
# the generators that a functional lam annihilates, and those generator sets
# are exactly the proper flats of the line configuration (Ziegler, Lectures
# on Polytopes, ch. 7): the sets F of distinct lines holding every line in
# span(F), short of the full set.  Span arithmetic finds the maximal ones,
# the hyperplane flats, whose normals are the facet normals.  The rest are
# never enumerated: genericity is decided by pairing epsilon and the
# invariants with the facet normals alone (see ``realizable_face_patterns``).
# ---------------------------------------------------------------------------

# Most line subsets the hyperplane scan of ``_hyperplane_normals`` may test,
# counted as C(lines, D - 1) before it starts.  The tests reach 36
# (quasi-symmetric Sp(6) Sym^2; 21 in the random comparisons with the
# closure search), the golden presets 1 and the benchmark jobs 3;
# quasi-symmetric Sp(8) Sym^2 needs 560.  At the cap, lines in general
# position (141 in dimension 3, 40 in dimension 4, entries up to 1,000) take
# 1.0-1.7 s to scan and 1.8-3.6 s for the whole table (Python 3.11, 2-core
# Xeon); past it the table is refused, not built for minutes.
HYPERPLANE_SCAN_CAP = 10_000


def _hyperplane_normals(lines, dim):
    """The primitive normal within V = span(lines) of each hyperplane flat
    of the lines.  Those flats are spanned by D - 1 lines (D = dim V),
    scanned in lexicographic order past the ones inside a flat found."""
    top = rank(lines)
    size = max(top - 1, 0)
    if comb(len(lines), size) > HYPERPLANE_SCAN_CAP:
        raise InputError(f"hyperplane scan of {comb(len(lines), size)} line "
                         f"subsets exceeds the cap of {HYPERPLANE_SCAN_CAP}")
    normals, covered = [], set()
    for subset in combinations(range(len(lines)), size):
        if subset in covered:  # inside a hyperplane flat already found
            continue
        rows = [lines[i] for i in subset]
        if rank(rows) == top - 1:
            lam = primitive(next(n for n in nullspace(rows, dim)
                                 if any(vdot(n, v) for v in lines)))
            flat = [i for i, v in enumerate(lines) if not sum(map(mul, lam, v))]
            covered.update(combinations(flat, size))
            normals.append(lam)
    return normals


def realizable_face_patterns(generators):
    """The facet normals: the primitive int normal within V =
    span(generators) of each hyperplane flat of the generator lines, one per
    facet pair of the table, in its order.  The name is older than this
    return value; the benchmark's ``EXPECTED_CALLS`` and
    ``patterns_realized`` counter pin it.

    For a hyperplane flat H with normal lam, span(H) is ker lam within V,
    and the span of a proper flat F is the intersection of those of the
    hyperplane flats containing F (Oxley, Matroid Theory, ch. 1; Ziegler,
    Lectures on Polytopes, ch. 7): modulo span(F) the lines off F span the
    quotient, and the normals of the hyperplanes spanned by a basis among
    them form a dual basis.  So a vector of V lies in some proper face span
    iff some normal vanishes on it, and an invariant off span(F) with eps on
    it pairs nonzero with some normal that vanishes on eps.
    """
    if not generators:
        return []
    table = facet_table(generators, len(generators[0]))
    return [lam for lam, _ in table.facets[::2]]


def _check_parallel(table: FacetTable, eps: Vec) -> None:
    """InputError unless eps lies in V: pairs to zero with every
    annihilator row of the table."""
    if any(vdot(a, eps) for a in table.annihilator):
        raise InputError("epsilon is not parallel to the zonotope")


def _section_eps(eps, lv: LeviDatum, generators) -> Vec:
    """eps in section form; InputError unless it is invariant under the
    Levi and parallel to the zonotope of the generators."""
    eps = lv.datum.normalize_weight(vec(eps))
    if not lv.is_invariant(eps):
        raise InputError("epsilon is not Weyl-invariant")
    _check_parallel(facet_table(generators, len(eps)), eps)
    return eps


def is_weakly_generic(eps, lv: LeviDatum, generators) -> bool:
    """Whether eps avoids every face direction space that fails to contain
    the whole invariant subspace (within the span of the zonotope): whether
    every facet normal that vanishes on eps vanishes on every invariant."""
    eps = _section_eps(eps, lv, generators)
    inv = invariants_in_span(lv, generators)
    if not inv:
        return True  # every face direction space trivially qualifies
    for lam in realizable_face_patterns(generators):
        if not vdot(lam, eps) and any(vdot(lam, v) for v in inv):
            return False
    return True


def is_generic(eps, lv: LeviDatum, generators) -> bool:
    """Whether eps is parallel to the zonotope but to none of its proper
    faces: whether it pairs nonzero with every facet normal."""
    eps = _section_eps(eps, lv, generators)
    return all(vdot(lam, eps) for lam in realizable_face_patterns(generators))


def invariants_in_span(lv: LeviDatum, generators) -> list[Vec]:
    """Basis of (Levi-invariant subspace) intersect span(generators), both
    in section form: the combinations of ``lv.invariant_vectors()`` that
    the annihilator of the span pairs to zero.  The annihilator is the
    kernel of the generators, not the facet table's: standard-mode ``sod``
    asks this of all the weights (``sod.pick_epsilon``) and must not run a
    hyperplane scan or its cap."""
    dim, inv = lv.datum.rank, lv.invariant_vectors()
    annihilator = nullspace(list(generators), dim)
    combos = nullspace([[vdot(a, v) for v in inv] for a in annihilator],
                       len(inv))
    return span_basis([tuple(sum((c * v[k] for c, v in zip(co, inv) if c),
                                 ZERO) for k in range(dim))
                       for co in combos], dim)
