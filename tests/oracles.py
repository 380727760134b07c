"""Independent oracles used by the test suite.

The linear-algebra routines here are deliberately local so the vertex and
grid oracles do not share code with the solver they check.  The elimination
references run textbook Gauss-Jordan and the primitive-vector scaling over
Fractions; the package eliminates fraction-free on integer rows and turns
only its results back into Fractions.  The signature
oracle enumerates sign-pattern splits exhaustively and uses the LP kernel
only for the per-pattern radius minimization; its strictness check is the
slack-maximization reference below, not the kernel's bound sweep.  The face
references test every sign pattern of the generator lines by LP; the package
reads the facets from the hyperplane flats of the lines.  The flat reference
grows every proper flat by closure search with span arithmetic, keeping the
flats of corank one as facets, and the genericity references test epsilon
against the span of every proper flat; the package scans line subsets for
the hyperplane flats alone and decides genericity by integer pairings with
their normals.  The facet-normal reference derives one normal per maximal
span of the realizable sign patterns.  The invariants within the zonotope's
span are found here by intersecting two spans through the kernel of
[A^T | -B^T]; the package pairs the invariants with the annihilator of the
span.  The dominant-box reference tests every point of the box; the
package walks it one coordinate at a time.  The root-data
references average or alternate over every element of the Weyl group,
enumerated breadth-first as reflection matrices; the package reads the same
facts from the simple reflections by descent and orbit search on int
tuples, and a root datum's simple roots are found here by pair sums where
the package reads them off its whole-group Levi by differences.  The orbit
reference searches by the Fraction reflections, and the
Weyl-symmetry reference checks a weight multiset by them; the package does
both by ``rootdata.reflect``, which reads each simple root and its a . a.  The window-box
reference bounds each coordinate by LP; the package has the closed form.
The supporting-subgroup reference decides by LP that an antidominant subgroup
exists before its integral search; the package runs the search alone.  The
membership reference builds a fresh coefficient program for every point,
with one column per class of equal generators; the package builds one
program per window, with one column per generator line, and changes only
its right-hand side.  The radius and face-signature references also build
fresh per-class programs for every point; the package builds its line
programs once per partition and sets each point's right-hand side and
radius bounds.  The partition reference reads
the signature of every dominant point and builds every cell's subgroup and
Levi; the package solves once per ray and searches once per face.
The two epsilon-window references decide membership by LP (one by
maximizing the push along epsilon, one by strict sweeps); the package reads
it from the facets, and the facet reference repeats its rational per-point
test.  The support values, quasi-symmetry and the toric two-per-side rule
are checked here class by class, each weight keyed by its Fraction
primitive vector; the package reads all three off one decomposition into
lines with the sums a and b per line.  Dominance is
checked against every positive coroot and coset membership by one solve per
point; the package tests the simple coroots and multiplies by an inverse
built once per coset, both in integer arithmetic.  Coroots, Levi subdata,
Weyl dimensions and symmetric-power tables are computed here over `Fraction`
vectors; the package computes them on int tuples at one common scale.
The phase-1 and phase-2 references run the simplex over Fraction entries,
pivot by pivot as the package's integer-row kernel must, and the
standard-form reference builds the dense Fraction rows that the package
builds as integer rows.  Both phase 1s start from the crash basis (each row
basic on its unit column when it has one); the all-artificial reference is
the kernel's earlier integer phase 1, one artificial column per row.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from sodlab.characters import CharacterTable, irr_character
from sodlab.linalg import (frac, in_span, is_zero_vec, mat_vec, nullspace,
                           primitive, solve, span_basis, vadd, vdot, vec,
                           vscale, vsub, zero_vec)
from sodlab.linprog import BoxedLinearProgram, InputError, LpBuilder, \
    LpResult, TightnessReport, _optimize_closed, _pivot, _simplex_iterate, \
    enumerate_lattice, feasible_point, forced_tight, lex_minimal_integral, \
    lp_optimize, strict_feasible
from sodlab.partition import PartitionCell, PreconditionError, order_key
from sodlab.reps import find_destabilizer
from sodlab.rootdata import LeviDatum, full_levi, is_dominant, levi
from sodlab.zonotope import (CLOSED, HALF_OPEN, REL_INT, FaceSignature,
                              FacetTable, face_signature_at,
                              facet_table, signature_classes,
                              supporting_lambda)

F = Fraction


# ---------------------------------------------------------------------------
# Local exact Gaussian elimination over Fractions (kept separate from
# sodlab.linalg, whose kernel eliminates on integer rows).
# ---------------------------------------------------------------------------

def rref_reference(rows):
    """Textbook Gauss-Jordan over Fractions: (reduced rows, pivot columns),
    every input row kept, the rows past the rank zero."""
    m = [list(map(F, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def primitive_reference(v):
    """The primitive integer vector on the ray of v by Fraction arithmetic,
    its first nonzero entry positive; the zero vector unchanged."""
    if all(x == 0 for x in v):
        return tuple(v)
    den = math.lcm(*(F(x).denominator for x in v))
    ints = [int(F(x) * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(F(x) for x in ints)


def gauss_solve(rows, rhs):
    """Solve rows @ x = rhs; returns (particular solution, free columns) or
    None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    m = [list(map(F, r)) + [F(v)] for r, v in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [F(0)] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = m[i][ncols]
    return x, [c for c in range(ncols) if c not in piv_cols]


# ---------------------------------------------------------------------------
# Vertex oracle for fully bounded box programs.
# ---------------------------------------------------------------------------

def vertices(prog: BoxedLinearProgram):
    """All vertices of {A x = b, l <= x <= u}; every bound must be finite."""
    n = prog.nvars
    rows = [list(r) for r in prog.eq_rows]
    rhs = list(prog.eq_rhs)
    out = set()
    for k in range(n + 1):
        for free in itertools.combinations(range(n), k):
            fixed = [j for j in range(n) if j not in free]
            for pick in itertools.product((0, 1), repeat=len(fixed)):
                point = [None] * n
                for j, side in zip(fixed, pick):
                    point[j] = prog.lower[j] if side == 0 else prog.upper[j]
                if free:
                    sub_rows = [[row[j] for j in free] for row in rows]
                    sub_rhs = [b - sum(row[j] * point[j] for j in fixed)
                               for row, b in zip(rows, rhs)]
                    sol = gauss_solve(sub_rows, sub_rhs)
                    if sol is None or sol[1]:
                        continue  # inconsistent, or not zero-dimensional
                    for j, v in zip(free, sol[0]):
                        point[j] = v
                elif any(sum(row[j] * point[j] for j in range(n)) != b
                         for row, b in zip(rows, rhs)):
                    continue
                if all(prog.lower[j] <= point[j] <= prog.upper[j]
                       for j in range(n)):
                    out.add(tuple(point))
    return sorted(out)


def vertex_optimize(prog: BoxedLinearProgram, sense: str):
    """(status, value) by brute force over vertices."""
    verts = vertices(prog)
    if not verts:
        return "infeasible", None
    values = [sum(c * x for c, x in zip(prog.objective, v)) for v in verts]
    return "optimal", (max(values) if sense == "max" else min(values))


def vertex_forced(prog: BoxedLinearProgram):
    """(feasible, lower_forced, upper_forced) by brute force over vertices."""
    verts = vertices(prog)
    if not verts:
        return False, None, None
    n = prog.nvars
    lower = tuple(max(v[j] for v in verts) == prog.lower[j] for j in range(n))
    upper = tuple(min(v[j] for v in verts) == prog.upper[j] for j in range(n))
    return True, lower, upper


# ---------------------------------------------------------------------------
# Per-bound forced tightness: one full two-phase solve per finite bound.
# ---------------------------------------------------------------------------

def forced_tight_reference(prog: BoxedLinearProgram) -> TightnessReport:
    """Forced tightness with no shared phase 1 and no witness pruning: a
    feasibility solve, then one cold max resp. min solve per finite bound."""
    n = prog.nvars
    if feasible_point(prog) is None:
        return TightnessReport(False, (False,) * n, (False,) * n)
    lower_forced = []
    upper_forced = []
    for j in range(n):
        obj = [F(0)] * n
        obj[j] = F(1)
        lo, up = prog.lower[j], prog.upper[j]
        if lo is None:
            lower_forced.append(False)
        else:
            status, value, *_ = _optimize_closed(prog, obj, maximize=True)
            lower_forced.append(status == "optimal" and value == lo)
        if up is None:
            upper_forced.append(False)
        else:
            status, value, *_ = _optimize_closed(prog, obj, maximize=False)
            upper_forced.append(status == "optimal" and value == up)
    return TightnessReport(True, tuple(lower_forced), tuple(upper_forced))


# ---------------------------------------------------------------------------
# Strictness and attainment by slack maximization: cold solves on programs
# whose bounds are capped or pinned, one open bound at a time.
# ---------------------------------------------------------------------------

def _with_bounds(prog: BoxedLinearProgram, j, lower, upper):
    lo = list(prog.lower)
    up = list(prog.upper)
    lo[j], up[j] = lower, upper
    return dataclasses.replace(prog, lower=tuple(lo), upper=tuple(up))


def max_bound_slack_reference(prog: BoxedLinearProgram, j, side):
    """max of (x_j - lower_j) resp. (upper_j - x_j), capped at 1.

    The cap keeps the problem bounded; only positivity of the slack matters.
    Assumes prog is feasible; a capped problem that turns infeasible means
    every feasible point clears the cap, i.e. the slack exceeds 1.
    """
    lo, up = prog.lower[j], prog.upper[j]
    obj = [F(0)] * prog.nvars
    obj[j] = F(1)
    if side == "lower":
        capped = _with_bounds(
            prog, j, lo, up if up is not None and up <= lo + 1 else lo + 1)
        status, value, *_ = _optimize_closed(capped, obj, maximize=True)
        return value - lo if status == "optimal" else F(1)
    capped = _with_bounds(
        prog, j, lo if lo is not None and lo >= up - 1 else up - 1, up)
    status, value, *_ = _optimize_closed(capped, obj, maximize=False)
    return up - value if status == "optimal" else F(1)


def strict_point_reference(prog: BoxedLinearProgram):
    """A point satisfying the equalities, all closed bounds, and every open
    bound strictly, as the average of one witness per open bound; None when
    no such point exists."""
    base = feasible_point(prog)
    if base is None:
        return None
    witnesses = [base]
    for j in range(prog.nvars):
        for side, is_open in (("lower", prog.lower_open[j]),
                              ("upper", prog.upper_open[j])):
            if not is_open:
                continue
            bound = prog.lower[j] if side == "lower" else prog.upper[j]
            slack = max_bound_slack_reference(prog, j, side)
            if slack == 0:
                return None
            # Recover a witness realizing the slack for the averaging step.
            step = min(slack, F(1))
            pinned = (_with_bounds(prog, j, bound + step, prog.upper[j])
                      if side == "lower"
                      else _with_bounds(prog, j, prog.lower[j], bound - step))
            w = feasible_point(pinned)
            if w is None:  # unreachable: the slack level set is nonempty
                return None
            witnesses.append(w)
    k = F(1, len(witnesses))
    avg = tuple(sum((w[i] for w in witnesses), F(0)) * k
                for i in range(prog.nvars))
    for j in range(prog.nvars):
        if prog.lower_open[j] and not avg[j] > prog.lower[j]:
            return None
        if prog.upper_open[j] and not avg[j] < prog.upper[j]:
            return None
    return avg


def lp_optimize_reference(prog: BoxedLinearProgram, sense: str) -> LpResult:
    """Optimum of the closed relaxation; attained unless some open bound that
    the optimal witness meets has zero slack over the optimal face."""
    status, value, witness, _ = _optimize_closed(
        prog, prog.objective, maximize=(sense == "max"))
    if status != "optimal":
        return LpResult(status, None, None, False)
    face = prog.with_extra_eq(prog.objective, value)
    for j in range(prog.nvars):
        for side, is_open, bound in (
                ("lower", prog.lower_open[j], prog.lower[j]),
                ("upper", prog.upper_open[j], prog.upper[j])):
            if is_open and witness[j] == bound \
                    and max_bound_slack_reference(face, j, side) == 0:
                return LpResult("optimal", value, witness, False)
    return LpResult("optimal", value, witness, True)


# ---------------------------------------------------------------------------
# Epsilon-shifted membership by maximizing the push along epsilon.
# ---------------------------------------------------------------------------

def _value_classes(generators):
    """Distinct generator values with their index lists, sorted by value."""
    groups: dict = {}
    for i, g in enumerate(generators):
        groups.setdefault(tuple(g), []).append(i)
    return sorted(groups.items())


def _closed_coefficients(generators, r, shift, p, central, direction=None,
                         push_open=False):
    """Builder holding  sum c_v v + sum t_c c (+ t direction) = p - shift
    with c_v in [-r m, 0], t_c free and t >= 0 (t > 0 when ``push_open``);
    returns (builder, t)."""
    b = LpBuilder()
    classes = _value_classes(generators)
    cols = [b.add_var(lower=-F(r) * len(idx), upper=0) for _, idx in classes]
    tcols = [b.add_var() for _ in central]
    tcol = b.add_var(lower=0, lower_open=push_open) \
        if direction is not None else None
    for k in range(len(p)):
        row = {}
        for (v, _), col in zip(classes, cols):
            if v[k] != 0:
                row[col] = v[k]
        for c, col in zip(central, tcols):
            if c[k] != 0:
                row[col] = c[k]
        if direction is not None and direction[k] != 0:
            row[tcol] = direction[k]
        b.add_eq(row, p[k] - shift[k])
    return b, tcol


# ---------------------------------------------------------------------------
# Coefficient programs with one column per class of equal generators, the
# zonotope programs before the package gave each generator line one column.
# ---------------------------------------------------------------------------

def coefficient_system(b: LpBuilder, generators, central, target,
                       radius=None, lower_open=False, upper_open=False):
    """Add the system  sum_v c_v v + sum_c t_c c = target  to b.

    One column c_v <= 0 per class of m equal generators, bounded below by
    -radius * m unless ``radius`` is None and open at the flagged ends; then
    one free column t_c per central direction.  ``target`` holds the
    right-hand side of each coordinate's equality row.  Returns (classes,
    class columns).
    """
    classes = _value_classes(generators)
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


def member_reference(generators, r, shift, variant, p, central=()):
    """Membership of p in shift + r * (variant of the zonotope), one point
    at a time: a fresh coefficient program per point, solved by a phase-1
    point (closed) or a strict sweep (half-open, relative interior), and
    span arithmetic when there are no generators."""
    if variant not in (CLOSED, HALF_OPEN, REL_INT):
        raise InputError(f"unknown variant {variant!r}")
    if r <= 0:
        raise InputError("zonotope radius must be positive")
    if not generators:
        return in_span(central, vsub(vec(p), vec(shift)))
    b = LpBuilder()
    coefficient_system(b, generators, central, vsub(vec(p), vec(shift)), r,
                       lower_open=variant != CLOSED,
                       upper_open=variant == REL_INT)
    prog = b.build()
    if variant == CLOSED:
        return feasible_point(prog) is not None
    return strict_feasible(prog)


def min_radius_reference(generators, shift, p, central=()):
    """Least r >= 0 with p in shift + r * (closed zonotope), None when p is
    not reachable at any radius: a fresh radius program for the point."""
    b = LpBuilder()
    classes, cols = coefficient_system(
        b, generators, central, vsub(vec(p), vec(shift)))
    rcol = b.add_var(lower=0)
    for (_, idx), col in zip(classes, cols):
        b.add_ge({col: F(1), rcol: F(len(idx))}, 0)  # c_v >= -m r
    res = lp_optimize(b.build({rcol: F(1)}), "min")
    return res.value if res.status == "optimal" else None


def face_signature_reference(generators, shift, p, central=()):
    """The face signature of one point from fresh programs: the radius of
    ``min_radius_reference``, then the forced-tightness sweep of a closed
    coefficient program built at that radius and right-hand side."""
    r = min_radius_reference(generators, shift, p, central)
    if r is None:
        raise InputError("point lies outside the span of the generators")
    if r == 0:
        return FaceSignature(F(0), (), (), ())
    b = LpBuilder()
    classes, cols = coefficient_system(
        b, generators, central, vsub(vec(p), vec(shift)), r)
    report = forced_tight(b.build())
    assert report.feasible, "r came from a feasible program"
    plus, minus, zero = [], [], []
    for (_, idx), col in zip(classes, cols):
        if report.lower_forced[col]:
            plus.extend(idx)
        elif report.upper_forced[col]:
            minus.extend(idx)
        else:
            zero.extend(idx)
    return FaceSignature(r, tuple(sorted(plus)), tuple(sorted(minus)),
                         tuple(sorted(zero)))


def dominant_box_points_reference(rep, radius):
    """Every point of the box [-radius, radius]^rank, pinned SL coordinates
    zero, tested for dominance in lexicographic order; InputError when the
    whole box holds more than ``LATTICE_BOX_CAP`` points.  The package
    walks the box one coordinate at a time and drops a prefix as soon as a
    dominance row it completes fails."""
    datum = rep.datum
    pinned = {pin for _, pin in datum.quotient_pairs}
    box = [(0, 0) if k in pinned else (-radius, radius)
           for k in range(datum.rank)]
    whole = full_levi(datum)
    return enumerate_lattice(lambda p: is_dominant(whole, p), box)


def partition_region_reference(rep, profile, box_radius):
    """``partition.partition_region`` point by point and cell by cell: the
    face-signature function runs at every dominant point of the box, and
    every cell searches its own supporting subgroup and builds its own
    Levi datum."""
    report = find_destabilizer(rep)
    if report.sigma is not None:
        raise PreconditionError("no torus-stable point", report)
    datum = rep.datum
    shift = vsub(profile.nu_global, datum.rho_bar)
    at = face_signature_at(rep.expanded, datum.normalize_weight(shift))
    groups = {}
    for chi in dominant_box_points_reference(rep, box_radius):
        groups.setdefault(at(datum.normalize_weight(chi)), []).append(chi)
    cells = []
    for sig, pts in groups.items():
        lam = supporting_lambda(sig, datum, rep.expanded)
        chi_p = zero_vec(datum.rank)
        for i in sig.s_plus:
            chi_p = vsub(chi_p, vscale(sig.r, rep.expanded[i]))
        lv = levi(datum, lam)
        nu_levi = vadd(vadd(shift, lv.rho_bar_lambda), chi_p)
        cells.append(PartitionCell(sig, lv, nu_levi, chi_p,
                                   tuple(sorted(pts))))
    cells.sort(key=lambda c: order_key(c.signature))
    return cells


def member_eps_reference(generators, r, shift, e, p, central=()):
    """Closed membership, then max t with p - t*eps in the closed set is
    positive or unbounded (and likewise for -eps in plus_minus mode)."""
    if not in_span(list(generators) + list(central), e.epsilon):
        raise ValueError("epsilon is not parallel to the zonotope")
    b, _ = _closed_coefficients(generators, r, shift, p, central)
    if feasible_point(b.build()) is None:
        return False
    signs = (1, -1) if e.mode == "plus_minus" else (1,)
    for sign in signs:
        direction = tuple(sign * x for x in e.epsilon)
        b, tcol = _closed_coefficients(generators, r, shift, p, central,
                                       direction)
        res = lp_optimize(b.build({tcol: F(1)}), "max")
        if res.status != "unbounded" and not (
                res.status == "optimal" and res.value > 0):
            return False
    return True


def member_eps_facet_reference(generators, r, shift, e, p):
    """The per-point facet test ``member_eps`` builds its predicate from:
    d = p - shift over the facet table in exact rationals, every check
    repeated for each point; all its arguments in section form."""
    shift = vec(shift)
    table = facet_table(generators, len(shift))
    eps = vec(e.epsilon)
    if any(vdot(a, eps) for a in table.annihilator):
        raise InputError("epsilon is not parallel to the zonotope")
    r = F(r)
    if r <= 0:
        raise InputError("zonotope radius must be positive")
    d = vsub(vec(p), shift)
    if any(vdot(a, d) for a in table.annihilator):
        return False
    for lam, h in table.facets:
        s = r * h - vdot(lam, d)
        if s < 0:
            return False
        if s == 0:
            t = vdot(lam, eps)
            if t < 0 or (t != 0 and e.mode == "plus_minus"):
                return False
    return True


def member_eps_strict_reference(generators, r, shift, e, p, central=()):
    """The LP form of ``member_eps``: closed membership by one feasibility
    LP, then per direction (eps, and -eps in plus_minus mode) one strict
    sweep of the closed coefficient system with a last column s > 0 on that
    direction, i.e. p - s * direction in the closed set for some s > 0."""
    if not in_span(list(generators) + list(central), vec(e.epsilon)):
        raise InputError("epsilon is not parallel to the zonotope")
    if not member_reference(generators, r, shift, CLOSED, p, central):
        return False
    signs = (1, -1) if e.mode == "plus_minus" else (1,)
    for sign in signs:
        b, _ = _closed_coefficients(generators, r, vec(shift), vec(p), central,
                                    vscale(F(sign), vec(e.epsilon)),
                                    push_open=True)
        if not strict_feasible(b.build()):
            return False
    return True


# ---------------------------------------------------------------------------
# Grid oracle for strict feasibility.
# ---------------------------------------------------------------------------

def grid_strict_search(prog: BoxedLinearProgram, max_den: int = 64):
    """Search rational grids of increasing denominator over the free
    directions of the equality system for a point meeting every open bound
    strictly.  Returns a witness or None; None is inconclusive."""
    n = prog.nvars
    rows = [list(r) for r in prog.eq_rows]
    rhs = list(prog.eq_rhs)
    if rows:
        sol = gauss_solve(rows, rhs)
        if sol is None:
            return None
        free_cols = sol[1]
    else:
        free_cols = list(range(n))
    pivot_cols = [j for j in range(n) if j not in free_cols]
    lo = [prog.lower[j] if prog.lower[j] is not None else F(-4) for j in range(n)]
    hi = [prog.upper[j] if prog.upper[j] is not None else F(4) for j in range(n)]

    def ok(point):
        for j in range(n):
            lj, uj = prog.lower[j], prog.upper[j]
            if lj is not None and (point[j] < lj or (prog.lower_open[j] and point[j] == lj)):
                return False
            if uj is not None and (point[j] > uj or (prog.upper_open[j] and point[j] == uj)):
                return False
        return True

    for den in (1, 2, 4, 8, 16, 32, 64):
        if den > max_den:
            break
        grids = [[F(k, den) for k in range(int(lo[fc] * den) - 1,
                                           int(hi[fc] * den) + 2)]
                 for fc in free_cols]
        for combo in itertools.product(*grids):
            point = [None] * n
            if rows and pivot_cols:
                sub_rows = [[row[j] for j in pivot_cols] for row in rows]
                target = [b - sum(row[fc] * v for fc, v in zip(free_cols, combo))
                          for row, b in zip(rows, rhs)]
                sub = gauss_solve(sub_rows, target)
                if sub is None or sub[1]:
                    continue
                for j, v in zip(pivot_cols, sub[0]):
                    point[j] = v
            for fc, v in zip(free_cols, combo):
                point[fc] = v
            if ok(point):
                return tuple(point)
    return None


# ---------------------------------------------------------------------------
# Exhaustive sign-pattern signature oracle.
# ---------------------------------------------------------------------------

def brute_force_signature(rep, shift, chi, central=()):
    """Minimal (r, |S+|, |S-|, |S0|) over all sign-pattern splits of the
    weight classes; the radius of each split is LP-minimized and the winning
    split must admit a strictly interior coefficient block.  Returns
    'trivial' or (r, plus_counts_per_value, minus_counts_per_value)."""
    classes = _value_classes(rep.expanded)
    diff = tuple(c - s for c, s in zip(chi, shift))
    n = len(diff)

    def split_min_r(split):
        b = LpBuilder()
        rcol = b.add_var(lower=0)
        ccols = {}
        for (v, idx), (kp, km, k0) in zip(classes, split):
            if k0:
                ccols[v] = (b.add_var(upper=0), k0)
        tcols = [b.add_var() for _ in central]
        for k in range(n):
            row = {}
            coeff_r = F(0)
            for (v, idx), (kp, km, k0) in zip(classes, split):
                if kp and v[k] != 0:
                    coeff_r -= kp * v[k]
                if k0 and v[k] != 0:
                    col, _ = ccols[v]
                    row[col] = row.get(col, F(0)) + v[k]
            if coeff_r != 0:
                row[rcol] = coeff_r
            for c, col in zip(central, tcols):
                if c[k] != 0:
                    row[col] = c[k]
            b.add_eq(row, diff[k])
        for col, k0 in ccols.values():
            b.add_ge({col: F(1), rcol: F(k0)}, 0)
        res = lp_optimize(b.build({rcol: F(1)}), "min")
        return res.value if res.status == "optimal" else None

    def strict_ok(split, r):
        b = LpBuilder()
        ccols = {}
        for (v, idx), (kp, km, k0) in zip(classes, split):
            if k0:
                ccols[v] = b.add_var(lower=-r * k0, upper=0,
                                     lower_open=True, upper_open=True)
        tcols = [b.add_var() for _ in central]
        for k in range(n):
            row = {}
            const = F(0)
            for (v, idx), (kp, km, k0) in zip(classes, split):
                if kp and v[k] != 0:
                    const -= kp * r * v[k]
                if k0 and v[k] != 0:
                    col = ccols[v]
                    row[col] = row.get(col, F(0)) + v[k]
            for c, col in zip(central, tcols):
                if c[k] != 0:
                    row[col] = c[k]
            b.add_eq(row, diff[k] - const)
        return strict_point_reference(b.build()) is not None

    options = [[(kp, km, len(idx) - kp - km)
                for kp in range(len(idx) + 1)
                for km in range(len(idx) + 1 - kp)]
               for _, idx in classes]
    scored = []
    for split in itertools.product(*options):
        if not any(kp for kp, _, _ in split):
            continue  # a nontrivial expression needs a pinned generator
        r = split_min_r(split)
        if r is None:
            continue
        counts = (sum(kp for kp, _, _ in split),
                  sum(km for _, km, _ in split),
                  sum(k0 for _, _, k0 in split))
        scored.append(((r,) + counts, split, r))
    scored.sort(key=lambda t: t[0])
    best = None
    for key, split, r in scored:
        if r == 0 or strict_ok(split, r):
            best = (key, split, r)
            break
    if best is None or best[2] == 0:
        return "trivial"
    _, split, r = best
    plus = {v: kp for (v, _), (kp, _, _) in zip(classes, split) if kp}
    minus = {v: km for (v, _), (_, km, _) in zip(classes, split) if km}
    return r, plus, minus


def signature_to_value_counts(rep, sig):
    """Value-level (plus, minus) count maps of a face signature."""
    plus: dict = {}
    minus: dict = {}
    for i in sig.s_plus:
        w = rep.expanded[i]
        plus[w] = plus.get(w, 0) + 1
    for i in sig.s_minus:
        w = rep.expanded[i]
        minus[w] = minus.get(w, 0) + 1
    return plus, minus


# ---------------------------------------------------------------------------
# Flats by closure search, and the facet table built from them.
# ---------------------------------------------------------------------------

def proper_flats_reference(lines, central, dim):
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


def facet_table_reference(generators, central, dim):
    """The facet table from the closure search: the facets are both signed
    normals of each flat of corank one in V."""
    gens = [vec(g) for g in generators]
    central = [vec(c) for c in central]
    span = span_basis(gens + central, dim)
    lines = sorted({primitive(g) for g in gens if any(g)})
    facets = []
    for _, base in proper_flats_reference(lines, central, dim):
        if len(base) != len(span) - 1:
            continue
        lam = next(n for n in nullspace(base, dim)
                   if any(vdot(n, v) for v in span))
        lam = tuple(int(x) for x in primitive(lam))
        for normal in (lam, tuple(-x for x in lam)):
            h = sum((max(F(0), -vdot(normal, g)) for g in gens), F(0))
            facets.append((normal, h))
    annihilator = tuple(tuple(int(x) for x in primitive(n))
                        for n in nullspace(span, dim))
    return FacetTable(annihilator, tuple(facets))


def _proper_face_spans_reference(generators, central):
    """span(F + central) of every proper flat F of the generator lines, from
    the closure search (zero generators lie in every one of them)."""
    gens = [vec(g) for g in generators]
    dim = len(gens[0]) if gens else len(central[0]) if central else 0
    lines = sorted({primitive(g) for g in gens if any(g)})
    return [base for _, base in
            proper_flats_reference(lines, list(central), dim)]


def is_generic_reference(eps, generators, central=()):
    """Whether eps (taken parallel to the zonotope) lies in the span of no
    proper flat with ``central``, every proper flat tested."""
    return not any(in_span(base, vec(eps)) for base in
                   _proper_face_spans_reference(generators, central))


def is_weakly_generic_reference(eps, source, generators, central=()):
    """Whether no proper flat span with ``central`` holds eps (taken
    invariant and parallel to the zonotope) but misses an invariant of
    ``source`` within the zonotope's span, every proper flat tested."""
    src = source if isinstance(source, LeviDatum) else full_levi(source)
    inv = invariants_in_span_reference(src, generators, central)
    return not any(in_span(base, vec(eps))
                   and not all(in_span(base, v) for v in inv)
                   for base in _proper_face_spans_reference(generators,
                                                            central))


def subspace_intersection_reference(basis_a, basis_b, dim):
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
        x = [F(0)] * dim
        for i in range(p):
            if co[i] != 0:
                x = [xi + co[i] * ai for xi, ai in zip(x, a[i])]
        points.append(tuple(x))
    return span_basis(points, dim)


def invariants_in_span_reference(src, generators, central):
    """The invariants of the Levi ``src`` within span(generators +
    central) modulo span(central), ``central`` the SL directions of its
    datum: the intersection of the two spans, each of its vectors put in
    section form, and the basis of the nonzero images; the package pairs
    the section-form invariants with the annihilator of the section-form
    generators instead."""
    dim = src.datum.rank
    inv_amb = list(src.invariant_vectors()) + list(central)
    span_amb = [vec(g) for g in generators] + list(central)
    inter = subspace_intersection_reference(inv_amb, span_amb, dim)
    images = [src.datum.normalize_weight(v) for v in inter]
    return span_basis([v for v in images if any(v)], dim)


def facet_normals_reference(generators, central=()):
    """One facet normal per maximal span(zero generators + central) over
    the realizable sign patterns of ``realizable_face_patterns_reference``:
    the first kernel vector of that span that pairs nonzero with some
    generator, made primitive, as ints."""
    gens = [vec(g) for g in generators]
    if not gens:
        return []
    dim = len(gens[0])
    spans = {tuple(span_basis(list(z) + list(central), dim))
             for _, z in realizable_face_patterns_reference(gens, central)}
    normals = []
    for base in sorted(spans):
        if any(b != base and all(in_span(b, v) for v in base)
               for b in spans):
            continue  # inside a larger face span
        lam = next(n for n in nullspace(base, dim)
                   if any(vdot(n, g) for g in gens))
        normals.append(tuple(int(x) for x in primitive(lam)))
    return normals


# ---------------------------------------------------------------------------
# Per-class line grouping: each weight keyed by its Fraction primitive, with
# no a and b; the package reads them off ``linalg.line_decomposition``.
# ---------------------------------------------------------------------------

def support_reference(generators, lam):
    """h(lam) = sum m max(0, -<lam, v>) over the classes of m equal
    generators v."""
    return sum((len(idx) * max(F(0), -vdot(lam, vec(v)))
                for v, idx in _value_classes(generators)), F(0))


def is_quasi_symmetric_reference(rep):
    """Whether the sum of m w over the (w, m) pairs on each line through
    the origin vanishes (a zero weight adds zero to its own key)."""
    sums: dict = {}
    for w, m in rep.weights:
        key = primitive_reference(w)
        acc = sums.get(key, (F(0),) * len(w))
        sums[key] = tuple(a + m * x for a, x in zip(acc, w))
    return all(is_zero_vec(s) for s in sums.values())


def toric_two_per_side_reference(coinv):
    """Whether every line holding a nonzero weight has pairs of total
    multiplicity at least 2 on each side of the origin."""
    sides: dict = {}
    for w, m in coinv.weights:
        if is_zero_vec(w):
            continue
        key = primitive_reference(w)
        pos, neg = sides.get(key, (0, 0))
        k = next(i for i, x in enumerate(key) if x)
        sides[key] = (pos + m, neg) if w[k] > 0 else (pos, neg + m)
    return all(pos >= 2 and neg >= 2 for pos, neg in sides.values())


# ---------------------------------------------------------------------------
# Faces by sign patterns: one feasibility LP per sign pattern of the lines.
# ---------------------------------------------------------------------------

def _line_data(generators):
    """Distinct generator lines with the orientation of each nonzero
    generator against its line's primitive representative."""
    lines = []
    index = {}
    orient = []  # (line index, +-1) per nonzero generator
    for g in generators:
        key = primitive(vec(g))
        if is_zero_vec(key):
            continue
        if key not in index:
            index[key] = len(lines)
            lines.append(key)
        k = next(i for i in range(len(key)) if key[i] != 0)
        orient.append((index[key], 1 if g[k] > 0 else -1))
    return lines, orient


def _pattern_realizable(lines, pattern, central):
    """Whether some functional vanishing on ``central`` pairs with each line
    with the pattern's sign."""
    dim = len(lines[0]) if lines else len(central[0]) if central else 0
    b = LpBuilder()
    lam = [b.add_var() for _ in range(dim)]

    def lincomb(v):
        return {lam[k]: v[k] for k in range(dim) if v[k] != 0}

    for c in central:
        b.add_eq(lincomb(c), 0)
    for line, s in zip(lines, pattern):
        if s > 0:
            b.add_ge(lincomb(line), 1)
        elif s < 0:
            b.add_le(lincomb(line), -1)
        else:
            b.add_eq(lincomb(line), 0)
    return feasible_point(b.build()) is not None


def realizable_face_patterns_reference(generators, central=()):
    """(pattern, zero generators) for every realizable nonzero sign pattern
    of the distinct generator lines, testing all 3^L - 1 patterns by LP; the
    zero generators are those on the pattern's zero lines plus every zero
    generator."""
    gens = [vec(g) for g in generators]
    lines, orient = _line_data(gens)
    nonzero_gens = [g for g in gens if not is_zero_vec(g)]
    out = []
    for pattern in itertools.product((1, 0, -1), repeat=len(lines)):
        if all(s == 0 for s in pattern):
            continue
        if not _pattern_realizable(lines, pattern, central):
            continue
        zero_gens = [g for g, (li, _) in zip(nonzero_gens, orient)
                     if pattern[li] == 0]
        zero_gens += [g for g in gens if is_zero_vec(g)]
        out.append((pattern, zero_gens))
    return out


def zonotope_vertices_reference(generators, central=()):
    """Vertices of the closed unit-coefficient zonotope, one per realizable
    pattern with no zero line: the coefficients of positively paired
    generators pinned at -1, of negatively paired ones at 0."""
    gens = [vec(g) for g in generators]
    lines, orient = _line_data(gens)
    nonzero_gens = [g for g in gens if not is_zero_vec(g)]
    dim = len(gens[0]) if gens else 0
    vertices = set()
    for pattern, zero_gens in realizable_face_patterns_reference(gens, central):
        if any(not is_zero_vec(g) for g in zero_gens):
            continue  # not a vertex
        v = (F(0),) * dim
        for g, (li, sign) in zip(nonzero_gens, orient):
            if pattern[li] * sign > 0:
                v = vsub(v, g)
        vertices.add(v)
    return sorted(vertices)


# ---------------------------------------------------------------------------
# Sign rows tested on whole points.
# ---------------------------------------------------------------------------

def sign_rows_reference(rows):
    """The predicate of the sign rows of ``linprog.lattice_walk`` on whole
    points, in Fraction arithmetic: p passes when the sign of <c, p> is in
    ``signs`` for every row (c, signs).  The package tests each row on the
    prefix that sets its last nonzero coordinate."""
    def ok(p):
        for c, signs in rows:
            s = vdot(vec(c), vec(p))
            if (s > 0) - (s < 0) not in signs:
                return False
        return True
    return ok


# ---------------------------------------------------------------------------
# Integral search that rescans every smaller candidate at each bound.
# ---------------------------------------------------------------------------

def lex_minimal_integral_reference(n, ok):
    """First integral vector of length n by growing sup-norm, then
    lexicographic order, with a predicate hit; each bound scans the whole
    cube [-bound, bound]^n again.  None when nothing up to sup-norm 64
    hits."""
    for bound in range(1, 65):
        for cand in itertools.product(range(-bound, bound + 1), repeat=n):
            v = tuple(F(c) for c in cand)
            if ok(v):
                return v
    return None


# ---------------------------------------------------------------------------
# Supporting subgroup guarded by a feasibility LP.
# ---------------------------------------------------------------------------

def supporting_lambda_reference(sig, datum, generators):
    """Canonical antidominant one-parameter subgroup whose pairing signs with
    the generators reproduce the signature; zero for the trivial signature.
    An LP over the antidominant chamber first decides that one exists, and
    refuses the signature at once when none does; the package relies on
    Weyl symmetry for its existence and runs the integral search alone."""
    if sig.trivial:
        return zero_vec(datum.rank)
    classes = signature_classes(sig, generators)
    n = datum.rank
    b = LpBuilder()
    lam = [b.add_var() for _ in range(n)]

    def lincomb(v):
        return {lam[k]: v[k] for k in range(n) if v[k] != 0}

    for c in datum.central_directions:
        b.add_eq(lincomb(c), 0)
    for v, _, mark in classes:
        if mark == "+":
            b.add_ge(lincomb(v), 1)
        elif mark == "-":
            b.add_le(lincomb(v), -1)
        else:
            b.add_eq(lincomb(v), 0)
    for a in datum.positive_roots:
        b.add_le(lincomb(a), 0)
    witness = feasible_point(b.build())
    if witness is None:
        raise InputError(
            "no antidominant one-parameter subgroup realizes this face")

    def ok(cand):
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

    return lex_minimal_integral(n, ok)


# ---------------------------------------------------------------------------
# Whole-Weyl-group references for the root-system kernels.
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(vdot(row, col) for col in cols) for row in a)


def weyl_generators_reference(data):
    """Reflection matrices I - alpha (alpha^vee)^T of the simple roots of a
    RootDatum or a LeviDatum, with alpha^vee = 2 alpha / (alpha . alpha)."""
    datum = data.datum if isinstance(data, LeviDatum) else data
    n = datum.rank
    gens = []
    for a in _simple_roots(data):
        cr = coroot_reference(a)
        gens.append(tuple(tuple((F(i == j)) - a[i] * cr[j] for j in range(n))
                          for i in range(n)))
    return tuple(gens)


def weyl_elements_reference(data):
    """Every Weyl group element of a RootDatum or LeviDatum as (matrix,
    word, det), breadth-first over products of the simple reflections:
    shorter words first, ties broken lexicographically.  The matrix of a
    word is the product of its letters' matrices in word order."""
    rank = (data.datum if isinstance(data, LeviDatum) else data).rank
    gens = weyl_generators_reference(data)
    ident = tuple(tuple(F(i == j) for j in range(rank)) for i in range(rank))
    seen = {ident}
    order = [(ident, (), 1)]
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for m, word in frontier:
            for i, g in enumerate(gens):
                m2 = _mat_mul(m, g)
                if m2 not in seen:
                    w2 = word + (i,)
                    seen.add(m2)
                    order.append((m2, w2, -1 if len(w2) % 2 else 1))
                    nxt.append((m2, w2))
        frontier = nxt
    return tuple(order)


def is_dominant_reference(datum, chi, levi=None):
    """Dominance against every positive coroot of the datum or the Levi;
    the package tests the simple coroots only."""
    positive = datum.positive_roots if levi is None else levi.phi_lambda_plus
    return all(vdot(coroot_reference(a), chi) >= 0
               for a in positive)


def twist_contains_reference(twist, chi):
    """Coset membership by one exact solve of B^T x = chi - offset per
    point, for B the basis matrix; the package multiplies by a scaled
    inverse built once per coset."""
    diff = tuple(t - o for t, o in zip(vec(chi), twist.coset_offset,
                                       strict=True))
    n = len(diff)
    if n == 0:
        return True
    rows = [[twist.sublattice_basis[j][i] for j in range(n)] for i in range(n)]
    x = solve(rows, diff)
    return x is not None and all(v.denominator == 1 for v in x)


def _height(datum, lv, v):
    """Pairing with 2 rho: a positive functional on the positive span."""
    return vdot(v, vadd(lv.rho_bar_lambda, lv.rho_bar_lambda)) \
        if lv.phi_lambda_plus else F(0)


def orbit_reference(simple_pairs, chi):
    """Every point of the Weyl orbit of the Fraction vector chi with the
    sign (-1)^l of the shortest element reaching it, breadth-first by the
    Fraction reflections s_a(v) = v - <a^vee, v> a, with no section
    normalization; the package searches on int tuples by
    ``rootdata.reflect``, which normalizes."""
    signs, frontier, sign = {chi: 1}, [chi], 1
    while frontier:
        sign, nxt = -sign, []
        for v in frontier:
            for a, cr in simple_pairs:
                u = vsub(v, vscale(vdot(cr, v), a))
                if u not in signs:
                    signs[u] = sign
                    nxt.append(u)
        frontier = nxt
    return list(signs.items())


def weyl_symmetry_reference(rep):
    """The Weyl-symmetry check of ``construct_rep`` over Fraction vectors:
    InputError, with the package's message, unless every simple reflection
    keeps each weight's multiplicity."""
    datum = rep.datum
    counts = dict(rep.weights)
    for w, m in rep.weights:
        for a, cr in simple_pairs_reference(datum):
            image = datum.normalize_weight(vsub(w, vscale(vdot(cr, w), a)))
            if counts.get(image, 0) != m:
                raise InputError(f"weights are not Weyl-symmetric: weight "
                                 f"{list(map(str, w))} has multiplicity {m} "
                                 f"but its reflection has "
                                 f"{counts.get(image, 0)}")


def _table(datum, counts):
    """A `CharacterTable` from `Fraction` weights, each a lattice point."""
    assert all(x.denominator == 1 for w in counts for x in w)
    return CharacterTable(datum, {tuple(x.numerator for x in w): m
                                  for w, m in counts.items() if m})


def irr_character_reference(datum, chi, levi=None):
    """Freudenthal recursion that finds every lowest weight, dominant
    conjugate and orbit by scanning the whole (Levi) Weyl group."""
    lv = levi or full_levi(datum)
    chi = datum.normalize_weight(vec(chi))
    if not lv.phi_lambda_plus:
        return _table(datum, {chi: 1})
    elements = weyl_elements_reference(lv)
    rho = lv.rho_bar_lambda
    top = vdot(vadd(chi, rho), vadd(chi, rho))
    lowest = chi
    for m, _, _ in elements:
        img = mat_vec(m, chi)
        if _height(datum, lv, vsub(chi, img)) > _height(datum, lv, vsub(chi, lowest)):
            lowest = img
    simples = lv.simple_roots
    coeffs = solve([[a[k] for a in simples] for k in range(datum.rank)],
                   list(vsub(chi, lowest)))
    bounds = [max(0, math.ceil(c)) for c in coeffs]
    dominants = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        mu = chi
        for c, a in zip(combo, simples):
            mu = vsub(mu, vscale(F(c), a))
        if mu not in dominants and is_dominant_reference(datum, mu, lv):
            dominants.append(mu)
    dominants.sort(key=lambda mu: -_height(datum, lv, mu))
    mults = {}

    def lookup(nu):
        for w, _, _ in elements:
            img = mat_vec(w, nu)
            if is_dominant_reference(datum, img, lv):
                return mults.get(img, 0)
        return 0

    for mu in dominants:
        if mu == chi:
            mults[mu] = 1
            continue
        denom = top - vdot(vadd(mu, rho), vadd(mu, rho))
        rhs = F(0)
        for a in lv.phi_lambda_plus:
            k = 1
            while True:
                nu = vadd(mu, vscale(F(k), a))
                m = lookup(nu)
                if m == 0 and vdot(vadd(nu, rho), vadd(nu, rho)) > top:
                    break
                rhs += m * vdot(nu, a)
                k += 1
        val = 2 * rhs / denom
        assert val.denominator == 1
        if val:
            mults[mu] = int(val)
    full = {}
    for mu, m in mults.items():
        if m > 0:
            for w, _, _ in elements:
                full[datum.normalize_weight(mat_vec(w, mu))] = m
    return _table(datum, full)


def invariant_projector_reference(lv):
    """Average of every element of the Levi Weyl group."""
    elements = weyl_elements_reference(lv)
    n = lv.datum.rank
    total = [[F(0)] * n for _ in range(n)]
    for m, _, _ in elements:
        for i in range(n):
            for j in range(n):
                total[i][j] += m[i][j]
    return tuple(tuple(x / len(elements) for x in row) for row in total)


def invariant_vectors_reference(lv):
    """RREF basis of the rows of the averaged projector, modulo the SL
    quotient directions, as `LeviDatum.invariant_vectors` reports it."""
    datum = lv.datum
    image = span_basis(list(invariant_projector_reference(lv)), datum.rank)
    return _modulo_central(datum, image)


def _modulo_central(datum, basis):
    """The basis vectors outside the span of the SL quotient directions and
    of those kept before them, in section form, zero vectors dropped."""
    central = list(datum.central_directions)
    out = []
    for v in basis:
        if not in_span(central + out, v):
            out.append(datum.normalize_weight(v))
    return [v for v in out if not is_zero_vec(v)]


def coroot_invariant_vectors_reference(lv):
    """`LeviDatum.invariant_vectors` from the common kernel of the simple
    Fraction coroots, modulo the SL quotient directions; the package takes
    that kernel on the integer coroot rays."""
    n = lv.datum.rank
    fixed = span_basis(nullspace([cr for _, cr in simple_pairs_reference(lv)],
                                 n), n)
    return _modulo_central(lv.datum, fixed)


def multiplicity_in_reference(datum, table, mu, lv):
    """Multiplicity of the irreducible V(mu) inside a Weyl-symmetric
    character, by the alternating Weyl sum."""
    rho = lv.rho_bar_lambda
    total = 0
    for w, _, det in weyl_elements_reference(lv):
        key = datum.normalize_weight(vsub(mat_vec(w, vadd(mu, rho)), rho))
        total += det * table.get(key, 0)
    return total


def hom_block_dims_reference(datum, mu, mu_prime, coinv, lv, up_to):
    """Graded Hom-block dimensions from the full product table
    ch(mu') * Sym^d, one alternating Weyl sum per degree, with the
    `Fraction` symmetric-power tables."""
    mu = datum.normalize_weight(vec(mu))
    ch_prime = irr_character(lv, vec(mu_prime)).as_dict()
    tables = sym_power_tables_reference(coinv, up_to)
    dims = []
    for d in range(up_to + 1):
        prod = {}
        for w1, m1 in ch_prime.items():
            for w2, m2 in tables[d].items():
                key = datum.normalize_weight(vadd(w1, w2))
                prod[key] = prod.get(key, 0) + m1 * m2
        dims.append(multiplicity_in_reference(datum, prod, mu, lv))
    return dims


# ---------------------------------------------------------------------------
# Root-data and character kernels over Fraction vectors.
# ---------------------------------------------------------------------------

def coroot_reference(alpha):
    """2 alpha / (alpha . alpha) over Fractions."""
    return vscale(F(2) / vdot(alpha, alpha), alpha)


def simple_roots_reference(datum):
    """The positive roots of a root datum that are not the sum of two
    positive roots, in ``positive_roots`` order, found by forming every
    pair sum; the package takes the positive roots of a Levi that are no
    positive root plus another, by differences."""
    positive = datum.positive_roots
    sums = {vadd(a, b) for i, a in enumerate(positive) for b in positive[i:]}
    return tuple(a for a in positive if a not in sums)


def _simple_roots(data):
    """The simple roots of a Levi as it derives them, of a root datum by
    ``simple_roots_reference``."""
    if isinstance(data, LeviDatum):
        return data.simple_roots
    return simple_roots_reference(data)


def simple_pairs_reference(src):
    """(simple root, Fraction coroot) pairs of a root datum or a Levi: the
    simple reflections s_a(v) = v - <a^vee, v> a; the package keeps only
    the coroot rays and reflects on int tuples by the roots."""
    return tuple((a, coroot_reference(a)) for a in _simple_roots(src))


def levi_reference(datum, lam):
    """(Levi subdatum, simple roots, rho_bar_lambda) by Fraction pairings
    and Fraction differences: the positive roots that vanish on lam, those
    of them that are no positive root plus another, and half their sum."""
    lam = vec(lam)
    plus = tuple(a for a in datum.positive_roots if vdot(lam, a) == 0)
    plus_set = set(plus)
    simple = tuple(a for a in plus
                   if not any(vsub(a, b) in plus_set for b in plus if b != a))
    rho = vec([0] * datum.rank)
    for a in plus:
        rho = vadd(rho, a)
    return LeviDatum(datum, lam, plus), simple, vscale(F(1, 2), rho)


def weyl_dim_reference(datum, chi, levi=None):
    """Weyl's product over the positive Levi roots, as a quotient of two
    Fraction products of dot products."""
    lv = levi or full_levi(datum)
    chi = datum.normalize_weight(vec(chi))
    if not is_dominant(lv, chi):
        raise InputError(f"{chi} is not dominant for the Levi")
    rho = lv.rho_bar_lambda
    num = den = F(1)
    for a in lv.phi_lambda_plus:
        num *= vdot(vadd(chi, rho), a)
        den *= vdot(rho, a)
    value = num / den
    if value.denominator != 1:
        raise InputError("Weyl dimension came out non-integral")
    return int(value)


def sym_power_tables_reference(rep, top):
    """Sym^0..Sym^top by the degree dynamic program on Fraction vectors, as
    one {weight: multiplicity} dict per degree."""
    datum = rep.datum
    layers = [dict() for _ in range(top + 1)]
    layers[0][vec([0] * datum.rank)] = 1
    for w, m in rep.weights:
        steps = [(vscale(F(k), w), math.comb(k + m - 1, m - 1))
                 for k in range(top + 1)]
        nxt = [dict() for _ in range(top + 1)]
        for j in range(top + 1):
            for wt, cnt in layers[j].items():
                for k in range(top - j + 1):
                    shift, c = steps[k]
                    key = vadd(wt, shift) if k else wt
                    nxt[j + k][key] = nxt[j + k].get(key, 0) + cnt * c
        layers = nxt
    return tuple(layers)


# ---------------------------------------------------------------------------
# Window box by LP.
# ---------------------------------------------------------------------------

def window_box_reference(datum, generators, r, shift):
    """Per-coordinate bounds of shift + r * (closed zonotope) + span(central)
    restricted to pinned SL coordinates zero: two LPs per free coordinate
    over the coefficient system."""
    pinned = {pin for _, pin in datum.quotient_pairs}
    b = LpBuilder()
    terms = [(v, b.add_var(lower=-F(r) * len(idx), upper=0))
             for v, idx in _value_classes(generators)]
    terms += [(c, b.add_var()) for c in datum.central_directions]
    rows = [{col: v[k] for v, col in terms if v[k] != 0}
            for k in range(datum.rank)]
    for k in sorted(pinned):
        b.add_eq(rows[k], -shift[k])
    box = []
    for k, row in enumerate(rows):
        if k in pinned:
            box.append((F(0), F(0)))
            continue
        bounds = []
        for sense in ("min", "max"):
            res = lp_optimize(b.build(row), sense)
            if res.status != "optimal":
                raise InputError("window is unbounded; cannot enumerate")
            bounds.append(res.value + shift[k])
        box.append(tuple(bounds))
    return box


# ---------------------------------------------------------------------------
# The simplex over Fraction entries that the integer-row kernel replaced.
# ---------------------------------------------------------------------------

def _simplex_iterate_reference(tab, rhs, basis, cost):
    """Bland-rule pivots in place on a Fraction tableau."""
    m = len(tab)
    zrow = [-c for c in cost]
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0:
            zrow = [z + cb * a if a != 0 else z for z, a in zip(zrow, tab[i])]
    while True:
        enter = -1
        for j in range(len(cost)):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot_reference(tab, rhs, basis, leave, enter)
        f = zrow[enter]
        zrow = [z - f * y if y != 0 else z for z, y in zip(zrow, tab[leave])]


def _pivot_reference(tab, rhs, basis, r, c):
    pv = tab[r][c]
    prow = tab[r] = [x / pv if x != 0 else x for x in tab[r]]
    rhs[r] = rhs[r] / pv
    nz = [k for k, y in enumerate(prow) if y != 0]
    for i in range(len(tab)):
        f = tab[i][c]
        if i != r and f != 0:
            row = tab[i]
            for k in nz:
                row[k] -= f * prow[k]
            rhs[i] = rhs[i] - f * rhs[r]
    basis[r] = c


def phase1_reference(rows, rhs_in, n):
    """(tab, rhs, basis) of a feasible basis of rows x = rhs, x >= 0, with
    artificial columns and redundant rows gone, or None when infeasible.

    The start is the crash basis.  A row whose lowest unit column (nonzero
    in that row only, with the sign of the right-hand side or either sign
    when that is zero) exists is divided by its entry there and starts
    basic on it; each other row gets an artificial column, in row order."""
    m = len(rows)
    unit = {}
    for j in range(n):
        nonzero = [i for i in range(m) if rows[i][j] != 0]
        if len(nonzero) == 1:
            i = nonzero[0]
            a, b = F(rows[i][j]), F(rhs_in[i])
            if i not in unit and (b == 0 or (a > 0) == (b > 0)):
                unit[i] = j
    arts = [i for i in range(m) if i not in unit]
    tab = []
    rhs = []
    basis = []
    for i in range(m):
        row = [F(x) for x in rows[i]]
        b = F(rhs_in[i])
        art = [F(0)] * len(arts)
        if i in unit:
            a = row[unit[i]]
            row = [x / a for x in row]
            b = b / a
            basis.append(unit[i])
        else:
            if b < 0:
                row = [-x for x in row]
                b = -b
            art[arts.index(i)] = F(1)
            basis.append(n + arts.index(i))
        tab.append(row + art)
        rhs.append(b)
    _simplex_iterate_reference(tab, rhs, basis,
                               [F(0)] * n + [F(-1)] * len(arts))
    if sum((rhs[i] for i in range(m) if basis[i] >= n), F(0)) != 0:
        return None
    drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                _pivot_reference(tab, rhs, basis, i, piv)
    for i in sorted(drop, reverse=True):
        del tab[i], rhs[i], basis[i]
    return [row[:n] for row in tab], rhs, basis


def phase1_all_artificial_reference(rows, n):
    """The integer kernel's phase 1 before the crash start: every row of
    ``_to_standard`` gets an artificial column, whatever its slacks.  Same
    input and output as ``linprog._phase1``, so ``_phase2`` runs from
    either start."""
    m = len(rows)
    tab = []
    den = []
    for i, (row, d) in enumerate(rows):
        if row[-1] < 0:
            row = [-x for x in row]
        tab.append(row[:n] + [d if k == i else 0 for k in range(m)] + row[n:])
        den.append(d)
    basis = [n + i for i in range(m)]
    _simplex_iterate(tab, den, basis, [0] * n + [-1] * m)
    if any(tab[i][-1] for i in range(m) if basis[i] >= n):  # rhs >= 0
        return None
    # Drive leftover zero-value artificials out of the basis.
    drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j]), None)
            if piv is None:
                drop.append(i)  # redundant equality row
            else:
                _pivot(tab, den, basis, i, piv)
    for i in sorted(drop, reverse=True):
        del tab[i], den[i], basis[i]
    return [row[:n] + row[-1:] for row in tab], den, basis


def basic_solution_reference(start, n):
    _, rhs, basis = start
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    return tuple(x)


def phase2_reference(start, obj, n):
    """max obj.x from a ``phase1_reference`` basis, which is not changed.
    -> (status, optimal x or None)."""
    tab0, rhs0, basis0 = start
    tab = [list(row) for row in tab0]
    rhs = list(rhs0)
    basis = list(basis0)
    if _simplex_iterate_reference(tab, rhs, basis,
                                  [F(c) for c in obj]) == "unbounded":
        return "unbounded", None
    return "optimal", basic_solution_reference((tab, rhs, basis), n)


def to_standard_reference(prog: BoxedLinearProgram):
    """The dense Fraction standard form that the package now builds as
    integer rows: (rows, rhs, ncols, decode, encode_obj), or None when a
    bound pair is contradictory.  A variable with a lower bound l becomes
    l + y, one with only an upper bound u becomes u - y, a free one
    y+ - y-; each variable with both bounds adds the row y + s = u - l
    after the rows of ``prog``."""
    n = prog.nvars
    terms = []  # var -> [(col, sign)]
    offsets = []
    ncols = 0
    extra = []  # (col of y, range u - l)
    for j in range(n):
        lo, up = prog.lower[j], prog.upper[j]
        if lo is not None and up is not None:
            if up < lo:
                return None
            terms.append([(ncols, 1)])
            offsets.append(lo)
            extra.append((ncols, up - lo))
            ncols += 1
        elif lo is not None:
            terms.append([(ncols, 1)])
            offsets.append(lo)
            ncols += 1
        elif up is not None:
            terms.append([(ncols, -1)])
            offsets.append(up)
            ncols += 1
        else:
            terms.append([(ncols, 1), (ncols + 1, -1)])
            offsets.append(F(0))
            ncols += 2
    slack0 = ncols
    ncols += len(extra)
    rows = []
    rhs = []
    for row, b in zip(prog.eq_rows, prog.eq_rhs):
        out = [F(0)] * ncols
        shift = F(0)
        for j in range(n):
            cj = row[j]
            if cj == 0:
                continue
            shift += cj * offsets[j]
            for col, sg in terms[j]:
                out[col] += cj if sg > 0 else -cj
        rows.append(out)
        rhs.append(b - shift)
    for k, (ycol, width) in enumerate(extra):
        out = [F(0)] * ncols
        out[ycol] = F(1)
        out[slack0 + k] = F(1)
        rows.append(out)
        rhs.append(width)

    def decode(x):
        pt = []
        for j in range(n):
            v = offsets[j]
            for col, sg in terms[j]:
                v += x[col] if sg > 0 else -x[col]
            pt.append(v)
        return tuple(pt)

    def encode_obj(coeffs):
        out = [F(0)] * ncols
        for j in range(n):
            cj = coeffs[j]
            if cj == 0:
                continue
            for col, sg in terms[j]:
                out[col] += cj if sg > 0 else -cj
        return out

    return rows, rhs, ncols, decode, encode_obj


# ---------------------------------------------------------------------------
# Random bounded programs.
# ---------------------------------------------------------------------------

def random_mixed_program(rng):
    """A random program with the shapes ``random_bounded_program`` never
    makes: free variables, one-sided bounds, pinned variables (lower ==
    upper), duplicated equality rows, and (about one time in five) an
    inconsistent pair of rows."""
    n = rng.randint(2, 6)
    b = LpBuilder()
    point = []
    for _ in range(n):
        v = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        point.append(v)
        kind = rng.choice(("free", "lower", "upper", "pinned", "box", "box"))
        if kind == "free":
            b.add_var()
        elif kind == "lower":
            b.add_var(lower=v - rng.randint(0, 2))
        elif kind == "upper":
            b.add_var(upper=v + rng.randint(0, 2))
        elif kind == "pinned":
            b.add_var(lower=v, upper=v)
        else:
            b.add_var(lower=v - rng.randint(0, 2), upper=v + rng.randint(0, 2))
    rows = []
    for _ in range(rng.randint(1, min(3, n))):
        coeffs = {j: F(rng.randint(-2, 2)) for j in range(n)}
        rows.append((coeffs, sum(coeffs[j] * point[j] for j in range(n))))
    if rng.random() < 0.5:
        rows.append(rows[rng.randrange(len(rows))])  # duplicated row
    if rng.random() < 0.2:
        coeffs, rhs = rows[rng.randrange(len(rows))]
        rows.append((coeffs, rhs + 1))  # contradicts its twin
    for coeffs, rhs in rows:
        b.add_eq(coeffs, rhs)
    return b.build()


def with_random_open_flags(rng, prog: BoxedLinearProgram):
    """``prog`` with each finite bound marked open with probability 1/2."""
    return dataclasses.replace(
        prog,
        lower_open=tuple(lo is not None and rng.random() < 0.5
                         for lo in prog.lower),
        upper_open=tuple(up is not None and rng.random() < 0.5
                         for up in prog.upper))


def random_bounded_program(rng, nvars=None, max_den=32):
    """A random fully bounded program with small rational data."""
    n = nvars or rng.randint(2, 6)
    m = rng.randint(1, min(3, n))

    def rand_frac(lo, hi):
        den = rng.choice([1, 2, 3, 4, max_den // 2, max_den])
        return F(rng.randint(lo * den, hi * den), den)

    b = LpBuilder()
    bounds = []
    for _ in range(n):
        lo = rand_frac(-3, 1)
        hi = lo + rand_frac(0, 3)
        bounds.append((lo, hi))
        b.add_var(lower=lo, upper=hi)
    for _ in range(m):
        coeffs = {j: F(rng.randint(-3, 3)) for j in range(n)}
        point = [bounds[j][0] + (bounds[j][1] - bounds[j][0]) * F(rng.randint(0, 4), 4)
                 for j in range(n)]
        if rng.random() < 0.75:  # mostly feasible systems
            rhs = sum(coeffs.get(j, F(0)) * point[j] for j in range(n))
        else:
            rhs = F(rng.randint(-6, 6))
        b.add_eq(coeffs, rhs)
    obj = {j: F(rng.randint(-3, 3)) for j in range(n)}
    return b.build(obj)


# ---------------------------------------------------------------------------
# Random generator configurations.
# ---------------------------------------------------------------------------

def random_generators(rng, datum, max_lines=5):
    """Small weights with repeated, opposite, zero and central-shifted
    copies; central shifts give distinct lines that agree modulo the SL
    directions.  At most ``max_lines`` distinct lines, so that the
    reference tests at most 3^max_lines - 1 sign patterns."""
    while True:
        gens = _random_generators(rng, datum)
        if len({primitive(g) for g in gens if any(g)}) <= max_lines:
            return gens


def _random_generators(rng, datum):
    n = datum.rank
    central = datum.central_directions
    base = [tuple(F(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 4))]
    gens = []
    for w in base:
        gens.append(w)
        roll = rng.random()
        if roll < 0.25:
            gens.append(w)
        elif roll < 0.5:
            gens.append(tuple(-x for x in w))
        elif roll < 0.7 and central:
            c = rng.choice(central)
            gens.append(tuple(x + rng.choice((-1, 1)) * y for x, y in zip(w, c)))
    if rng.random() < 0.3:
        gens.append((F(0),) * n)
    rng.shuffle(gens)
    return tuple(gens)
