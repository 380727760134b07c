"""Exact rational linear programming and lattice point enumeration.

The solver is a dense two-phase primal simplex with Bland's rule, so it
terminates on every input and never rounds.  Problems are stated as equality
rows plus per-variable bounds; each finite bound may be marked open, which
matters for strict feasibility (membership in half-open boxes) but is ignored
by the closed relaxation that the simplex solves.

The tableau is fraction-free: each row is a list of ints, right-hand side
last, over one positive denominator, and a pivot cross-multiplies and
cancels each row's gcd.  ``_to_standard`` writes the closed relaxation in
standard form straight as such rows, each over its least denominator, from
the nonzero coefficients of the program, so ``Fraction`` appears only when
a witness or an optimum is decoded for the caller.  The rows stand for the
rationals of the textbook tableau, so Bland's rule makes the same pivots.
``_phase1`` prepares a constraint system once and returns a feasible basis;
``_phase2`` warm-starts one integer objective from a copy of it.  Phase 1
starts from a crash basis: each row with a unit column (one that is nonzero
in that row alone, with the sign of its right-hand side) starts basic on
it, so the slacks of inequalities and of doubly bounded variables need no
artificial column, and only the remaining rows get one.  The
reduced-cost row (integers over a positive scale: only its signs are read)
is built once per phase and updated with each pivot.

Forced tightness, strictness and attainment are read from one fact: which
bounds every feasible point of the closed relaxation attains.
``_bound_sweep`` answers it for a list of bounds from one feasible tableau
with at most one warm-started phase 2 per bound, none for a bound that a
feasible point already found leaves.  It reads both from basis columns: each
bound has a standard-form column that is zero exactly where the variable
sits at it, a known point is the set of columns with a nonzero basic value,
and a bound is forced iff maximizing its column leaves it at zero.
``forced_tight`` sweeps every bound from the phase-1 tableau, or over the
optimal face from the optimal tableau of ``lp_optimize`` with the columns of
positive reduced cost held at zero: by complementary slackness those are
zero exactly at the optimal points (Chvatal, Linear Programming, ch. 5), so
the face needs no second phase 1.  A point meeting every open bound
strictly exists iff the system is feasible and no open bound is attained by
every feasible point, because averaging one witness per open bound keeps
all slacks positive; so ``strict_feasible`` sweeps the open bounds, and
``lp_optimize`` sweeps them over its optimal face for ``attained``.

Every lattice point the package visits comes from ``lattice_walk``, as an
int tuple: the dominant boxes, the windows (through ``enumerate_lattice``)
and the integral searches (``integral_shell``, ``lex_minimal_integral``).
Sign rows prune the walk on the prefix that decides them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .linalg import Vec, ZERO, ONE, frac

Bound = Fraction | None


class InputError(ValueError):
    """Malformed problem data (dimension mismatch, open infinite bound...)."""


@dataclass(frozen=True)
class BoxedLinearProgram:
    """Equality system A x = b with per-variable (possibly open) bounds."""

    eq_rows: tuple[Vec, ...]
    eq_rhs: Vec
    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]
    lower_open: tuple[bool, ...]
    upper_open: tuple[bool, ...]
    objective: Vec | None = None

    def __post_init__(self):
        n = self.nvars
        if len(self.eq_rows) != len(self.eq_rhs):
            raise InputError("row/rhs count mismatch")
        for row in self.eq_rows:
            if len(row) != n:
                raise InputError("equality row has wrong width")
        for name in ("upper", "lower_open", "upper_open"):
            if len(getattr(self, name)) != n:
                raise InputError(f"{name} has wrong length")
        if self.objective is not None and len(self.objective) != n:
            raise InputError("objective has wrong length")
        for lo, op in zip(self.lower, self.lower_open):
            if op and lo is None:
                raise InputError("open bound requires a finite bound")
        for up, op in zip(self.upper, self.upper_open):
            if op and up is None:
                raise InputError("open bound requires a finite bound")

    @property
    def nvars(self) -> int:
        return len(self.lower)

    def with_extra_eq(self, row: Sequence[Fraction], rhs: Fraction) -> "BoxedLinearProgram":
        return BoxedLinearProgram(
            self.eq_rows + (tuple(row),), self.eq_rhs + (rhs,),
            self.lower, self.upper, self.lower_open, self.upper_open,
            self.objective)


@dataclass(frozen=True)
class TightnessReport:
    """Per-variable flags: is the variable pinned at a bound in every feasible
    point of the closed relaxation?  Flags are meaningless when infeasible."""

    feasible: bool
    lower_forced: tuple[bool, ...]
    upper_forced: tuple[bool, ...]


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None
    witness: Vec | None
    attained: bool
    # (optimal tableau, integer cost, ncols, zero_cols) for ``forced_tight``
    tableau: tuple | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Core simplex on standard form: max c.x  s.t.  A x = b, x >= 0.
#
# A tableau is (tab, den, basis): row i of ``tab`` is a list of ints whose
# last entry is the right-hand side, and it stands for tab[i] / den[i] with
# den[i] > 0.
# ---------------------------------------------------------------------------

def _simplex_iterate(tab, den, basis, cost):
    """Run Bland-rule pivots in place for max cost.x, with ``cost`` integers
    (any positive multiple of the objective).  Returns "optimal" or
    "unbounded"."""
    m = len(tab)
    zrow = _reduced_costs(tab, den, basis, cost)  # updated with each pivot
    while True:
        enter = next((j for j, z in enumerate(zrow) if z < 0), -1)
        if enter < 0:
            return "optimal"
        # Ratio test: rhs_i / a_i shares row i's denominator, so compare
        # the integer quotients by cross-multiplication.
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                t = tab[i][-1]
                if leave < 0 or t * best_a < best_t * a or (
                        t * best_a == best_t * a and basis[i] < basis[leave]):
                    leave, best_t, best_a = i, t, a
        if leave < 0:
            return "unbounded"
        _pivot(tab, den, basis, leave, enter)
        prow = tab[leave]
        g = math.gcd(prow[enter], zrow[enter])
        p, f = prow[enter] // g, zrow[enter] // g
        zrow = [p * z - f * y if y else p * z for z, y in zip(zrow, prow)]
        g = math.gcd(*zrow)
        if g > 1:
            zrow = [z // g for z in zrow]


def _reduced_costs(tab, den, basis, cost):
    """The reduced costs c_B B^-1 A - c of max cost.x over a positive scale,
    as integers: only their signs are ever read."""
    scale = math.lcm(*(d for d, bi in zip(den, basis) if cost[bi]))
    zrow = [-c * scale for c in cost]
    for row, d, bi in zip(tab, den, basis):
        cb = cost[bi]
        if cb:
            f = cb * (scale // d)
            zrow = [z + f * a if a else z for z, a in zip(zrow, row)]
    return zrow


def _pivot(tab, den, basis, r, c):
    prow = tab[r]
    if prow[c] < 0:
        prow = [-x for x in prow]
    g = math.gcd(*prow)
    if g > 1:
        prow = [x // g for x in prow]
    tab[r] = prow
    p = den[r] = prow[c]
    nz = [k for k, y in enumerate(prow) if y]
    for i in range(len(tab)):
        f = tab[i][c]
        if i != r and f:
            # row_i/den_i - (f/den_i) prow/p = (p row_i - f prow)/(den_i p),
            # with p and f first divided by their gcd
            g = math.gcd(p, f)
            a, f = p // g, f // g
            row = tab[i] if a == 1 else [a * x for x in tab[i]]
            for k in nz:
                row[k] -= f * prow[k]
            d = den[i] * a
            g = math.gcd(d, *row)
            if g > 1:
                row = [x // g for x in row]
                d //= g
            tab[i] = row
            den[i] = d
    basis[r] = c


def _phase1(rows, n):
    """A feasible basis of the standard-form rows of ``_to_standard`` over
    n columns.

    The start is a crash basis: a row starts basic on its unit column, the
    lowest column that is nonzero in that row alone and whose entry has the
    sign of the right-hand side (either sign when that is zero).  The row
    is negated when the entry is negative and takes the entry as its
    denominator, so the column reads 1.  The slack of an inequality and of
    a doubly bounded variable is such a column.  Only the other rows get an
    artificial column, and the phase-1 simplex runs only when one does.

    Returns the tableau (tab, den, basis) in canonical form for ``basis``,
    with every artificial column gone and redundant equality rows dropped,
    or None when the system is infeasible.  The result is shared by any
    number of objectives through ``_phase2``, which never modifies it.
    """
    m = len(rows)
    unit = [-1] * m
    for j, col in zip(range(n), zip(*(row for row, _ in rows))):
        if col.count(0) == m - 1:  # nonzero in one row alone
            a = next(filter(None, col))
            i = col.index(a)
            if unit[i] < 0 and a * rows[i][0][-1] >= 0:
                unit[i] = j
    nart = unit.count(-1)
    tab = []
    den = []
    basis = []
    art = n  # the next artificial column
    for (row, d), j in zip(rows, unit):
        extra = [0] * nart
        if j < 0:
            if row[-1] < 0:
                row = [-x for x in row]
            extra[art - n] = d
            j = art
            art += 1
        else:
            if row[j] < 0:
                row = [-x for x in row]
            d = row[j]
        tab.append(row[:n] + extra + row[n:])
        den.append(d)
        basis.append(j)
    if nart:
        _simplex_iterate(tab, den, basis, [0] * n + [-1] * nart)
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
        tab = [row[:n] + row[-1:] for row in tab]
    return tab, den, basis


def _basic_solution(tab, den, basis, n):
    x = [ZERO] * n
    for row, d, bi in zip(tab, den, basis):
        x[bi] = Fraction(row[-1], d)
    return tuple(x)


def _support(tableau) -> frozenset[int]:
    """The columns with a nonzero value at the tableau's basic solution."""
    tab, _, basis = tableau
    return frozenset(bi for row, bi in zip(tab, basis) if row[-1])


def _phase2(start, cost):
    """max cost.x from the feasible basis ``start`` of ``_phase1``, which is
    copied, not changed; ``cost`` is integers.  -> the optimal tableau, or
    None when the objective is unbounded."""
    tab0, den0, basis0 = start
    tab = [list(row) for row in tab0]
    den = list(den0)
    basis = list(basis0)
    if _simplex_iterate(tab, den, basis, cost) == "unbounded":
        return None
    return tab, den, basis


# ---------------------------------------------------------------------------
# Bounded-variable wrapper.
# ---------------------------------------------------------------------------

def _to_standard(prog: BoxedLinearProgram):
    """Rewrite the closed relaxation as integer rows x = b, x >= 0.

    A variable x with a lower bound l becomes x = l + y, one with only an
    upper bound u becomes x = u - y, a free one x = y+ - y-, all new columns
    nonnegative; a variable with both bounds also gets the row y + s = u - l
    with a slack column s, after the rows of ``prog``.

    Returns (rows, ncols, decode, encode_obj, zero_cols), or None when a
    bound pair is contradictory.  Each row is (ints, d): the coefficients
    with the right-hand side last stand for ints / d, d > 0 the least such.
    ``decode`` maps a standard-form point back to original coordinates and
    ``encode_obj`` maps an objective to integer costs (a positive multiple).
    ``zero_cols[j, side]`` is the column that is zero exactly where
    variable j sits at that bound: y for a lower bound or an upper-only
    bound, s for the upper bound of a doubly bounded variable; an infinite
    bound has none.
    """
    terms: list[tuple[tuple[int, int], ...]] = []  # var -> ((col, sign), ...)
    offsets: list[Fraction] = []
    zero_cols: dict[tuple[int, str], int] = {}
    boxed: list[tuple[int, int, Fraction]] = []  # (var, col of y, u - l)
    ncols = 0
    for j, (lo, up) in enumerate(zip(prog.lower, prog.upper)):
        if lo is not None:
            if up is not None:
                if up < lo:
                    return None
                boxed.append((j, ncols, up - lo))
            zero_cols[j, "lower"] = ncols
            terms.append(((ncols, 1),))
            offsets.append(lo)
            ncols += 1
        elif up is not None:
            zero_cols[j, "upper"] = ncols
            terms.append(((ncols, -1),))
            offsets.append(up)
            ncols += 1
        else:
            terms.append(((ncols, 1), (ncols + 1, -1)))
            offsets.append(ZERO)
            ncols += 2
    slack0 = ncols
    ncols += len(boxed)
    rows = []
    for coeffs, b in zip(prog.eq_rows, prog.eq_rhs):
        nz = [(j, c) for j, c in enumerate(coeffs) if c]
        rhs = b - sum((c * offsets[j] for j, c in nz if offsets[j]), ZERO)
        d = math.lcm(rhs.denominator, *(c.denominator for _, c in nz))
        ints = [0] * (ncols + 1)
        for j, c in nz:
            v = c.numerator * (d // c.denominator)
            for col, sg in terms[j]:
                ints[col] = v if sg > 0 else -v
        ints[-1] = rhs.numerator * (d // rhs.denominator)
        rows.append((ints, d))
    for k, (j, ycol, width) in enumerate(boxed):
        zero_cols[j, "upper"] = slack0 + k
        d = width.denominator
        ints = [0] * (ncols + 1)
        ints[ycol] = ints[slack0 + k] = d
        ints[-1] = width.numerator
        rows.append((ints, d))

    def decode(x: Sequence[Fraction]) -> Vec:
        pt = []
        for off, term in zip(offsets, terms):
            for col, sg in term:
                off += x[col] if sg > 0 else -x[col]
            pt.append(off)
        return tuple(pt)

    def encode_obj(coeffs: Sequence[Fraction]) -> list[int]:
        d = math.lcm(*(c.denominator for c in coeffs))
        cost = [0] * ncols
        for c, term in zip(coeffs, terms):
            if c:
                v = c.numerator * (d // c.denominator)
                for col, sg in term:
                    cost[col] = v if sg > 0 else -v
        return cost

    return rows, ncols, decode, encode_obj, zero_cols


def _prepare(prog: BoxedLinearProgram):
    """(phase-1 tableau, ncols, decode, encode_obj, zero_cols) of the closed
    relaxation in standard form, or None when it is infeasible."""
    std = _to_standard(prog)
    if std is None:
        return None
    rows, ncols, decode, encode_obj, zero_cols = std
    start = _phase1(rows, ncols)
    return None if start is None else (start, ncols, decode, encode_obj,
                                       zero_cols)


def _optimize_closed(prog: BoxedLinearProgram, coeffs: Sequence[Fraction],
                     maximize: bool):
    """(status, value, witness, LpResult.tableau) for the closed relaxation."""
    prepared = _prepare(prog)
    if prepared is None:
        return "infeasible", None, None, None
    start, ncols, decode, encode_obj, zero_cols = prepared
    cost = encode_obj(coeffs if maximize else [-c for c in coeffs])
    end = _phase2(start, cost)
    if end is None:
        return "unbounded", None, None, None
    witness = decode(_basic_solution(*end, ncols))
    value = sum((c * witness[j] for j, c in enumerate(coeffs) if c), ZERO)
    return "optimal", value, witness, (end, cost, ncols, zero_cols)


def feasible_point(prog: BoxedLinearProgram) -> Vec | None:
    """A point of the closed relaxation (the phase-1 vertex), or None."""
    prepared = _prepare(prog)
    if prepared is None:
        return None
    start, ncols, decode, _, _ = prepared
    return decode(_basic_solution(*start, ncols))


def lp_optimize(prog: BoxedLinearProgram, sense: str) -> LpResult:
    """Exact optimum of the closed relaxation.

    ``attained`` is False only when some open bound is active at *every*
    optimal point, i.e. the optimum is not attained by the half-open set.
    """
    if prog.objective is None:
        raise InputError("lp_optimize requires an objective")
    if sense not in ("min", "max"):
        raise InputError(f"unknown sense {sense!r}")
    status, value, witness, tableau = _optimize_closed(
        prog, prog.objective, maximize=(sense == "max"))
    if status != "optimal":
        return LpResult(status, None, None, False)
    open_bounds = _open_bounds(prog)
    attained = not open_bounds or not any(
        _bound_sweep(open_bounds, *_optimal_face(tableau)))
    return LpResult("optimal", value, witness, attained, tableau)


def _open_bounds(prog: BoxedLinearProgram) -> list[tuple[int, str]]:
    out = [(j, "lower") for j in range(prog.nvars) if prog.lower_open[j]]
    return out + [(j, "upper") for j in range(prog.nvars) if prog.upper_open[j]]


def strict_feasible(prog: BoxedLinearProgram) -> bool:
    """Whether some point satisfies the equalities, all closed bounds, and
    every open bound strictly."""
    prepared = _prepare(prog)
    if prepared is None:
        return False
    start, ncols, _, _, zero_cols = prepared
    return not any(_bound_sweep(_open_bounds(prog), start, ncols, zero_cols))


def forced_tight(prog: BoxedLinearProgram,
                 optimum: LpResult | None = None) -> TightnessReport:
    """Which variables sit at a bound in every feasible point; given the
    ``lp_optimize`` result of ``prog``, in every optimal point, swept from
    its optimal tableau.  InputError for a result that is not an optimum."""
    n = prog.nvars
    bounds = [(j, side) for j in range(n) for side in ("lower", "upper")]
    if optimum is None:
        prepared = _prepare(prog)
        if prepared is None:
            return TightnessReport(False, (False,) * n, (False,) * n)
        start, ncols, _, _, zero_cols = prepared
        face = start, ncols, zero_cols
    elif optimum.tableau is None:
        raise InputError("forced_tight needs an optimal lp_optimize result")
    else:
        face = _optimal_face(optimum.tableau)
    flags = list(_bound_sweep(bounds, *face))
    return TightnessReport(True, tuple(flags[0::2]), tuple(flags[1::2]))


def _optimal_face(tableau):
    """(start, ncols, zero_cols, held) of ``_bound_sweep`` over the optimal
    face of an ``LpResult.tableau``: the columns of positive reduced cost
    are ``held``, and zeroed out in the optimal tableau ``start``."""
    (tab, den, basis), cost, ncols, zero_cols = tableau
    held = frozenset(j for j, z in enumerate(
        _reduced_costs(tab, den, basis, cost)) if z)
    start = ([[0 if j in held else x for j, x in enumerate(row)]
              for row in tab], den, basis)
    return start, ncols, zero_cols, held


def _bound_sweep(bounds: Sequence[tuple[int, str]], start, ncols: int,
                 zero_cols, held=frozenset()):
    """For each (variable, "lower" | "upper") in ``bounds``, whether every
    point of the system of the feasible tableau ``start`` attains that
    bound (False for an infinite bound), as a lazy iterator.  The columns
    in ``held`` are zero in ``start``, so their bounds are forced.

    Each bound costs at most one warm-started phase 2 from ``start``, which
    maximizes the bound's zero column of the standard form: the bound is
    forced iff that column stays zero.  A known feasible point (the start
    vertex or an earlier optimum) is kept as the set of columns with a
    nonzero basic value, and a bound is skipped when one of them leaves it.
    """
    known = [_support(start)]

    def forced(j: int, side: str) -> bool:
        col = zero_cols.get((j, side))
        if col in held:
            return True
        if col is None or any(col in s for s in known):
            return False
        cost = [0] * ncols
        cost[col] = 1
        end = _phase2(start, cost)
        if end is None:
            return False
        known.append(_support(end))
        return col not in known[-1]

    return (forced(j, side) for j, side in bounds)


# ---------------------------------------------------------------------------
# Incremental problem builder.
# ---------------------------------------------------------------------------

class LpBuilder:
    """Assemble a BoxedLinearProgram from sparse rows and typed variables.

    Inequalities are turned into equalities with fresh slack variables, so
    downstream code can state constraints in the natural direction.
    """

    def __init__(self):
        self._lower: list[Bound] = []
        self._upper: list[Bound] = []
        self._lopen: list[bool] = []
        self._uopen: list[bool] = []
        self._rows: list[dict[int, Fraction]] = []
        self._rhs: list[Fraction] = []

    @property
    def nvars(self) -> int:
        return len(self._lower)

    def add_var(self, lower: Bound = None, upper: Bound = None,
                lower_open: bool = False, upper_open: bool = False) -> int:
        self._lower.append(None if lower is None else frac(lower))
        self._upper.append(None if upper is None else frac(upper))
        self._lopen.append(lower_open)
        self._uopen.append(upper_open)
        return len(self._lower) - 1

    def add_eq(self, coeffs: dict[int, Fraction], rhs) -> None:
        self._rows.append({j: frac(c) for j, c in coeffs.items() if c != 0})
        self._rhs.append(frac(rhs))

    def add_le(self, coeffs: dict[int, Fraction], rhs) -> None:
        s = self.add_var(lower=0)
        row = dict(coeffs)
        row[s] = ONE
        self.add_eq(row, rhs)

    def add_ge(self, coeffs: dict[int, Fraction], rhs) -> None:
        s = self.add_var(lower=0)
        row = {j: -frac(c) for j, c in coeffs.items()}
        row[s] = ONE
        self.add_eq(row, -frac(rhs))

    def build(self, objective: dict[int, Fraction] | None = None) -> BoxedLinearProgram:
        n = self.nvars
        rows = tuple(tuple(r.get(j, ZERO) for j in range(n)) for r in self._rows)
        obj = None
        if objective is not None:
            obj = tuple(frac(objective.get(j, ZERO)) for j in range(n))
        return BoxedLinearProgram(
            rows, tuple(self._rhs), tuple(self._lower), tuple(self._upper),
            tuple(self._lopen), tuple(self._uopen), obj)


# ---------------------------------------------------------------------------
# Lattice points.
# ---------------------------------------------------------------------------

# Most points one step of ``lattice_walk`` may test: the prefixes it has
# kept times the values of the next coordinate, in a dominant box or a
# window alike (with no rows the last step counts the whole box).  The
# presets and benchmark jobs test at most 5,915 points in one step (a rank-4
# box at radius 6), the Sp(6) V^15 tail window 14,415; a step past the cap
# is refused before it is walked rather than walked for minutes.
LATTICE_BOX_CAP = 20_000


def check_box_size(count: int) -> None:
    """InputError when a box of ``count`` lattice points exceeds the cap."""
    if count > LATTICE_BOX_CAP:
        raise InputError(f"lattice box holds {count} points, above the cap "
                         f"of {LATTICE_BOX_CAP}")


def _passes(p: tuple[int, ...], rows) -> bool:
    for c, signs in rows:
        s = sum(map(mul, c, p))
        if (s > 0) - (s < 0) not in signs:
            return False
    return True


def lattice_walk(spans: Sequence[range], rows=(), shell: int | None = None
                 ) -> list[tuple[int, ...]]:
    """The points of the box spans[0] x spans[1] x ... (ranges of step 1)
    that pass every sign row, in lexicographic order, as int tuples.  A row
    (c, signs), c an int tuple, passes p when the sign of <c, p> is in
    ``signs``.

    The walk sets one coordinate at a time and drops a prefix as soon as a
    row whose last nonzero coordinate it has just set fails (a zero row is
    decided on the empty prefix).  With ``shell`` = b the last coordinate
    takes only -b and b after a prefix with no entry of absolute value b.
    InputError when a step would test more than ``LATTICE_BOX_CAP`` points.
    """
    due = [[] for _ in range(len(spans) + 1)]  # rows by coordinates set
    for row in rows:
        last = max((k + 1 for k, x in enumerate(row[0]) if x), default=0)
        due[last].append(row)
    points = [()] if _passes((), due[0]) else []
    for k, span in enumerate(spans, 1):
        # not len(span), which raises OverflowError past sys.maxsize
        check_box_size(len(points) * max(0, span.stop - span.start))
        ends = (-shell, shell) if shell and k == len(spans) else None
        points = [q + (x,) for q in points for x in
                  (ends if ends and shell not in map(abs, q) else span)]
        points = [p for p in points if _passes(p, due[k])]
    return points


def enumerate_lattice(predicate: Callable[[tuple[int, ...]], bool],
                      box: Sequence[tuple[Fraction, Fraction]],
                      coset=None, rows=()) -> list[tuple[int, ...]]:
    """Integer points (optionally restricted to a sublattice coset) inside a
    finite coordinate box that pass the sign ``rows`` of ``lattice_walk``
    and ``predicate``, in lexicographic order, as int tuples.  InputError
    when a step of the walk would test more than ``LATTICE_BOX_CAP`` points.

    ``coset`` is any object exposing ``contains(point) -> bool``.  The coset
    test and ``predicate`` see the int tuples, so integer arithmetic decides
    each point.
    """
    spans = []
    for lo, hi in box:
        if lo is None or hi is None:
            raise InputError("enumerate_lattice needs a finite bounding box")
        spans.append(range(math.ceil(lo), math.floor(hi) + 1))
    points = lattice_walk(spans, rows)
    if coset is not None:
        points = filter(coset.contains, points)
    return list(filter(predicate, points))


# Most candidate vectors ``lex_minimal_integral`` may test, its one guard.
# The shells up to sup-norm b hold (2b + 1)^n vectors and each costs a
# predicate call unless a sign row drops it first; the cap counts them all.
# The searches of the presets, tests and benchmark jobs stop within 343
# (rank 3, sup-norm 3), and a miss stops at sup-norm 4,999 in rank 1 and 49
# in rank 2.
INTEGRAL_CANDIDATE_CAP = 10_000


def integral_shell(n: int, bound: int, rows=()) -> list[tuple[int, ...]]:
    """The integral vectors of length n first reached at sup-norm ``bound``
    that pass the sign ``rows`` of ``lattice_walk``, in lexicographic order,
    as int tuples: all of [-1, 1]^n for bound 1 (the zero vector included),
    else those with some entry of absolute value ``bound``."""
    if n == 0:
        return []
    return lattice_walk([range(-bound, bound + 1)] * n, rows,
                        bound if bound > 1 else None)


def lex_minimal_integral(n: int, ok: Callable[[tuple[int, ...]], bool],
                         rows=()) -> tuple[int, ...]:
    """First integral vector of length n, by growing sup-norm then
    lexicographic order, that passes the sign ``rows`` of ``lattice_walk``
    and the predicate, as an int tuple; InputError when reaching the next
    shell would take the candidates past ``INTEGRAL_CANDIDATE_CAP``, or when
    n is 0.  Each candidate that passes the rows is tested once."""
    if n == 0:
        raise InputError("no nonzero vector exists in rank 0")
    for bound in itertools.count(1):
        count = (2 * bound + 1) ** n
        if count > INTEGRAL_CANDIDATE_CAP:
            raise InputError(
                f"integral search up to sup-norm {bound} tests {count} "
                f"candidates, above the cap of {INTEGRAL_CANDIDATE_CAP}")
        for v in integral_shell(n, bound, rows):
            if ok(v):
                return v
