"""Weight-multiset analysis of a representation.

A representation is recorded purely by its torus weight multiset.  The
expanded weight list fixes index identity for the sign partitions used across
the whole pipeline: entries are sorted by weight (lexicographically) with
input order breaking ties, once, at construction.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .linalg import (Mat, Vec, ZERO, ONE, int_row, is_integral, is_zero_vec,
                     mat_vec, nullspace, primitive, rank as mat_rank, solve,
                     vadd, vdot, vneg, vscale, vec, zero_vec)
from .linprog import InputError, LpBuilder, feasible_point, lex_minimal_integral
from .rootdata import RootDatum, full_levi, pairing, reflect


@dataclass(frozen=True)
class RepSpec:
    """Weight multiset of a representation of a catalog group."""

    datum: RootDatum
    weights: tuple[tuple[Vec, int], ...]
    expanded: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.expanded)

    @cached_property
    def _hash(self) -> int:
        return hash((self.datum, self.weights, self.expanded))

    def __hash__(self) -> int:
        # computed once: every lookup of the process-wide symmetric-power
        # tables hashes the representation
        return self._hash


def _checked_weight(datum: RootDatum, w) -> Vec:
    """w normalized modulo the quotient directions, once its length has been
    checked against the rank."""
    w = vec(w)
    if len(w) != datum.rank:
        raise InputError(f"weight has {len(w)} entries, but "
                         f"{datum.label} has rank {datum.rank}")
    return datum.normalize_weight(w)


# Largest dimension (multiplicities summed) of a representation.  The tests
# and benchmark jobs build at most 108, and 10,000 (GL(1), +-1 each 5,000
# times) takes 2.1 s on ``nccr``; past the cap no weight list is expanded.
REP_DIM_CAP = 10_000


def rep_spec(datum: RootDatum, weights) -> RepSpec:
    """Build a RepSpec from (weight, multiplicity) pairs.  InputError when
    the multiplicities sum past ``REP_DIM_CAP``."""
    pairs = []
    for w, m in weights:
        w = _checked_weight(datum, w)
        if not is_integral(w):
            raise InputError(f"weight {w} is not a lattice element")
        m = int(m)
        if m < 1:
            raise InputError("multiplicities must be >= 1")
        pairs.append((w, m))
    dim = sum(m for _, m in pairs)
    if dim > REP_DIM_CAP:
        raise InputError(f"representation of dimension {dim} is above the "
                         f"cap of {REP_DIM_CAP}")
    expanded = []
    for w, m in pairs:
        expanded.extend([w] * m)
    expanded.sort()  # stable: ties keep input order
    return RepSpec(datum, tuple(pairs), tuple(expanded))


@dataclass(frozen=True)
class SignPartition:
    """Indices of the expanded weight list split by the sign of the pairing
    with a one-parameter subgroup."""

    t_plus: tuple[int, ...]
    t_zero: tuple[int, ...]
    t_minus: tuple[int, ...]


def weight_signs(rep: RepSpec, lam: Vec) -> SignPartition:
    plus, zero, minus = [], [], []
    for i, w in enumerate(rep.expanded):
        s = pairing(lam, w)
        (plus if s > 0 else minus if s < 0 else zero).append(i)
    return SignPartition(tuple(plus), tuple(zero), tuple(minus))


# ---------------------------------------------------------------------------
# Stability and destabilizers.
# ---------------------------------------------------------------------------

def _annihilator_directions(rep: RepSpec) -> list[Vec]:
    """Basis of {sigma in Y(T)_R : <sigma, beta_i> = 0 for all i}."""
    rows = [list(w) for w, _ in rep.weights]
    rows += [list(c) for c in rep.datum.central_directions]
    return nullspace(rows, rep.datum.rank)


def _destabilizer_lp_feasible(rep: RepSpec) -> bool:
    """Whether some sigma has all pairings <= 0 with total pairing < 0."""
    b = LpBuilder()
    n = rep.datum.rank
    sig = [b.add_var() for _ in range(n)]
    for c in rep.datum.central_directions:
        b.add_eq({sig[k]: c[k] for k in range(n)}, 0)
    total: Counter = Counter()
    for w, m in rep.weights:
        b.add_le({sig[k]: w[k] for k in range(n)}, 0)
        for k in range(n):
            total[sig[k]] += m * w[k]
    b.add_eq(dict(total), -1)
    return feasible_point(b.build()) is not None


def has_t_stable_point(rep: RepSpec) -> bool:
    """True iff no nonzero one-parameter subgroup pairs nonpositively with
    every weight, i.e. the weights positively span the whole space."""
    if rep.datum.rank == len(rep.datum.quotient_pairs) == 0 and not rep.weights:
        return True
    if _annihilator_directions(rep):
        return False
    return not _destabilizer_lp_feasible(rep)


@dataclass(frozen=True)
class DestabilizerReport:
    """Outcome of the destabilizer search.

    ``sigma`` is a canonical nonzero subgroup with all pairings <= 0 (absent
    when a torus-stable point exists); ``nu`` is its Weyl average.  When nu is
    nonzero a central attracting subgroup exists; when nu vanishes a nontrivial
    connected subgroup acts trivially on the relevant directions.  Both facts
    can hold at once, so the sigma-annihilates-everything flag is reported
    separately rather than folded into the case tag.
    """

    sigma: Vec | None
    nu: Vec
    case: str  # "HasStablePoint" | "TrivialActingSubgroup" | "CentralAttractor"
    sigma_annihilates_all: bool


def find_destabilizer(rep: RepSpec) -> DestabilizerReport:
    datum = rep.datum
    n = datum.rank
    if has_t_stable_point(rep):
        return DestabilizerReport(None, zero_vec(n), "HasStablePoint", False)
    values = [w for w, _ in rep.weights]
    # sigma is nonzero, orthogonal to the central directions and pairs
    # nonpositively with each weight (taken times a positive integer)
    rows = [(c, (0,)) for c, _ in datum.quotient_ints]
    rows += [(int_row(w)[0], (-1, 0)) for w in values]
    sigma = lex_minimal_integral(n, any, rows)
    proj = full_levi(datum).invariant_projector()
    nu = mat_vec(proj, sigma)
    case = "CentralAttractor" if not is_zero_vec(nu) else "TrivialActingSubgroup"
    annihilates = all(vdot(sigma, w) == 0 for w in values)
    return DestabilizerReport(sigma, nu, case, annihilates)


# ---------------------------------------------------------------------------
# Quasi-symmetry and coinvariants.
# ---------------------------------------------------------------------------

def is_quasi_symmetric(rep: RepSpec) -> bool:
    """Whether the weight sum along every line through the origin vanishes."""
    lines: dict[Vec, Vec] = {}
    for w, m in rep.weights:
        if is_zero_vec(w):
            continue
        key = primitive(w)
        acc = lines.get(key, zero_vec(rep.datum.rank))
        lines[key] = vadd(acc, vscale(Fraction(m), w))
    return all(is_zero_vec(s) for s in lines.values())


def coinvariant_rep(rep: RepSpec, lam: Vec) -> RepSpec:
    """Restriction of the weight multiset to the lam-neutral weights (the
    coinvariants for the one-parameter action, as a Levi representation),
    read off ``weight_signs``; its expanded list generates every window."""
    expanded = tuple(rep.expanded[i] for i in weight_signs(rep, lam).t_zero)
    neutral = set(expanded)
    return RepSpec(rep.datum,
                   tuple((w, m) for w, m in rep.weights if w in neutral),
                   expanded)


# ---------------------------------------------------------------------------
# Lattice coset twists.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistData:
    """A coset of a finite-index sublattice of the weight lattice.

    ``sublattice_basis`` holds the generating vectors (one per row); the coset
    is offset + span_Z(basis).  chi is in it iff B^-T (chi - offset) is
    integral, for B the basis matrix: an integer test against d * B^-T,
    built once per coset.
    """

    sublattice_basis: Mat
    coset_offset: Vec

    def __post_init__(self):
        n = len(self.coset_offset)
        if len(self.sublattice_basis) != n:
            raise InputError("sublattice basis must be square (finite index)")
        for row in self.sublattice_basis:
            if len(row) != n or not is_integral(row):
                raise InputError("sublattice basis must be integral")
        if not is_integral(self.coset_offset):
            raise InputError("coset offset must be integral")
        if mat_rank([list(r) for r in self.sublattice_basis]) != n:
            raise InputError("sublattice basis must have full rank")

    @cached_property
    def _integer_inverse(self) -> tuple[tuple[int, ...], list[list[int]], int]:
        """(offset, rows, d): the offset as ints and the int rows of
        d * B^-T for the least d > 0 making them integral."""
        n = len(self.coset_offset)
        basis_t = [vec(self.sublattice_basis[j][i] for j in range(n))
                   for i in range(n)]
        columns = [solve(basis_t, [ONE if i == k else ZERO for i in range(n)])
                   for k in range(n)]
        ints, d = int_row([columns[k][i] for i in range(n) for k in range(n)])
        offset = tuple(int(o) for o in self.coset_offset)
        return offset, [ints[i * n:(i + 1) * n] for i in range(n)], d

    def contains(self, chi: Vec) -> bool:
        """Whether chi (ints or Fractions) lies in the coset.  A non-integral
        chi is not: B is integral, so an integral B^-T (chi - offset) would
        make chi - offset integral."""
        offset, rows, d = self._integer_inverse
        diff = [t - o for t, o in zip(chi, offset, strict=True)]
        return all(sum(map(mul, row, diff)) % d == 0 for row in rows)


def trivial_twist(rank: int) -> TwistData:
    basis = tuple(tuple(ONE if i == j else ZERO for j in range(rank))
                  for i in range(rank))
    return TwistData(basis, zero_vec(rank))


def twist_member(t: TwistData, chi: Vec) -> bool:
    chi = vec(chi)
    if not is_integral(chi):
        raise InputError("twist membership is defined for lattice weights")
    return t.contains(chi)


# ---------------------------------------------------------------------------
# Standard constructions (used by presets and the CLI config).
# ---------------------------------------------------------------------------

def defining_weights(datum: RootDatum) -> list[Vec]:
    """Weights of the defining representation of a simple catalog factor."""
    label = datum.label
    n = datum.rank
    if label.startswith(("GL", "SL")):
        return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    if label.startswith("Sp"):
        units = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
        return units + [vneg(u) for u in units]
    raise InputError(f"no defining representation for {label}")


# Most weight additions a ``sym_power`` piece may make: each of the
# C(n + d - 1, d) monomials in the n defining weights is a sum of d of them.
# The largest piece of the tests, golden presets and benchmark jobs makes 20
# (5 monomials of degree 4); past the cap a piece is refused before the
# enumeration starts.
SYM_PIECE_CAP = 100_000


def sym_power_weight_counts(base: list[Vec], d: int) -> Counter:
    """Weight multiset of the d-th symmetric power of a weight list.
    InputError when it needs more than ``SYM_PIECE_CAP`` weight additions."""
    monomials = math.comb(len(base) + d - 1, d)
    if monomials * d > SYM_PIECE_CAP:
        raise InputError(f"sym_power of degree {d} sums {monomials} monomials "
                         f"of {d} weights each, above the cap of "
                         f"{SYM_PIECE_CAP} weight additions")
    counts: Counter = Counter()
    if d == 0:
        counts[zero_vec(len(base[0]) if base else 0)] = 1
        return counts
    for combo in itertools.combinations_with_replacement(range(len(base)), d):
        total = base[combo[0]]
        for k in combo[1:]:
            total = vadd(total, base[k])
        counts[total] += 1
    return counts


def construct_rep(datum: RootDatum, pieces) -> RepSpec:
    """Assemble a representation from construction pieces.

    Each piece is one of
      ("weights", [(weight, mult), ...])
      ("vector_power", h)          h copies of the defining representation
      ("sym_power", d)             d-th symmetric power of the defining rep
      ("dual_vector_power", h)     h copies of the dual defining rep
      ("trivial", c)               c copies of the trivial character

    The assembled multiset must be Weyl-symmetric: every simple reflection
    keeps each weight's multiplicity.
    """
    counts: Counter = Counter()
    for piece in pieces:
        kind, arg = piece
        if kind == "weights":
            for w, m in arg:
                counts[_checked_weight(datum, w)] += int(m)
        elif kind == "vector_power":
            for w in defining_weights(datum):
                counts[datum.normalize_weight(w)] += int(arg)
        elif kind == "dual_vector_power":
            for w in defining_weights(datum):
                counts[datum.normalize_weight(vneg(w))] += int(arg)
        elif kind == "sym_power":
            for w, m in sym_power_weight_counts(defining_weights(datum), int(arg)).items():
                counts[datum.normalize_weight(w)] += m
        elif kind == "trivial":
            counts[zero_vec(datum.rank)] += int(arg)
        else:
            raise InputError(f"unknown construction piece {kind!r}")
    rep = rep_spec(datum, sorted(counts.items()))
    _check_weyl_symmetric(rep)
    return rep


def _check_weyl_symmetric(rep: RepSpec) -> None:
    """InputError unless every simple reflection keeps each weight's
    multiplicity.  The weights are lattice elements, so this runs on their
    int tuples through the datum's integer reflections."""
    mults = {tuple(x.numerator for x in w): m for w, m in rep.weights}
    reflections = full_levi(rep.datum).reflections
    for w, m in mults.items():
        for r in reflections:
            count = mults.get(reflect(r, w), 0)
            if count != m:
                raise InputError(f"weights are not Weyl-symmetric: weight "
                                 f"{list(map(str, w))} has multiplicity {m} "
                                 f"but its reflection has {count}")
