"""Weight-multiset analysis of a representation.

A representation is recorded purely by its torus weight multiset, as
(weight, multiplicity) pairs.  The expanded weight list fixes index identity
for the sign partitions used across the whole pipeline; ``RepSpec.expanded``
alone decides its order: sorted by weight with input order breaking ties.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

from .linalg import (Mat, Vec, ZERO, ONE, int_row, is_integral, is_zero_vec,
                     line_decomposition, nullspace, rank as mat_rank, solve,
                     vdot, vneg, vec, zero_vec)
from .linprog import InputError, LpBuilder, feasible_point, lex_minimal_integral
from .rootdata import RootDatum, check_length, full_levi, reflect


@dataclass(frozen=True)
class RepSpec:
    """Weight multiset of a representation of a catalog group: it stores
    (weight, multiplicity) pairs, each weight an int tuple in section form,
    and derives the expanded weight list from them."""

    datum: RootDatum
    weights: tuple[tuple[tuple[int, ...], int], ...]

    @cached_property
    def expanded(self) -> tuple[tuple[int, ...], ...]:
        """Each weight once per multiplicity, sorted (stable)."""
        return tuple(sorted(w for w, m in self.weights for _ in range(m)))

    @property
    def dim(self) -> int:
        return len(self.expanded)

    @cached_property
    def _hash(self) -> int:
        return hash((self.datum, self.weights))

    def __hash__(self) -> int:
        # computed once: every lookup of the process-wide symmetric-power
        # tables hashes the representation
        return self._hash


# Largest dimension (multiplicities summed) of a representation.  The tests
# and benchmark jobs build at most 108, and 10,000 (GL(1), +-1 each 5,000
# times) takes 2.1 s on ``nccr``; past the cap no weight list is expanded.
REP_DIM_CAP = 10_000


def rep_spec(datum: RootDatum, weights) -> RepSpec:
    """Build a RepSpec from (weight, multiplicity) pairs.  InputError for a
    weight of the wrong length or off the lattice, or multiplicities summing
    past ``REP_DIM_CAP``."""
    pairs = []
    for w, m in weights:
        w = datum.normalize_weight(vec(w))
        if not is_integral(w):
            raise InputError(f"weight {w} is not a lattice element")
        w = tuple(map(int, w))
        m = int(m)
        if m < 1:
            raise InputError("multiplicities must be >= 1")
        pairs.append((w, m))
    dim = sum(m for _, m in pairs)
    if dim > REP_DIM_CAP:
        raise InputError(f"representation of dimension {dim} is above the "
                         f"cap of {REP_DIM_CAP}")
    return RepSpec(datum, tuple(pairs))


@dataclass(frozen=True)
class SignPartition:
    """Indices of the expanded weight list split by the sign of the pairing
    with a one-parameter subgroup."""

    t_plus: tuple[int, ...]
    t_zero: tuple[int, ...]
    t_minus: tuple[int, ...]


def weight_signs(rep: RepSpec, lam) -> SignPartition:
    """The sign of each weight's pairing with lam (ints or Fractions), read
    on lam's int row."""
    check_length(rep.datum, lam, "coweight")
    row = int_row(lam)[0]
    plus, zero, minus = [], [], []
    for i, w in enumerate(rep.expanded):
        s = sum(map(mul, row, w))
        (plus if s > 0 else minus if s < 0 else zero).append(i)
    return SignPartition(tuple(plus), tuple(zero), tuple(minus))


# ---------------------------------------------------------------------------
# Stability and destabilizers.
# ---------------------------------------------------------------------------

def _annihilator_directions(rep: RepSpec) -> list[Vec]:
    """Basis of {sigma in Y(T)_R : <sigma, beta_i> = 0 for all i}."""
    rows = [w for w, _ in rep.weights] + list(rep.datum.central_directions)
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
    sigma_annihilates_all: bool

    @property
    def case(self) -> str:
        """HasStablePoint, CentralAttractor or TrivialActingSubgroup."""
        if self.sigma is None:
            return "HasStablePoint"
        return "TrivialActingSubgroup" if is_zero_vec(self.nu) \
            else "CentralAttractor"


def find_destabilizer(rep: RepSpec) -> DestabilizerReport:
    datum = rep.datum
    n = datum.rank
    if has_t_stable_point(rep):
        return DestabilizerReport(None, zero_vec(n), False)
    values = [w for w, _ in rep.weights]
    # sigma is nonzero, orthogonal to the central directions and pairs
    # nonpositively with each weight
    rows = [(c, (0,)) for c in datum.central_directions]
    rows += [(w, (-1, 0)) for w in values]
    sigma = lex_minimal_integral(n, any, rows)
    nu = full_levi(datum).weyl_average(sigma)
    annihilates = all(vdot(sigma, w) == 0 for w in values)
    return DestabilizerReport(sigma, nu, annihilates)


# ---------------------------------------------------------------------------
# Quasi-symmetry and coinvariants.
# ---------------------------------------------------------------------------

def is_quasi_symmetric(rep: RepSpec) -> bool:
    """Whether the weight sum along every line through the origin vanishes:
    the sum on line l is (a - b) l in ``line_decomposition``."""
    return all(a == b for _, a, b in line_decomposition(rep.weights).values())


def coinvariant_rep(rep: RepSpec, lam: Vec) -> RepSpec:
    """Restriction of the weight multiset to the lam-neutral weights (the
    coinvariants for the one-parameter action, as a Levi representation),
    read off ``weight_signs``; its expanded list generates every window."""
    neutral = {rep.expanded[i] for i in weight_signs(rep, lam).t_zero}
    return RepSpec(rep.datum,
                   tuple((w, m) for w, m in rep.weights if w in neutral))


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

def defining_weights(datum: RootDatum) -> list[tuple[int, ...]]:
    """Weights of the defining representation of a simple catalog factor."""
    label = datum.label
    n = datum.rank
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    if label.startswith(("GL", "SL")):
        return units
    if label.startswith("Sp"):
        return units + [vneg(u) for u in units]
    raise InputError(f"no defining representation for {label}")


# Most entries the symmetric-power program may write in one build: the
# top + 1 degree tables, then one per (entry, degree step) update, each pass
# over a weight counted before it runs.  The largest build of the golden
# presets and benchmark jobs counts 9,086 (degree 6); past the cap a
# ``sym_power`` piece or a ``degree_bound`` is refused before the pass that
# would cross it, not left to exhaust memory.
SYM_TABLE_CAP = 200_000


def _check_sym_work(work: int, top: int) -> None:
    if work > SYM_TABLE_CAP:
        raise InputError(f"symmetric powers up to degree {top} need at least "
                         f"{work} table entries, above the cap of "
                         f"{SYM_TABLE_CAP}")


def lattice_ints(v: Vec, what: str) -> tuple[int, ...]:
    """The int tuple of a lattice vector; InputError off the lattice."""
    if not is_integral(v):
        raise InputError(f"{what} {list(map(str, v))} is not a lattice element")
    return tuple(x.numerator for x in v)


def sym_power_layers(pairs, rank: int,
                     top: int) -> list[dict[tuple[int, ...], int]]:
    """Weight counts of Sym^0..Sym^top of the (weight, multiplicity) pairs,
    one dict of int-tuple weights per degree, from one degree-tracking
    dynamic program.  The work is counted before it is allocated;
    InputError for a negative degree, past ``SYM_TABLE_CAP`` entries, or
    when a weight is off the lattice."""
    if top < 0:
        raise InputError("symmetric power degree must be >= 0")
    work = top + 1
    _check_sym_work(work, top)
    steps = [lattice_ints(w, "weight") for w, _ in pairs]
    layers: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
    layers[0][(0,) * rank] = 1
    for step, (_, m) in zip(steps, pairs):
        work += sum(len(layer) * (top - j + 1)
                    for j, layer in enumerate(layers))
        _check_sym_work(work, top)
        # k copies of w: shift k*w, and C(k+m-1, m-1) monomials among m copies
        shifts = [tuple(k * x for x in step) for k in range(1, top + 1)]
        counts = [math.comb(k + m - 1, m - 1) for k in range(1, top + 1)]
        nxt: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
        for j, layer in enumerate(layers):
            for wt, cnt in layer.items():
                target = nxt[j]
                target[wt] = target.get(wt, 0) + cnt
                for shift, c, target in zip(shifts, counts, nxt[j + 1:]):
                    key = tuple(map(add, wt, shift))
                    target[key] = target.get(key, 0) + cnt * c
        layers = nxt
    return layers


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
                if int(m) < 1:
                    raise InputError("multiplicities must be >= 1")
                counts[datum.normalize_weight(vec(w))] += int(m)
        elif kind == "vector_power":
            for w in defining_weights(datum):
                counts[datum.normalize_weight(w)] += int(arg)
        elif kind == "dual_vector_power":
            for w in defining_weights(datum):
                counts[datum.normalize_weight(vneg(w))] += int(arg)
        elif kind == "sym_power":
            base = [(w, 1) for w in defining_weights(datum)]
            for w, m in sym_power_layers(base, datum.rank, int(arg))[-1].items():
                counts[datum.normalize_weight(w)] += m
        elif kind == "trivial":
            counts[(0,) * datum.rank] += int(arg)
        else:
            raise InputError(f"unknown construction piece {kind!r}")
    rep = rep_spec(datum, sorted(counts.items()))
    _check_weyl_symmetric(rep)
    return rep


def _check_weyl_symmetric(rep: RepSpec) -> None:
    """InputError unless every simple reflection keeps each weight's
    multiplicity, reflecting the weights' int tuples in the simple roots
    of the datum by ``rootdata.reflect``."""
    datum = rep.datum
    simple = full_levi(datum).simple_roots
    mults = dict(rep.weights)
    for w, m in mults.items():
        for a in simple:
            count = mults.get(reflect(datum, a, w), 0)
            if count != m:
                raise InputError(f"weights are not Weyl-symmetric: weight "
                                 f"{list(map(str, w))} has multiplicity {m} "
                                 f"but its reflection has {count}")
