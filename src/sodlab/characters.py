"""Exact character arithmetic for catalog groups and their Levis.

Irreducible weight multiplicities come from the Freudenthal recursion over
the (Levi-)root system; symmetric powers from one degree-tracking dynamic
program per representation; Hom-block dimensions from Sym^d looked up at the
Weyl orbit of mu + rho, without building the product character.  Every Weyl
fact (dominant conjugate, orbit with signs) comes from the integer simple
reflections via `rootdata.descend` and `rootdata.orbit`; the group is never
enumerated.

Everything runs on int tuples: weights times a common denominator.  A table
holds its weights at one scale (the least common denominator D of the
representation's weights, D = 1 for every catalog representation); sorted
`Fraction` keys are built only when `entries` is read.  The Freudenthal walk
runs at the scale of chi, rho and the roots under the dot product, the
invariant form of every catalog group, with each root's a . a read once;
the Hom-block kernel is keyed at the scale of the Sym^d tables.  The Weyl
dimension is an integer product over the primitive integer rows of the
Levi's positive coroots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub

from .linalg import Vec, int_row, int_rows, vadd, vec
from .linprog import InputError
from .reps import RepSpec
from .rootdata import (LeviDatum, RootDatum, descend, full_levi, is_dominant,
                       orbit)

# Most entries the symmetric-power program may write in one build: the
# top + 1 degree tables, then one per (entry, degree step) update, each pass
# over a weight counted before it runs.  The largest build of the tests, golden presets and
# benchmark jobs counts 9,086 (degree 6); past the cap a `degree_bound` is
# refused before anything is allocated, not left to exhaust memory.
SYM_TABLE_CAP = 200_000


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Finite weight-multiplicity table in canonical section form.

    ``counts`` maps each weight times ``scale`` (a positive int) to its
    nonzero multiplicity; ``entries`` lists the weights as sorted `Fraction`
    tuples.  Tables are equal when their datum and entries are."""

    datum: RootDatum
    counts: dict[tuple[int, ...], int]
    scale: int

    @cached_property
    def entries(self) -> tuple[tuple[Vec, int], ...]:
        s = self.scale
        return tuple((tuple(Fraction(x, s) for x in w), m)
                     for w, m in sorted(self.counts.items()))

    def as_dict(self) -> dict[Vec, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return self.datum == other.datum and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


def _table(datum: RootDatum, d: dict[Vec, int]) -> CharacterTable:
    weights = [w for w, m in d.items() if m]
    ints, scale = int_rows(weights)
    return CharacterTable(datum, {k: d[w] for k, w in zip(ints, weights)},
                          scale)


@dataclass(frozen=True)
class GradedDims:
    """Dimension per degree, degrees strictly increasing."""

    entries: tuple[tuple[int, int], ...]

    def dims(self) -> list[int]:
        return [m for _, m in self.entries]


def weyl_dim(datum: RootDatum, chi: Vec, levi: LeviDatum | None = None) -> int:
    """Dimension of the irreducible with the given highest weight."""
    lv = levi or full_levi(datum)
    chi = datum.normalize_weight(vec(chi))
    if not is_dominant(datum, chi, lv):
        raise InputError(f"{chi} is not dominant for the Levi")
    # chi and rho at one scale, which cancels in the quotient, as does the
    # scale of each coroot row
    ints = int_row(chi + lv.rho_bar_lambda)[0]
    rho = ints[datum.rank:]
    shifted = list(map(add, ints, rho))
    num = den = 1
    for row in lv.weyl_rows:
        num *= sum(map(mul, row, shifted))
        den *= sum(map(mul, row, rho))
    value, rest = divmod(num, den)
    if rest:
        raise InputError("Weyl dimension came out non-integral")
    return value


def irr_character(datum: RootDatum, chi: Vec,
                  levi: LeviDatum | None = None) -> CharacterTable:
    """Weight multiplicities of the irreducible with highest weight chi,
    via the Freudenthal recursion over the (Levi-)root system."""
    lv = levi or full_levi(datum)
    chi = datum.normalize_weight(vec(chi))
    if not is_dominant(datum, chi, lv):
        raise InputError(f"{chi} is not dominant for the Levi")
    if not lv.phi_lambda_plus:
        return _table(datum, {chi: 1})
    # chi, rho and the positive roots as ints at one scale; the weights
    # alone need only ``base``, which divides it
    base = int_rows([chi, *lv.phi_lambda_plus])[1]
    (chi, rho, *roots), scale = int_rows(
        [chi, lv.rho_bar_lambda, *lv.phi_lambda_plus])
    # per root a: (a, a . a), so that (mu + k a) . a and the norm of
    # mu + k a + rho step in k without vector arithmetic
    root_data = [(a, sum(map(mul, a, a))) for a in roots]
    top = sum(x * x for x in map(add, chi, rho))
    # Every dominant weight below chi is reached from chi by subtracting
    # positive roots through dominant weights only (Stembridge, "The partial
    # order of dominant weights", 1998).  The walk stays inside chi's coset
    # of the root lattice, in which the dot product is consistent, so the
    # section normalization is applied to the lookup keys only.
    found, stack = {chi}, [chi]
    while stack:
        mu = stack.pop()
        for a in roots:
            below = tuple(map(sub, mu, a))
            if below not in found and is_dominant(datum, below, lv):
                found.add(below)
                stack.append(below)
    # any positive functional on the positive span orders the recursion
    dominants = sorted(found, key=lambda mu: (-sum(map(mul, mu, rho)), mu))
    normalize = datum.normalize_weight
    mults: dict[tuple[int, ...], int] = {normalize(chi): 1}
    for mu in dominants[1:]:
        shifted = tuple(map(add, mu, rho))
        norm = sum(x * x for x in shifted)
        denom = top - norm
        if denom == 0:  # impossible for dominant mu strictly below chi
            raise InputError("Freudenthal denominator vanished")
        rhs = 0
        for a, aa in root_data:
            pair = sum(map(mul, mu, a))
            cross = sum(map(mul, shifted, a))
            nu, k = mu, 1
            while True:
                nu = tuple(map(add, nu, a))
                m = mults.get(descend(lv, nu)[0], 0)
                if m == 0 and norm + k * (2 * cross + k * aa) > top:
                    break
                rhs += m * (pair + k * aa)
                k += 1
        val, rest = divmod(2 * rhs, denom)
        if rest:
            raise InputError("Freudenthal recursion produced a non-integer")
        if val:
            mults[normalize(mu)] = val
    step = scale // base
    full: dict[tuple[int, ...], int] = {}
    for mu, m in mults.items():
        if m <= 0:
            continue
        for point, _ in orbit(lv, tuple(x // step for x in mu)):
            full[point] = m
    return CharacterTable(datum, full, base)


# Sym^0..Sym^top per representation: immutable, the same whatever top built
# them, and kept for the process.
_SYM_TABLES: dict[RepSpec, tuple[CharacterTable, ...]] = {}


def sym_power_character(rep: RepSpec, d: int) -> CharacterTable:
    """Weight table of the d-th symmetric power of the weight multiset.

    The dynamic program to degree d yields the tables of every lower degree
    as well, and all of them are kept: asking for the top degree first builds
    each table of a representation once.  InputError when the program would
    write more than ``SYM_TABLE_CAP`` entries."""
    if d < 0:
        raise InputError("symmetric power degree must be >= 0")
    tables = _SYM_TABLES.get(rep, ())
    if d >= len(tables):
        tables = _SYM_TABLES[rep] = _sym_power_tables(rep, d)
    return tables[d]


def _check_sym_work(work: int, top: int) -> None:
    if work > SYM_TABLE_CAP:
        raise InputError(f"symmetric powers up to degree {top} need at least "
                         f"{work} table entries, above the cap of "
                         f"{SYM_TABLE_CAP}")


def _weight_ints(rep: RepSpec) -> tuple[list[tuple[int, ...]], int]:
    """The weights of ``rep.weights`` as int tuples at their common scale,
    and that scale."""
    return int_rows([w for w, _ in rep.weights])


def _sym_power_tables(rep: RepSpec, top: int) -> tuple[CharacterTable, ...]:
    """Sym^0..Sym^top of the weight multiset on int tuples at the scale of
    its weights.  The work is counted before it is allocated."""
    work = top + 1
    _check_sym_work(work, top)
    steps, scale = _weight_ints(rep)
    layers: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
    layers[0][(0,) * rep.datum.rank] = 1
    for step, (_, m) in zip(steps, rep.weights):
        work += sum(len(layer) * (top - j + 1)
                    for j, layer in enumerate(layers))
        _check_sym_work(work, top)
        # k copies of w: shift k*w, and C(k+m-1, m-1) monomials among m copies
        shifts = [step]
        for _ in range(top - 1):
            shifts.append(tuple(map(add, shifts[-1], step)))
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
    return tuple(CharacterTable(rep.datum, layer, scale) for layer in layers)


def _at_scale(counts: dict[tuple[int, ...], int], scale: int, target: int):
    """The (weight, value) pairs of a dict of int tuples at ``scale``
    re-expressed at ``target``, dropping the weights off that lattice."""
    if scale == target:
        return list(counts.items())
    out = []
    for w, m in counts.items():
        lifted = [x * target for x in w]
        if all(x % scale == 0 for x in lifted):
            out.append((tuple(x // scale for x in lifted), m))
    return out


def hom_block_dims(datum: RootDatum, mu: Vec, mu_prime: Vec, coinv: RepSpec,
                   levi: LeviDatum | None = None, up_to: int = 6) -> GradedDims:
    """Graded dimensions of Hom(V(mu), V(mu') tensor Sym^d of the neutral
    weights), for d = 0..up_to.

    The multiplicity of V(mu) in ch(mu') * Sym^d is the alternating sum over
    w of the product's entry at w(mu + rho) - rho, and that entry is the sum
    over weights w1 of ch(mu') of m1 * Sym^d[w(mu + rho) - rho - w1].  The
    pairs (key, coefficient) of that double sum do not depend on d; the keys
    are int tuples at the scale of the Sym^d tables."""
    lv = levi or full_levi(datum)
    mu = datum.normalize_weight(vec(mu))
    mu_prime = datum.normalize_weight(vec(mu_prime))
    for m in (mu, mu_prime):
        if not is_dominant(datum, m, lv):
            raise InputError(f"{m} is not dominant for the Levi")
    # top degree first: one program builds every table, and a degree past
    # the table cap is refused before anything per degree is allocated
    tables = [sym_power_character(coinv, d) for d in range(up_to, -1, -1)]
    tables.reverse()
    scale = tables[0].scale
    ch_prime = irr_character(datum, mu_prime, lv)
    # mu + rho and rho in section form at one scale t; mu + rho is regular,
    # so its orbit has one point per w, signed by det w, and each point less
    # rho is w(mu + rho) - rho at scale t
    rho = datum.normalize_weight(lv.rho_bar_lambda)
    (shifted, rho), t = int_rows([datum.normalize_weight(vadd(mu, rho)), rho])
    points = {tuple(map(sub, image, rho)): det
              for image, det in orbit(lv, shifted)}
    # the differences are taken at a scale every term lies on, and only
    # then are the keys off the tables' lattice dropped: two terms off it
    # may differ by a weight on it
    common = math.lcm(t, ch_prime.scale, scale)
    prime = _at_scale(ch_prime.counts, ch_prime.scale, common)
    kernel: dict[tuple[int, ...], int] = {}
    for point, det in _at_scale(points, t, common):
        for w1, m1 in prime:
            key = tuple(map(sub, point, w1))
            kernel[key] = kernel.get(key, 0) + det * m1
    terms = [(key, c) for key, c in _at_scale(kernel, common, scale) if c]
    dims = [sum(c * counts.get(key, 0) for key, c in terms)
            for counts in (table.counts for table in tables)]
    if any(dim < 0 for dim in dims):
        raise InputError("negative multiplicity: character data corrupt")
    return GradedDims(tuple(enumerate(dims)))
