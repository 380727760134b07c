"""Exact character arithmetic for catalog groups and their Levis.

Irreducible weight multiplicities come from the Freudenthal recursion over
the (Levi-)root system; symmetric powers from one degree-tracking dynamic
program per representation; Hom-block dimensions from Sym^d looked up at the
Weyl orbit of mu + rho, without building the product character.  Every Weyl
fact (lowest weight, dominant conjugate, orbit with signs) comes from the
simple reflections via `rootdata.descend` and `rootdata.orbit`; the group is
never enumerated.

A table holds its weights as int tuples at one common scale: the weights
times the least common denominator D of the representation's weights (D = 1
for every catalog representation).  The symmetric-power program and the
Hom-block lookup work on those ints; sorted `Fraction` keys are built only
when `entries` is read.  The Weyl dimension is an integer product over the
primitive integer rows of the Levi's positive coroots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from .linalg import (Vec, ZERO, int_row, int_rows, mat_vec, vadd, vdot,
                     vscale, vsub, vec)
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


def _form(datum: RootDatum, a: Vec, b: Vec) -> Fraction:
    return vdot(a, mat_vec(datum.gram, b))


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


def _height(datum: RootDatum, lv: LeviDatum, v: Vec) -> Fraction:
    # any positive functional on the positive span works for ordering
    return vdot(v, vadd(lv.rho_bar_lambda, lv.rho_bar_lambda)) if lv.phi_lambda_plus else ZERO


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
    rho = lv.rho_bar_lambda
    top = _form(datum, vadd(chi, rho), vadd(chi, rho))
    # Every dominant weight below chi is reached from chi by subtracting
    # positive roots through dominant weights only (Stembridge, "The partial
    # order of dominant weights", 1998).  All weights stay inside chi's coset
    # of the root lattice; the stored form is only coset-consistent, so no
    # section normalization here.
    found, stack = {chi}, [chi]
    while stack:
        mu = stack.pop()
        for a in lv.phi_lambda_plus:
            below = vsub(mu, a)
            if below not in found and is_dominant(datum, below, lv):
                found.add(below)
                stack.append(below)
    dominants = sorted(found, key=lambda mu: (-_height(datum, lv, mu), mu))
    mults: dict[Vec, int] = {}
    for mu in dominants:
        if mu == chi:
            mults[mu] = 1
            continue
        denom = top - _form(datum, vadd(mu, rho), vadd(mu, rho))
        if denom == 0:  # impossible for dominant mu strictly below chi
            raise InputError("Freudenthal denominator vanished")
        rhs = ZERO
        for a in lv.phi_lambda_plus:
            k = 1
            while True:
                nu = vadd(mu, vscale(Fraction(k), a))
                m = mults.get(descend(lv.simple_pairs, nu)[0], 0)
                if m == 0 and _form(datum, vadd(nu, rho), vadd(nu, rho)) > top:
                    break
                rhs += m * _form(datum, nu, a)
                k += 1
        val = 2 * rhs / denom
        if val.denominator != 1:
            raise InputError("Freudenthal recursion produced a non-integer")
        if val:
            mults[mu] = int(val)
    full: dict[Vec, int] = {}
    for mu, m in mults.items():
        if m <= 0:
            continue
        for point, _ in orbit(lv.simple_pairs, mu):
            full[datum.normalize_weight(point)] = m
    return _table(datum, full)


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


def hom_block_dims(datum: RootDatum, mu: Vec, mu_prime: Vec, coinv: RepSpec,
                   levi: LeviDatum | None = None, up_to: int = 6) -> GradedDims:
    """Graded dimensions of Hom(V(mu), V(mu') tensor Sym^d of the neutral
    weights), for d = 0..up_to.

    The multiplicity of V(mu) in ch(mu') * Sym^d is the alternating sum over
    w of the product's entry at w(mu + rho) - rho, and that entry is the sum
    over weights w1 of ch(mu') of m1 * Sym^d[w(mu + rho) - rho - w1].  The
    pairs (key, coefficient) of that double sum do not depend on d."""
    lv = levi or full_levi(datum)
    mu = datum.normalize_weight(vec(mu))
    mu_prime = datum.normalize_weight(vec(mu_prime))
    for m in (mu, mu_prime):
        if not is_dominant(datum, m, lv):
            raise InputError(f"{m} is not dominant for the Levi")
    ch_prime = irr_character(datum, mu_prime, lv).entries
    rho = lv.rho_bar_lambda
    shifted = vadd(mu, rho)
    kernel: dict[Vec, int] = {}
    # mu + rho is regular, so its orbit has one point per w, signed by det w
    for image, det in orbit(lv.simple_pairs, shifted):
        point = datum.normalize_weight(vsub(image, rho))
        for w1, m1 in ch_prime:   # both in section form, so is the key
            key = vsub(point, w1)
            kernel[key] = kernel.get(key, 0) + det * m1
    # the keys at the tables' int scale; one off that lattice has entry 0
    scale = _weight_ints(coinv)[1]
    scaled = [(tuple(x.numerator * (scale // x.denominator) for x in key), c)
              for key, c in kernel.items()
              if c and all(scale % x.denominator == 0 for x in key)]
    # top degree first: one program builds every table, and a degree past
    # the table cap is refused before anything per degree is allocated
    dims = []
    for d in range(up_to, -1, -1):
        counts = sym_power_character(coinv, d).counts
        dims.append(sum(c * counts.get(key, 0) for key, c in scaled))
    dims.reverse()
    if any(dim < 0 for dim in dims):
        raise InputError("negative multiplicity: character data corrupt")
    return GradedDims(tuple(enumerate(dims)))
