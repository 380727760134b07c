"""Exact character arithmetic for catalog groups and their Levis.

Irreducible weight multiplicities come from the Freudenthal recursion over
the (Levi-)root system; symmetric powers from one degree-tracking dynamic
program per representation; Hom-block dimensions from Sym^d looked up at the
Weyl orbit of mu + rho, without building the product character.  Every Weyl
fact (dominant conjugate, orbit with signs) comes from the integer simple
reflections via `rootdata.descend` and `rootdata.orbit`; the group is never
enumerated.

Everything runs on int tuples of the weight lattice, as `reps.rep_spec`
requires of every representation: a weight or Levi root off it is refused
with `InputError`, and sorted `Fraction` keys are built only when `entries`
is read.  The Freudenthal walk pairs under the dot product, the invariant
form of every catalog group, and reads |mu + rho|^2 - |rho|^2 as
mu . (mu + 2 rho), with 2 rho the sum of the positive roots; the Hom-block
kernel divides by the denominator of rho once, at the Weyl images of
mu + rho.  The Weyl dimension is an integer product over the primitive
integer rows of the Levi's positive coroots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, sub

from .linalg import Vec, int_row, is_integral, vec
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


@dataclass(frozen=True)
class CharacterTable:
    """Finite weight-multiplicity table in canonical section form.

    ``counts`` maps each weight, a lattice point as an int tuple, to its
    nonzero multiplicity; ``entries`` lists the weights as sorted `Fraction`
    tuples.  Tables are equal when their datum and counts are."""

    datum: RootDatum
    counts: dict[tuple[int, ...], int]

    @cached_property
    def entries(self) -> tuple[tuple[Vec, int], ...]:
        return tuple((vec(w), m) for w, m in sorted(self.counts.items()))

    def as_dict(self) -> dict[Vec, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __hash__(self):
        return hash(frozenset(self.counts.items()))


def _lattice(v: Vec, what: str) -> tuple[int, ...]:
    """The int tuple of a lattice vector; InputError off the lattice."""
    if not is_integral(v):
        raise InputError(f"{what} {list(map(str, v))} is not a lattice element")
    return tuple(x.numerator for x in v)


def _dominant(datum: RootDatum, chi, lv: LeviDatum) -> tuple[int, ...]:
    """chi in section form as an int tuple; InputError when it is off the
    lattice or not dominant for the Levi."""
    chi = _lattice(datum.normalize_weight(vec(chi)), "weight")
    if not is_dominant(datum, chi, lv):
        raise InputError(f"{chi} is not dominant for the Levi")
    return chi


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
    via the Freudenthal recursion over the (Levi-)root system.  InputError
    when chi or a root of the Levi is off the lattice."""
    lv = levi or full_levi(datum)
    chi = _dominant(datum, chi, lv)
    roots = [_lattice(a, "Levi root") for a in lv.phi_lambda_plus]
    if not roots:
        return CharacterTable(datum, {chi: 1})
    # 2 rho, the sum of the positive roots, is on the lattice, and so is
    # each level |mu + rho|^2 - |rho|^2 = mu . (mu + 2 rho)
    rho2 = tuple(map(sum, zip(*roots)))
    # per root a: (a, a . a, 2 rho . a), so that (mu + k a) . a and the
    # level of mu + k a step in k without vector arithmetic
    root_data = [(a, sum(map(mul, a, a)), sum(map(mul, a, rho2)))
                 for a in roots]
    top = sum(x * (x + r) for x, r in zip(chi, rho2))
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
    dominants = sorted(found, key=lambda mu: (-sum(map(mul, mu, rho2)), mu))
    normalize = datum.normalize_weight
    mults: dict[tuple[int, ...], int] = {normalize(chi): 1}
    for mu in dominants[1:]:
        norm = sum(x * (x + r) for x, r in zip(mu, rho2))
        denom = top - norm
        if denom == 0:  # impossible for dominant mu strictly below chi
            raise InputError("Freudenthal denominator vanished")
        rhs = 0
        for a, aa, ar in root_data:
            pair = sum(map(mul, mu, a))
            # level(mu + k a) = norm + k (2 (mu + rho) . a + k a . a)
            cross = 2 * pair + ar
            nu, k = mu, 1
            while True:
                nu = tuple(map(add, nu, a))
                m = mults.get(descend(lv, nu)[0], 0)
                if m == 0 and norm + k * (cross + k * aa) > top:
                    break
                rhs += m * (pair + k * aa)
                k += 1
        val, rest = divmod(2 * rhs, denom)
        if rest:
            raise InputError("Freudenthal recursion produced a non-integer")
        if val:
            mults[normalize(mu)] = val
    return CharacterTable(datum, {point: m for mu, m in mults.items() if m > 0
                                  for point, _ in orbit(lv, mu)})


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


def _sym_power_tables(rep: RepSpec, top: int) -> tuple[CharacterTable, ...]:
    """Sym^0..Sym^top of the weight multiset on int tuples.  The work is
    counted before it is allocated; InputError when a weight is off the
    lattice."""
    work = top + 1
    _check_sym_work(work, top)
    steps = [_lattice(w, "weight") for w, _ in rep.weights]
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
    return tuple(CharacterTable(rep.datum, layer) for layer in layers)


# The characters of the (datum, Levi) pair asked for last, by highest
# weight: a hilbert job asks for each window weight's character once per
# window pair.  The slot holds the datum and the Levi, so the identity test
# below cannot match a new object, and it is read and replaced whole.
_CHARACTERS: list = [(None, None, {})]


def _character(datum: RootDatum, chi: tuple[int, ...],
               lv: LeviDatum) -> CharacterTable:
    """``irr_character(datum, chi, lv)``, once per run of calls on lv."""
    held, held_lv, tables = _CHARACTERS[0]
    if held is not datum or held_lv is not lv:
        tables = {}
        _CHARACTERS[0] = (datum, lv, tables)
    table = tables.get(chi)
    if table is None:
        table = tables[chi] = irr_character(datum, chi, lv)
    return table


def hom_block_dims(datum: RootDatum, mu: Vec, mu_prime: Vec, coinv: RepSpec,
                   levi: LeviDatum | None = None, up_to: int = 6) -> GradedDims:
    """Graded dimensions of Hom(V(mu), V(mu') tensor Sym^d of the neutral
    weights), for d = 0..up_to.

    The multiplicity of V(mu) in ch(mu') * Sym^d is the alternating sum over
    w of the product's entry at w(mu + rho) - rho, and that entry is the sum
    over weights w1 of ch(mu') of m1 * Sym^d[w(mu + rho) - rho - w1].  The
    pairs (key, coefficient) of that double sum do not depend on d.
    InputError when mu, mu', a weight of coinv or a root of the Levi is off
    the lattice."""
    lv = levi or full_levi(datum)
    mu = _dominant(datum, mu, lv)
    mu_prime = _dominant(datum, mu_prime, lv)
    # top degree first: one program builds every table, and a degree past
    # the table cap is refused before anything per degree is allocated
    tables = [sym_power_character(coinv, d) for d in range(up_to, -1, -1)]
    tables.reverse()
    ch_prime = _character(datum, mu_prime, lv)
    # rho as ints over its denominator t; mu + rho is regular, so its orbit
    # at scale t has one point per w, signed by det w, and each point less
    # rho, over t, is the lattice point w(mu + rho) - rho
    rho, t = int_row(datum.normalize_weight(lv.rho_bar_lambda))
    kernel: dict[tuple[int, ...], int] = {}
    for image, det in orbit(lv, tuple(t * x + r for x, r in zip(mu, rho))):
        point = [x - r for x, r in zip(image, rho)]
        if any(x % t for x in point):
            raise InputError("w(mu + rho) - rho is off the lattice")
        point = [x // t for x in point]
        for w1, m1 in ch_prime.counts.items():
            key = tuple(map(sub, point, w1))
            kernel[key] = kernel.get(key, 0) + det * m1
    terms = [(key, c) for key, c in kernel.items() if c]
    dims = [sum(c * counts.get(key, 0) for key, c in terms)
            for counts in (table.counts for table in tables)]
    if any(dim < 0 for dim in dims):
        raise InputError("negative multiplicity: character data corrupt")
    return GradedDims(tuple(enumerate(dims)))
