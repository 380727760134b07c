"""Exact character arithmetic for catalog groups and their Levis.

Irreducible weight multiplicities come from the Freudenthal recursion over
the (Levi-)root system; symmetric powers from the package's one
degree-tracking dynamic program, `reps.sym_power_layers`, wrapped as tables
and kept per representation; Hom-block dimensions from Sym^d looked up at
the Weyl orbit of mu + rho, without building the product character, as a
plain tuple whose position is the degree.  Every Weyl fact (dominant
conjugate, orbit with signs) comes from reflections in the simple roots via
`rootdata.descend` and `rootdata.orbit`; the group is never enumerated.

Everything runs on int tuples of the weight lattice, as `reps.rep_spec`
requires of every representation: a weight off it is refused with
`InputError` (a root off it already is, when its `RootDatum` is built), and
sorted `Fraction` keys are built only when `entries` is read.  The
Freudenthal walk pairs under the dot product, the invariant form of every
catalog group, and reads |mu + rho|^2 - |rho|^2 as
mu . (mu + 2 rho), with 2 rho the sum of the positive roots; the Hom-block
kernel divides by the denominator of rho once, at the Weyl images of
mu + rho.  The Weyl dimension is an integer product over the primitive
integer rows of the Levi's positive coroots, paired with 2 (chi + rho)
from the Levi's int 2 rho (``LeviDatum.two_rho``, kept once per Levi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, sub

from .linalg import Vec, int_row, vec
from .linprog import InputError
from .reps import RepSpec, lattice_ints, sym_power_layers
from .rootdata import (LeviDatum, RootDatum, descend, full_levi, is_dominant,
                       orbit)


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


def _dominant(datum: RootDatum, chi, lv: LeviDatum) -> tuple[int, ...]:
    """chi in section form as an int tuple; InputError when it is off the
    lattice or not dominant for the Levi."""
    chi = lattice_ints(datum.normalize_weight(chi), "weight")
    if not is_dominant(datum, chi, lv):
        raise InputError(f"{chi} is not dominant for the Levi")
    return chi


def weyl_dim(datum: RootDatum, chi: Vec, levi: LeviDatum | None = None) -> int:
    """Dimension of the irreducible with the given highest weight."""
    lv = levi or full_levi(datum)
    chi = datum.normalize_weight(chi)
    if not is_dominant(datum, chi, lv):
        raise InputError(f"{chi} is not dominant for the Levi")
    # 2 d (chi + rho) and 2 rho on ints, d the denominator of chi (1 at an
    # int chi); d and the scale of each coroot row cancel in the quotient
    ints, d = int_row(chi)
    rho2 = lv.two_rho
    shifted = [2 * x + d * r for x, r in zip(ints, rho2)]
    num = den = 1
    for row in lv.weyl_rows:
        num *= sum(map(mul, row, shifted))
        den *= d * sum(map(mul, row, rho2))
    value, rest = divmod(num, den)
    if rest:
        raise InputError("Weyl dimension came out non-integral")
    return value


def irr_character(datum: RootDatum, chi: Vec,
                  levi: LeviDatum | None = None) -> CharacterTable:
    """Weight multiplicities of the irreducible with highest weight chi,
    via the Freudenthal recursion over the (Levi-)root system.  InputError
    when chi is off the lattice."""
    lv = levi or full_levi(datum)
    chi = _dominant(datum, chi, lv)
    roots = lv.phi_lambda_plus
    if not roots:
        return CharacterTable(datum, {chi: 1})
    # 2 rho, the sum of the positive roots, is on the lattice, and so is
    # each level |mu + rho|^2 - |rho|^2 = mu . (mu + 2 rho)
    rho2 = lv.two_rho
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

    ``reps.sym_power_layers`` to degree d yields the tables of every lower
    degree as well, and all of them are kept: asking for the top degree
    first builds each table of a representation once.  InputError for a
    negative d, or when the program would write more than
    ``reps.SYM_TABLE_CAP`` entries."""
    tables = _SYM_TABLES.get(rep, ())
    if not 0 <= d < len(tables):
        tables = _SYM_TABLES[rep] = tuple(
            CharacterTable(rep.datum, layer)
            for layer in sym_power_layers(rep.weights, rep.datum.rank, d))
    return tables[d]


# Characters and shifted orbits of one hilbert job (its datum, Levi and
# coinvariants), which asks for each window weight's once per window pair.
# The slot holds all three, so the identity test cannot match a new object,
# nor a later job (whose orbits meet the cap anew); it is replaced whole.
_CHARACTERS: list = [(None, None, {})]


def _held(fn, datum: RootDatum, chi: tuple[int, ...], lv: LeviDatum,
          coinv: RepSpec):
    """``fn(datum, chi, lv)``, once per run of calls on (datum, lv, coinv)."""
    held, held_lv, values = _CHARACTERS[0]
    if held_lv is not lv or held[0] is not datum or held[1] is not coinv:
        values = {}
        _CHARACTERS[0] = ((datum, coinv), lv, values)
    if (fn, chi) not in values:
        values[fn, chi] = fn(datum, chi, lv)
    return values[fn, chi]


def _shifted_orbit(datum: RootDatum, mu: tuple[int, ...],
                   lv: LeviDatum) -> list[tuple[tuple[int, ...], int]]:
    """The points w(mu + rho) - rho, one per w of the Levi Weyl group (mu +
    rho is regular), with the sign det w; InputError off the lattice."""
    rho, t = int_row(datum.normalize_weight(lv.rho_bar_lambda))
    points = []
    for image, det in orbit(lv, tuple(t * x + r for x, r in zip(mu, rho))):
        point = [x - r for x, r in zip(image, rho)]
        if any(x % t for x in point):
            raise InputError("w(mu + rho) - rho is off the lattice")
        points.append((tuple(x // t for x in point), det))
    return points


def hom_block_dims(datum: RootDatum, mu: Vec, mu_prime: Vec, coinv: RepSpec,
                   levi: LeviDatum | None = None,
                   up_to: int = 6) -> tuple[int, ...]:
    """Graded dimensions of Hom(V(mu), V(mu') tensor Sym^d of the neutral
    weights), for d = 0..up_to: the entry at position d is the dimension in
    degree d.

    The multiplicity of V(mu) in ch(mu') * Sym^d is the alternating sum over
    w of the product's entry at w(mu + rho) - rho, and that entry is the sum
    over weights w1 of ch(mu') of m1 * Sym^d[w(mu + rho) - rho - w1].  The
    pairs (key, coefficient) of that double sum do not depend on d.
    InputError when mu, mu' or a weight of coinv is off the lattice."""
    lv = levi or full_levi(datum)
    mu = _dominant(datum, mu, lv)
    mu_prime = _dominant(datum, mu_prime, lv)
    # top degree first: one program builds every table, and a degree past
    # the table cap is refused before anything per degree is allocated
    tables = [sym_power_character(coinv, d) for d in range(up_to, -1, -1)]
    tables.reverse()
    ch_prime = _held(irr_character, datum, mu_prime, lv, coinv)
    kernel: dict[tuple[int, ...], int] = {}
    for point, det in _held(_shifted_orbit, datum, mu, lv, coinv):
        for w1, m1 in ch_prime.counts.items():
            key = tuple(map(sub, point, w1))
            kernel[key] = kernel.get(key, 0) + det * m1
    terms = [(key, c) for key, c in kernel.items() if c]
    dims = [sum(c * counts.get(key, 0) for key, c in terms)
            for counts in (table.counts for table in tables)]
    if any(dim < 0 for dim in dims):
        raise InputError("negative multiplicity: character data corrupt")
    return tuple(dims)
