"""Exact character arithmetic for catalog groups and their Levis.

Irreducible weight multiplicities come from the Freudenthal recursion over
the (Levi-)root system; symmetric powers from one degree-tracking dynamic
program per representation; Hom-block dimensions from Sym^d looked up at the
Weyl orbit of mu + rho, without building the product character.  Every Weyl
fact (lowest weight, dominant conjugate, orbit with signs) comes from the
simple reflections via `rootdata.descend` and `rootdata.orbit`; the group is
never enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Vec, ZERO, mat_vec, vadd, vdot, vscale, vsub, vec, zero_vec
from .linprog import InputError
from .reps import RepSpec
from .rootdata import (LeviDatum, RootDatum, descend, full_levi, is_dominant,
                       orbit)


@dataclass(frozen=True)
class CharacterTable:
    """Finite weight-multiplicity table, keys in canonical section form."""

    datum: RootDatum
    entries: tuple[tuple[Vec, int], ...]

    def as_dict(self) -> dict[Vec, int]:
        return dict(self.entries)

    @cached_property
    def _index(self) -> dict[Vec, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)


def _table(datum: RootDatum, d: dict[Vec, int]) -> CharacterTable:
    return CharacterTable(datum, tuple(sorted((w, m) for w, m in d.items() if m)))


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
    rho = lv.rho_bar_lambda
    num = Fraction(1)
    den = Fraction(1)
    for a in lv.phi_lambda_plus:
        num *= _form(datum, vadd(chi, rho), a)
        den *= _form(datum, rho, a)
    value = num / den
    if value.denominator != 1:
        raise InputError("Weyl dimension came out non-integral")
    return int(value)


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
    each table of a representation once."""
    if d < 0:
        raise InputError("symmetric power degree must be >= 0")
    tables = _SYM_TABLES.get(rep, ())
    if d >= len(tables):
        tables = _SYM_TABLES[rep] = _sym_power_tables(rep, d)
    return tables[d]


def _sym_power_tables(rep: RepSpec, top: int) -> tuple[CharacterTable, ...]:
    datum = rep.datum
    layers: list[dict[Vec, int]] = [dict() for _ in range(top + 1)]
    layers[0][zero_vec(datum.rank)] = 1
    for w, m in rep.weights:
        # k copies of w: shift k*w, and C(k+m-1, m-1) monomials among m copies
        steps = [(vscale(Fraction(k), w), math.comb(k + m - 1, m - 1))
                 for k in range(top + 1)]
        nxt: list[dict[Vec, int]] = [dict() for _ in range(top + 1)]
        for j in range(top + 1):
            for wt, cnt in layers[j].items():
                for k in range(top - j + 1):
                    shift, c = steps[k]
                    key = vadd(wt, shift) if k else wt
                    nxt[j + k][key] = nxt[j + k].get(key, 0) + cnt * c
        layers = nxt
    return tuple(_table(datum, layer) for layer in layers)


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
    dims = [0] * (up_to + 1)
    for d in range(up_to, -1, -1):   # top degree first: one program for all
        index = sym_power_character(coinv, d)._index
        dims[d] = sum(c * index.get(key, 0) for key, c in kernel.items())
    if any(dim < 0 for dim in dims):
        raise InputError("negative multiplicity: character data corrupt")
    return GradedDims(tuple(enumerate(dims)))
