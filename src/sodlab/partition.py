"""Partition of the dominant weights by zonotope face signatures.

Every dominant lattice weight chi gets the face signature of chi relative to
nu - rho_bar + r * (closed zonotope of all weights), computed at the minimal
radius by one signature function built per partition (``signature_of``).
That function solves once per ray from the shift: every later weight on the
ray reads the same sign sets at a scaled radius.  Cells collect weights
sharing a signature; each cell carries the Levi datum of the canonical
antidominant one-parameter subgroup realizing its signature (the subgroup
is its ``lam``), found once per face (``face_levi``) and shared by every
cell of the face, and the Levi-invariant shift of its window.  Cells sort
by ``order_key`` of their signatures.

Every window of the package is enumerated by ``window_points``: the
Levi-dominant lattice points of a shift plus r times one variant of the
zonotope of the lam-neutral weights (``reps.coinvariant_rep``), modulo the
SL directions, in a twist coset.  The cells, the tail component and the NCCR
window and boundary differ only in the membership predicate they pass.  With
no lam-neutral weight a window is the shift point modulo the SL directions.
Each cell keeps the Levi datum it was built with; its window and component
reuse it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .linalg import Vec, ONE, int_row, vadd, vscale, vsub, vec, zero_vec
from .linprog import InputError, enumerate_lattice, lattice_walk
from .reps import RepSpec, find_destabilizer, weight_signs
from .rootdata import (LeviDatum, RootDatum, check_length, full_levi,
                       is_dominant, levi, pairing, star_dominate)
from .zonotope import (REL_INT, TRIVIAL, FaceSignature, face_signature_at,
                       member, supporting_lambda)


class PreconditionError(RuntimeError):
    """A pipeline precondition failed; carries structured context."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


STANDARD = "standard"
HALF_OPEN_MODE = "half_open"


@dataclass(frozen=True)
class ShiftProfile:
    """Global Weyl-invariant shift and the cell-retention threshold.

    ``standard`` keeps cells of radius >= 1; ``half_open`` keeps radius > 1/2
    and is only sound for quasi-symmetric weight data.
    """

    nu_global: Vec
    threshold: str = STANDARD

    def keeps(self, r: Fraction) -> bool:
        return r >= 1 if self.threshold == STANDARD else r > Fraction(1, 2)


def make_profile(datum: RootDatum, nu_global=None,
                 threshold: str = STANDARD) -> ShiftProfile:
    """The profile of a Weyl-invariant global shift, the zero shift when
    ``nu_global`` is None; InputError for a shift of the wrong length, one
    that is not Weyl-invariant, or an unknown threshold."""
    nu = zero_vec(datum.rank) if nu_global is None else vec(nu_global)
    check_length(datum, nu, "global shift")
    if threshold not in (STANDARD, HALF_OPEN_MODE):
        raise InputError(f"unknown threshold mode {threshold!r}")
    if not full_levi(datum).is_invariant(nu):
        raise InputError("global shift must be Weyl-invariant")
    return ShiftProfile(nu, threshold)


def signature_of(rep: RepSpec,
                 profile: ShiftProfile) -> Callable[[Vec], FaceSignature]:
    """The unique minimal face signature of a dominant weight chi, as a
    function of chi.  Built once per partition: the shift nu - rho_bar and
    the face-signature function are made once; each weight is normalized
    and checked dominant (InputError if not) before its signature is read.

    Signatures are solved once per ray: d = chi - shift, taken modulo the
    SL directions, is t * e for its primitive integer direction e and some
    t > 0 (read in ints: q * den * d = den * ints - q * base, for chi at
    ints / q and the shift at base / den in section form).  The first
    weight on a ray solves ``face_signature_at``; a later one, at t where
    the first was at t0, reads the same S+, S- and S0 at radius r * t / t0.
    The gauge min{r : d in r * Z + span(central)} is positively homogeneous
    and blind to span(central), and scaling by t maps each representation
    of d at radius r onto one of t * d at radius t * r, so the same
    coefficients are pinned (Rockafellar, Convex Analysis, 15; Ziegler,
    Lectures on Polytopes, ch. 7).  A weight with d = 0 gets the trivial
    signature without a solve."""
    datum = rep.datum
    shift = vsub(profile.nu_global, datum.rho_bar)
    at = face_signature_at(rep.expanded, shift,
                           central=datum.central_directions)
    base, den = int_row(datum.normalize_weight(shift))
    rays: dict[tuple[int, ...], tuple[Fraction, FaceSignature]] = {}

    def signature(chi) -> FaceSignature:
        chi = datum.normalize_weight(chi)
        if not is_dominant(datum, chi):
            raise InputError(f"weight {chi} is not dominant")
        ints, q = int_row(chi)
        ints = [den * x - q * b for x, b in zip(ints, base)]
        g = math.gcd(*ints)
        if not g:
            return TRIVIAL
        ray = tuple(x // g for x in ints)
        t = Fraction(g, q * den)
        if ray not in rays:
            rays[ray] = (t, at(chi))
        t0, sig = rays[ray]
        return sig if t == t0 else replace(sig, r=sig.r * t / t0)

    return signature


def order_key(sig: FaceSignature):
    """Total order on signatures: radius, then set sizes, then the sorted
    index sets themselves as a deterministic tiebreak."""
    return (sig.r, len(sig.s_plus), len(sig.s_minus), len(sig.s_zero),
            sig.s_plus, sig.s_minus, sig.s_zero)


@dataclass(frozen=True)
class PartitionCell:
    signature: FaceSignature
    levi: LeviDatum
    nu_levi: Vec
    chi_p: Vec
    members: tuple[tuple[int, ...], ...]  # dominant weights found in the box


def face_levi(rep: RepSpec, sig: FaceSignature) -> LeviDatum:
    """The Levi datum of the canonical supporting subgroup of the face of
    ``sig`` (``zonotope.supporting_lambda``; the subgroup is ``.lam``).  The
    search reads only the sign sets, so every signature of one face, at any
    radius, has the same subgroup and Levi."""
    datum = rep.datum
    return levi(datum, supporting_lambda(sig, datum, rep.expanded))


def build_cell(rep: RepSpec, sig: FaceSignature, profile: ShiftProfile,
               lv: LeviDatum, members=()) -> PartitionCell:
    """The cell of ``sig`` on the face whose Levi datum is ``lv``
    (``face_levi``); its subgroup is ``lv.lam``."""
    datum = rep.datum
    plus = [rep.expanded[i] for i in sig.s_plus]
    total = [sum(w[k] for w in plus) for k in range(datum.rank)]
    chi_p = vscale(-sig.r, total)
    nu_levi = vadd(vadd(vsub(profile.nu_global, datum.rho_bar),
                        lv.rho_bar_lambda), chi_p)
    return PartitionCell(sig, lv, nu_levi, chi_p, tuple(members))


def window_box(datum: RootDatum, generators, r, shift):
    """Per-coordinate bounds of the closed window over canonical section
    representatives (pinned SL coordinates forced to zero).  The section
    map N is linear, so coordinate k spans N(shift)_k - r * sum max(0, N(v)_k)
    to N(shift)_k + r * sum max(0, -N(v)_k)."""
    centre = datum.normalize_weight(vec(shift))
    images = [datum.normalize_weight(v) for v in generators]
    return [(centre[k] - r * sum(v[k] for v in images if v[k] > 0),
             centre[k] - r * sum(v[k] for v in images if v[k] < 0))
            for k in range(datum.rank)]


def window_points(datum: RootDatum, lv: LeviDatum, gens, r, shift, inside,
                  twist=None) -> list[tuple[int, ...]]:
    """The lattice points of a window, in lexicographic order, as int
    tuples: the points of the twist coset in the box of shift + r * Z(gens)
    modulo the SL directions that are dominant for the Levi ``lv`` and pass
    the membership predicate ``inside``.  The dominance rows prune the walk,
    so the coset test and ``inside`` see only Levi-dominant points.  With no
    generators the box is the shift point."""
    return enumerate_lattice(inside, window_box(datum, gens, r, shift), twist,
                             [(c, (0, 1)) for c in lv.dominance_rows])


def cell_members(rep: RepSpec, cell: PartitionCell, coinv: RepSpec,
                 twist=None) -> list[tuple[int, ...]]:
    """All lattice points of the cell's window: Levi-dominant weights in
    nu_levi - rho_bar_lambda + r * (open-coefficient zonotope of ``coinv``,
    the lam-neutral weights, ``reps.coinvariant_rep(rep, cell.levi.lam)``).
    This is the full cell, independent of any box.  The trivial cell
    (r = 0) is the shift point, the set of no generators."""
    datum, lv = rep.datum, cell.levi
    shift = vsub(cell.nu_levi, lv.rho_bar_lambda)
    if cell.signature.trivial:
        gens, r = (), ONE
    else:
        gens, r = coinv.expanded, cell.signature.r
    inside = member(gens, r, shift, REL_INT, datum.central_directions)
    return window_points(datum, lv, gens, r, shift, inside, twist)


def dominant_box_points(rep: RepSpec, radius: int) -> list[tuple[int, ...]]:
    """Dominant lattice weights (int tuples) with all coordinates in
    [-radius, radius], pinned SL coordinates zero, in lexicographic order:
    the walk of the box (``linprog.lattice_walk``), which drops a prefix as
    soon as a dominance row it completes pairs negatively with it.
    InputError when a step would test more than ``LATTICE_BOX_CAP`` points."""
    datum = rep.datum
    pinned = {pin for _, pin in datum.quotient_pairs}
    spans = [range(0, 1) if k in pinned else range(-radius, radius + 1)
             for k in range(datum.rank)]
    rows = [(c, (0, 1)) for c in datum.dominance_rows]
    return lattice_walk(spans, rows)


def partition_region(rep: RepSpec, profile: ShiftProfile,
                     box_radius: int) -> list[PartitionCell]:
    """Assign every dominant lattice point of the box to its cell; cells are
    returned sorted by the total order key.  Signatures are solved once per
    ray (``signature_of``) and subgroups with their Levi data once per face
    (S+, S-, S0), whatever the radii of the face's cells."""
    report = find_destabilizer(rep)
    if report.sigma is not None:
        raise PreconditionError(
            "no torus-stable point: a nonzero one-parameter subgroup pairs "
            "nonpositively with every weight; decompose along the "
            "destabilizer instead", report)
    signature = signature_of(rep, profile)
    groups: dict[FaceSignature, list[Vec]] = {}
    for chi in dominant_box_points(rep, box_radius):
        groups.setdefault(signature(chi), []).append(chi)
    faces: dict[tuple, LeviDatum] = {}
    cells = []
    for sig, pts in groups.items():
        face = (sig.s_plus, sig.s_minus, sig.s_zero)
        if face not in faces:
            faces[face] = face_levi(rep, sig)
        cells.append(build_cell(rep, sig, profile, faces[face],
                                members=sorted(pts)))
    cells.sort(key=lambda c: order_key(c.signature))
    return cells


# ---------------------------------------------------------------------------
# Reduction-setting validation.
# ---------------------------------------------------------------------------

# Most sums the reduction-setting check may test, one per nonempty
# sub-multiset of the lam-positive weights: prod(m + 1) - 1.  The tests need
# at most 3, and Sp(8) V^8 (6,560) takes 1.7 s; past the cap none is tested.
REDUCTION_SUM_CAP = 1_000


@dataclass(frozen=True)
class ReductionValidation:
    status: str  # "ok" | "precondition_failed"
    violations: tuple
    detail: str = ""

    @property
    def valid(self) -> bool:
        return self.status == "ok" and not self.violations


def validate_reduction_setting(rep: RepSpec, window, chi: Vec, lam: Vec
                               ) -> ReductionValidation:
    """Check the subset-sum window condition making (window, chi, lam) a
    valid reduction step.

    Preconditions checked first: lam antidominant and the pairing of lam with
    chi strictly below its pairing with every window element.  Then every
    nonempty sub-multiset of the lam-positive weights must send chi back into
    the window under the shifted dominant representative (sums whose shifted
    representative is undefined are exempt).  InputError when there are more
    than ``REDUCTION_SUM_CAP`` such sub-multisets.
    """
    datum = rep.datum
    chi = datum.normalize_weight(vec(chi))
    lam = vec(lam)
    window_set = {datum.normalize_weight(vec(m)) for m in window}
    if any(pairing(lam, a) > 0 for a in datum.positive_roots):
        return ReductionValidation("precondition_failed", (),
                                   "lambda is not antidominant")
    base = pairing(lam, chi)
    for mu in sorted(window_set):
        if not base < pairing(lam, mu):
            return ReductionValidation(
                "precondition_failed", (),
                f"pairing with {tuple(map(str, mu))} does not exceed the base weight's")
    signs = weight_signs(rep, lam)
    values = sorted(Counter(rep.expanded[i] for i in signs.t_plus).items())
    sums = math.prod(m + 1 for _, m in values) - 1
    if sums > REDUCTION_SUM_CAP:
        raise InputError(f"the lambda-positive weights have {sums} nonempty "
                         f"sub-multisets, above the cap of {REDUCTION_SUM_CAP}")
    violations = []
    choices = [range(m + 1) for _, m in values]
    for take in itertools.product(*choices):
        if not any(take):
            continue
        total = chi
        for (w, _), k in zip(values, take):
            if k:
                total = vadd(total, tuple(k * x for x in w))
        dom = star_dominate(datum, total)
        if dom is None:
            continue
        plus, _, _ = dom
        if plus not in window_set:
            violations.append({
                "subset": tuple((w, k) for (w, _), k in zip(values, take) if k),
                "sum": total,
                "shifted_dominant": plus,
            })
    return ReductionValidation("ok", tuple(violations))
