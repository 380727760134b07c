"""Partition of the dominant weights by zonotope face signatures.

Every dominant lattice weight chi gets the face signature of chi relative to
nu - rho_bar + r * (closed zonotope of all weights), computed at the minimal
radius.  Cells collect weights sharing a signature; each cell carries the
canonical antidominant one-parameter subgroup realizing its signature, the
Levi-invariant shift of its window, and a total order key.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .linalg import Vec, ZERO, ONE, vadd, vscale, vsub, vec, zero_vec
from .linprog import InputError, enumerate_lattice
from .reps import RepSpec, coinvariant_rep, find_destabilizer, weight_signs
from .rootdata import (LeviDatum, RootDatum, full_levi, is_dominant, levi,
                       pairing, star_dominate)
from .zonotope import (REL_INT, FaceSignature, ZonotopeQuery,
                       face_signature_at, member,
                       supporting_lambda)


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
    nu = zero_vec(datum.rank) if nu_global is None else vec(nu_global)
    if threshold not in (STANDARD, HALF_OPEN_MODE):
        raise InputError(f"unknown threshold mode {threshold!r}")
    if not full_levi(datum).is_invariant(nu):
        raise InputError("global shift must be Weyl-invariant")
    return ShiftProfile(nu, threshold)


def signature_of(rep: RepSpec, chi: Vec, profile: ShiftProfile) -> FaceSignature:
    """The unique minimal face signature of a dominant weight."""
    datum = rep.datum
    chi = datum.normalize_weight(vec(chi))
    if not is_dominant(datum, chi):
        raise InputError(f"weight {chi} is not dominant")
    shift = vsub(profile.nu_global, datum.rho_bar)
    return face_signature_at(rep.expanded, shift, chi,
                             central=datum.central_directions)


def canonical_lambda(rep: RepSpec, sig: FaceSignature) -> Vec:
    """Canonical antidominant subgroup of a signature (zero when trivial)."""
    return supporting_lambda(sig, rep.datum, rep.expanded)


def order_key(sig: FaceSignature):
    """Total order on signatures: radius, then set sizes, then the sorted
    index sets themselves as a deterministic tiebreak."""
    return (sig.r, len(sig.s_plus), len(sig.s_minus), len(sig.s_zero),
            sig.s_plus, sig.s_minus, sig.s_zero)


@dataclass(frozen=True)
class PartitionCell:
    signature: FaceSignature
    lam: Vec
    levi: LeviDatum
    key: tuple
    nu_levi: Vec
    chi_p: Vec
    members: tuple[Vec, ...]  # dominant weights of the cell found in the box


def build_cell(rep: RepSpec, sig: FaceSignature, profile: ShiftProfile,
               members=()) -> PartitionCell:
    datum = rep.datum
    lam = canonical_lambda(rep, sig)
    chi_p = zero_vec(datum.rank)
    for i in sig.s_plus:
        chi_p = vsub(chi_p, vscale(sig.r, rep.expanded[i]))
    lv = levi(datum, lam)
    nu_levi = vadd(vadd(vsub(profile.nu_global, datum.rho_bar),
                        lv.rho_bar_lambda), chi_p)
    return PartitionCell(sig, lam, lv, order_key(sig), nu_levi, chi_p,
                         tuple(members))


def _pinned_coords(datum: RootDatum) -> tuple[int, ...]:
    return tuple(pin for _, pin in datum.quotient_pairs)


def window_box(datum: RootDatum, generators, r, shift):
    """Per-coordinate bounds of the closed window over canonical section
    representatives (pinned SL coordinates forced to zero).  The section
    map N is linear, so coordinate k spans N(shift)_k - r * sum max(0, N(v)_k)
    to N(shift)_k + r * sum max(0, -N(v)_k)."""
    r = Fraction(r)
    centre = datum.normalize_weight(vec(shift))
    images = [datum.normalize_weight(vec(v)) for v in generators]
    return [(centre[k] - r * sum((v[k] for v in images if v[k] > 0), ZERO),
             centre[k] - r * sum((v[k] for v in images if v[k] < 0), ZERO))
            for k in range(datum.rank)]


def window_points(datum: RootDatum, lv: LeviDatum, gens, r, shift, inside,
                  twist=None) -> list[Vec]:
    """The lattice points of a window, in lexicographic order: the points of
    the twist coset in the box of shift + r * Z(gens) modulo the SL
    directions that are dominant for the Levi ``lv`` and pass the membership
    predicate ``inside``, which sees each point as a tuple of ints.  With no
    generators the box is the shift point."""
    box = window_box(datum, gens, r, shift)
    return enumerate_lattice(
        lambda p: is_dominant(datum, p, lv) and inside(p), box, coset=twist)


def cell_members(rep: RepSpec, cell: PartitionCell, profile: ShiftProfile,
                 twist=None) -> list[Vec]:
    """All lattice points of the cell's window: Levi-dominant weights in
    nu_levi - rho_bar_lambda + r * (open-coefficient zonotope of the
    lam-neutral weights).  This is the full cell, independent of any box.
    The trivial cell (r = 0) is the shift point, the set of no generators."""
    datum, lv = rep.datum, cell.levi
    shift = vsub(cell.nu_levi, lv.rho_bar_lambda)
    if cell.signature.trivial:
        gens, r = (), ONE
    else:
        gens, r = coinvariant_rep(rep, cell.lam).expanded, cell.signature.r
    query = ZonotopeQuery(gens, r, shift, REL_INT, datum.central_directions)
    return window_points(datum, lv, gens, r, shift, partial(member, query),
                         twist)


def dominant_box_points(rep: RepSpec, radius: int) -> list[Vec]:
    """Dominant lattice weights with all coordinates in [-radius, radius],
    pinned SL coordinates zero, in lexicographic order.  InputError when the
    box holds more than ``LATTICE_BOX_CAP`` points."""
    datum = rep.datum
    pinned = set(_pinned_coords(datum))
    box = [(0, 0) if k in pinned else (-radius, radius)
           for k in range(datum.rank)]
    return enumerate_lattice(partial(is_dominant, datum), box)


def partition_region(rep: RepSpec, profile: ShiftProfile,
                     box_radius: int) -> list[PartitionCell]:
    """Assign every dominant lattice point of the box to its cell; cells are
    returned sorted by the total order key."""
    report = find_destabilizer(rep)
    if report.sigma is not None:
        raise PreconditionError(
            "no torus-stable point: a nonzero one-parameter subgroup pairs "
            "nonpositively with every weight; decompose along the "
            "destabilizer instead", report)
    groups: dict[FaceSignature, list[Vec]] = {}
    for chi in dominant_box_points(rep, box_radius):
        sig = signature_of(rep, chi, profile)
        groups.setdefault(sig, []).append(chi)
    cells = [build_cell(rep, sig, profile, members=sorted(pts))
             for sig, pts in groups.items()]
    cells.sort(key=lambda c: c.key)
    return cells


# ---------------------------------------------------------------------------
# Reduction-setting validation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionValidation:
    status: str  # "ok" | "precondition_failed"
    valid: bool
    violations: tuple
    detail: str = ""


def validate_reduction_setting(rep: RepSpec, window, chi: Vec, lam: Vec
                               ) -> ReductionValidation:
    """Check the subset-sum window condition making (window, chi, lam) a
    valid reduction step.

    Preconditions checked first: lam antidominant and the pairing of lam with
    chi strictly below its pairing with every window element.  Then every
    nonempty sub-multiset of the lam-positive weights must send chi back into
    the window under the shifted dominant representative (sums whose shifted
    representative is undefined are exempt).
    """
    datum = rep.datum
    chi = datum.normalize_weight(vec(chi))
    lam = vec(lam)
    window_set = {datum.normalize_weight(vec(m)) for m in window}
    if any(pairing(lam, a) > 0 for a in datum.positive_roots):
        return ReductionValidation("precondition_failed", False, (),
                                   "lambda is not antidominant")
    base = pairing(lam, chi)
    for mu in sorted(window_set):
        if not base < pairing(lam, mu):
            return ReductionValidation(
                "precondition_failed", False, (),
                f"pairing with {tuple(map(str, mu))} does not exceed the base weight's")
    signs = weight_signs(rep, lam)
    value_counts: dict[Vec, int] = {}
    for i in signs.t_plus:
        w = rep.expanded[i]
        value_counts[w] = value_counts.get(w, 0) + 1
    values = sorted(value_counts.items())
    violations = []
    choices = [range(m + 1) for _, m in values]
    for take in itertools.product(*choices):
        if not any(take):
            continue
        total = chi
        for (w, _), k in zip(values, take):
            if k:
                total = vadd(total, vscale(Fraction(k), w))
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
    return ReductionValidation("ok", not violations, tuple(violations))
