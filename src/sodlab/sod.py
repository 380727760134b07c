"""Ordered decomposition components, NCCR certification, presets.

The infinite ordered decomposition is truncated to the cells discovered in a
dominant-weight search box, optionally capped by a maximal radius; the tail
component (index 0) absorbs everything below the retention threshold.  It is
the component at lam = 0, built like the others, and its window is the unit
relative-interior window in standard mode, or the half-size epsilon window
in quasi-symmetric mode.  Component windows and the NCCR window and boundary
are all enumerated by ``partition.window_points``.

Results store what they are built from: a component's subgroup is
``levi.lam``, it is the tail exactly when its signature is trivial, and its
module summands are read on first use; a certificate's flags and verdict
are read off its windows and checks, and a preset's group is ``rep.datum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Vec, ONE, frac, in_span, is_zero_vec, \
    line_decomposition, vadd, vsub, vec, zero_vec
from .linprog import InputError, integral_shell
from .characters import weyl_dim
from .partition import (HALF_OPEN_MODE, STANDARD, PartitionCell,
                        PreconditionError, ShiftProfile, cell_members,
                        order_key, partition_region, window_points)
from .reps import (RepSpec, TwistData, coinvariant_rep, construct_rep,
                   is_quasi_symmetric)
from .rootdata import LeviDatum, build_group, full_levi
from .zonotope import (CLOSED, HALF_OPEN, REL_INT, TRIVIAL, EpsShift,
                       FaceSignature, invariants_in_span, is_generic,
                       is_weakly_generic, member, member_eps)


@dataclass(frozen=True)
class SodComponent:
    index: int
    signature: FaceSignature
    levi: LeviDatum
    nu: Vec  # the window shift, Levi-invariant
    window_kind: tuple  # ("rel_int_scaled", r) or ("half_size_eps", eps)
    window: tuple[Vec, ...]
    coinvariants: RepSpec  # the lam-neutral weights

    def __post_init__(self):
        if not self.levi.is_invariant(self.nu):
            raise InputError("window shift is not Levi-invariant")

    @cached_property
    def u_summands(self) -> tuple[tuple[Vec, int], ...]:
        """Each window weight with the dimension of its Levi irreducible."""
        return tuple((mu, weyl_dim(self.levi, mu)) for mu in self.window)


@dataclass(frozen=True)
class SodResult:
    components: tuple[SodComponent, ...]
    absorbed: tuple[PartitionCell, ...]   # cells folded into the tail window
    frontier: tuple[PartitionCell, ...]   # cells beyond r_max, not emitted
    epsilon: Vec
    threshold: str
    box_radius: int
    r_max: Fraction | None


def pick_epsilon(lv: LeviDatum, generators) -> Vec:
    """Default epsilon: zero when no Levi-invariant direction is parallel to
    the window zonotope, else the sum of a basis of the parallel ones (in
    section form, so never an SL direction)."""
    total = zero_vec(lv.datum.rank)
    for v in invariants_in_span(lv, generators):
        total = vadd(total, v)
    return total


def _half_eps_window(lv: LeviDatum, gens, shift, e: EpsShift,
                     twist: TwistData | None = None) -> list[Vec]:
    """The half-size epsilon window of (lv, gens, shift), all in section
    form."""
    half = Fraction(1, 2)
    inside = member_eps(gens, half, shift, e)
    return window_points(lv, gens, half, shift, inside, twist)


def _tail_component(rep: RepSpec, lv: LeviDatum, profile: ShiftProfile,
                    eps: Vec, twist: TwistData | None = None) -> SodComponent:
    """The component at lam = 0, whose generators are all the weights: the
    unit relative-interior window in standard mode, the half-size epsilon
    window in quasi-symmetric mode."""
    gens, datum = rep.expanded, lv.datum
    shift = datum.normalize_weight(vsub(profile.nu_global, lv.rho_bar_lambda))
    if profile.threshold == STANDARD:
        kind = ("rel_int_scaled", ONE)
        inside = member(gens, ONE, shift, REL_INT)
        window = window_points(lv, gens, ONE, shift, inside, twist)
    else:
        kind = ("half_size_eps", eps)
        window = _half_eps_window(
            lv, gens, shift, EpsShift(datum.normalize_weight(eps), "plus"),
            twist)
    return SodComponent(0, TRIVIAL, lv, profile.nu_global, kind,
                        tuple(window), coinvariant_rep(rep, lv.lam))


def enumerate_sod(rep: RepSpec, profile: ShiftProfile,
                  r_max: Fraction | None = None, box_radius: int = 6,
                  epsilon: Vec | None = None,
                  twist: TwistData | None = None) -> SodResult:
    """Ordered decomposition data over a dominant search box.

    Components appear in strictly descending ``order_key`` of their
    signatures, the tail component last with the largest index (zero); kept
    cells have radius at least the profile threshold and at most r_max.
    InputError for a given epsilon that is not Weyl-invariant.
    """
    if profile.threshold == HALF_OPEN_MODE and not is_quasi_symmetric(rep):
        raise PreconditionError(
            "half-open threshold requires a quasi-symmetric weight multiset")
    cells = partition_region(rep, profile, box_radius)  # raises without T-stable point
    lv0 = full_levi(rep.datum)
    eps = vec(epsilon) if epsilon is not None \
        else pick_epsilon(lv0, rep.expanded)
    if not lv0.is_invariant(eps):
        raise InputError("epsilon is not Weyl-invariant")
    kept, absorbed, frontier = [], [], []
    for cell in cells:
        if not profile.keeps(cell.signature.r):
            absorbed.append(cell)
        elif r_max is not None and cell.signature.r > r_max:
            frontier.append(cell)
        else:
            kept.append(cell)
    kept.sort(key=lambda c: order_key(c.signature), reverse=True)
    components = []
    # one restriction per distinct lam, shared by the components at it
    coinvs = {lam: coinvariant_rep(rep, lam)
              for lam in {cell.levi.lam for cell in kept}}
    for i, cell in enumerate(kept):
        coinv = coinvs[cell.levi.lam]
        components.append(SodComponent(
            -(len(kept) - i), cell.signature, cell.levi, cell.nu_levi,
            ("rel_int_scaled", cell.signature.r),
            tuple(cell_members(cell, coinv, twist=twist)),
            coinv))
    components.append(_tail_component(rep, lv0, profile, eps, twist=twist))
    return SodResult(tuple(components), tuple(absorbed), tuple(frontier),
                     eps, profile.threshold, box_radius,
                     None if r_max is None else frac(r_max))


# ---------------------------------------------------------------------------
# NCCR certification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NccrCertificate:
    quasi_symmetric: bool
    epsilon: Vec
    eps_status: str        # "Generic" | "WeaklyGeneric" | "Fails"
    window: tuple[Vec, ...]
    prazno_points: tuple[Vec, ...]
    genericity: str        # "CheckedToricRule" | "UserAsserted" | "Unknown"
    prazno_mode: str       # "set" | "minkowski"

    @property
    def window_nonempty(self) -> bool:
        return bool(self.window)

    @property
    def prazno_empty(self) -> bool:
        return not self.prazno_points

    @property
    def verdict(self) -> str:
        """TwistedNCCR, FiniteGlobalDimOnly or Unknown."""
        if not self.quasi_symmetric:
            return "Unknown"
        ok = (self.eps_status in ("Generic", "WeaklyGeneric") and self.window
              and self.prazno_empty and self.genericity != "Unknown")
        return "TwistedNCCR" if ok else "FiniteGlobalDimOnly"


def _toric_two_per_side(coinv: RepSpec) -> bool:
    """Every line carrying a nonzero neutral weight has at least two weights
    (with multiplicity) on each of its sides."""
    return all(sum(m for k, m in classes if k > 0) >= 2
               and sum(m for k, m in classes if k < 0) >= 2
               for classes, _, _ in line_decomposition(coinv.weights).values())


def certify_nccr(rep: RepSpec, lv: LeviDatum, coinv: RepSpec, nu: Vec,
                 eps: Vec | None = None, twist: TwistData | None = None,
                 genericity_assertion: bool | None = None,
                 prazno_mode: str = "set") -> NccrCertificate:
    """Certify the crepancy conditions of the half-size window at lam =
    lv.lam, given the Levi datum ``lv`` of lam and the lam-neutral weights
    ``coinv`` (``reps.coinvariant_rep(rep, lam)``): a component's ``levi``
    and ``coinvariants``.

    Checks quasi-symmetry of the weight multiset, (weak) genericity of
    epsilon for the neutral zonotope, nonemptiness of the half-size epsilon
    window, and emptiness of the shifted boundary window; the genericity of
    the neutral representation is decided by the toric rule when the Levi has
    no roots and is otherwise taken from the caller's assertion.  With
    ``eps`` None the default epsilon of the neutral zonotope is used
    (``pick_epsilon`` at ``lv``).  An epsilon that is not Levi-invariant or
    not parallel to the neutral zonotope is refused by the genericity test
    with InputError.

    The "set" boundary window holds the points of the plus-minus epsilon
    window that are not in the half-open one.  The "minkowski" one holds the
    p with 2(p - shift) + v in Z for every vertex v of the closed unit
    zonotope Z, all in section form.  Z is convex and compact, so no
    nonzero translate of it fits inside it: that boundary is the window of
    no generators, the shift point.  The certificate keeps epsilon as
    given or picked; the windows read its section form.
    """
    if prazno_mode not in ("set", "minkowski"):
        raise InputError(f"unknown prazno mode {prazno_mode!r}")
    nu = vec(nu)
    gens = coinv.expanded
    eps = pick_epsilon(lv, gens) if eps is None else vec(eps)
    if not lv.is_invariant(nu):
        raise InputError("nu is not invariant under the Levi Weyl group")
    quasi = is_quasi_symmetric(rep)
    if is_generic(eps, lv, gens):
        eps_status = "Generic"
    elif is_weakly_generic(eps, lv, gens):
        eps_status = "WeaklyGeneric"
    else:
        eps_status = "Fails"
    shift = lv.datum.normalize_weight(vsub(nu, lv.rho_bar_lambda))
    e = lv.datum.normalize_weight(eps)
    half = Fraction(1, 2)
    window = tuple(_half_eps_window(lv, gens, shift, EpsShift(e, "plus"),
                                    twist))
    if prazno_mode == "set":
        half_open = member(gens, half, shift, HALF_OPEN)
        both_ways = member_eps(gens, half, shift, EpsShift(e, "plus_minus"))
        prazno_points = tuple(window_points(
            lv, gens, half, shift,
            lambda p: both_ways(p) and not half_open(p), twist))
    else:
        prazno_points = tuple(window_points(
            lv, (), half, shift,
            member((), half, shift, CLOSED), twist))
    if not lv.phi_lambda_plus:
        genericity = "CheckedToricRule" if _toric_two_per_side(coinv) else "Unknown"
    elif genericity_assertion:
        genericity = "UserAsserted"
    else:
        genericity = "Unknown"
    return NccrCertificate(quasi, eps, eps_status, window, prazno_points,
                           genericity, prazno_mode)


# ---------------------------------------------------------------------------
# Preset families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    family: str
    pieces: tuple      # the construction pieces ``rep`` was built from
    rep: RepSpec
    recommended_eps: Vec
    expected: dict


def _sl2_part_sum(n: int) -> int:
    """Sum of the positive weight magnitudes of the n-th symmetric power of
    the defining two-dimensional representation."""
    if n % 2:
        return (n + 1) ** 2 // 4
    return n * (n + 2) // 4


_SL2_CASE_A = [(1,), (2,), (1, 1), (1, 2), (2, 2), (3,), (4,)]


def preset(family: str, **params) -> Preset:
    """Exact weight data plus the expected classification for the worked
    example families."""
    family = family.lower()
    if family == "pfaffian":
        n, h = int(params["n"]), int(params["h"])
        if not 2 * n < h:
            raise InputError("pfaffian preset needs 2n < h")
        datum = build_group(f"Sp({2 * n})")
        pieces = (("vector_power", h),)
        rep = construct_rep(datum, pieces)
        expected = {"family": "pfaffian", "n": n, "h": h,
                    "prazno_empty": h % 2 == 1,
                    "verdict": "TwistedNCCR" if h % 2 == 1 else "FiniteGlobalDimOnly"}
        return Preset("pfaffian", pieces, rep, zero_vec(n), expected)
    if family == "determinantal":
        n, h = int(params["n"]), int(params["h"])
        if not n < h:
            raise InputError("determinantal preset needs n < h")
        datum = build_group(f"GL({n})")
        pieces = (("vector_power", h), ("dual_vector_power", h))
        rep = construct_rep(datum, pieces)
        eps = (ONE,) * n
        expected = {"family": "determinantal", "n": n, "h": h,
                    "prazno_empty": True, "verdict": "TwistedNCCR"}
        return Preset("determinantal", pieces, rep, eps, expected)
    if family == "sl2":
        degrees = [int(d) for d in params["degrees"]]
        if any(d < 0 for d in degrees):
            raise InputError("sl2 preset degrees must be >= 0")
        datum = build_group("SL(2)")
        pieces = tuple(("sym_power", d) if d > 0 else ("trivial", 1)
                       for d in degrees)
        rep = construct_rep(datum, pieces)
        c = sum(1 for d in degrees if d == 0)
        s = sum(_sl2_part_sum(d) for d in degrees)
        nonzero = tuple(sorted(d for d in degrees if d > 0))
        if not nonzero or list(nonzero) in [list(t) for t in _SL2_CASE_A]:
            case = "A"
        elif s % 2 == 1:
            case = "B"
        else:
            case = "unclassified"
        expected = {"family": "sl2", "degrees": degrees, "c": c, "s": s,
                    "case": case,
                    "half_window_size": (s - 1) // 2 if s % 2 == 1 else None}
        return Preset("sl2", pieces, rep, zero_vec(2), expected)
    if family == "toric":
        weights = params.get("weights") or [((1,), 2), ((-1,), 2)]
        rank = len(vec(weights[0][0]))
        datum = build_group(f"Torus({rank})")
        pieces = (("weights", tuple(weights)),)
        rep = construct_rep(datum, pieces)
        eps = _toric_recommended_eps(rep)
        expected = {"family": "toric",
                    "two_per_side": _toric_two_per_side(rep),
                    "verdict": "TwistedNCCR" if _toric_two_per_side(rep)
                    and is_quasi_symmetric(rep) else "Unknown"}
        return Preset("toric", pieces, rep, eps, expected)
    raise InputError(f"unknown preset family {family!r}")


def _toric_recommended_eps(rep: RepSpec) -> Vec:
    """A small integral generic direction, or zero when none exists."""
    n, whole = rep.datum.rank, full_levi(rep.datum)
    gens = rep.expanded
    for bound in range(1, 4):
        for v in integral_shell(n, bound):
            if is_zero_vec(v) or not in_span(list(gens), v):
                continue
            if is_generic(v, whole, gens):
                return vec(v)
    return zero_vec(n)
