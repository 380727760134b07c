"""Ordered decomposition components, NCCR certification, presets.

The infinite ordered decomposition is truncated to the cells discovered in a
dominant-weight search box, optionally capped by a maximal radius; the tail
component (index 0) absorbs everything below the retention threshold.  It is
the component at lam = 0, built like the others, and its window is the unit
relative-interior window in standard mode, or the half-size epsilon window
in quasi-symmetric mode.  Component windows and the NCCR window and boundary
are all enumerated by ``partition.window_points``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import Vec, ZERO, ONE, frac, in_span, is_zero_vec, primitive, \
    vadd, vscale, vsub, vec, zero_vec
from .linprog import InputError, integral_shell
from .characters import weyl_dim
from .partition import (HALF_OPEN_MODE, STANDARD, PartitionCell,
                        PreconditionError, ShiftProfile, cell_members,
                        partition_region, window_points)
from .reps import (RepSpec, TwistData, coinvariant_rep, construct_rep,
                   is_quasi_symmetric, rep_spec)
from .rootdata import LeviDatum, RootDatum, build_group, full_levi, levi, \
    pairing
from .zonotope import (CLOSED, HALF_OPEN, REL_INT, EpsShift, FaceSignature,
                       invariants_in_span, is_generic, is_weakly_generic,
                       member, member_eps)


@dataclass(frozen=True)
class SodComponent:
    index: int
    signature: FaceSignature
    lam: Vec
    levi: LeviDatum
    nu: Vec
    window_kind: tuple  # ("rel_int_scaled", r) or ("half_size_eps", eps)
    window: tuple[Vec, ...]
    u_summands: tuple[tuple[Vec, int], ...]
    coinvariants: RepSpec
    algebra: str
    is_d0: bool


@dataclass(frozen=True)
class SodResult:
    components: tuple[SodComponent, ...]
    absorbed: tuple[PartitionCell, ...]   # cells folded into the tail window
    frontier: tuple[PartitionCell, ...]   # cells beyond r_max, not emitted
    epsilon: Vec
    threshold: str
    box_radius: int
    r_max: Fraction | None


def pick_epsilon(rep: RepSpec, lv: LeviDatum, generators) -> Vec:
    """Default epsilon: zero when no invariant direction is parallel to the
    window zonotope, else the sum of a basis of the parallel invariants."""
    total = zero_vec(rep.datum.rank)
    for v in invariants_in_span(lv, generators, rep.datum.central_directions):
        total = vadd(total, v)
    return total


def _component(rep: RepSpec, index: int, sig: FaceSignature, lv: LeviDatum,
               nu: Vec, kind: tuple, window, coinv: RepSpec) -> SodComponent:
    """The component at lam = lv.lam with window shift nu and the
    coinvariants ``coinv`` of lam; the tail is the one with the trivial
    signature, at lam = 0."""
    datum = rep.datum
    if not lv.is_invariant(nu):
        raise InputError("window shift is not Levi-invariant")
    window = tuple(window)
    summands = tuple((mu, weyl_dim(datum, mu, lv)) for mu in window)
    space = "W" if sig.trivial else "W_λ"
    return SodComponent(
        index=index, signature=sig, lam=lv.lam, levi=lv, nu=nu,
        window_kind=kind, window=window, u_summands=summands,
        coinvariants=coinv,
        algebra=f"(End(U) ⊗ Sym {space})^{{{lv.label()}}}",
        is_d0=sig.trivial)


def _half_eps_window(rep: RepSpec, lv: LeviDatum, gens, shift, e: EpsShift,
                     twist: TwistData | None = None) -> list[Vec]:
    """The half-size epsilon window of (lv, gens, shift)."""
    half = Fraction(1, 2)
    inside = member_eps(gens, half, shift, e, rep.datum.central_directions)
    return window_points(rep.datum, lv, gens, half, shift, inside, twist)


def _tail_component(rep: RepSpec, lv: LeviDatum, profile: ShiftProfile,
                    eps: Vec, twist: TwistData | None = None) -> SodComponent:
    """The component at lam = 0, whose generators are all the weights: the
    unit relative-interior window in standard mode, the half-size epsilon
    window in quasi-symmetric mode."""
    datum = rep.datum
    gens = rep.expanded
    shift = vsub(profile.nu_global, lv.rho_bar_lambda)
    if profile.threshold == STANDARD:
        kind = ("rel_int_scaled", ONE)
        inside = member(gens, ONE, shift, REL_INT, datum.central_directions)
        window = window_points(datum, lv, gens, ONE, shift, inside, twist)
    else:
        kind = ("half_size_eps", eps)
        window = _half_eps_window(rep, lv, gens, shift, EpsShift(eps, "plus"),
                                  twist)
    trivial = FaceSignature(ZERO, (), (), (), True)
    return _component(rep, 0, trivial, lv, profile.nu_global, kind, window,
                      coinvariant_rep(rep, lv.lam))


def enumerate_sod(rep: RepSpec, profile: ShiftProfile,
                  r_max: Fraction | None = None, box_radius: int = 6,
                  epsilon: Vec | None = None,
                  twist: TwistData | None = None) -> SodResult:
    """Ordered decomposition data over a dominant search box.

    Components appear in strictly descending order of the cell key, the tail
    component last with the largest index (zero); kept cells have radius at
    least the profile threshold and at most r_max.
    """
    datum = rep.datum
    if profile.threshold == HALF_OPEN_MODE and not is_quasi_symmetric(rep):
        raise PreconditionError(
            "half-open threshold requires a quasi-symmetric weight multiset")
    cells = partition_region(rep, profile, box_radius)  # raises without T-stable point
    lv0 = full_levi(datum)
    eps = vec(epsilon) if epsilon is not None \
        else pick_epsilon(rep, lv0, rep.expanded)
    kept, absorbed, frontier = [], [], []
    for cell in cells:
        if not profile.keeps(cell.signature.r):
            absorbed.append(cell)
        elif r_max is not None and cell.signature.r > r_max:
            frontier.append(cell)
        else:
            kept.append(cell)
    kept.sort(key=lambda c: c.key, reverse=True)
    components = []
    for i, cell in enumerate(kept):
        coinv = coinvariant_rep(rep, cell.lam)
        components.append(_component(
            rep, -(len(kept) - i), cell.signature, cell.levi, cell.nu_levi,
            ("rel_int_scaled", cell.signature.r),
            cell_members(rep, cell, profile, coinv, twist=twist),
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
    window_nonempty: bool
    window: tuple[Vec, ...]
    prazno_empty: bool
    prazno_points: tuple[Vec, ...]
    genericity: str        # "CheckedToricRule" | "UserAsserted" | "Unknown"
    verdict: str           # "TwistedNCCR" | "FiniteGlobalDimOnly" | "Unknown"
    prazno_mode: str       # "set" | "minkowski"


def _toric_two_per_side(coinv: RepSpec) -> bool:
    """Every line carrying a nonzero neutral weight has at least two weights
    (with multiplicity) on each of its sides."""
    sides: dict[Vec, list[int]] = {}
    for w, m in coinv.weights:
        if is_zero_vec(w):
            continue
        key = primitive(w)
        pos, neg = sides.get(key, [0, 0])
        k = next(i for i in range(len(key)) if key[i] != 0)
        if w[k] > 0:
            pos += m
        else:
            neg += m
        sides[key] = [pos, neg]
    return all(pos >= 2 and neg >= 2 for pos, neg in sides.values())


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
    p with 2(p - shift) + v in Z + span(central) for every vertex v of the
    closed unit zonotope Z.  Z is convex and compact, so no translate of it
    by a vector outside span(central) fits inside it: that boundary is the
    window of no generators, the shift point modulo the SL directions.
    """
    if prazno_mode not in ("set", "minkowski"):
        raise InputError(f"unknown prazno mode {prazno_mode!r}")
    datum = rep.datum
    nu = vec(nu)
    gens = coinv.expanded
    eps = pick_epsilon(rep, lv, gens) if eps is None else vec(eps)
    if not lv.is_invariant(nu):
        raise InputError("nu is not invariant under the Levi Weyl group")
    central = datum.central_directions
    quasi = is_quasi_symmetric(rep)
    if is_generic(eps, lv, gens, central):
        eps_status = "Generic"
    elif is_weakly_generic(eps, lv, gens, central):
        eps_status = "WeaklyGeneric"
    else:
        eps_status = "Fails"
    shift = vsub(nu, lv.rho_bar_lambda)
    half = Fraction(1, 2)
    window = tuple(_half_eps_window(rep, lv, gens, shift,
                                    EpsShift(eps, "plus"), twist))
    if prazno_mode == "set":
        half_open = member(gens, half, shift, HALF_OPEN, central)
        both_ways = member_eps(gens, half, shift, EpsShift(eps, "plus_minus"),
                               central)
        prazno_points = tuple(window_points(
            datum, lv, gens, half, shift,
            lambda p: both_ways(p) and not half_open(p), twist))
    else:
        prazno_points = tuple(window_points(
            datum, lv, (), half, shift,
            member((), half, shift, CLOSED, central), twist))
    prazno_empty = not prazno_points

    if not lv.phi_lambda:
        genericity = "CheckedToricRule" if _toric_two_per_side(coinv) else "Unknown"
    elif genericity_assertion:
        genericity = "UserAsserted"
    else:
        genericity = "Unknown"

    if (quasi and eps_status in ("Generic", "WeaklyGeneric")
            and window and prazno_empty and genericity != "Unknown"):
        verdict = "TwistedNCCR"
    elif quasi:
        verdict = "FiniteGlobalDimOnly"
    else:
        verdict = "Unknown"
    return NccrCertificate(
        quasi_symmetric=quasi, epsilon=eps, eps_status=eps_status,
        window_nonempty=bool(window), window=window,
        prazno_empty=prazno_empty, prazno_points=prazno_points,
        genericity=genericity, verdict=verdict, prazno_mode=prazno_mode)


# ---------------------------------------------------------------------------
# Preset families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    family: str
    datum: RootDatum
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
        return Preset("pfaffian", datum, pieces, rep, zero_vec(n), expected)
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
        return Preset("determinantal", datum, pieces, rep, eps, expected)
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
        return Preset("sl2", datum, pieces, rep, zero_vec(2), expected)
    if family == "toric":
        weights = params.get("weights") or [((1,), 2), ((-1,), 2)]
        rank = len(vec(weights[0][0]))
        datum = build_group(f"Torus({rank})")
        rep = rep_spec(datum, weights)
        eps = _toric_recommended_eps(datum, rep)
        expected = {"family": "toric",
                    "two_per_side": _toric_two_per_side(rep),
                    "verdict": "TwistedNCCR" if _toric_two_per_side(rep)
                    and is_quasi_symmetric(rep) else "Unknown"}
        return Preset("toric", datum, (("weights", rep.weights),), rep, eps,
                      expected)
    raise InputError(f"unknown preset family {family!r}")


def _toric_recommended_eps(datum: RootDatum, rep: RepSpec) -> Vec:
    """A small integral generic direction, or zero when none exists."""
    n = datum.rank
    gens = rep.expanded
    for bound in range(1, 4):
        for v in integral_shell(n, bound):
            if is_zero_vec(v) or not in_span(list(gens), v):
                continue
            if is_generic(v, datum, gens):
                return v
    return zero_vec(n)


# ---------------------------------------------------------------------------
# Nested one-parameter subgroups.
# ---------------------------------------------------------------------------

def refine_lambda_combination(rep: RepSpec, lam_outer: Vec, lam_inner: Vec) -> Vec:
    """Integral antidominant combination a (lam_outer + b lam_inner), with b
    halved until the pairing signs refine the nested computation: the outer
    sign where nonzero, the inner sign on the outer-neutral weights."""
    datum = rep.datum
    lam_outer = vec(lam_outer)
    lam_inner = vec(lam_inner)
    if any(pairing(lam_outer, a) > 0 for a in datum.positive_roots):
        raise InputError("outer subgroup is not antidominant")
    lv = levi(datum, lam_outer)
    if any(pairing(lam_inner, a) > 0 for a in lv.phi_lambda_plus):
        raise InputError("inner subgroup is not antidominant for the Levi")
    b = ONE
    for _ in range(40):
        cand = vadd(lam_outer, vscale(b, lam_inner))
        if _signs_refine(rep, cand, lam_outer, lam_inner) and \
                all(pairing(cand, a) <= 0 for a in datum.positive_roots):
            scale = lcm(*(x.denominator for x in cand)) if cand else 1
            return vscale(Fraction(scale), cand)
        b = b / 2
    raise InputError("sign verification did not stabilize")


def _signs_refine(rep: RepSpec, cand: Vec, outer: Vec, inner: Vec) -> bool:
    def sgn(x) -> int:
        return (x > 0) - (x < 0)

    for w in rep.expanded:
        want = sgn(pairing(outer, w)) or sgn(pairing(inner, w))
        if sgn(pairing(cand, w)) != want:
            return False
    return True
