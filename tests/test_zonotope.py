import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (brute_force_signature, face_signature_reference,
                     facet_normals_reference, facet_table_reference,
                     forced_tight_reference, invariants_in_span_reference,
                     is_generic_reference, is_weakly_generic_reference,
                     member_eps_facet_reference, member_eps_reference,
                     member_eps_strict_reference, member_reference,
                     min_radius_reference, proper_flats_reference,
                     random_generators, realizable_face_patterns_reference,
                     signature_to_value_counts, supporting_lambda_reference)
from sodlab import zonotope
from sodlab.cli import main
from sodlab.linalg import (in_span, nullspace, span_basis, vadd, vdot, vec,
                           vscale)
from sodlab.linprog import (InputError, feasible_point, forced_tight,
                            strict_feasible)
from sodlab.partition import make_profile, signature_of
from sodlab.report import parse_config, render, run_job
from sodlab.reps import construct_rep, rep_spec, weight_signs
from sodlab.rootdata import (build_group, full_levi, invariant_subspace,
                             levi, make_dominant, orbit)
from sodlab.zonotope import (CLOSED, HALF_OPEN, REL_INT, EpsShift,
                             FaceSignature, _coefficient_program,
                             face_signature_at, facet_table,
                             invariants_in_span,
                             is_generic, is_weakly_generic, member,
                             member_eps, min_radius,
                             realizable_face_patterns, supporting_lambda)

T1 = build_group("Torus(1)")
T2 = build_group("Torus(2)")

G4 = (vec([-1]), vec([-1]), vec([1]), vec([1]))
G22 = (vec([1, 0]), vec([-1, 0]), vec([0, 1]), vec([0, -1]))
VARIANTS = (CLOSED, HALF_OPEN, REL_INT)


def q(gens, r, shift, variant, central=()):
    return member(tuple(gens), F(r), vec(shift), variant, central)


# Catalog groups for the membership predicate, SL groups among them.
MEMBER_GROUPS = ("Torus(1)", "Torus(2)", "GL(2)", "SL(2)", "SL(3)",
                 "Product(SL(2),Torus(1))", "Product(SL(2),SL(2))")


def member_points(rng, gens, r, shift, central, n):
    """A shuffled list of test points around shift + r * Z(gens): int
    tuples in the closed box widened by one, their Fraction copies, points
    whose generator coefficients sit at -1 or 0 (vertices and other points
    on several facets) or at -1/2, steps along the central directions, and
    steps off span(gens + central) when that span is not everything."""
    lo = [shift[k] - r * sum(max(0, g[k]) for g in gens) - 1
          for k in range(n)]
    hi = [shift[k] + r * sum(max(0, -g[k]) for g in gens) + 1
          for k in range(n)]
    ints = [tuple(rng.randint(math.floor(a), math.ceil(b))
                  for a, b in zip(lo, hi)) for _ in range(6)]
    points = ints + [vec(p) for p in ints[:3]]
    for _ in range(4):
        p = shift
        for g in gens:
            p = vadd(p, vscale(r * rng.choice((-1, F(-1, 2), 0)), g))
        points.append(p)
    points += [vadd(shift, vscale(F(rng.randint(-2, 2)), c)) for c in central]
    span = span_basis(list(gens) + list(central), n)
    for off in nullspace(span, n) if span else []:
        points.append(vadd(rng.choice(points[-4:]), vscale(F(1, 2), off)))
    rng.shuffle(points)
    return points


class TestMember:
    def test_boundary_closed_vs_relint(self):
        assert q(G4, 1, [0], CLOSED)(vec([2]))
        assert not q(G4, 1, [0], REL_INT)(vec([2]))

    def test_half_open_interval(self):
        g2 = (vec([1]), vec([-1]))
        assert not q(g2, 1, [0], HALF_OPEN)(vec([1]))
        assert q(g2, 1, [0], HALF_OPEN)(vec([0]))

    def test_inclusion_chain_random(self):
        rng = random.Random(5)
        gens = (vec([1, 0]), vec([-1, 0]), vec([1, 1]), vec([-1, -1]))
        for _ in range(40):
            p = vec([F(rng.randint(-8, 8), rng.choice([1, 2, 4])),
                     F(rng.randint(-8, 8), rng.choice([1, 2, 4]))])
            closed = q(gens, 2, [0, 0], CLOSED)(p)
            half = q(gens, 2, [0, 0], HALF_OPEN)(p)
            rel = q(gens, 2, [0, 0], REL_INT)(p)
            assert (not half or closed) and (not rel or half)

    def test_grid_oracle_agreement(self):
        # brute-force coefficient grid with denominators <= 32 on rank <= 2
        rng = random.Random(6)
        gens = (vec([1, 0]), vec([0, 1]), vec([-1, -1]))
        r = F(1)
        reachable = []
        for den in (1, 2, 4, 8, 16, 32):
            steps = [F(-k, den) for k in range(den + 1)]
            reachable.append({
                (sum(c * g[0] for c, g in zip(combo, gens)),
                 sum(c * g[1] for c, g in zip(combo, gens)))
                for combo in itertools.product(steps, repeat=len(gens))})
        for _ in range(25):
            p = vec([F(rng.randint(-3, 3), rng.choice([1, 2])),
                     F(rng.randint(-3, 3), rng.choice([1, 2]))])
            got = q(gens, r, [0, 0], CLOSED)(p)
            found = any(tuple(p) in grid for grid in reachable)
            # coefficient denominators stay small on this instance family,
            # so the grid search is conclusive in both directions
            assert got == found

    @pytest.mark.parametrize("tag", ["SL(2)", "Product(SL(2),Torus(1))",
                                     "Torus(2)"])
    def test_no_generators_matches_lp(self, tag):
        # with no generators every variant is shift + span(central)
        datum = build_group(tag)
        central = datum.central_directions
        rng = random.Random("no generators " + tag)
        verdicts = set()
        for _ in range(6):
            shift = vec(F(rng.randint(-3, 3), rng.choice([1, 2]))
                        for _ in range(datum.rank))
            on = [shift] + [vadd(shift, vscale(F(rng.randint(-2, 2)), c))
                            for c in central]
            off = [vadd(shift, vec(F(rng.randint(-2, 2), rng.choice([1, 3]))
                                   for _ in range(datum.rank)))]
            for p, variant in itertools.product(on + off, VARIANTS):
                prog = _coefficient_program((), F(1, 2), shift, p, variant,
                                            central)[0].build()
                lp = feasible_point(prog) is not None if variant == CLOSED \
                    else strict_feasible(prog)
                got = q((), F(1, 2), shift, variant, central)(p)
                assert got == lp, (tag, shift, p, variant)
                verdicts.add(got)
        assert verdicts == {True, False}

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(st.sampled_from(MEMBER_GROUPS), st.integers(0, 2 ** 32),
           st.sampled_from(VARIANTS), st.sampled_from((F(1, 2), F(1), F(3, 2))))
    def test_one_predicate_matches_per_point_reference(self, tag, seed,
                                                       variant, r):
        """One predicate, built once, decides a shuffled list of points as
        the per-point reference does: int and Fraction points, vertices and
        other points on several facets, points off span(generators +
        central), shifts off the lattice, and no generators."""
        rng = random.Random(seed)
        datum = build_group(tag)
        central = datum.central_directions
        gens = () if rng.random() < 0.15 else random_generators(rng, datum)
        shift = vec(F(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                    for _ in range(datum.rank))
        points = member_points(rng, gens, r, shift, central, datum.rank)
        inside = member(gens, r, shift, variant, central)
        got = [inside(p) for p in points]
        want = [member_reference(gens, r, shift, variant, p, central)
                for p in points]
        assert got == want, (tag, gens, r, shift, variant, points)

    def test_unknown_variant_raises_when_built(self):
        for gens in (G4, ()):
            with pytest.raises(InputError, match="unknown variant"):
                member(gens, F(1), vec([0]), "open")

    def test_radius_must_be_positive_when_built(self):
        for gens in (G4, ()):
            for r, variant in itertools.product((F(0), F(-1, 2), 0),
                                                VARIANTS):
                with pytest.raises(InputError, match="positive"):
                    member(gens, r, vec([0]), variant)



class TestMinRadius:
    def test_literal(self):
        assert min_radius(G4, vec([0]))(vec([3])) == F(3, 2)

    def test_at_shift(self):
        assert min_radius(G4, vec([0]))(vec([0])) == 0

    def test_off_span(self):
        gens = (vec([1, 0]), vec([-1, 0]))
        assert min_radius(gens, vec([0, 0]))(vec([0, 1])) is None

    def test_outside_cone(self):
        gens = (vec([1]),)
        assert min_radius(gens, vec([0]))(vec([1])) is None


class TestFaceSignature:
    def test_torus_line(self):
        sig = face_signature_at(G4, vec([0]))(vec([3]))
        assert sig.r == F(3, 2)
        assert sig.s_plus == (0, 1) and sig.s_minus == (2, 3)
        assert sig.s_zero == ()

    def test_rank_two(self):
        sig = face_signature_at(G22, vec([0, 0]))(vec([2, 1]))
        assert sig.r == 2
        assert sig.s_plus == (1,) and sig.s_minus == (0,)
        assert sig.s_zero == (2, 3)

    def test_trivial_convention(self):
        sig = face_signature_at(G4, vec([0]))(vec([0]))
        assert sig.trivial and sig.r == 0

    def test_off_span_raises(self):
        with pytest.raises(InputError):
            face_signature_at((vec([1, 0]), vec([-1, 0])),
                              vec([0, 0]))(vec([0, 1]))

    def test_rescaling_idempotence(self):
        base = face_signature_at(G22, vec([0, 0]))(vec([2, 1]))
        doubled = face_signature_at(
            tuple(vscale(F(3), g) for g in G22), vec([0, 0]))(
            vscale(F(3), vec([2, 1])))
        assert doubled.r == base.r
        assert (doubled.s_plus, doubled.s_minus, doubled.s_zero) == \
            (base.s_plus, base.s_minus, base.s_zero)

    def test_reconstruction_witness(self):
        # the point must decompose as shift - r*sum(S+) + open block (Lemma
        # of the supporting face); verified through relative interior
        # membership of the remaining block.
        p = vec([2, 1])
        sig = face_signature_at(G22, vec([0, 0]))(p)
        pinned = vec([0, 0])
        for i in sig.s_plus:
            pinned = vec([a - sig.r * b for a, b in zip(pinned, G22[i])])
        rest = tuple(G22[i] for i in sig.s_zero)
        target = vec([a - b for a, b in zip(p, pinned)])
        assert q(rest, sig.r, [0, 0], REL_INT)(target)

    def test_forced_tight_matches_reference_on_face_programs(self,
                                                             monkeypatch):
        # every program the signature function hands to forced_tight: the
        # closed coefficient program with the point's right-hand side and
        # its radius bounds
        sp4 = build_group("Sp(4)")
        cases = [(G4, vec([0]), [vec([p]) for p in range(-3, 4)]),
                 (G22, vec([0, 0]), [vec([2, 1]), vec([-1, 3]), vec([0, 2])]),
                 (construct_rep(sp4, [("vector_power", 2)]).expanded,
                  vec([-2, -1]), [vec([1, 0]), vec([2, 2]), vec([3, 1])])]
        seen = []

        def captured(prog):
            seen.append(prog)
            return forced_tight(prog)
        monkeypatch.setattr(zonotope, "forced_tight", captured)
        for gens, shift, points in cases:
            signature = face_signature_at(gens, shift)
            for p in points:
                sig = signature(p)
                assert len(seen) == (0 if sig.trivial else 1), p
                for prog in seen:
                    assert forced_tight(prog) == forced_tight_reference(prog)
                seen.clear()

    @pytest.mark.parametrize("p, calls", [
        (vec([2, 1]), {"lp_optimize": 1, "forced_tight": 1}),
        (vec([0, 0]), {"lp_optimize": 1, "forced_tight": 0}),
    ])
    def test_solver_calls_by_name(self, monkeypatch, p, calls):
        # the benchmark's layer tracer wraps these module-level names and
        # expects them on the faces workload.  Building the signature
        # function solves nothing; each point solves one radius LP, then
        # one forced-tightness sweep unless the point is the shift (r = 0)
        seen = dict.fromkeys(calls, 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(zonotope, name)):
                seen[_name] += 1
                return _real(*args)
            monkeypatch.setattr(zonotope, name, counted)
        signature = face_signature_at(G22, vec([0, 0]))
        assert seen == dict.fromkeys(calls, 0)
        for _ in range(2):
            sig = signature(p)
            assert sig.trivial == (sig.r == 0) == (p == vec([0, 0]))
            assert seen == calls
            seen.update(dict.fromkeys(calls, 0))


def signature_draw(rng, tag):
    """Generators (repeated, opposite, zero and central-shifted copies, or
    none), a shift with half-integer entries and a shuffled list of points:
    the shift itself, shift + central steps, int and Fraction points, and
    points off span(generators + central) when that span is not
    everything."""
    datum = build_group(tag)
    central = datum.central_directions
    gens = () if rng.random() < 0.1 else random_generators(rng, datum)
    shift = vec(F(rng.randint(-2, 2), rng.choice((1, 2)))
                for _ in range(datum.rank))
    points = member_points(rng, gens, rng.choice((F(1, 2), F(1), F(3, 2))),
                           shift, central, datum.rank)
    points += [shift, shift]
    rng.shuffle(points)
    return gens, shift, central, points


def brute_force_splits(gens):
    """Sign-pattern splits ``brute_force_signature`` tries: (m + 1)(m + 2)/2
    per class of m equal generators."""
    return math.prod((m + 1) * (m + 2) // 2
                     for m in Counter(map(tuple, gens)).values())


def check_signature_functions(rng, tag):
    """One radius function and one signature function, each built once,
    decide every drawn point as fresh builds and the per-point references
    do, and give the same answers when the points run again in reverse
    order.  Returns the kinds of point seen: "trivial", "off span", "face"
    and "brute force" (a face also checked against the sign-pattern
    oracle)."""
    gens, shift, central, points = signature_draw(rng, tag)
    radius = min_radius(gens, shift, central)
    signature = face_signature_at(gens, shift, central)
    small = brute_force_splits(gens) <= 100
    kinds, answers = set(), []
    for p in points:
        r = radius(p)
        assert r == min_radius_reference(gens, shift, p, central) == \
            min_radius(gens, shift, central)(p), (tag, gens, shift, p)
        if r is None:
            for build in (signature, face_signature_at(gens, shift, central),
                          lambda p: face_signature_reference(gens, shift, p,
                                                             central)):
                with pytest.raises(InputError, match="outside the span"):
                    build(p)
            kinds.add("off span")
            answers.append((r, None))
            continue
        sig = signature(p)
        assert sig == face_signature_reference(gens, shift, p, central) == \
            face_signature_at(gens, shift, central)(p), (tag, gens, shift, p)
        assert sig.r == r and sig.trivial == (r == 0)
        assert sig.trivial or p != shift
        kinds.add("trivial" if sig.trivial else "face")
        answers.append((r, sig))
        if small:
            rep = SimpleNamespace(expanded=gens)
            oracle = brute_force_signature(rep, shift, p, central)
            if sig.trivial:
                assert oracle == "trivial", (tag, gens, shift, p)
            else:
                assert oracle == (sig.r,) + signature_to_value_counts(
                    rep, sig), (tag, gens, shift, p)
                kinds.add("brute force")
    for p, (r, sig) in zip(points[::-1], answers[::-1]):
        assert radius(p) == r
        if sig is None:
            with pytest.raises(InputError, match="outside the span"):
                signature(p)
        else:
            assert signature(p) == sig
    return kinds


class TestSignatureFunctions:
    @settings(derandomize=True, database=None, max_examples=50,
              deadline=None)
    @given(st.sampled_from(MEMBER_GROUPS), st.integers(0, 2 ** 32))
    def test_one_build_matches_fresh_builds_and_references(self, tag, seed):
        """Built once per (generators, shift, central), the radius and
        signature functions agree with fresh builds, with the per-point
        references and with the sign-pattern oracle on every point, in
        any order: repeated, zero and central-shifted generators, none at
        all, half-integer shifts, the shift itself (trivial) and points
        off the span (None, InputError)."""
        check_signature_functions(random.Random(seed), tag)

    def test_draws_reach_every_kind_of_point(self):
        kinds = set()
        for seed in range(12):
            kinds |= check_signature_functions(
                random.Random(seed), MEMBER_GROUPS[seed % len(MEMBER_GROUPS)])
        assert kinds == {"trivial", "off span", "face", "brute force"}


class TestSupportingLambda:
    def test_rank_two(self):
        sig = face_signature_at(G22, vec([0, 0]))(vec([2, 1]))
        assert supporting_lambda(sig, T2, G22) == vec([-1, 0])

    def test_trivial(self):
        sig = face_signature_at(G4, vec([0]))(vec([0]))
        assert supporting_lambda(sig, T1, G4) == vec([0])

    def test_torus_line(self):
        sig = face_signature_at(G4, vec([0]))(vec([3]))
        assert supporting_lambda(sig, T1, G4) == vec([-1])

    def test_round_trip_through_weight_signs(self):
        sp4 = build_group("Sp(4)")
        rep = construct_rep(sp4, [("vector_power", 2)])
        shift = vec([-2, -1])  # -rho_bar
        signature = face_signature_at(rep.expanded, shift)
        for p in [vec([1, 0]), vec([2, 2]), vec([3, 1])]:
            sig = signature(p)
            lam = supporting_lambda(sig, sp4, rep.expanded)
            signs = weight_signs(rep, lam)
            assert signs.t_plus == sig.s_plus
            assert signs.t_minus == sig.s_minus
            assert signs.t_zero == sig.s_zero


    def test_unrealizable_signature_is_refused_by_the_search_caps(self):
        """No antidominant subgroup of GL(2) is positive on (1, 0) and
        negative on (0, 1).  No partition produces this signature; the
        integral search refuses it at its candidate cap."""
        gl2 = build_group("GL(2)")
        gens = (vec([0, 1]), vec([1, 0]))
        sig = FaceSignature(F(1), (1,), (0,), (), False)
        start = time.perf_counter()
        with pytest.raises(InputError, match="above the cap"):
            supporting_lambda(sig, gl2, gens)
        assert time.perf_counter() - start < 5
        mirror = FaceSignature(F(1), (0,), (1,), (), False)
        assert supporting_lambda(mirror, gl2, gens) == vec([-1, 1])


# Catalog groups of rank at most 3; only GL, SL and Sp have the defining
# representation that the power pieces need.
SIGNATURE_GROUPS = ("Torus(1)", "Torus(2)", "GL(1)", "GL(2)", "GL(3)",
                    "SL(2)", "SL(3)", "Sp(2)", "Sp(4)", "Sp(6)",
                    "Product(SL(2),Torus(1))", "Product(GL(1),Sp(2))",
                    "Product(GL(1),GL(2))")


def random_pieces(rng, datum, tag):
    """construct_rep pieces: catalog powers where the group has a defining
    representation (first powers only for Sp(6), whose defining weights are
    six), and the Weyl orbits of a few small weights."""
    pieces = []
    if tag.startswith(("GL", "SL", "Sp")):
        top = 1 if tag == "Sp(6)" else 2
        for _ in range(rng.randint(1, 2)):
            pieces.append((rng.choice(("vector_power", "dual_vector_power",
                                       "sym_power")), rng.randint(1, top)))
    counts = Counter()
    for _ in range(rng.randint(0 if pieces else 1, 2)):
        w = vec(rng.randint(-2, 2) for _ in range(datum.rank))
        m = rng.randint(1, 2)
        for sign in ((1, -1) if rng.random() < 0.7 else (1,)):
            point = tuple(sign * int(x) for x in w)
            for u, _ in orbit(full_levi(datum), point):
                counts[vec(u)] += m
    if counts:
        pieces.append(("weights", sorted(counts.items())))
    if rng.random() < 0.3:
        pieces.append(("trivial", 1))
    return pieces


class TestSupportingLambdaWithoutLp:
    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(st.sampled_from(SIGNATURE_GROUPS), st.integers(0, 2 ** 32))
    def test_partition_signatures_match_lp_guarded_reference(self, tag, seed):
        """Every signature of a dominant weight, at a Weyl-invariant shift
        and for a Weyl-symmetric weight multiset, is realized by an
        antidominant subgroup (the LP of the reference never refuses it),
        and the integral search alone finds the reference's subgroup."""
        rng = random.Random(seed)
        datum = build_group(tag)
        rep = construct_rep(datum, random_pieces(rng, datum, tag))
        nu = vec([0] * datum.rank)
        for v in invariant_subspace(datum):
            nu = vadd(nu, vscale(rng.randint(-2, 2), v))
        signature = signature_of(rep, make_profile(datum, nu))
        for _ in range(3):
            chi = vec(rng.randint(-4, 4) for _ in range(datum.rank))
            chi = make_dominant(datum, chi)[0]
            try:
                sig = signature(chi)
            except InputError:  # chi - shift is off the cone of the weights
                continue
            want = supporting_lambda_reference(sig, datum, rep.expanded)
            assert supporting_lambda(sig, datum, rep.expanded) == want, \
                (tag, rep.weights, chi, sig)


class TestMemberEps:
    def test_half_open_side(self):
        gens = (vec([1]),) * 3 + (vec([-1]),) * 3
        e = EpsShift(vec([1]), "plus")
        assert member_eps(gens, F(1), vec([0]), e)(vec([3]))
        assert not member_eps(gens, F(1), vec([0]), e)(vec([-3]))

    def test_zero_eps_is_closed(self):
        gens = (vec([1]),) * 3 + (vec([-1]),) * 3
        e = EpsShift(vec([0]), "plus")
        for p in range(-4, 5):
            assert member_eps(gens, F(1), vec([0]), e)(vec([p])) == \
                q(gens, 1, [0], CLOSED)(vec([p]))

    def test_plus_minus_opens_both_sides(self):
        gens = (vec([1]),) * 3 + (vec([-1]),) * 3
        e = EpsShift(vec([1]), "plus_minus")
        assert not member_eps(gens, F(1), vec([0]), e)(vec([3]))
        assert not member_eps(gens, F(1), vec([0]), e)(vec([-3]))
        assert member_eps(gens, F(1), vec([0]), e)(vec([2]))

    def test_matches_push_maximization_reference(self):
        gl2 = build_group("GL(2)")
        sp4 = build_group("Sp(4)")
        sl2 = build_group("SL(2)")
        cases = [
            ((vec([1]),) * 3 + (vec([-1]),) * 3, vec([0]), (), [vec([1])]),
            (G22, vec([0, 0]), (), [vec([1, 0]), vec([1, 1]), vec([2, -1])]),
            (construct_rep(gl2, [("vector_power", 2),
                                 ("dual_vector_power", 2)]).expanded,
             vec([F(-1, 2), F(1, 2)]), (), [vec([1, 1]), vec([1, -1])]),
            (construct_rep(sp4, [("vector_power", 2)]).expanded,
             vec([-2, -1]), (), [vec([1, 0]), vec([0, 1])]),
            (construct_rep(sl2, [("sym_power", 1), ("sym_power", 2)]).expanded,
             vec([F(-1, 2), F(1, 2)]), sl2.central_directions, [vec([1, 0])]),
        ]
        verdicts = set()
        for gens, shift, central, epsilons in cases:
            dim = len(shift)
            for eps in epsilons:
                for mode in ("plus", "plus_minus"):
                    e = EpsShift(eps, mode)
                    for r in (F(1), F(1, 2)):
                        for p in itertools.product(range(-3, 4), repeat=dim):
                            p = vec(p)
                            got = member_eps(gens, r, shift, e, central)(p)
                            assert got == member_eps_reference(
                                gens, r, shift, e, p, central)
                            verdicts.add(got)
        assert verdicts == {False, True}

    def test_eps_must_be_parallel(self):
        central = build_group("SL(2)").central_directions
        cases = [((vec([1, 0]), vec([-1, 0])), vec([0, 1]), "plus", ()),
                 ((vec([1, 1]), vec([-1, -1])), vec([1, 0]), "plus_minus", ()),
                 ((vec([1, 1]), vec([-1, -1])), vec([1, 0]), "plus", central),
                 ((), vec([1, 0]), "plus", central)]
        for gens, eps, mode, cen in cases:
            with pytest.raises(InputError):
                member_eps(gens, F(1), vec([0, 0]), EpsShift(eps, mode),
                           cen)(vec([0, 0]))
            # the error fires when the predicate is built, before any point
            with pytest.raises(InputError, match="parallel"):
                member_eps(gens, F(1), vec([0, 0]), EpsShift(eps, mode), cen)

    def test_radius_must_be_positive(self):
        for r in (F(0), F(-1, 2), 0):
            for p in (vec([0]), vec([1])):
                with pytest.raises(InputError):
                    member_eps(G4, r, vec([0]), EpsShift(vec([1]), "plus"))(p)
            with pytest.raises(InputError, match="positive"):
                member_eps(G4, r, vec([0]), EpsShift(vec([1]), "plus"))
        with pytest.raises(InputError):
            member_eps((), F(0), vec([0, 0]), EpsShift(vec([0, 0]), "plus"),
                       build_group("SL(2)").central_directions)(vec([0, 0]))

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(st.data())
    def test_predicate_matches_per_point_references(self, data):
        """The predicate built once per window against the per-point facet
        test and the strict-sweep LP reference, at int and Fraction points,
        with shifts moved off the lattice along a generator or anywhere,
        in both modes."""
        gens, shift, central, epsilons, ranges = data.draw(
            st.sampled_from(EPS_CASES))
        small = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
        move = data.draw(st.sampled_from(("none", "along", "anywhere")))
        if move == "along" and gens:
            shift = vadd(shift, vscale(data.draw(small),
                                       data.draw(st.sampled_from(gens))))
        elif move == "anywhere":
            shift = vadd(shift, tuple(data.draw(small) for _ in shift))
        r = data.draw(st.sampled_from((F(1, 2), F(1), F(3, 2), F(2, 3))))
        e = EpsShift(data.draw(st.sampled_from(epsilons)),
                     data.draw(st.sampled_from(("plus", "plus_minus"))))
        inside = member_eps(gens, r, shift, e, central)
        p = tuple(data.draw(st.sampled_from(span)) for span in ranges)
        off = tuple(F(data.draw(st.integers(0, 1)), 2) for _ in p)
        for point in (p, vec(p), vadd(vec(p), off)):
            want = member_eps_facet_reference(gens, r, shift, e, point,
                                              central)
            case = (gens, r, shift, e, point)
            assert inside(point) == want, case
            assert want == member_eps_strict_reference(
                gens, r, shift, e, point, central), case

    def test_facets_match_both_lp_references(self):
        """The facet test equals the push-maximization and the strict-sweep
        references on grids through the boundary, and permuting the
        generators (a separate facet table) changes no verdict."""
        rng = random.Random(11)
        verdicts = set()
        tight_only = {"plus": 0, "plus_minus": 0}
        for gens, shift, central, epsilons, ranges in eps_oracle_cases():
            perm = list(gens)
            rng.shuffle(perm)
            grid = [vec(p) for p in itertools.product(*ranges)]
            for r in (F(1, 2), F(1), F(3, 2)):
                closed = q(gens, r, shift, CLOSED, central)
                for p in grid:
                    in_closed = closed(p)
                    for eps in epsilons:
                        for mode in ("plus", "plus_minus"):
                            e = EpsShift(eps, mode)
                            got = member_eps(gens, r, shift, e, central)(p)
                            case = (gens, central, r, eps, mode, p)
                            assert got == member_eps_reference(
                                gens, r, shift, e, p, central), case
                            assert got == member_eps_strict_reference(
                                gens, r, shift, e, p, central), case
                            assert got == member_eps(
                                perm, r, shift, e, central)(p), case
                            verdicts.add(got)
                            if in_closed and not got:
                                tight_only[mode] += 1
        assert verdicts == {False, True}
        assert all(tight_only.values()), tight_only


def eps_oracle_cases():
    """(generators, shift, central, epsilons, grid coordinate ranges) with
    repeated, opposite, zero and central-shifted generators, a generator
    span short of the ambient space, and an empty generator list.  The SL
    grids fix the pinned quotient coordinate at zero, since a step along a
    central direction changes no verdict."""
    sl2 = build_group("SL(2)")
    sl3 = build_group("SL(3)")
    sl2t = build_group("Product(SL(2),Torus(1))")

    def gs(*rows):
        return tuple(vec(row) for row in rows)

    return [
        (gs([1], [1], [-1], [0], [2]), vec([0]), (),
         [vec([1]), vec([-1]), vec([0])], [range(-5, 6)]),
        (gs([1, 0], [1, 0], [-1, 0], [0, 1], [1, 1], [0, 0], [-1, -1]),
         vec([0, 0]), (), [vec([1, 0]), vec([1, -1])], [range(-2, 2)] * 2),
        (gs([1, 1], [1, 1], [-1, -1], [0, 0]), vec([0, 0]), (),
         [vec([1, 1])], [range(-3, 4)] * 2),
        (gs([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 1], [0, 0, 0]), vec([0, 0, 0]), (),
         [vec([1, 1, 0])], [range(-1, 2)] * 3),
        (construct_rep(sl2, [("sym_power", 1), ("sym_power", 2)]).expanded,
         vscale(F(-1), sl2.rho_bar), sl2.central_directions,
         [vec([1, 0]), vec([1, -1])], [range(-3, 4), range(0, 1)]),
        (construct_rep(sl3, [("vector_power", 1),
                             ("dual_vector_power", 1)]).expanded,
         vscale(F(-1), sl3.rho_bar), sl3.central_directions,
         [vec([1, 0, 0]), vec([1, -1, 0])],
         [range(-1, 2), range(-1, 2), range(0, 1)]),
        (gs([1, -1, 1], [-1, 1, 1], [0, 0, -1], [0, 0, -1], [2, 0, 0],
            [0, 0, 0]),
         vec([0, 0, F(1, 2)]), sl2t.central_directions,
         [vec([0, 0, 1]), vec([1, -1, 1])],
         [range(-1, 2), range(0, 1), range(-1, 2)]),
        ((), vec([F(1, 2), F(-1, 2)]), sl2.central_directions,
         [vec([0, 0]), vec([1, 1])], [range(-2, 3)] * 2),
    ]


EPS_CASES = eps_oracle_cases()


class TestGenericity:
    def test_sp_vacuous(self):
        sp4 = build_group("Sp(4)")
        rep = construct_rep(sp4, [("vector_power", 5)])
        assert is_weakly_generic(vec([0, 0]), sp4, rep.expanded)
        assert not is_generic(vec([0, 0]), sp4, rep.expanded)

    def test_gl_determinantal(self):
        gl2 = build_group("GL(2)")
        rep = construct_rep(gl2, [("vector_power", 3), ("dual_vector_power", 3)])
        assert is_weakly_generic(vec([1, 1]), gl2, rep.expanded)

    def test_rank_one_torus(self):
        assert is_weakly_generic(vec([1]), T1, G4)
        assert not is_weakly_generic(vec([0]), T1, G4)

    def test_non_invariant_eps_raises(self):
        sp4 = build_group("Sp(4)")
        rep = construct_rep(sp4, [("vector_power", 2)])
        with pytest.raises(InputError):
            is_weakly_generic(vec([1, 0]), sp4, rep.expanded)

    def test_scaling_invariance(self):
        rep = rep_spec(T2, [((1, 0), 2), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 2)])
        for e in [vec([1, 0]), vec([1, 1]), vec([2, 1])]:
            a = is_weakly_generic(e, T2, rep.expanded)
            b = is_weakly_generic(vscale(F(7, 3), e), T2, rep.expanded)
            assert a == b


# ---------------------------------------------------------------------------
# Faces from flats against the sign-pattern LP reference.
# ---------------------------------------------------------------------------

FLAT_GROUPS = ("Torus(1)", "Torus(2)", "Torus(3)", "SL(2)", "SL(3)",
               "Product(SL(2),Torus(1))", "Product(SL(2),SL(2))")
# groups with nonzero invariants, for the weak genericity references
INVARIANT_GROUPS = ("Torus(2)", "GL(2)", "GL(3)", "Product(SL(2),Torus(1))",
                    "Product(GL(2),Torus(1))")


def _weights(*pairs):
    return [{"kind": "weights", "weights": [
        {"weight": list(w), "mult": m} for w, m in pairs]}]


# nccr configs whose component 0 runs the weak genericity loop: the
# hexagon of Torus(2) with epsilon on a facet span, and a prism of
# SL(2) x Torus(1) with epsilon weakly generic
TORUS_HEXAGON = {
    "group": "Torus(2)", "epsilon": [1, 1],
    "representation": _weights(((1, 0), 2), ((-1, 0), 2), ((0, 1), 2),
                               ((0, -1), 2), ((1, 1), 2), ((-1, -1), 2))}
SL2_TORUS_PRISM = {
    "group": "Product(SL(2),Torus(1))", "epsilon": [0, 0, 1],
    "representation": _weights(((1, 0, 1), 1), ((-1, 0, -1), 1),
                               ((0, 1, 1), 1), ((0, -1, -1), 1),
                               ((0, 0, 1), 2), ((0, 0, -1), 2))}


def face_spans(lists, central, dim):
    return [tuple(span_basis(list(z) + list(central), dim)) for z in lists]


def maximal_spans(spans):
    """The spans (RREF bases) contained in no other one of the list."""
    def inside(a, b):
        return all(in_span(b, v) for v in a)
    return {a for a in spans
            if not any(b != a and inside(a, b) for b in spans)}


def eps_status(eps, datum, gens, central):
    if is_generic(eps, datum, gens, central):
        return "Generic"
    if is_weakly_generic(eps, datum, gens, central):
        return "WeaklyGeneric"
    return "Fails"


def candidate_eps(rng, datum, gens, central):
    """Weyl-invariant vectors parallel to the zonotope: zero, central
    directions, and small combinations of the parallel invariants."""
    inv = invariants_in_span(full_levi(datum), gens, central)
    out = [(F(0),) * datum.rank] + list(central)
    for _ in range(6):
        v = (F(0),) * datum.rank
        for b in inv:
            v = vadd(v, vscale(F(rng.randint(-2, 2)), b))
        out.append(v)
    return out


class TestFlats:
    def test_no_lines_no_proper_faces(self):
        assert realizable_face_patterns(()) == []
        assert realizable_face_patterns((vec([0, 0]),) * 2) == []

    def test_flats_match_sign_patterns(self, monkeypatch):
        """Each facet span comes once, the facet spans are the maximal spans
        of the realizable sign patterns, the normals are those derived from
        the patterns, and genericity agrees when the patterns' normals are
        injected."""
        rng = random.Random(3)
        seen = set()
        cases = 0
        for tag in FLAT_GROUPS:
            datum = build_group(tag)
            central = datum.central_directions
            for _ in range(8):
                gens = random_generators(rng, datum)
                normals = realizable_face_patterns(gens, central)
                assert all(type(x) is int for lam in normals for x in lam)
                ref = [z for _, z in
                       realizable_face_patterns_reference(gens, central)]
                flats = [[g for g in gens if not vdot(lam, g)]
                         for lam in normals]
                spans = face_spans(flats, central, datum.rank)
                assert len(set(spans)) == len(spans)
                assert set(spans) == maximal_spans(
                    face_spans(ref, central, datum.rank)), (tag, gens)
                ref_normals = facet_normals_reference(gens, central)
                assert sorted(normals) == sorted(ref_normals), (tag, gens)

                eps_list = candidate_eps(rng, datum, gens, central)
                got = [eps_status(e, datum, gens, central) for e in eps_list]
                with monkeypatch.context() as m:
                    m.setattr(zonotope, "realizable_face_patterns",
                              lambda g, c=(), _ref=ref_normals: _ref)
                    want = [eps_status(e, datum, gens, central)
                            for e in eps_list]
                assert got == want, (tag, gens)
                seen.update(got)
                cases += len(got)
        assert seen == {"Generic", "WeaklyGeneric", "Fails"}
        assert cases > 300

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(st.sampled_from(FLAT_GROUPS), st.integers(0, 2 ** 32))
    def test_generic_iff_off_every_facet_normal(self, tag, seed):
        """eps is generic iff it pairs nonzero with every facet normal of the
        table (zero and central eps included): every proper flat lies in a
        hyperplane flat, whose span within V is the kernel of its normal.
        Cross-checks the face patterns read from the table against its
        normals."""
        rng = random.Random(seed)
        datum = build_group(tag)
        central = datum.central_directions
        gens = random_generators(rng, datum)
        normals = [lam for lam, _ in
                   facet_table(gens, central, datum.rank).facets]
        for eps in candidate_eps(rng, datum, gens, central):
            assert is_generic(eps, datum, gens, central) == all(
                vdot(lam, eps) != 0 for lam in normals), (tag, gens, eps)

    def test_genericity_matches_all_flats_reference(self):
        """is_generic and is_weakly_generic, read from the facets, agree with
        the references that test eps against every proper flat, on groups
        with invariants and eps drawn from them; every status appears."""
        seen = set()

        @settings(derandomize=True, database=None, max_examples=200,
                  deadline=None)
        @given(st.sampled_from(INVARIANT_GROUPS), st.integers(0, 2 ** 32))
        def check(tag, seed):
            rng = random.Random(seed)
            datum = build_group(tag)
            central = datum.central_directions
            gens = random_generators(rng, datum, max_lines=8)
            for eps in candidate_eps(rng, datum, gens, central):
                generic = is_generic(eps, datum, gens, central)
                weak = is_weakly_generic(eps, datum, gens, central)
                assert generic == is_generic_reference(eps, gens, central), \
                    (tag, gens, eps)
                assert weak == is_weakly_generic_reference(
                    eps, datum, gens, central), (tag, gens, eps)
                seen.add("Generic" if generic else
                         "WeaklyGeneric" if weak else "Fails")

        check()
        assert seen == {"Generic", "WeaklyGeneric", "Fails"}

    @pytest.mark.parametrize("config, status", [
        (TORUS_HEXAGON, "Fails"), (SL2_TORUS_PRISM, "WeaklyGeneric")])
    def test_nccr_reaches_the_invariant_loop(self, config, status, tmp_path,
                                             monkeypatch):
        """nccr on configs whose weak genericity check tests facet normals
        against nonzero invariants: component 0's status, and the same
        report bytes when the normals come from every realizable sign
        pattern by LP."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "nccr.json"
        args = ["nccr", "--config", str(path), "--out", str(out)]
        assert main(args) == 0
        got = out.read_bytes()
        assert [c["certificate"]["eps_status"]
                for c in json.loads(got)["nccr"]
                if c["component_index"] == 0] == [status]
        monkeypatch.setattr(zonotope, "realizable_face_patterns",
                            facet_normals_reference)
        assert main(args) == 0
        assert out.read_bytes() == got


# groups for the invariants within the zonotope's span: tori, SL blocks,
# products and groups with nonzero invariants
INVARIANT_SPAN_GROUPS = FLAT_GROUPS + ("GL(2)", "GL(3)",
                                       "Product(GL(2),Torus(1))", "Sp(4)")


def test_invariants_in_span_matches_intersection_reference():
    """invariants_in_span, which pairs the invariants with the annihilator
    of the zonotope's span, against the intersection of the two spans:
    random generators (sometimes none), a random Levi of the group and its
    SL directions as the central ones; the basis and its order agree."""
    sizes = Counter()

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(st.sampled_from(INVARIANT_SPAN_GROUPS), st.integers(0, 2 ** 32))
    def check(tag, seed):
        rng = random.Random(seed)
        datum = build_group(tag)
        central = datum.central_directions
        gens = (() if rng.random() < 0.15
                else random_generators(rng, datum, max_lines=8))
        while True:
            lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            if datum.coweight_ok(lam):
                break
        lv = levi(datum, vec(lam))
        got = invariants_in_span(lv, gens, central)
        assert got == invariants_in_span_reference(lv, gens, central), \
            (tag, gens, lam)
        sizes[len(got), bool(gens)] += 1

    check()
    assert {n for n, _ in sizes} >= {0, 1, 2}
    assert (0, False) in sizes


# ---------------------------------------------------------------------------
# The facet table from its hyperplanes against the closure-search reference.
# ---------------------------------------------------------------------------

@st.composite
def flat_inputs(draw):
    """(dim, generators, central): up to 8 generators in dimension 1 to 4,
    each a fresh small vector, a repeat or negation of an earlier one, a
    zero vector or a combination of the central vectors."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2).map(F)] * dim)
    central = draw(st.lists(vector, max_size=2))
    gens = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "repeat", "negate", "zero",
                                     "central")))
        if kind in ("repeat", "negate") and gens:
            g = draw(st.sampled_from(gens))
            gens.append(g if kind == "repeat" else tuple(-x for x in g))
        elif kind == "zero":
            gens.append((F(0),) * dim)
        elif kind == "central" and central:
            coeffs = [draw(st.integers(-2, 2)) for _ in central]
            gens.append(tuple(sum((c * v[k] for c, v in zip(coeffs, central)),
                                  F(0)) for k in range(dim)))
        else:
            gens.append(draw(vector))
    return dim, tuple(gens), tuple(central)


def _v(*rows):
    return tuple(vec(r) for r in rows)


class TestHyperplaneFlats:
    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(flat_inputs())
    # no generators; zero generators; repeated lines; generators in
    # span(central); dim V = 1 twice; central vectors present; three
    # hyperplane flats that meet pairwise but have no common line
    @example((3, _v([1, 0, 0], [0, 1, 0], [0, 0, 1]), ()))
    @example((2, (), ()))
    @example((2, _v([0, 0], [1, 0], [0, 0]), ()))
    @example((2, _v([1, 1], [2, 2], [-1, -1], [1, 0]), ()))
    @example((3, _v([1, 0, 1], [0, 1, 0], [0, 2, 0], [1, 1, 1]),
              _v([1, 0, 1])))
    @example((1, _v([1], [-2], [0]), ()))
    @example((3, _v([1, 2, 0], [-2, -4, 0]), ()))
    @example((3, _v([1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]),
              _v([1, 1, 1])))
    def test_matches_closure_search(self, case):
        """Same facets (as (normal, h) pairs) and annihilator as the table
        built from the closure search, and the hyperplane flats of its
        normals are the maximal flats of that search, each once."""
        dim, gens, central = case
        got = zonotope._build_facet_table(gens, central, dim)
        want = facet_table_reference(gens, central, dim)
        assert set(got.facets) == set(want.facets)
        assert len(got.facets) == len(want.facets)
        assert got.annihilator == want.annihilator
        lines = zonotope._lines(gens)
        hyperplanes = [frozenset(i for i, v in enumerate(lines)
                                 if not vdot(lam, v))
                       for lam, _ in got.facets[::2]]
        flats = [f for f, _ in proper_flats_reference(lines, central, dim)]
        assert len(set(hyperplanes)) == len(hyperplanes)
        assert set(hyperplanes) == {f for f in flats
                                    if not any(f < g for g in flats)}

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(flat_inputs())
    @example((3, _v([1, 0, 0], [0, 1, 0], [0, 0, 1]), ()))
    @example((3, _v([1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]),
              _v([1, 1, 1])))
    def test_flat_span_is_the_kernel_of_its_hyperplane_normals(self, case):
        """For every proper flat F, span(F + central) is the common kernel
        within V of the table normals whose hyperplane flat contains F: the
        facets alone decide genericity."""
        dim, gens, central = case
        table = zonotope._build_facet_table(gens, central, dim)
        normals = [lam for lam, _ in table.facets[::2]]
        lines = zonotope._lines(gens)
        for flat, base in proper_flats_reference(lines, central, dim):
            through = [lam for lam in normals
                       if not any(vdot(lam, lines[i]) for i in flat)]
            kernel = nullspace(list(table.annihilator) + through, dim)
            assert span_basis(kernel, dim) == base, (case, sorted(flat))

    def test_quasi_symmetric_nccr_report_matches_reference_flats(
            self, monkeypatch):
        """The quasi-symmetric Sp(6) Sym^2 nccr report at box_radius 0 (its
        tail window reads the facet table of all the weights) has the same
        bytes when every table comes from the closure search."""
        cfg = parse_config({"group": "Sp(6)", "box_radius": 0,
                            "representation": [{"kind": "sym_power", "d": 2}],
                            "mode": "quasi_symmetric"})
        monkeypatch.setattr(zonotope, "_FACET_TABLES", {})
        got = render(run_job("nccr", cfg))
        monkeypatch.setattr(zonotope, "_FACET_TABLES", {})
        monkeypatch.setattr(zonotope, "_build_facet_table",
                            facet_table_reference)
        assert render(run_job("nccr", cfg)) == got


class TestHyperplaneScanCap:
    GENS = _v([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0])  # C(4, 2) = 6

    def test_cap_counts_the_line_subsets(self, monkeypatch):
        monkeypatch.setattr(zonotope, "HYPERPLANE_SCAN_CAP", 6)
        table = zonotope._build_facet_table(self.GENS, (), 3)
        # z = 0, and the plane through e3 and each other line
        assert len(table.facets) == 2 * 4
        monkeypatch.setattr(zonotope, "HYPERPLANE_SCAN_CAP", 5)
        with pytest.raises(InputError, match="6 line subsets exceeds the "
                                             "cap of 5"):
            zonotope._build_facet_table(self.GENS, (), 3)

    def test_nccr_past_the_cap_exits_two(self, monkeypatch, tmp_path,
                                         capsys):
        args = ["nccr", "--preset", "determinantal:n=2,h=3",
                "--out", str(tmp_path / "nccr.json")]
        monkeypatch.setattr(zonotope, "_FACET_TABLES", {})
        monkeypatch.setattr(zonotope, "HYPERPLANE_SCAN_CAP", 0)
        assert main(args) == 2
        assert "exceeds the cap of 0" in capsys.readouterr().err
