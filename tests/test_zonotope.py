import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (forced_tight_reference, member_eps_facet_reference,
                     member_eps_reference, member_eps_strict_reference,
                     random_generators, realizable_face_patterns_reference,
                     supporting_lambda_reference)
from sodlab import zonotope
from sodlab.linalg import span_basis, vadd, vdot, vec, vscale
from sodlab.linprog import (InputError, feasible_point, forced_tight,
                            strict_feasible)
from sodlab.partition import make_profile, signature_of
from sodlab.reps import construct_rep, rep_spec, weight_signs
from sodlab.rootdata import (build_group, descend, full_levi,
                             invariant_subspace, orbit)
from sodlab.zonotope import (CLOSED, HALF_OPEN, REL_INT, EpsShift,
                             FaceSignature, ZonotopeQuery,
                             _coefficient_program,
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
    return ZonotopeQuery(tuple(gens), F(r), vec(shift), variant, central)


class TestMember:
    def test_boundary_closed_vs_relint(self):
        assert member(q(G4, 1, [0], CLOSED), vec([2]))
        assert not member(q(G4, 1, [0], REL_INT), vec([2]))

    def test_half_open_interval(self):
        g2 = (vec([1]), vec([-1]))
        assert not member(q(g2, 1, [0], HALF_OPEN), vec([1]))
        assert member(q(g2, 1, [0], HALF_OPEN), vec([0]))

    def test_inclusion_chain_random(self):
        rng = random.Random(5)
        gens = (vec([1, 0]), vec([-1, 0]), vec([1, 1]), vec([-1, -1]))
        for _ in range(40):
            p = vec([F(rng.randint(-8, 8), rng.choice([1, 2, 4])),
                     F(rng.randint(-8, 8), rng.choice([1, 2, 4]))])
            closed = member(q(gens, 2, [0, 0], CLOSED), p)
            half = member(q(gens, 2, [0, 0], HALF_OPEN), p)
            rel = member(q(gens, 2, [0, 0], REL_INT), p)
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
            got = member(q(gens, r, [0, 0], CLOSED), p)
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
                got = member(q((), F(1, 2), shift, variant, central), p)
                assert got == lp, (tag, shift, p, variant)
                verdicts.add(got)
        assert verdicts == {True, False}


class TestMinRadius:
    def test_literal(self):
        assert min_radius(G4, vec([0]), vec([3])) == F(3, 2)

    def test_at_shift(self):
        assert min_radius(G4, vec([0]), vec([0])) == 0

    def test_off_span(self):
        gens = (vec([1, 0]), vec([-1, 0]))
        assert min_radius(gens, vec([0, 0]), vec([0, 1])) is None

    def test_outside_cone(self):
        gens = (vec([1]),)
        assert min_radius(gens, vec([0]), vec([1])) is None


class TestFaceSignature:
    def test_torus_line(self):
        sig = face_signature_at(G4, vec([0]), vec([3]))
        assert sig.r == F(3, 2)
        assert sig.s_plus == (0, 1) and sig.s_minus == (2, 3)
        assert sig.s_zero == ()

    def test_rank_two(self):
        sig = face_signature_at(G22, vec([0, 0]), vec([2, 1]))
        assert sig.r == 2
        assert sig.s_plus == (1,) and sig.s_minus == (0,)
        assert sig.s_zero == (2, 3)

    def test_trivial_convention(self):
        sig = face_signature_at(G4, vec([0]), vec([0]))
        assert sig.trivial and sig.r == 0

    def test_off_span_raises(self):
        with pytest.raises(InputError):
            face_signature_at((vec([1, 0]), vec([-1, 0])), vec([0, 0]),
                              vec([0, 1]))

    def test_rescaling_idempotence(self):
        base = face_signature_at(G22, vec([0, 0]), vec([2, 1]))
        doubled = face_signature_at(
            tuple(vscale(F(3), g) for g in G22), vec([0, 0]),
            vscale(F(3), vec([2, 1])))
        assert doubled.r == base.r
        assert (doubled.s_plus, doubled.s_minus, doubled.s_zero) == \
            (base.s_plus, base.s_minus, base.s_zero)

    def test_reconstruction_witness(self):
        # the point must decompose as shift - r*sum(S+) + open block (Lemma
        # of the supporting face); verified through relative interior
        # membership of the remaining block.
        p = vec([2, 1])
        sig = face_signature_at(G22, vec([0, 0]), p)
        pinned = vec([0, 0])
        for i in sig.s_plus:
            pinned = vec([a - sig.r * b for a, b in zip(pinned, G22[i])])
        rest = tuple(G22[i] for i in sig.s_zero)
        target = vec([a - b for a, b in zip(p, pinned)])
        assert member(q(rest, sig.r, [0, 0], REL_INT), target)

    def test_forced_tight_matches_reference_on_face_programs(self):
        # the closed coefficient program at the minimal radius, exactly as
        # face_signature_at builds it
        sp4 = build_group("Sp(4)")
        cases = [(G4, vec([0]), [vec([p]) for p in range(-3, 4)]),
                 (G22, vec([0, 0]), [vec([2, 1]), vec([-1, 3]), vec([0, 2])]),
                 (construct_rep(sp4, [("vector_power", 2)]).expanded,
                  vec([-2, -1]), [vec([1, 0]), vec([2, 2]), vec([3, 1])])]
        for gens, shift, points in cases:
            for p in points:
                r = min_radius(gens, shift, p)
                if not r:
                    continue
                b, _, _ = _coefficient_program(gens, r, shift, p, CLOSED, ())
                prog = b.build()
                assert forced_tight(prog) == forced_tight_reference(prog)

    @pytest.mark.parametrize("p, calls", [
        (vec([2, 1]), {"lp_optimize": 1, "forced_tight": 1}),
        (vec([0, 0]), {"lp_optimize": 1, "forced_tight": 0}),
    ])
    def test_solver_calls_by_name(self, monkeypatch, p, calls):
        # the benchmark's layer tracer wraps these module-level names and
        # expects them on the faces workload: one radius LP per point, then
        # one forced-tightness sweep unless the point is the shift (r = 0)
        seen = dict.fromkeys(calls, 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(zonotope, name)):
                seen[_name] += 1
                return _real(*args)
            monkeypatch.setattr(zonotope, name, counted)
        sig = face_signature_at(G22, vec([0, 0]), p)
        assert sig.trivial == (sig.r == 0) == (p == vec([0, 0]))
        assert seen == calls


class TestSupportingLambda:
    def test_rank_two(self):
        sig = face_signature_at(G22, vec([0, 0]), vec([2, 1]))
        assert supporting_lambda(sig, T2, G22) == vec([-1, 0])

    def test_trivial(self):
        sig = face_signature_at(G4, vec([0]), vec([0]))
        assert supporting_lambda(sig, T1, G4) == vec([0])

    def test_torus_line(self):
        sig = face_signature_at(G4, vec([0]), vec([3]))
        assert supporting_lambda(sig, T1, G4) == vec([-1])

    def test_round_trip_through_weight_signs(self):
        sp4 = build_group("Sp(4)")
        rep = construct_rep(sp4, [("vector_power", 2)])
        shift = vec([-2, -1])  # -rho_bar
        for p in [vec([1, 0]), vec([2, 2]), vec([3, 1])]:
            sig = face_signature_at(rep.expanded, shift, p)
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
            for u, _ in orbit(datum.simple_pairs, vscale(sign, w)):
                counts[datum.normalize_weight(u)] += m
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
        profile = make_profile(datum, nu)
        for _ in range(3):
            chi = vec(rng.randint(-4, 4) for _ in range(datum.rank))
            chi = datum.normalize_weight(descend(datum.simple_pairs, chi)[0])
            try:
                sig = signature_of(rep, chi, profile)
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
                member(q(gens, 1, [0], CLOSED), vec([p]))

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
                    in_closed = member(closed, p)
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


def face_spans(lists, central, dim):
    return [tuple(span_basis(list(z) + list(central), dim)) for z in lists]


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
        """Each proper face span comes once, the spans are those of the
        realizable sign patterns, and genericity agrees on both."""
        rng = random.Random(3)
        seen = set()
        cases = 0
        for tag in FLAT_GROUPS:
            datum = build_group(tag)
            central = datum.central_directions
            for _ in range(8):
                gens = random_generators(rng, datum)
                flats = realizable_face_patterns(gens, central)
                ref = [z for _, z in
                       realizable_face_patterns_reference(gens, central)]
                spans = face_spans(flats, central, datum.rank)
                assert len(set(spans)) == len(spans)
                assert set(spans) == set(face_spans(ref, central, datum.rank)), \
                    (tag, gens)
                zeros = [g for g in gens if not any(g)]
                assert all(z[len(z) - len(zeros):] == zeros for z in flats)

                eps_list = candidate_eps(rng, datum, gens, central)
                got = [eps_status(e, datum, gens, central) for e in eps_list]
                with monkeypatch.context() as m:
                    m.setattr(zonotope, "realizable_face_patterns",
                              lambda g, c=(), _ref=ref: _ref)
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
        Cross-checks the flats kept in the table against its facets."""
        rng = random.Random(seed)
        datum = build_group(tag)
        central = datum.central_directions
        gens = random_generators(rng, datum)
        normals = [lam for lam, _ in
                   facet_table(gens, central, datum.rank).facets]
        for eps in candidate_eps(rng, datum, gens, central):
            assert is_generic(eps, datum, gens, central) == all(
                vdot(lam, eps) != 0 for lam in normals), (tag, gens, eps)
