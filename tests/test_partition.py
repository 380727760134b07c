import dataclasses
import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (brute_force_signature, dominant_box_points_reference,
                     partition_region_reference,
                     random_generators, signature_to_value_counts,
                     weyl_generators_reference, window_box_reference)
from sodlab import linprog, partition, zonotope
from sodlab.linalg import mat_vec, vadd, vec, vscale, vsub
from sodlab.linprog import LATTICE_BOX_CAP, InputError
from sodlab.partition import (HALF_OPEN_MODE, REDUCTION_SUM_CAP, STANDARD,
                              PartitionCell, PreconditionError, build_cell,
                              cell_members,
                              dominant_box_points, face_levi, make_profile,
                              order_key, partition_region, signature_of,
                              validate_reduction_setting, window_box)
from sodlab.reps import coinvariant_rep, construct_rep, rep_spec, weight_signs
from sodlab.rootdata import build_group, full_levi, is_dominant, levi, pairing
from sodlab.zonotope import FaceSignature, face_signature_at

T1 = build_group("Torus(1)")
SL2 = build_group("SL(2)")
SP2 = build_group("Sp(2)")
SP4 = build_group("Sp(4)")

TORUS_4 = rep_spec(T1, [((1,), 2), ((-1,), 2)])
PROF_T1 = make_profile(T1)

# catalog groups for the dominant box walk: tori, GL, SL and Sp up to rank
# 4, and products
DOMINANT_BOX_GROUPS = (
    "Torus(1)", "Torus(2)", "Torus(3)", "GL(1)", "GL(2)", "GL(3)", "GL(4)",
    "SL(2)", "SL(3)", "SL(4)", "Sp(2)", "Sp(4)", "Sp(6)", "Sp(8)",
    "Product(SL(2),Torus(1))", "Product(GL(2),Sp(4))",
    "Product(SL(2),SL(2))", "Product(GL(1),Sp(2))")


class TestSignatureOf:
    def test_torus_line(self):
        sig = signature_of(TORUS_4, PROF_T1)(vec([3]))
        assert sig.r == F(3, 2)
        assert sig.s_plus == (0, 1) and sig.s_minus == (2, 3)

    def test_trivial_at_minus_rho(self):
        assert signature_of(TORUS_4, PROF_T1)(vec([0])).trivial

    def test_sp2_vector_cube(self):
        rep = construct_rep(SP2, [("vector_power", 3)])
        sig = signature_of(rep, make_profile(SP2))(vec([0]))
        assert sig.r == F(1, 3)
        assert sig.s_plus == (0, 1, 2)  # the three copies of -L
        assert sig.s_minus == (3, 4, 5)

    def test_requires_dominant(self):
        rep = construct_rep(SP2, [("vector_power", 3)])
        with pytest.raises(InputError):
            signature_of(rep, make_profile(SP2))(vec([-1]))


class TestOrderKey:
    def test_trivial_below_everything(self):
        trivial = FaceSignature(F(0), (), (), ())
        other = signature_of(TORUS_4, PROF_T1)(vec([1]))
        assert order_key(trivial) < order_key(other)

    def test_radius_dominates(self):
        signature = signature_of(TORUS_4, PROF_T1)
        a, b = signature(vec([2])), signature(vec([3]))
        assert order_key(a) < order_key(b)

    def test_tiebreak_is_strict(self):
        signature = signature_of(TORUS_4, PROF_T1)
        a, b = signature(vec([2])), signature(vec([-2]))
        assert order_key(a) != order_key(b)


class TestCellMembers:
    def test_zero_dimensional_window(self):
        sig = signature_of(TORUS_4, PROF_T1)(vec([3]))
        cell = build_cell(TORUS_4, sig, PROF_T1, face_levi(TORUS_4, sig))
        coinv = coinvariant_rep(TORUS_4, cell.levi.lam)
        assert cell_members(cell, coinv) == [vec([3])]

    def test_members_share_the_signature(self):
        rep = construct_rep(SL2, [("sym_power", 3), ("trivial", 1)])
        prof = make_profile(SL2)
        signature = signature_of(rep, prof)
        for x in (3, 4, 5):
            sig = signature(vec([x, 0]))
            cell = build_cell(rep, sig, prof, face_levi(rep, sig))
            coinv = coinvariant_rep(rep, cell.levi.lam)
            for mu in cell_members(cell, coinv):
                assert signature(mu) == sig

    def test_levi_dominant_members_are_dominant(self):
        # Levi-dominance of a window member already forces full dominance
        rep = construct_rep(SP4, [("vector_power", 2)])
        prof = make_profile(SP4)
        cells = partition_region(rep, prof, 3)
        for cell in cells:
            if cell.signature.trivial:
                continue
            lv = levi(SP4, cell.levi.lam)
            coinv = coinvariant_rep(rep, cell.levi.lam)
            for mu in cell_members(cell, coinv):
                assert is_dominant(lv, mu)
                assert is_dominant(full_levi(SP4), mu)


class TestPartitionRegion:
    def test_partition_covers_box_once(self):
        cells = partition_region(TORUS_4, PROF_T1, 3)
        seen = []
        for c in cells:
            seen.extend(c.members)
        box = dominant_box_points(TORUS_4, 3)
        assert sorted(seen) == sorted(box)
        assert len(seen) == len(set(seen))

    def test_box_cap_counts_the_free_coordinates(self):
        # Torus(2): (2r + 1)^2 points, 19,881 at r = 70 and 20,449 at r = 71
        t2 = rep_spec(build_group("Torus(2)"), [((1, 0), 1), ((-1, 0), 1)])
        assert len(dominant_box_points(t2, 70)) == 141 ** 2 <= LATTICE_BOX_CAP
        with pytest.raises(InputError, match="holds 20449 points"):
            dominant_box_points(t2, 71)
        # SL(2) pins one of its two coordinates: 2r + 1 points
        sl2 = construct_rep(SL2, [("sym_power", 1)])
        r = LATTICE_BOX_CAP // 2
        assert dominant_box_points(sl2, r - 1)
        with pytest.raises(InputError, match=f"holds {2 * r + 1} points"):
            dominant_box_points(sl2, r)

    @pytest.mark.parametrize("tag", DOMINANT_BOX_GROUPS)
    def test_dominant_box_points_match_full_box_reference(self, tag):
        """The coordinate walk against the dominance test of every box
        point, at every radius where the whole box is under the cap; past
        it the reference refuses."""
        datum = build_group(tag)
        rep = SimpleNamespace(datum=datum)
        free = datum.rank - len(datum.quotient_pairs)
        for radius in (0, 1, 2, 3, 6):
            if (2 * radius + 1) ** free > LATTICE_BOX_CAP:
                with pytest.raises(InputError, match="above the cap"):
                    dominant_box_points_reference(rep, radius)
            else:
                assert dominant_box_points(rep, radius) == \
                    dominant_box_points_reference(rep, radius)

    @pytest.mark.parametrize("tag, count", [("GL(4)", 1820), ("Sp(8)", 210)])
    def test_rank_four_box_at_the_preset_radius(self, tag, count,
                                                monkeypatch):
        """The 13^4 = 28,561-point box of a rank-4 preset is over the cap
        as a whole, but the walk tests at most 5,915 points in one step."""
        datum = build_group(tag)
        rep = SimpleNamespace(datum=datum)
        steps = []
        check = linprog.check_box_size
        monkeypatch.setattr(linprog, "check_box_size",
                            lambda n: (steps.append(n), check(n)))
        points = dominant_box_points(rep, 6)
        assert steps == [13, 169, 1183, 5915]
        assert len(points) == count == len(set(points))
        assert points == sorted(points)
        assert all(is_dominant(full_levi(datum), p) for p in points)
        with pytest.raises(InputError, match="holds 28561 points"):
            dominant_box_points_reference(rep, 6)

    def test_cells_sorted(self):
        cells = partition_region(TORUS_4, PROF_T1, 4)
        keys = [order_key(c.signature) for c in cells]
        assert keys == sorted(keys)

    def test_no_stable_point_errors(self):
        rep = rep_spec(T1, [((1,), 1), ((2,), 1)])
        with pytest.raises(PreconditionError) as exc:
            partition_region(rep, PROF_T1, 2)
        assert exc.value.report is not None
        assert exc.value.report.sigma == vec([-1])

    def test_empty_box(self):
        t0 = build_group("Torus(0)")
        rep = rep_spec(t0, [])
        cells = partition_region(rep, make_profile(t0), 0)
        assert len(cells) == 1 and cells[0].signature.trivial


class TestSignatureProgramsOncePerPartition:
    def test_coefficient_systems_do_not_grow_with_the_box(self, monkeypatch):
        """A partition assembles the radius program once, however many
        dominant points its box holds: the signatures sweep its optima."""
        gl2 = build_group("GL(2)")
        rep = construct_rep(gl2, [("vector_power", 3),
                                  ("dual_vector_power", 3)])
        prof = make_profile(gl2)
        real = zonotope.line_program
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(zonotope, "line_program", counted)
        seen = []
        for radius in (2, 3):
            calls.clear()
            cells = partition_region(rep, prof, radius)
            seen.append((sum(len(c.members) for c in cells), len(calls)))
        assert seen[0][0] < seen[1][0]
        assert [n for _, n in seen] == [1, 1]


def _catalog_cases():
    """(rep, profile) pairs: tori with fractional shifts, GL with and
    without a central shift, SL blocks with their central directions, Sp."""
    gl2 = build_group("GL(2)")
    t2 = build_group("Torus(2)")
    prism = build_group("Product(SL(2),Torus(1))")
    hexagon = rep_spec(t2, [((1, 0), 2), ((-1, 0), 2), ((0, 1), 2),
                            ((0, -1), 2), ((1, 1), 1), ((-1, -1), 1)])
    prism_rep = rep_spec(prism, [((1, 0, 1), 1), ((-1, 0, -1), 1),
                                 ((0, 1, 1), 1), ((0, -1, -1), 1),
                                 ((0, 0, 1), 2), ((0, 0, -1), 2)])
    gl_rep = construct_rep(gl2, [("vector_power", 2),
                                 ("dual_vector_power", 2)])
    return [
        (TORUS_4, PROF_T1),
        (TORUS_4, make_profile(T1, [F(1, 2)])),
        (hexagon, make_profile(t2, [F(1, 2), 0])),
        (gl_rep, make_profile(gl2)),
        (gl_rep, make_profile(gl2, [1, 1])),
        (construct_rep(SL2, [("sym_power", 3), ("trivial", 1)]),
         make_profile(SL2)),
        (construct_rep(build_group("SL(3)"), [("vector_power", 2),
                                              ("dual_vector_power", 2)]),
         make_profile(build_group("SL(3)"))),
        (prism_rep, make_profile(prism, [0, 0, F(1, 3)])),
        (construct_rep(SP4, [("vector_power", 2)]), make_profile(SP4)),
    ]


CATALOG_CASES = _catalog_cases()


def _nonzero_rays(rep, prof, points):
    """The distinct rays of chi - shift modulo the SL directions, each as
    the vector divided by the absolute value of its first nonzero entry."""
    datum = rep.datum
    shift = vsub(prof.nu_global, datum.rho_bar)
    rays = set()
    for chi in points:
        d = datum.normalize_weight(vsub(chi, shift))
        lead = next((x for x in d if x), None)
        if lead is not None:
            rays.add(tuple(x / abs(lead) for x in d))
    return rays


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


class TestOneSolvePerRayAndFace:
    @pytest.mark.parametrize("case", range(len(CATALOG_CASES)))
    def test_radius_lps_count_the_rays(self, case, monkeypatch):
        """A partition solves one radius LP per distinct nonzero ray through
        the shift, at every box radius, and no more than one per point."""
        rep, prof = CATALOG_CASES[case]
        calls = []
        monkeypatch.setattr(zonotope, "lp_optimize",
                            _counting(calls, zonotope.lp_optimize))
        for radius in (2, 3):
            calls.clear()
            partition_region(rep, prof, radius)
            points = dominant_box_points(rep, radius)
            assert len(calls) == len(_nonzero_rays(rep, prof, points))
            assert len(calls) <= len(points)

    @pytest.mark.parametrize("case", range(len(CATALOG_CASES)))
    def test_subgroup_and_levi_once_per_face(self, case, monkeypatch):
        """One supporting-subgroup search and one Levi per distinct
        (S+, S-, S0) of the cells, however many radii a face holds."""
        rep, prof = CATALOG_CASES[case]
        searches, levis = [], []
        monkeypatch.setattr(partition, "supporting_lambda",
                            _counting(searches, partition.supporting_lambda))
        monkeypatch.setattr(partition, "levi",
                            _counting(levis, partition.levi))
        for radius in (2, 3):
            searches.clear()
            levis.clear()
            cells = partition_region(rep, prof, radius)
            faces = {(c.signature.s_plus, c.signature.s_minus,
                      c.signature.s_zero) for c in cells}
            assert len(searches) == len(levis) == len(faces)

    def test_rays_and_faces_are_shared(self):
        """The counts above are below one per point and one per cell: on
        GL(2) V^2 + V*^2, SL(2) and the torus line, points share rays and
        cells share faces."""
        for case in (0, 3, 5):
            rep, prof = CATALOG_CASES[case]
            points = dominant_box_points(rep, 3)
            cells = partition_region(rep, prof, 3)
            faces = {(c.signature.s_plus, c.signature.s_minus,
                      c.signature.s_zero) for c in cells}
            assert len(_nonzero_rays(rep, prof, points)) < len(points) - 1
            assert len(faces) < len(cells)


class TestRayScaling:
    @settings(derandomize=True, database=None, max_examples=120,
              deadline=None)
    @given(st.integers(0, len(CATALOG_CASES) - 1), st.integers(0, 10 ** 6),
           st.one_of(st.integers(1, 6).map(F),
                     st.fractions(F(1, 4), 4, max_denominator=6)))
    def test_scaled_point_reads_the_scaled_signature(self, case, pick, t):
        """signature_of at shift + t * d, after the point shift + d, equals
        a fresh face_signature_at at shift + d with r scaled by t, and a
        fresh one at shift + t * d."""
        rep, prof = CATALOG_CASES[case]
        datum = rep.datum
        shift = vsub(prof.nu_global, datum.rho_bar)
        points = dominant_box_points(rep, 2)
        chi0 = points[pick % len(points)]
        chi = vadd(shift, vscale(t, vsub(chi0, shift)))
        assume(is_dominant(full_levi(datum), datum.normalize_weight(chi)))
        section = datum.normalize_weight(shift)
        signature = signature_of(rep, prof)
        try:
            fresh = face_signature_at(rep.expanded, section)(chi0)
        except InputError:
            with pytest.raises(InputError):
                signature(chi0)
            with pytest.raises(InputError):
                signature(chi)
            return
        assert signature(chi0) == fresh
        want = fresh if fresh.trivial else FaceSignature(
            t * fresh.r, fresh.s_plus, fresh.s_minus, fresh.s_zero)
        assert signature(chi) == want
        assert want == face_signature_at(rep.expanded, section)(
            datum.normalize_weight(chi))


def _cell_fields(cells):
    return [tuple(getattr(c, f.name) for f in dataclasses.fields(PartitionCell))
            for c in cells]


def _random_torus_rep(seed):
    """A seeded Torus(2) or Torus(3) weight set (each weight with its
    negative, or not) and a shift with halves and thirds."""
    rng = random.Random(seed)
    datum = build_group(rng.choice(("Torus(2)", "Torus(3)")))
    n = datum.rank
    weights = []
    for _ in range(rng.randint(2, 4)):
        w = tuple(rng.randint(-2, 2) for _ in range(n))
        m = rng.randint(1, 2)
        weights.append((w, m))
        if rng.random() < 0.8:
            weights.append((tuple(-x for x in w), m))
    nu = [F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(n)]
    return rep_spec(datum, weights), nu


class TestAgainstPointByPointReference:
    @settings(derandomize=True, database=None, max_examples=80,
              deadline=None)
    @given(st.one_of(st.integers(0, 2 ** 32).map(str),
                     st.integers(0, len(CATALOG_CASES) - 1)),
           st.sampled_from((STANDARD, HALF_OPEN_MODE)), st.integers(0, 3))
    def test_drawn_cells_match(self, case, threshold, radius):
        """partition_region equals the point-by-point, cell-by-cell
        reference in every PartitionCell field, in order, under both
        profiles, on a catalog case or (a str case, a seed) a seeded
        Torus(2) or Torus(3) weight set with a fractional shift; both
        refuse a set without a stable point."""
        if isinstance(case, str):
            rep, nu = _random_torus_rep(case)
            radius = min(radius, 5 - rep.datum.rank)  # Torus(3): 125 points
        else:
            rep, prof = CATALOG_CASES[case]
            nu = prof.nu_global
        prof = make_profile(rep.datum, nu, threshold)
        try:
            want = partition_region_reference(rep, prof, radius)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                partition_region(rep, prof, radius)
            return
        assert _cell_fields(partition_region(rep, prof, radius)) == \
            _cell_fields(want)

    def test_gl3_v4_at_radius_six(self):
        """The largest partition of the tested jobs, GL(3) V^4 + V*^4 at
        box radius 6, cell for cell."""
        gl3 = build_group("GL(3)")
        rep = construct_rep(gl3, [("vector_power", 4),
                                  ("dual_vector_power", 4)])
        prof = make_profile(gl3)
        cells = partition_region(rep, prof, 6)
        assert _cell_fields(cells) == \
            _cell_fields(partition_region_reference(rep, prof, 6))
        assert len({c.levi for c in cells}) < len(cells)


class TestAgainstBruteForce:
    def test_uniqueness_small_sweep(self):
        prof2 = make_profile(SP4)
        rep = construct_rep(SP4, [("vector_power", 1)])
        shift = vsub(prof2.nu_global, SP4.rho_bar)
        signature = signature_of(rep, prof2)
        for a in range(4):
            for b in range(a + 1):
                sig = signature(vec([a, b]))
                oracle = brute_force_signature(rep, shift, vec([a, b]))
                assert oracle != "trivial"
                r, plus, minus = oracle
                p2, m2 = signature_to_value_counts(rep, sig)
                assert (r, plus, minus) == (sig.r, p2, m2)


class TestMonotonicity:
    def test_subset_sums_strictly_decrease_order(self):
        # adding distinct attracted weights must drop (r, |S|) and raise the
        # pairing with the supporting subgroup
        rep = TORUS_4
        prof = PROF_T1
        signature = signature_of(rep, prof)
        for x in (2, 3, 4):
            chi = vec([x])
            sig = signature(chi)
            cell = build_cell(rep, sig, prof, face_levi(rep, sig))
            signs = weight_signs(rep, cell.levi.lam)
            plus_weights = [rep.expanded[i] for i in signs.t_plus]
            for size in (1, 2):
                for combo in itertools.combinations(range(len(plus_weights)), size):
                    mu = chi
                    for i in combo:
                        mu = vec([a + b for a, b in zip(mu, plus_weights[i])])
                    from sodlab.rootdata import star_dominate

                    out = star_dominate(full_levi(T1), mu)
                    if out is None:
                        continue
                    mu_plus = out[0]
                    sig2 = signature(mu_plus)
                    assert (sig2.r, len(sig2.s_plus), len(sig2.s_minus),
                            len(sig2.s_zero)) < \
                        (sig.r, len(sig.s_plus), len(sig.s_minus),
                         len(sig.s_zero))
                    assert pairing(cell.levi.lam, mu_plus) > pairing(cell.levi.lam, chi)

    def test_lower_cells_have_larger_pairing(self):
        # weights of incomparable-or-smaller signature pair strictly higher
        # against the supporting subgroup of the larger cell
        cells = partition_region(TORUS_4, PROF_T1, 4)
        for high in cells:
            if high.signature.trivial:
                continue
            for low in cells:
                if order_key(low.signature) >= order_key(high.signature):
                    continue
                for chi in high.members:
                    for mu in low.members:
                        assert pairing(high.levi.lam, chi) < pairing(high.levi.lam, mu)
        # equal signatures give equal pairings
        for cell in cells:
            vals = {pairing(cell.levi.lam, chi) for chi in cell.members}
            assert len(vals) <= 1

    def test_sign_sets_are_weyl_stable_as_value_multisets(self):
        rep = construct_rep(SP4, [("vector_power", 2)])
        prof = make_profile(SP4)
        for cell in partition_region(rep, prof, 2):
            if cell.signature.trivial:
                continue
            lv = levi(SP4, cell.levi.lam)
            for part in (cell.signature.s_plus, cell.signature.s_minus):
                values = sorted(rep.expanded[i] for i in part)
                for g in weyl_generators_reference(lv):
                    moved = sorted(mat_vec(g, rep.expanded[i]) for i in part)
                    assert moved == values


@pytest.mark.parametrize("tag", ["Torus(2)", "GL(2)", "GL(3)", "SL(2)", "SL(3)",
                                 "Sp(4)", "Product(SL(2),Torus(1))",
                                 "Product(GL(2),SL(3))"])
def test_window_box_matches_lp_reference(tag):
    datum = build_group(tag)
    rng = random.Random("box " + tag)
    for _ in range(6):
        gens = random_generators(rng, datum)
        for den in (1, 2):
            shift = vec(F(rng.randint(-4, 4), den) for _ in range(datum.rank))
            for r in (F(1, 2), F(1)):
                assert window_box(tuple(map(datum.normalize_weight, gens)), r,
                                  datum.normalize_weight(shift)) == \
                    window_box_reference(datum, gens, r, shift)


class TestValidateReductionSetting:
    def test_valid_window(self):
        out = validate_reduction_setting(
            TORUS_4, [vec([0]), vec([1])], vec([2]), vec([-1]))
        assert out.status == "ok" and out.valid

    def test_missing_point_is_violation(self):
        out = validate_reduction_setting(
            TORUS_4, [vec([1])], vec([2]), vec([-1]))
        assert out.status == "ok" and not out.valid
        assert len(out.violations) == 1
        assert out.violations[0]["shifted_dominant"] == vec([0])

    def test_empty_attracted_set_is_trivially_valid(self):
        t2 = build_group("Torus(2)")
        rep = rep_spec(t2, [((0, 1), 1), ((0, -1), 1)])
        out = validate_reduction_setting(
            rep, [vec([-1, 0])], vec([0, 0]), vec([-1, 0]))
        assert out.status == "ok" and out.valid and not out.violations

    def test_zero_lambda_fails_pairing_precondition(self):
        out = validate_reduction_setting(TORUS_4, [vec([5])], vec([2]),
                                         vec([0]))
        assert out.status == "precondition_failed"

    def test_antidominance_precondition(self):
        rep = construct_rep(SP2, [("vector_power", 3)])
        out = validate_reduction_setting(rep, [vec([2])], vec([0]), vec([1]))
        assert out.status == "precondition_failed"

    def test_undefined_shifts_are_exempt(self):
        # chi + beta lands on the reflection wall, so nothing is required
        rep = construct_rep(SP2, [("vector_power", 1)])
        out = validate_reduction_setting(rep, [], vec([0]), vec([-1]))
        assert out.status == "ok" and out.valid

    def test_sub_multisets_past_the_cap_are_refused(self):
        # the lambda-positive weight -1 with multiplicity m has m nonempty
        # sub-multisets, each of whose sums lies outside the empty window
        def check(m):
            rep = rep_spec(T1, [((1,), m), ((-1,), m)])
            return validate_reduction_setting(rep, [], vec([0]), vec([-1]))
        out = check(REDUCTION_SUM_CAP)
        assert out.status == "ok" and len(out.violations) == REDUCTION_SUM_CAP
        with pytest.raises(InputError, match=f"{REDUCTION_SUM_CAP + 1} "
                           f"nonempty sub-multisets, above the cap"):
            check(REDUCTION_SUM_CAP + 1)
