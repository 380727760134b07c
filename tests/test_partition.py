import itertools
import random
from fractions import Fraction as F

import pytest

from oracles import (brute_force_signature, random_generators,
                     signature_to_value_counts, weyl_generators_reference,
                     window_box_reference)
from sodlab.linalg import mat_vec, vec, vsub
from sodlab.linprog import LATTICE_BOX_CAP, InputError
from sodlab.partition import (PreconditionError, build_cell, cell_members,
                              dominant_box_points, make_profile, order_key,
                              partition_region, signature_of,
                              validate_reduction_setting, window_box)
from sodlab.reps import coinvariant_rep, construct_rep, rep_spec, weight_signs
from sodlab.rootdata import build_group, is_dominant, levi, pairing
from sodlab.zonotope import FaceSignature

T1 = build_group("Torus(1)")
SL2 = build_group("SL(2)")
SP2 = build_group("Sp(2)")
SP4 = build_group("Sp(4)")

TORUS_4 = rep_spec(T1, [((1,), 2), ((-1,), 2)])
PROF_T1 = make_profile(T1)


class TestSignatureOf:
    def test_torus_line(self):
        sig = signature_of(TORUS_4, vec([3]), PROF_T1)
        assert sig.r == F(3, 2)
        assert sig.s_plus == (0, 1) and sig.s_minus == (2, 3)

    def test_trivial_at_minus_rho(self):
        assert signature_of(TORUS_4, vec([0]), PROF_T1).trivial

    def test_sp2_vector_cube(self):
        rep = construct_rep(SP2, [("vector_power", 3)])
        sig = signature_of(rep, vec([0]), make_profile(SP2))
        assert sig.r == F(1, 3)
        assert sig.s_plus == (0, 1, 2)  # the three copies of -L
        assert sig.s_minus == (3, 4, 5)

    def test_requires_dominant(self):
        rep = construct_rep(SP2, [("vector_power", 3)])
        with pytest.raises(InputError):
            signature_of(rep, vec([-1]), make_profile(SP2))


class TestOrderKey:
    def test_trivial_below_everything(self):
        trivial = FaceSignature(F(0), (), (), (), True)
        other = signature_of(TORUS_4, vec([1]), PROF_T1)
        assert order_key(trivial) < order_key(other)

    def test_radius_dominates(self):
        a = signature_of(TORUS_4, vec([2]), PROF_T1)
        b = signature_of(TORUS_4, vec([3]), PROF_T1)
        assert order_key(a) < order_key(b)

    def test_tiebreak_is_strict(self):
        a = signature_of(TORUS_4, vec([2]), PROF_T1)
        b = signature_of(TORUS_4, vec([-2]), PROF_T1)
        assert order_key(a) != order_key(b)


class TestCellMembers:
    def test_zero_dimensional_window(self):
        sig = signature_of(TORUS_4, vec([3]), PROF_T1)
        cell = build_cell(TORUS_4, sig, PROF_T1)
        coinv = coinvariant_rep(TORUS_4, cell.lam)
        assert cell_members(TORUS_4, cell, PROF_T1, coinv) == [vec([3])]

    def test_members_share_the_signature(self):
        rep = construct_rep(SL2, [("sym_power", 3), ("trivial", 1)])
        prof = make_profile(SL2)
        for x in (3, 4, 5):
            sig = signature_of(rep, vec([x, 0]), prof)
            cell = build_cell(rep, sig, prof)
            coinv = coinvariant_rep(rep, cell.lam)
            for mu in cell_members(rep, cell, prof, coinv):
                assert signature_of(rep, mu, prof) == sig

    def test_levi_dominant_members_are_dominant(self):
        # Levi-dominance of a window member already forces full dominance
        rep = construct_rep(SP4, [("vector_power", 2)])
        prof = make_profile(SP4)
        cells = partition_region(rep, prof, 3)
        for cell in cells:
            if cell.signature.trivial:
                continue
            lv = levi(SP4, cell.lam)
            coinv = coinvariant_rep(rep, cell.lam)
            for mu in cell_members(rep, cell, prof, coinv):
                assert is_dominant(SP4, mu, lv)
                assert is_dominant(SP4, mu)


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

    def test_cells_sorted(self):
        cells = partition_region(TORUS_4, PROF_T1, 4)
        keys = [c.key for c in cells]
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


class TestAgainstBruteForce:
    def test_uniqueness_small_sweep(self):
        prof2 = make_profile(SP4)
        rep = construct_rep(SP4, [("vector_power", 1)])
        shift = vsub(prof2.nu_global, SP4.rho_bar)
        for a in range(4):
            for b in range(a + 1):
                sig = signature_of(rep, vec([a, b]), prof2)
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
        for x in (2, 3, 4):
            chi = vec([x])
            sig = signature_of(rep, chi, prof)
            cell = build_cell(rep, sig, prof)
            signs = weight_signs(rep, cell.lam)
            plus_weights = [rep.expanded[i] for i in signs.t_plus]
            for size in (1, 2):
                for combo in itertools.combinations(range(len(plus_weights)), size):
                    mu = chi
                    for i in combo:
                        mu = vec([a + b for a, b in zip(mu, plus_weights[i])])
                    from sodlab.rootdata import star_dominate

                    out = star_dominate(T1, mu)
                    if out is None:
                        continue
                    mu_plus = out[0]
                    sig2 = signature_of(rep, mu_plus, prof)
                    assert (sig2.r, len(sig2.s_plus), len(sig2.s_minus),
                            len(sig2.s_zero)) < \
                        (sig.r, len(sig.s_plus), len(sig.s_minus),
                         len(sig.s_zero))
                    assert pairing(cell.lam, mu_plus) > pairing(cell.lam, chi)

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
                        assert pairing(high.lam, chi) < pairing(high.lam, mu)
        # equal signatures give equal pairings
        for cell in cells:
            vals = {pairing(cell.lam, chi) for chi in cell.members}
            assert len(vals) <= 1

    def test_sign_sets_are_weyl_stable_as_value_multisets(self):
        rep = construct_rep(SP4, [("vector_power", 2)])
        prof = make_profile(SP4)
        for cell in partition_region(rep, prof, 2):
            if cell.signature.trivial:
                continue
            lv = levi(SP4, cell.lam)
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
                assert window_box(datum, gens, r, shift) == \
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
