import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (orbit_reference, simple_pairs_reference,
                     twist_contains_reference, weyl_elements_reference,
                     weyl_symmetry_reference)
from sodlab.linalg import mat_vec, rank, vdot, vec
from sodlab.linprog import InputError
from sodlab.reps import (REP_DIM_CAP, TwistData, _check_weyl_symmetric,
                         coinvariant_rep, construct_rep,
                         find_destabilizer, has_t_stable_point,
                         is_quasi_symmetric, rep_spec, trivial_twist,
                         twist_member, weight_signs)
from sodlab.rootdata import build_group, full_levi, pairing
from sodlab.sod import preset

T1 = build_group("Torus(1)")
SL2 = build_group("SL(2)")
SP4 = build_group("Sp(4)")
GL2 = build_group("GL(2)")

TORUS_4 = rep_spec(T1, [((1,), 2), ((-1,), 2)])


class TestDimensionCap:
    def test_dimension_past_the_cap_is_refused(self):
        half = REP_DIM_CAP // 2
        assert rep_spec(T1, [((1,), half), ((-1,), half)]).dim == REP_DIM_CAP
        with pytest.raises(InputError, match=f"dimension {REP_DIM_CAP + 1} "
                           f"is above the cap"):
            rep_spec(T1, [((1,), half + 1), ((-1,), half)])
        with pytest.raises(InputError, match="above the cap"):
            construct_rep(SP4, [("vector_power", 10 ** 21)])


def test_weights_piece_refuses_a_multiplicity_below_one():
    """Each (weight, multiplicity) pair of a weights piece, and of the
    toric preset built from one, needs m >= 1, also where the pairs of one
    weight would sum to a positive count."""
    for pairs in ([((1,), 0)], [((1,), -1), ((1,), 2)]):
        with pytest.raises(InputError, match="multiplicities must be >= 1"):
            construct_rep(T1, [("weights", pairs)])
        with pytest.raises(InputError, match="multiplicities must be >= 1"):
            preset("toric", weights=pairs)


class TestWeightSigns:
    def test_basic_split(self):
        sp = weight_signs(TORUS_4, vec([-1]))
        # expanded order sorts the two -1 weights first
        assert sp.t_plus == (0, 1) and sp.t_minus == (2, 3)

    def test_zero_lambda(self):
        sp = weight_signs(TORUS_4, vec([0]))
        assert sp.t_zero == (0, 1, 2, 3)

    def test_sp4_vector_power(self):
        rep = construct_rep(SP4, [("vector_power", 5)])
        sp = weight_signs(rep, vec([-1, 0]))
        plus = [rep.expanded[i] for i in sp.t_plus]
        assert plus == [vec([-1, 0])] * 5


class TestStability:
    def test_balanced_torus(self):
        assert has_t_stable_point(rep_spec(T1, [((1,), 1), ((-1,), 1)]))

    def test_one_sided(self):
        assert not has_t_stable_point(rep_spec(T1, [((1,), 2)]))

    def test_same_side_different_lengths(self):
        assert not has_t_stable_point(rep_spec(T1, [((1,), 1), ((2,), 1)]))

    def test_rank_zero(self):
        t0 = build_group("Torus(0)")
        assert has_t_stable_point(rep_spec(t0, []))


class TestDestabilizer:
    def test_central_attractor(self):
        rep = rep_spec(T1, [((1,), 1), ((2,), 1)])
        d = find_destabilizer(rep)
        assert d.sigma == vec([-1]) and d.nu == vec([-1])
        assert d.case == "CentralAttractor"

    def test_stable_case(self):
        rep = construct_rep(SL2, [("sym_power", 2)])
        d = find_destabilizer(rep)
        assert d.case == "HasStablePoint" and d.sigma is None

    def test_trivial_acting_subgroup(self):
        rep = construct_rep(SL2, [("trivial", 1)])
        d = find_destabilizer(rep)
        assert d.sigma is not None
        assert d.nu == vec([0, 0])
        assert d.case == "TrivialActingSubgroup"
        assert d.sigma_annihilates_all

    def test_sigma_pairs_nonpositively(self):
        for rep in [rep_spec(T1, [((1,), 1), ((3,), 2)]),
                    construct_rep(GL2, [("vector_power", 2)])]:
            d = find_destabilizer(rep)
            assert d.sigma is not None
            assert all(vdot(d.sigma, w) <= 0 for w in rep.expanded)

    def test_nu_is_weyl_fixed(self):
        rep = construct_rep(GL2, [("vector_power", 2)])
        d = find_destabilizer(rep)
        lv = full_levi(GL2)
        assert lv.is_invariant(d.nu)


class TestQuasiSymmetry:
    def test_balanced(self):
        assert is_quasi_symmetric(TORUS_4)

    def test_unbalanced(self):
        assert not is_quasi_symmetric(rep_spec(T1, [((1,), 2), ((-1,), 1)]))

    def test_sp4_vector_powers(self):
        assert is_quasi_symmetric(construct_rep(SP4, [("vector_power", 3)]))

    def test_sl2_always(self):
        for d in (1, 2, 3, 4):
            assert is_quasi_symmetric(construct_rep(SL2, [("sym_power", d)]))

    def test_permutation_and_weyl_invariance(self):
        rng = random.Random(9)
        rep = construct_rep(SP4, [("vector_power", 2), ("sym_power", 2)])
        base = is_quasi_symmetric(rep)
        pairs = list(rep.weights)
        rng.shuffle(pairs)
        assert is_quasi_symmetric(rep_spec(SP4, pairs)) == base
        for m, _, _ in weyl_elements_reference(full_levi(SP4)):
            moved = [(mat_vec(m, w), mult) for w, mult in rep.weights]
            assert is_quasi_symmetric(rep_spec(SP4, moved)) == base


class TestCoinvariants:
    def test_zero_lambda_identity(self):
        rep = coinvariant_rep(TORUS_4, vec([0]))
        assert rep.weights == TORUS_4.weights

    def test_full_collapse(self):
        rep = coinvariant_rep(TORUS_4, vec([-1]))
        assert rep.weights == ()

    def test_determinantal_filter(self):
        w = construct_rep(GL2, [("vector_power", 2), ("dual_vector_power", 2)])
        co = coinvariant_rep(w, vec([-1, 0]))
        assert co.weights == ((vec([0, -1]), 2), (vec([0, 1]), 2))

    def test_all_pair_to_zero(self):
        rep = construct_rep(SP4, [("vector_power", 3)])
        lam = vec([-1, 0])
        for w in coinvariant_rep(rep, lam).expanded:
            assert pairing(lam, w) == 0


class TestTwist:
    def test_odd_coset(self):
        t = TwistData(((F(2),),), (F(1),))
        assert twist_member(t, vec([3]))
        assert not twist_member(t, vec([2]))

    def test_trivial(self):
        t = trivial_twist(2)
        assert twist_member(t, vec([7, -4]))

    def test_rank_validation(self):
        with pytest.raises(InputError):
            TwistData(((F(2), F(0)), (F(4), F(0))), (F(0), F(0)))

    def test_integrality_required(self):
        with pytest.raises(InputError):
            twist_member(trivial_twist(1), vec([F(1, 2)]))

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(st.data())
    def test_contains_matches_solve_reference(self, data):
        """The integer inverse built once per coset against one exact solve
        per point, at int points and at Fraction points with integral,
        half-integral and third-integral entries."""
        n = data.draw(st.integers(1, 3))
        ints = st.integers(-3, 3)
        basis = tuple(tuple(F(x) for x in data.draw(
            st.lists(ints, min_size=n, max_size=n))) for _ in range(n))
        assume(rank(basis) == n)
        t = TwistData(basis, vec(data.draw(
            st.lists(ints, min_size=n, max_size=n))))
        chi = tuple(F(data.draw(st.integers(-9, 9)),
                      data.draw(st.sampled_from((1, 1, 2, 3))))
                    for _ in range(n))
        want = twist_contains_reference(t, chi)
        assert t.contains(chi) == want
        if all(x.denominator == 1 for x in chi):
            assert t.contains(tuple(int(x) for x in chi)) == want
        else:
            assert not want

    def test_contains_rank_zero_and_int_points(self):
        assert TwistData((), ()).contains(())
        t = TwistData(((F(2), F(0)), (F(1), F(3))), (F(1), F(-1)))
        for chi in [(1, -1), (3, -1), (2, 2), (0, 0), (F(1, 2), 0)]:
            assert t.contains(chi) == twist_contains_reference(t, chi)

    def test_index_two_sublattice_rank2(self):
        # sublattice {(a, b): a + b even}, offset (1, 0)
        t = TwistData(((F(1), F(1)), (F(1), F(-1))), (F(1), F(0)))
        assert twist_member(t, vec([1, 0]))
        assert twist_member(t, vec([2, 1]))
        assert not twist_member(t, vec([1, 1]))


SYMMETRY_GROUPS = ("Torus(2)", "GL(2)", "GL(3)", "SL(2)", "SL(3)", "Sp(2)",
                   "Sp(4)", "Product(SL(2),Torus(1))", "Product(GL(2),Sp(2))")


def _message(kernel, *args):
    """The InputError message the kernel raises, or None."""
    try:
        kernel(*args)
    except InputError as e:
        return str(e)
    return None


class TestCoinvariantOrder:
    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(st.sampled_from(SYMMETRY_GROUPS), st.data())
    def test_expanded_is_the_neutral_part_of_the_parent_list(self, tag, data):
        """The coinvariants' expanded list, derived from their own weight
        pairs, against the parent's expanded list filtered by the neutral
        indices of ``weight_signs``: the same weights in the same order,
        with repeated weights across pairs and rational coweights."""
        datum = build_group(tag)
        coords = st.integers(-2, 2)
        pairs = [(tuple(data.draw(coords) for _ in range(datum.rank)),
                  data.draw(st.integers(1, 3)))
                 for _ in range(data.draw(st.integers(0, 6)))]
        rep = rep_spec(datum, pairs + pairs[:data.draw(st.integers(0, 2))])
        lam = [F(data.draw(coords), data.draw(st.sampled_from((1, 2))))
               for _ in range(datum.rank)]
        for c, pin in datum.quotient_pairs:
            lam[pin] -= vdot(lam, c)
        want = tuple(rep.expanded[i] for i in weight_signs(rep, lam).t_zero)
        assert coinvariant_rep(rep, tuple(lam)).expanded == want


class TestWeylSymmetryCheck:
    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(st.sampled_from(SYMMETRY_GROUPS), st.data())
    def test_integer_check_matches_fraction_reference(self, tag, data):
        """The check on int tuples by ``rootdata.reflect`` against the
        Fraction reflections: the same verdict and the same message,
        on Weyl orbits with a multiplicity each (symmetric) and on those
        with one weight dropped or one multiplicity changed."""
        datum = build_group(tag)
        counts = {}
        for _ in range(data.draw(st.integers(1, 3))):
            w = vec(data.draw(st.integers(-2, 2)) for _ in range(datum.rank))
            m = data.draw(st.integers(1, 3))
            for u, _ in orbit_reference(simple_pairs_reference(datum), w):
                u = datum.normalize_weight(u)
                counts[u] = counts.get(u, 0) + m
        keys = sorted(counts)
        broken = data.draw(st.sampled_from(("none", "drop", "bump")))
        if broken != "none" and len(keys) > 1:
            k = keys[data.draw(st.integers(0, len(keys) - 1))]
            if broken == "drop":
                del counts[k]
            else:
                counts[k] += 1
        rep = rep_spec(datum, sorted(counts.items()))
        want = _message(weyl_symmetry_reference, rep)
        assert _message(_check_weyl_symmetric, rep) == want
        assert _message(construct_rep, datum,
                        [("weights", sorted(counts.items()))]) == want
        if broken == "none":
            assert want is None

    def test_asymmetric_message(self):
        # the weights are checked in sorted order, (0, 1) first
        with pytest.raises(InputError, match="weight \\['0', '1'\\] has "
                           "multiplicity 1 but its reflection has 2"):
            construct_rep(GL2, [("weights", [((1, 0), 2), ((0, 1), 1)])])
