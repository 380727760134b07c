import itertools
import math
import random

import pytest

from oracles import (hom_block_dims_reference, irr_character_reference,
                     multiplicity_in_reference, weyl_elements_reference,
                     weyl_generators_reference)
from sodlab.characters import (_sym_power_tables, hom_block_dims,
                               irr_character, sym_power_character, weyl_dim)
from sodlab.linalg import mat_vec, vec
from sodlab.linprog import InputError
from sodlab.report import build_objects, parse_config
from sodlab.reps import construct_rep, rep_spec
from sodlab.rootdata import build_group, full_levi, levi, make_dominant
from sodlab.sod import enumerate_sod

T1 = build_group("Torus(1)")
SL2 = build_group("SL(2)")
SP2 = build_group("Sp(2)")
SP4 = build_group("Sp(4)")
GL2 = build_group("GL(2)")


def scalar_weights(table):
    return sorted((int(w[0] - w[1]), m) for w, m in table.entries)


class TestIrrCharacter:
    def test_sl2_string(self):
        for m in range(5):
            table = irr_character(SL2, vec([m, 0]))
            assert scalar_weights(table) == [(k, 1) for k in range(-m, m + 1, 2)]

    def test_sp4_vector(self):
        table = irr_character(SP4, vec([1, 0]))
        assert dict(table.entries) == {
            vec([-1, 0]): 1, vec([0, -1]): 1, vec([0, 1]): 1, vec([1, 0]): 1}

    def test_torus_point_mass(self):
        table = irr_character(T1, vec([7]))
        assert table.entries == ((vec([7]), 1),)

    def test_requires_dominant(self):
        with pytest.raises(InputError):
            irr_character(SP4, vec([0, 1]))

    def test_weyl_symmetry(self):
        for chi in [vec([2, 0]), vec([2, 2]), vec([3, 1])]:
            table = irr_character(SP4, chi).as_dict()
            for g in weyl_generators_reference(SP4):
                for w, m in table.items():
                    assert table.get(SP4.normalize_weight(mat_vec(g, w)), 0) == m

    def test_levi_restricted(self):
        lv = levi(SP4, vec([-1, -1]))
        table = irr_character(SP4, vec([1, -1]), lv)
        assert dict(table.entries) == {vec([1, -1]): 1, vec([-1, 1]): 1,
                                       vec([0, 0]): 1}


@pytest.mark.parametrize("tag", ["GL(3)", "SL(3)", "GL(4)", "SL(4)", "Sp(4)",
                                 "Sp(6)", "Product(GL(2),Sp(4))",
                                 "Product(SL(2),SL(2))",
                                 "Product(SL(3),Torus(1))",
                                 "Product(GL(2),SL(3))"])
def test_irr_character_matches_whole_group_reference(tag):
    datum = build_group(tag)
    rng = random.Random("irr " + tag)
    levis = [full_levi(datum)]
    for _ in range(4):
        lam = [rng.randint(-1, 1) for _ in range(datum.rank)]
        for c, pin in datum.quotient_pairs:
            lam[pin] -= sum(x * y for x, y in zip(lam, c))
        levis.append(levi(datum, vec(lam)))
    for lv in levis:
        for _ in range(3):
            w = vec(rng.randint(-2, 2) for _ in range(datum.rank))
            chi, _ = make_dominant(datum, w, lv)
            assert irr_character(datum, chi, lv).entries == \
                irr_character_reference(datum, chi, lv).entries


class TestWeylDim:
    def test_sl2(self):
        for m in range(7):
            assert weyl_dim(SL2, vec([m, 0])) == m + 1

    def test_torus(self):
        assert weyl_dim(T1, vec([9])) == 1

    def test_mass_equals_dimension_rank_two(self):
        for datum, chis in ((SP4, [(a, b) for a in range(3) for b in range(a + 1)]),
                            (GL2, [(a, b) for a in range(3) for b in range(-2, 3) if a >= b])):
            for chi in chis:
                assert irr_character(datum, vec(chi)).total == \
                    weyl_dim(datum, vec(chi))


class TestSymPower:
    def test_torus_square(self):
        rep = rep_spec(T1, [((1,), 1), ((-1,), 1)])
        assert dict(sym_power_character(rep, 2).entries) == {
            vec([2]): 1, vec([0]): 1, vec([-2]): 1}

    def test_degree_zero(self):
        rep = rep_spec(T1, [((1,), 1)])
        assert sym_power_character(rep, 0).entries == ((vec([0]), 1),)

    def test_sl2_cube_of_vector(self):
        rep = construct_rep(SL2, [("vector_power", 1)])
        table = sym_power_character(rep, 3)
        assert scalar_weights(table) == [(-3, 1), (-1, 1), (1, 1), (3, 1)]

    def test_top_degree_first_gives_each_table(self):
        rep = construct_rep(SP4, [("vector_power", 2), ("sym_power", 2)])
        top = [sym_power_character(rep, d) for d in range(6, -1, -1)][::-1]
        for d in range(7):
            assert top[d] == _sym_power_tables(rep, d)[d]

    def test_mass_is_binomial(self):
        rep = construct_rep(SP4, [("vector_power", 1)])
        for d in range(5):
            assert sym_power_character(rep, d).total == \
                math.comb(d + rep.dim - 1, d)


class TestHomBlocks:
    def test_pfaffian_invariants(self):
        w = construct_rep(SP2, [("vector_power", 3)])
        dims = hom_block_dims(SP2, vec([0]), vec([0]), w, up_to=6)
        assert dims.dims() == [1, 0, 3, 0, 6, 0, 10]

    def test_sl2_two_vectors(self):
        w = construct_rep(SL2, [("vector_power", 2)])
        dims = hom_block_dims(SL2, vec([0, 0]), vec([0, 0]), w, up_to=2)
        assert dims.dims() == [1, 0, 1]

    def test_central_obstruction(self):
        t2 = build_group("Torus(2)")
        w = rep_spec(t2, [((1, 0), 1), ((-1, 0), 1)])
        dims = hom_block_dims(t2, vec([0, 0]), vec([0, 1]), w, up_to=4)
        assert dims.dims() == [0, 0, 0, 0, 0]

    def test_invariant_count_vs_monomials(self):
        # weight-zero monomial count corrected by the alternating sum, for a
        # small representation, against direct monomial enumeration
        w = construct_rep(SL2, [("vector_power", 1), ("sym_power", 2)])
        assert w.dim == 5
        lv = full_levi(SL2)
        for d in range(5):
            table = sym_power_character(w, d).as_dict()
            got = multiplicity_in_reference(SL2, table, vec([0, 0]), lv)
            counts = {}
            scalars = [int(x[0] - x[1]) for x in w.expanded]
            for combo in itertools.combinations_with_replacement(scalars, d):
                s = sum(combo)
                counts[s] = counts.get(s, 0) + 1
            expected = counts.get(0, 0) - counts.get(-2, 0)
            assert got == expected

    def test_graded_degrees_increase(self):
        w = construct_rep(SP2, [("vector_power", 3)])
        dims = hom_block_dims(SP2, vec([0]), vec([0]), w, up_to=4)
        degs = [d for d, _ in dims.entries]
        assert degs == sorted(set(degs))


def _vd(h):
    return [{"kind": "vector_power", "h": h},
            {"kind": "dual_vector_power", "h": h}]


# The hilbert jobs of the benchmark's roots workload (box radius 0).
HILBERT_CONFIGS = [
    ("GL(2)", _vd(3), ["1", "1"]),
    ("Sp(4)", [{"kind": "vector_power", "h": 5}], ["0", "0"]),
    ("SL(2)", [{"kind": "sym_power", "d": 3}], ["0", "0"]),
    ("GL(3)", _vd(4), ["1", "1", "1"]),
]


class TestHomBlockLookup:
    """The orbit lookup against the product table plus the alternating
    Weyl sum over it."""

    @pytest.mark.parametrize("group, rep, eps", HILBERT_CONFIGS,
                             ids=[c[0] for c in HILBERT_CONFIGS])
    def test_hilbert_tail_blocks(self, group, rep, eps):
        cfg = parse_config({"group": group, "representation": rep,
                            "box_radius": 0, "mode": "quasi_symmetric",
                            "epsilon": eps})
        datum, w, profile = build_objects(cfg)
        result = enumerate_sod(w, profile, r_max=cfg.r_max,
                               box_radius=cfg.box_radius,
                               epsilon=cfg.epsilon, twist=cfg.twist)
        tail = result.components[-1]
        lv = full_levi(datum)
        nonzero = 0
        for mu in tail.window:
            for mu2 in tail.window:
                got = hom_block_dims(datum, mu, mu2, tail.coinvariants, lv,
                                     up_to=4).dims()
                assert got == hom_block_dims_reference(
                    datum, mu, mu2, tail.coinvariants, lv, 4)
                nonzero += any(got)
        assert nonzero > 0

    def test_sl3_keys_need_normalizing(self):
        # For SL(3), w(mu + rho) - rho leaves the section (last coordinate
        # zero) for most w, so the lookup finds nothing unless normalized.
        sl3 = build_group("SL(3)")
        lv = full_levi(sl3)
        w = construct_rep(sl3, [("vector_power", 1), ("dual_vector_power", 1),
                                ("sym_power", 2)])
        rho = lv.rho_bar_lambda
        moved = [m for m, _, _ in weyl_elements_reference(lv)
                 if mat_vec(m, rho)[2] != rho[2]]
        assert moved
        weights = [vec(x) for x in ([0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 0, 0])]
        totals = []
        for mu in weights:
            for mu2 in weights:
                got = hom_block_dims(sl3, mu, mu2, w, up_to=4).dims()
                assert got == hom_block_dims_reference(sl3, mu, mu2, w, lv, 4)
                totals.append(sum(got))
        assert hom_block_dims(sl3, weights[0], weights[0], w,
                              up_to=2).dims() == [1, 0, 1]
        assert min(totals) > 0
