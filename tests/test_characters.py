import dataclasses
import itertools
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (hom_block_dims_reference, irr_character_reference,
                     multiplicity_in_reference, sym_power_tables_reference,
                     weyl_elements_reference, weyl_generators_reference)
from sodlab import characters, report, reps
from sodlab.characters import (CharacterTable, hom_block_dims,
                               irr_character, sym_power_character, weyl_dim)
from sodlab.linalg import int_row, mat_vec, vec
from sodlab.linprog import InputError
from sodlab.report import build_objects, parse_config, preset_config, run_job
from sodlab.reps import (SYM_TABLE_CAP, RepSpec, coinvariant_rep,
                         construct_rep, rep_spec, sym_power_layers)
from sodlab.rootdata import build_group, full_levi, levi, make_dominant
from sodlab.sod import enumerate_sod, preset
from test_rootdata import (SMALL_CATALOG, _outcome, _rescaled,
                           _standard_levis, _with_root)

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


def _weyl_dim_at_one_scale(datum, chi, lv):
    """Weyl's product as ``weyl_dim`` computed it before the Levi kept its
    int 2 rho: the int row of chi + rho_bar at one scale, on every call."""
    ints = int_row(datum.normalize_weight(chi) + lv.rho_bar_lambda)[0]
    rho = ints[datum.rank:]
    shifted = [x + r for x, r in zip(ints, rho)]
    num = den = 1
    for row in lv.weyl_rows:
        num *= sum(x * y for x, y in zip(row, shifted))
        den *= sum(x * y for x, y in zip(row, rho))
    value, rest = divmod(num, den)
    if rest:
        raise InputError("Weyl dimension came out non-integral")
    return value


class TestWeylDim:
    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_matches_the_one_scale_product_on_catalog_levis(self, tag):
        """The product on the Levi's int 2 rho against the one it replaced,
        on every standard Levi of each catalog group, at int weights, at
        their Fraction copies and at half-integral weights."""
        datum, standard = _standard_levis(tag)
        rng = random.Random("weyl dim " + tag)
        for lv in standard:
            assert lv.two_rho == tuple(2 * x for x in lv.rho_bar_lambda)
            for _ in range(6):
                w = tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                          for _ in range(datum.rank))
                chi, _ = make_dominant(datum, w, lv)
                want = _outcome(_weyl_dim_at_one_scale, datum, chi, lv)
                assert _outcome(weyl_dim, datum, chi, lv) == want, (lv.lam, chi)
                if all(x.denominator == 1 for x in chi):
                    ints = tuple(int(x) for x in chi)
                    assert weyl_dim(datum, ints, lv) == want, (lv.lam, chi)

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
            fresh = _sym_power_tables(rep, d)[d]
            assert top[d] == fresh and hash(top[d]) == hash(fresh)

    def test_mass_is_binomial(self):
        rep = construct_rep(SP4, [("vector_power", 1)])
        for d in range(5):
            assert sym_power_character(rep, d).total == \
                math.comb(d + rep.dim - 1, d)


class TestHomBlocks:
    def test_pfaffian_invariants(self):
        w = construct_rep(SP2, [("vector_power", 3)])
        [dims] = hom_block_dims(SP2, [vec([0])], w, up_to=6)
        assert dims == (1, 0, 3, 0, 6, 0, 10)

    def test_sl2_two_vectors(self):
        w = construct_rep(SL2, [("vector_power", 2)])
        [dims] = hom_block_dims(SL2, [vec([0, 0])], w, up_to=2)
        assert dims == (1, 0, 1)

    def test_central_obstruction(self):
        t2 = build_group("Torus(2)")
        w = rep_spec(t2, [((1, 0), 1), ((-1, 0), 1)])
        # block 1 of the window is (window[0], window[1])
        dims = hom_block_dims(t2, [vec([0, 0]), vec([0, 1])], w, up_to=4)[1]
        assert dims == (0, 0, 0, 0, 0)

    def test_empty_window_builds_no_tables(self):
        # a twist coset can leave the tail window empty; its hilbert job
        # has no blocks, whatever the degree bound
        w = rep_spec(T1, [((1,), 1), ((-1,), 1)])
        assert hom_block_dims(T1, [], w, up_to=10 ** 9) == []
        with pytest.raises(InputError, match="cap"):
            hom_block_dims(T1, [vec([0])], w, up_to=10 ** 9)

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
        blocks = hom_block_dims(datum, tail.window, tail.coinvariants, lv,
                                up_to=4)
        pairs = [(mu, mu2) for mu in tail.window for mu2 in tail.window]
        assert len(blocks) == len(pairs)
        for (mu, mu2), dims in zip(pairs, blocks):
            got = list(dims)
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
        blocks = iter(hom_block_dims(sl3, weights, w, up_to=4))
        for mu in weights:
            for mu2 in weights:
                got = list(next(blocks))
                assert got == hom_block_dims_reference(sl3, mu, mu2, w, lv, 4)
                totals.append(sum(got))
        assert hom_block_dims(sl3, weights[:1], w, up_to=2) == [(1, 0, 1)]
        assert min(totals) > 0


def _sym_power_tables(rep, top):
    """Sym^0..Sym^top of rep as tables, from a fresh run of the program."""
    return [CharacterTable(rep.datum, layer)
            for layer in sym_power_layers(rep.weights, rep.datum.rank, top)]


def _weight_multiset(datum, pairs):
    """A RepSpec straight from (weight, multiplicity) pairs, which may have
    non-integral entries (``rep_spec`` refuses those)."""
    return RepSpec(datum, tuple((datum.normalize_weight(vec(w)), m)
                                for w, m in pairs))


class TestSymPowerKernel:
    """The integer program against the Fraction program it replaced, and
    the table contract: sorted Fraction keys."""

    @settings(derandomize=True, database=None, max_examples=120,
              deadline=None)
    @given(data=st.data())
    def test_tables_match_reference(self, data):
        """Integral draws match the reference; a draw with a non-integral
        weight is refused, never truncated."""
        datum = build_group(data.draw(st.sampled_from(SMALL_CATALOG)))
        dens = data.draw(st.sampled_from(((1,), (1, 2), (2, 3))))
        weights = {}
        for _ in range(data.draw(st.integers(0, 4))):
            w = tuple(F(data.draw(st.integers(-3, 3)),
                        data.draw(st.sampled_from(dens)))
                      for _ in range(datum.rank))
            weights[w] = data.draw(st.integers(1, 3))
        rep = _weight_multiset(datum, weights.items())
        top = data.draw(st.integers(0, 4))
        if any(x.denominator != 1 for w, _ in rep.weights for x in w):
            with pytest.raises(InputError, match="not a lattice element"):
                _sym_power_tables(rep, top)
            return
        tables = _sym_power_tables(rep, top)
        assert len(tables) == top + 1
        for table, want in zip(tables, sym_power_tables_reference(rep, top)):
            keys = [w for w, _ in table.entries]
            assert keys == sorted(keys)
            assert all(type(x) is F for w in keys for x in w)
            assert table.entries == tuple(sorted(want.items()))
            assert table.as_dict() == want
            assert table.total == sum(want.values())


class TestLatticeRefusals:
    """Weights, highest weights and Levi roots off the weight lattice are
    refused with InputError, never rounded onto it."""

    def test_non_integral_coinvariants_are_refused(self):
        # half-integral weights, some of them neutral for lam = (1, 1)
        rep = _weight_multiset(GL2, [
            (("1/2", "1/2"), 2), (("-1/2", "-1/2"), 2),
            (("1/2", "-1/2"), 1), (("-1/2", "1/2"), 1),
            ((1, 0), 1), ((0, 1), 1), ((0, 0), 2)])
        coinv = coinvariant_rep(rep, vec([1, 1]))
        assert {w for w, _ in coinv.weights} == {
            vec(["1/2", "-1/2"]), vec(["-1/2", "1/2"]), vec([0, 0])}
        zero = vec([0, 0])
        for up_to in (0, 4):
            with pytest.raises(InputError, match="not a lattice element"):
                hom_block_dims(GL2, [zero], coinv, up_to=up_to)
        with pytest.raises(InputError, match="not a lattice element"):
            sym_power_character(coinv, 0)

    @pytest.mark.parametrize("which", ["mu", "mu_prime"])
    def test_non_integral_block_weights_are_refused(self, which):
        integral = coinvariant_rep(
            _weight_multiset(GL2, [((1, -1), 1), ((-1, 1), 1), ((0, 0), 1),
                                   ((1, 0), 1), ((0, 1), 1)]), vec([1, 1]))
        weights = {"mu": vec([0, 0]), "mu_prime": vec([0, 0])}
        window = [weights["mu"], weights["mu_prime"]]
        assert hom_block_dims(GL2, window, integral)[1][0] == 1
        weights[which] = vec(["1/2", "-1/2"])
        window = [weights["mu"], weights["mu_prime"]]
        with pytest.raises(InputError, match="not a lattice element"):
            hom_block_dims(GL2, window, integral)

    def test_non_integral_highest_weight_is_refused(self):
        for datum, chi in ((SL2, ["1/2", 0]), (SP4, ["3/2", "1/2"]),
                           (T1, ["1/3"])):
            with pytest.raises(InputError, match="not a lattice element"):
                irr_character(datum, vec(chi))

    def test_levi_off_the_lattice_is_refused(self):
        # halved roots: (1/2, -1/2) and its negative are no lattice vectors,
        # so the datum is refused when it is built, before any character
        # or Levi could read them
        with pytest.raises(InputError, match=r"\['1/2', '-1/2'\] is not "
                                             r"an int tuple"):
            _rescaled(GL2, F(1, 2))

    def test_dot_image_off_the_lattice_is_refused(self):
        # the lattice root a = (1, 1, 1, 1) has a . a = 4 and rho = a / 2:
        # s_a(e1 + rho) - rho = e1 - 3 a / 2, which no division rounds
        datum = _with_root(build_group("Torus(4)"), (1, 1, 1, 1))
        rep = rep_spec(datum, [((1, 0, 0, 0), 1)])
        zero, e1 = vec([0, 0, 0, 0]), vec([1, 0, 0, 0])
        assert hom_block_dims(datum, [zero], rep, up_to=2) == [(1, 0, 0)]
        with pytest.raises(InputError, match="off the lattice"):
            hom_block_dims(datum, [e1, zero], rep, up_to=2)


def _counting_characters(monkeypatch):
    """The list of highest weights that ``irr_character`` is called with
    from then on."""
    calls = []
    original = characters.irr_character

    def counted(datum, chi, levi=None):
        calls.append(tuple(chi))
        return original(datum, chi, levi)

    monkeypatch.setattr(characters, "irr_character", counted)
    return calls


class TestCharacterSlot:
    """Each window weight's character and shifted orbit is built once per
    ``hom_block_dims`` call, and a hilbert job makes one call."""

    @pytest.mark.parametrize("group, rep, eps", HILBERT_CONFIGS,
                             ids=[c[0] for c in HILBERT_CONFIGS])
    def test_one_character_per_window_weight(self, monkeypatch, group, rep,
                                             eps):
        calls = _counting_characters(monkeypatch)
        jobs = []
        original = report.hom_block_dims

        def counted(*args, **kwargs):
            jobs.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(report, "hom_block_dims", counted)
        cfg = parse_config({"group": group, "representation": rep,
                            "box_radius": 0, "mode": "quasi_symmetric",
                            "epsilon": eps, "degree_bound": 3})
        blocks = run_job("hilbert", cfg)["hilbert"]["blocks"]
        targets = {tuple(b["target"]) for b in blocks}
        assert len(blocks) == len(targets) ** 2
        assert len(jobs) == 1
        assert len(calls) == len(set(calls)) == len(targets)

    def test_one_shifted_orbit_per_window_weight(self, monkeypatch):
        """A hilbert job walks the Weyl orbit of mu + rho once per window
        weight mu, not once per (mu, mu') block."""
        calls = []
        original = characters._shifted_orbit

        def counted(datum, mu, lv):
            calls.append(mu)
            return original(datum, mu, lv)

        monkeypatch.setattr(characters, "_shifted_orbit", counted)
        cfg = preset_config(preset("determinantal", n=2, h=3))
        blocks = run_job("hilbert", cfg)["hilbert"]["blocks"]
        sources = {tuple(b["source"]) for b in blocks}
        assert len(blocks) == len(sources) ** 2 == 9
        assert len(calls) == len(set(calls)) == len(sources)

    def test_new_levi_or_datum_is_never_served_stale_tables(self,
                                                            monkeypatch):
        calls = _counting_characters(monkeypatch)
        coinv = construct_rep(GL2, [("vector_power", 1),
                                    ("dual_vector_power", 1)])
        mu = vec([1, 0])
        lam = vec([0, 0])
        whole, again = levi(GL2, lam), levi(GL2, lam)
        torus = levi(GL2, vec([1, 0]))
        assert whole == again and whole is not again
        twin = dataclasses.replace(GL2)
        assert twin == GL2 and twin is not GL2
        # the whole group's character of (1, 0) has two weights and the
        # torus Levi's one; served the former, the torus Levi would read 3,
        # not 2, in degree 2, and the reference comparison would fail
        cases = ((GL2, whole), (GL2, whole), (GL2, torus), (GL2, whole),
                 (GL2, again), (twin, again), (twin, again))
        for k, (datum, lv) in enumerate(cases, 1):
            got = list(hom_block_dims(datum, [mu], coinv, lv, up_to=3)[0])
            assert got == hom_block_dims_reference(GL2, mu, mu, coinv, lv, 3)
            assert len(calls) == k

    def test_threads_alternating_levis_read_their_own_tables(self):
        # more threads than cores, switching often: each call builds its
        # characters as local values, so a thread never pairs its Levi with
        # another's tables
        coinv = construct_rep(GL2, [("vector_power", 1),
                                    ("dual_vector_power", 1)])
        mu = vec([1, 0])
        levis = [levi(GL2, vec([0, 0])), levi(GL2, vec([1, 0]))]
        want = [hom_block_dims_reference(GL2, mu, mu, coinv, lv, 3)
                for lv in levis]
        wrong = []

        def work(k):
            for i in range(40):
                lv = levis[(i + k) % 2]
                got = list(hom_block_dims(GL2, [mu], coinv, lv, up_to=3)[0])
                if got != want[(i + k) % 2]:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestSymPowerGuards:
    def test_table_cap_counts_the_work(self, monkeypatch):
        # weights 1 and -1 to degree 4: 5 tables, 5 updates for the first
        # weight, then 5 + 4 + 3 + 2 + 1 for the second: 25 entries
        rep = rep_spec(T1, [((1,), 1), ((-1,), 1)])
        monkeypatch.setattr(reps, "SYM_TABLE_CAP", 25)
        assert [t.total for t in _sym_power_tables(rep, 4)] == [1, 2, 3, 4, 5]
        monkeypatch.setattr(reps, "SYM_TABLE_CAP", 24)
        with pytest.raises(InputError, match="cap of 24"):
            _sym_power_tables(rep, 4)

    def test_degree_past_the_cap_is_refused_before_allocating(self):
        rep = rep_spec(T1, [((1,), 1)])
        with pytest.raises(InputError, match=f"at least {SYM_TABLE_CAP + 1}"):
            _sym_power_tables(rep, SYM_TABLE_CAP)
        with pytest.raises(InputError):
            sym_power_character(rep, 10 ** 9)

    def test_piece_cap(self):
        # GL(1) has one defining weight: the program to degree d writes
        # d + 1 tables and d + 1 updates, and Sym^d is the one weight d
        gl1 = build_group("GL(1)")
        d = SYM_TABLE_CAP // 2 - 1
        assert construct_rep(gl1, [("sym_power", d)]).weights == (((d,), 1),)
        with pytest.raises(InputError, match="table entries"):
            construct_rep(gl1, [("sym_power", d + 1)])
