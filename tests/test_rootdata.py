import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (coroot_invariant_vectors_reference, coroot_reference,
                     invariant_projector_reference,
                     invariant_vectors_reference, is_dominant_reference,
                     levi_reference, orbit_reference, primitive_reference,
                     simple_pairs_reference, simple_roots_reference,
                     weyl_dim_reference, weyl_elements_reference,
                     weyl_generators_reference)
from sodlab import rootdata
from sodlab.characters import irr_character, weyl_dim
from sodlab.cli import main
from sodlab.linalg import int_row, mat_vec, vdot, vec
from sodlab.linprog import InputError
from sodlab.partition import make_profile
from sodlab.reps import rep_spec
from sodlab.rootdata import (GROUP_DEPTH_CAP, GROUP_RANK_CAP, build_group,
                             full_levi, is_dominant, levi,
                             descend, make_dominant, orbit, pairing, reflect,
                             star_dominate)

SP4 = build_group("Sp(4)")
SL2 = build_group("SL(2)")
T3 = build_group("Torus(3)")


class TestBuildGroup:
    def test_sp4_rho(self):
        assert SP4.rho_bar == vec([2, 1])

    def test_torus_is_flat(self):
        assert T3.positive_roots == () and T3.rho_bar == vec([0, 0, 0])

    def test_sl2_normalization(self):
        assert len(SL2.positive_roots) == 1
        a = SL2.positive_roots[0]
        assert vdot(coroot_reference(a), SL2.rho_bar) == 1

    def test_rank_cap(self):
        """A tag at the cap builds; one past it, alone or summed over a
        product's factors, is refused, leading zeros or not."""
        assert build_group(f"Torus({GROUP_RANK_CAP})").rank == GROUP_RANK_CAP
        at_cap = "Product(" + "Torus(1)," * (GROUP_RANK_CAP - 1) + "Torus(1))"
        assert build_group(at_cap).rank == GROUP_RANK_CAP
        assert build_group("GL(0000000003)").rank == 3
        for tag in (f"Torus({GROUP_RANK_CAP + 1})", at_cap[:-1] + ",GL(1))",
                    f"Sp({2 * GROUP_RANK_CAP + 2})",
                    f"GL(0000000000{GROUP_RANK_CAP + 1})"):
            with pytest.raises(InputError, match=f"cap of {GROUP_RANK_CAP}"):
                build_group(tag)

    def test_depth_cap(self):
        """A tag nested to the cap builds; one level deeper is refused
        before any recursion, as is a Torus(0) product nested 2,000 deep,
        which the rank cap does not bound."""
        def nested(depth, leaf):
            return "Product(" * (depth - 1) + leaf + ")" * (depth - 1)

        at_cap = nested(GROUP_DEPTH_CAP, "GL(2)")
        assert at_cap.count("(") == GROUP_DEPTH_CAP
        assert build_group(at_cap).rank == 2
        for tag in (nested(GROUP_DEPTH_CAP + 1, "GL(2)"),
                    nested(GROUP_DEPTH_CAP, "Product(Torus(0))"),
                    nested(2000, "Torus(0)")):
            with pytest.raises(InputError,
                               match=f"past the cap of {GROUP_DEPTH_CAP}"):
                build_group(tag)

    def test_unknown_tag(self):
        with pytest.raises(InputError):
            build_group("E(8)")

    def test_error_quotes_a_bounded_prefix_of_the_tag(self):
        """A short tag is quoted whole; a long one by its first
        TAG_QUOTE_LIMIT characters and its length, in every message that
        quotes the tag."""
        with pytest.raises(InputError) as short:
            build_group("E(8)")
        assert str(short.value) == "unknown group tag 'E(8)'"
        with pytest.raises(InputError) as short:
            build_group("Product(GL(1),)")
        assert str(short.value) == "malformed product tag 'Product(GL(1),)'"
        limit = rootdata.TAG_QUOTE_LIMIT
        ranked = ("Product(" + "Torus(0)," * 20_000
                  + f"GL({GROUP_RANK_CAP}),GL(1))")
        for tag, start in (("GL(" + "(" * 100_000 + "1", "unknown group tag"),
                           ("Product(GL(1)," + "GL(1)," * 20_000 + ")",
                            "malformed product tag"),
                           (ranked, "the factors of"),
                           ("GL(" + "0" * 100_000 + ")",
                            "group parameter must be positive in")):
            with pytest.raises(InputError) as err:
                build_group(tag)
            message = str(err.value)
            assert message.startswith(f"{start} {tag[:limit]!r}... "
                                      f"({len(tag)} characters)"), message
            assert len(message) < 200

    def test_product(self):
        p = build_group("Product(SL(2),Torus(1))")
        assert p.rank == 3
        assert p.quotient_pairs == ((vec([1, 1, 0]), 1),)

    def test_weyl_orders(self):
        elements = weyl_elements_reference
        assert len(elements(build_group("GL(3)"))) == math.factorial(3)
        assert len(elements(build_group("SL(3)"))) == math.factorial(3)
        assert len(elements(SP4)) == 2 ** 2 * 2
        assert len(elements(build_group("Sp(6)"))) == 2 ** 3 * 6
        assert len(elements(build_group("GL(4)"))) == 24


GL2 = build_group("GL(2)")

# Entry points that take a vector of the datum's rank.  All but rep_spec
# once accepted the zero vector of another length, pairing it with a prefix
# of each row: weyl_dim(GL(2), (1,)) read -1, and irr_character gave keys of
# both lengths.
WRONG_LENGTH_CALLS = {
    "normalize_weight": lambda v: GL2.normalize_weight(v),
    "weyl_dim": lambda v: weyl_dim(full_levi(GL2), v),
    "irr_character": lambda v: irr_character(full_levi(GL2), v),
    "make_profile": lambda v: make_profile(GL2, v),
    "rep_spec": lambda v: rep_spec(GL2, [(v, 1)]),
}


class TestWrongLength:
    @pytest.mark.parametrize("entry", sorted(WRONG_LENGTH_CALLS))
    @pytest.mark.parametrize("v", [(0,), (0, 0, 0), (1,)])
    def test_is_refused(self, entry, v):
        what = "global shift" if entry == "make_profile" else "weight"
        with pytest.raises(InputError, match=f"^{what} has {len(v)} entries, "
                                             r"but GL\(2\) has rank 2$"):
            WRONG_LENGTH_CALLS[entry](v)


class TestPairing:
    def test_literal(self):
        assert pairing(vec([-1, 0]), vec([2, 3])) == -2

    def test_zero(self):
        assert pairing(vec([0, 0]), vec([5, 7])) == 0

    def test_bilinear(self):
        lam = vec([F(1, 2), -2])
        a, b = vec([1, 3]), vec([-2, 5])
        assert pairing(lam, vec([x + y for x, y in zip(a, b)])) == \
            pairing(lam, a) + pairing(lam, b)


class TestDominance:
    def test_sl2(self):
        assert is_dominant(full_levi(SL2), vec([3, 0]))
        assert not is_dominant(full_levi(SL2), vec([-1, 0]))

    def test_torus_everything(self):
        assert is_dominant(full_levi(T3), vec([-5, 2, 9]))

    def test_levi_restricted(self):
        lv = levi(SP4, vec([-1, -1]))
        # only the root pair through (1, -1) survives; dominance ignores 2L_i
        assert is_dominant(lv, vec([1, -1]))
        assert not is_dominant(lv, vec([-1, 1]))
        assert not is_dominant(full_levi(SP4), vec([1, -1]))


class TestStarDominate:
    def test_sl2_reflection(self):
        chi_plus, sign, _ = star_dominate(full_levi(SL2), vec([-2, 0]))
        assert chi_plus == vec([0, 0]) and sign == -1

    def test_wall_undefined(self):
        assert star_dominate(full_levi(SL2), vec([-1, 0])) is None

    def test_already_dominant(self):
        chi_plus, sign, word = star_dominate(full_levi(SL2), vec([5, 0]))
        assert chi_plus == vec([5, 0]) and sign == 1 and word == ()

    def test_orbit_independence(self):
        for chi in [vec([2, -1]), vec([-3, 1]), vec([0, 2])]:
            out = star_dominate(full_levi(SP4), chi)
            if out is None:
                continue
            plus = out[0]
            for m, _, _ in weyl_elements_reference(SP4):
                shifted = mat_vec(m, vec([x + r for x, r in zip(chi, SP4.rho_bar)]))
                again = star_dominate(
                    full_levi(SP4),
                    vec([x - r for x, r in zip(shifted, SP4.rho_bar)]))
                assert again is not None and again[0] == plus

    def test_outputs_dominant(self):
        for chi in [vec([-4, 0]), vec([3, -2]), vec([-1, -3])]:
            out = star_dominate(full_levi(SP4), chi)
            if out is not None:
                assert is_dominant(full_levi(SP4), out[0])


class TestMakeDominant:
    def test_sl2(self):
        dom, _ = make_dominant(full_levi(SL2), vec([-4, 0]))
        assert dom == vec([4, 0])

    def test_sp4_sorted_absolute(self):
        dom, _ = make_dominant(full_levi(SP4), vec([-1, 2]))
        assert dom == vec([2, 1])

    def test_identity_on_dominant(self):
        dom, word = make_dominant(full_levi(SP4), vec([3, 1]))
        assert dom == vec([3, 1]) and word == ()


class TestLevi:
    def test_zero_gives_full(self):
        lv = full_levi(SP4)
        assert lv.phi_lambda_plus == SP4.positive_roots
        assert lv.rho_bar_lambda == SP4.rho_bar

    def test_sp4_diagonal(self):
        lv = levi(SP4, vec([-1, -1]))
        assert lv.phi_lambda_plus == (vec([1, -1]),)
        assert lv.rho_bar_lambda == vec([F(1, 2), F(-1, 2)])

    def test_torus_always_empty(self):
        assert levi(T3, vec([1, -5, 2])).phi_lambda_plus == ()

    def test_rho_difference_invariant_under_levi_weyl(self):
        # rho_bar_lambda itself moves under its own reflections; the
        # Levi-invariant quantity is the difference with the full half-sum.
        lv = levi(SP4, vec([-1, -1]))
        diff = vec([a - b for a, b in zip(lv.rho_bar_lambda, SP4.rho_bar)])
        for g in weyl_generators_reference(lv):
            assert mat_vec(g, diff) == diff

    def test_coweight_constraint_enforced(self):
        with pytest.raises(InputError):
            levi(SL2, vec([1, 0]))  # not sum-zero


class TestInvariantSubspace:
    def test_gl(self):
        assert full_levi(build_group("GL(3)")).invariant_vectors() == \
            [vec([1, 1, 1])]

    def test_sp(self):
        assert full_levi(SP4).invariant_vectors() == []

    def test_torus_full(self):
        assert len(full_levi(T3).invariant_vectors()) == 3

    def test_sl_quotient_kills_determinant(self):
        assert full_levi(SL2).invariant_vectors() == []

    def test_vectors_fixed_by_generators(self):
        for tag in ("GL(2)", "GL(3)", "Torus(2)"):
            datum = build_group(tag)
            for v in full_levi(datum).invariant_vectors():
                for g in weyl_generators_reference(datum):
                    assert mat_vec(g, v) == v


# Every catalog family up to rank 4 (L coordinates), plus products.
SMALL_CATALOG = ("Torus(1)", "Torus(3)", "GL(1)", "GL(2)", "GL(3)", "GL(4)",
                 "SL(2)", "SL(3)", "SL(4)", "Sp(2)", "Sp(4)", "Sp(6)", "Sp(8)",
                 "Product(SL(2),Torus(1))", "Product(GL(2),Sp(4))",
                 "Product(SL(2),SL(2))")


@pytest.mark.parametrize("tag", SMALL_CATALOG)
def test_rho_bar_is_the_fraction_half_sum(tag):
    """rho_bar, derived on first use, against half the Fraction sum of the
    positive roots, and the whole-group Levi's rho_bar_lambda (half its int
    two_rho) against it."""
    datum = build_group(tag)
    total = vec([0] * datum.rank)
    for a in datum.positive_roots:
        total = tuple(x + y for x, y in zip(total, a))
    want = tuple(x / 2 for x in total)
    assert datum.rho_bar == want
    assert all(type(x) is F for x in datum.rho_bar)
    assert full_levi(datum).rho_bar_lambda == want


@pytest.mark.parametrize("tag", SMALL_CATALOG)
def test_full_levi_derives_the_simple_roots(tag):
    """The whole-group Levi, from which every Weyl question of the datum is
    read, against the pair-sum reference: its simple roots in
    ``positive_roots`` order, its dominance rows on the rays of their
    Fraction coroots, and its rho_bar_lambda equal to the datum's rho_bar."""
    datum = build_group(tag)
    lv = full_levi(datum)
    simple = simple_roots_reference(datum)
    assert lv.simple_roots == simple
    assert lv.dominance_rows == tuple(
        primitive_reference(coroot_reference(a)) for a in simple)
    assert lv.rho_bar_lambda == datum.rho_bar


def _seeded_coweights(datum, rng, count):
    """Random integral coweights, made sum-zero on every SL block."""
    out = []
    for _ in range(count):
        lam = [rng.randint(-2, 2) for _ in range(datum.rank)]
        for c, pin in datum.quotient_pairs:
            lam[pin] -= vdot(vec(lam), c)
        out.append(vec(lam))
    return out


class TestFixedSpaceKernels:
    """Fixed spaces from the simple reflections against the average over
    the whole Weyl group."""

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_matches_group_average(self, tag):
        datum = build_group(tag)
        rng = random.Random(tag)
        levis = [full_levi(datum)] + [
            levi(datum, lam) for lam in _seeded_coweights(datum, rng, 6)]
        assert any(weyl_generators_reference(lv) for lv in levis) == \
            bool(datum.positive_roots)
        for lv in levis:
            average = invariant_projector_reference(lv)
            for j in range(datum.rank):
                unit = tuple(int(i == j) for i in range(datum.rank))
                assert lv.weyl_average(unit) == tuple(row[j] for row in average)
            assert lv.invariant_vectors() == invariant_vectors_reference(lv)


def _seeded_weights(datum, rng, count):
    """Random weights with integral and half-integral entries."""
    return [vec(F(rng.randint(-6, 6), rng.choice((1, 2)))
                for _ in range(datum.rank)) for _ in range(count)]


def _product(matrices, rank):
    out = tuple(tuple(F(i == j) for j in range(rank)) for i in range(rank))
    for m in matrices:
        out = tuple(tuple(sum((row[t] * m[t][j] for t in range(rank)), F(0))
                          for j in range(rank)) for row in out)
    return out


def _weyl_cases(tag):
    datum = build_group(tag)
    rng = random.Random("weyl " + tag)
    levis = [None, full_levi(datum)] + [
        levi(datum, lam) for lam in _seeded_coweights(datum, rng, 4)]
    return datum, rng, levis


@functools.cache
def _standard_levis(tag):
    """The datum and one Levi per set of simple roots that an antidominant
    integral coweight in [-rank, rank]^rank annihilates: every standard Levi
    of a catalog group of rank at most 4."""
    datum = build_group(tag)
    simple = simple_roots_reference(datum)
    found = {}
    for lam in itertools.product(range(-datum.rank, datum.rank + 1),
                                 repeat=datum.rank):
        pairings = [sum(x * y for x, y in zip(lam, a)) for a in simple]
        key = tuple(x == 0 for x in pairings)
        if key not in found and max(pairings, default=0) <= 0 \
                and datum.coweight_ok(lam):
            found[key] = levi(datum, vec(lam))
    assert len(found) == 2 ** len(simple)
    return datum, list(found.values())


class TestDominanceBySimpleCoroots:
    """Dominance from the simple coroots scaled to integers against every
    positive coroot, for every catalog group and each of its standard
    Levis."""

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    @settings(derandomize=True, database=None, max_examples=40,
              deadline=None)
    @given(data=st.data())
    def test_matches_positive_coroot_reference(self, tag, data):
        datum, levis = _standard_levis(tag)
        chi = tuple(F(data.draw(st.integers(-6, 6)),
                      data.draw(st.sampled_from((1, 2))))
                    for _ in range(datum.rank))
        as_ints = tuple(int(x) for x in chi) \
            if all(x.denominator == 1 for x in chi) else None
        for lv in [None] + levis:
            want = is_dominant_reference(datum, chi, lv)
            data = lv or full_levi(datum)
            assert is_dominant(data, chi) == want, (lv, chi)
            if as_ints is not None:
                assert is_dominant(data, as_ints) == want, (lv, chi)


# GL, SL (with its quotient direction), Sp and products of them.
ORBIT_GROUPS = ("GL(2)", "GL(3)", "GL(4)", "SL(2)", "SL(3)", "SL(4)", "Sp(4)",
                "Sp(6)", "Product(SL(2),Torus(1))", "Product(GL(2),Sp(4))",
                "Product(SL(2),SL(3))")


def _at_scale(chi):
    """chi as an int tuple times its least common denominator d, and d."""
    ints, d = int_row(chi)
    return tuple(ints), d


class TestWeylKernels:
    """Descent and orbit search over the integer simple reflections against
    the breadth-first enumeration of the group as reflection matrices."""

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_orbit_and_signs(self, tag):
        datum, rng, levis = _weyl_cases(tag)
        for lv in levis:
            data = lv or full_levi(datum)
            elements = weyl_elements_reference(datum if lv is None else lv)
            for chi in _seeded_weights(datum, rng, 5):
                ints, d = _at_scale(chi)
                points = orbit(data, ints)
                signs = {tuple(F(x, d) for x in p): s for p, s in points}
                assert len(signs) == len(points)
                assert set(signs) == {datum.normalize_weight(mat_vec(m, chi))
                                      for m, _, _ in elements}
                positive = datum.positive_roots if lv is None \
                    else lv.phi_lambda_plus
                if all(vdot(coroot_reference(a), chi) != 0
                       for a in positive):
                    # regular: one point per element, signed by det w
                    assert len(points) == len(elements)
                    det = {datum.normalize_weight(mat_vec(m, chi)): sign
                           for m, _, sign in elements}
                    assert all(det[p] == sign for p, sign in signs.items())

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_descent_finds_shortest_element(self, tag):
        datum, rng, levis = _weyl_cases(tag)
        for lv in levis:
            data = lv or full_levi(datum)
            elements = weyl_elements_reference(datum if lv is None else lv)
            gens = weyl_generators_reference(datum if lv is None else lv)
            for chi in _seeded_weights(datum, rng, 5):
                ints, d = _at_scale(chi)
                dom, word = descend(data, ints)
                dom = tuple(F(x, d) for x in dom)
                m, ref_word, _ = next(e for e in elements
                                      if is_dominant(data, mat_vec(e[0], chi)))
                assert dom == datum.normalize_weight(mat_vec(m, chi))
                assert len(word) == len(ref_word)
                assert _product([gens[i] for i in word], datum.rank) == m
                assert make_dominant(data, chi) == (dom, word)
                # W and the section map are linear: the antidominant
                # conjugate of chi is minus the dominant conjugate of -chi
                neg, _ = descend(data, tuple(-x for x in ints))
                low = tuple(F(-x, d) for x in neg)
                assert all(vdot(cr, low) <= 0
                           for _, cr in simple_pairs_reference(data))
                assert low in {datum.normalize_weight(mat_vec(m, chi))
                               for m, _, _ in elements}

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_reflections_are_normalized_reflections(self, tag):
        """``reflect`` in each simple root of a Levi is the reference
        reflection matrix followed by the section normalization, on every
        unit vector; where the unit's image leaves the lattice, on the unit
        times a . a, and the unit itself is refused."""
        datum, _, levis = _weyl_cases(tag)
        for lv in [full_levi(datum)] + levis[2:]:
            for a, g in zip(lv.simple_roots, weyl_generators_reference(lv)):
                norm = vdot(a, a)
                for j in range(datum.rank):
                    unit = tuple(int(i == j) for i in range(datum.rank))
                    want = datum.normalize_weight(tuple(row[j] for row in g))
                    if all(x.denominator == 1 for x in want):
                        assert reflect(datum, a, unit) == want
                        continue
                    with pytest.raises(InputError, match="leaves the lattice"):
                        reflect(datum, a, unit)
                    assert reflect(datum, a, tuple(norm * x for x in unit)) \
                        == tuple(norm * x for x in want)

    def test_reference_reflections_preserve_the_form(self):
        """The reflections preserve the dot product: g^T g = I."""
        for datum in [build_group(tag) for tag in SMALL_CATALOG]:
            ident = _product([], datum.rank)
            for g in weyl_generators_reference(datum):
                assert _product([tuple(zip(*g)), g], datum.rank) == ident

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(st.sampled_from(ORBIT_GROUPS), st.data())
    def test_integer_orbit_matches_fraction_reference(self, tag, data):
        """The orbit search on int tuples against the Fraction search: the
        same points, in section form, with the same signs, for the whole
        group and for the Levi of a random coweight."""
        datum = build_group(tag)
        lam = [data.draw(st.integers(-2, 2)) for _ in range(datum.rank)]
        for c, pin in datum.quotient_pairs:
            lam[pin] -= vdot(vec(lam), c)
        lv = levi(datum, vec(lam))
        chi = tuple(F(data.draw(st.integers(-4, 4)),
                      data.draw(st.sampled_from((1, 2))))
                    for _ in range(datum.rank))
        ints, d = _at_scale(chi)
        points = orbit(lv, ints)
        got = {tuple(F(x, d) for x in p): s for p, s in points}
        want = {datum.normalize_weight(p): s
                for p, s in orbit_reference(simple_pairs_reference(lv), chi)}
        assert len(got) == len(points) == len(want)
        assert got == want


    def test_reflection_off_the_lattice_is_refused(self):
        """The root (1, 2) of a hand-built Torus(2) datum has the coroot
        (2, 4) / 5, which is not integral: its reflection fixes (2, -1) and
        maps (1, 2) to (-1, -2) and 5 times a unit into the lattice, but
        (1, 0) to (3/5, -4/5), which the integer kernels refuse rather than
        round."""
        lv = full_levi(_with_root(build_group("Torus(2)"), (1, 2)))
        assert reflect(lv.datum, (1, 2), (2, -1)) == (2, -1)
        assert reflect(lv.datum, (1, 2), (5, 0)) == (3, -4)
        assert reflect(lv.datum, (1, 2), (0, 5)) == (-4, -3)
        assert orbit(lv, (1, 2)) == [((1, 2), 1), ((-1, -2), -1)]
        with pytest.raises(InputError, match="leaves the lattice"):
            orbit(lv, (1, 0))


class TestOrbitCap:
    def test_cap_counts_the_points_found(self, monkeypatch):
        gl3 = full_levi(build_group("GL(3)"))
        monkeypatch.setattr(rootdata, "ORBIT_CAP", 6)
        assert len(orbit(gl3, (2, 1, 0))) == 6   # regular: one per element
        monkeypatch.setattr(rootdata, "ORBIT_CAP", 5)
        with pytest.raises(InputError, match="than the cap of 5"):
            orbit(gl3, (2, 1, 0))
        assert len(orbit(gl3, (1, 1, 0))) == 3

    def test_hilbert_past_the_cap_exits_two(self, monkeypatch, tmp_path,
                                            capsys):
        """The GL(2) orbits of determinantal:n=2,h=3 have two points."""
        args = ["hilbert", "--preset", "determinantal:n=2,h=3",
                "--out", str(tmp_path / "hilbert.json")]
        monkeypatch.setattr(rootdata, "ORBIT_CAP", 2)
        assert main(args) == 0
        monkeypatch.setattr(rootdata, "ORBIT_CAP", 1)
        assert main(args) == 2
        assert "more points than the cap of 1" in capsys.readouterr().err


class TestLeviLabelsFromTheCli:
    """Component labels through ``sod``: both configs reach the adjacency
    of simple roots in ``LeviDatum.label`` (C2 in Sp(6), A2 in GL(4))."""

    @pytest.mark.parametrize("config, want", [
        ({"group": "Sp(6)", "box_radius": 4,
          "representation": [{"kind": "vector_power", "h": 7}]},
         [(-1, "C2xT1"), (0, "Sp(6)")]),
        ({"group": "GL(4)", "box_radius": 2, "mode": "quasi_symmetric",
          "representation": [{"kind": "vector_power", "h": 5},
                             {"kind": "dual_vector_power", "h": 5}]},
         [(-3, "A1xT3"), (-2, "A2xT2"), (-1, "A2xT2"), (0, "GL(4)")]),
    ])
    def test_component_labels(self, config, want, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "sod.json"
        cfg.write_text(json.dumps(config))
        assert main(["sod", "--config", str(cfg), "--out", str(out)]) == 0
        components = json.loads(out.read_text())["sod"]["components"]
        assert [(c["index"], c["levi"]) for c in components] == want


def _positive_multiple(row, coroot):
    """Whether the int tuple row is primitive and a positive multiple of
    the Fraction vector coroot."""
    k = next(i for i, x in enumerate(coroot) if x)
    c = row[k] / coroot[k]
    return math.gcd(*row) == 1 and c > 0 and \
        tuple(row) == tuple(c * x for x in coroot)


def _with_root(datum, alpha):
    """The datum with one positive root, alpha (and so its negative)."""
    return dataclasses.replace(datum, positive_roots=(alpha,))


def _rescaled(datum, root_factor):
    """The datum with its roots, so also rho, multiplied by
    ``root_factor``: int tuples for an int factor, which the datum accepts,
    Fraction tuples for a Fraction one, which it refuses."""
    def scaled(vectors):
        return tuple(tuple(root_factor * x for x in v) for v in vectors)
    return dataclasses.replace(
        datum, positive_roots=scaled(datum.positive_roots))


# Catalog roots, and integer multiples of them: the root scale is no
# longer 1.
ROOT_FACTORS = (1, 2, 3)

RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


def _outcome(kernel, *args):
    """The kernel's value, or InputError when it raises one."""
    try:
        return kernel(*args)
    except InputError:
        return InputError


class TestIntegerRootKernels:
    """Coroots, Levi subdata and Weyl dimensions on int tuples against the
    Fraction kernels they replaced."""

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_coroots_match_reference(self, tag):
        """Every dominance and Weyl row is the primitive int tuple on the
        ray of its root and of the Fraction coroot, at every root scale."""
        base, standard = _standard_levis(tag)
        for root_factor in ROOT_FACTORS:
            datum = _rescaled(base, root_factor)
            levis = [levi(datum, lv.lam) for lv in standard]
            whole = full_levi(datum)
            for rows, roots in [(whole.dominance_rows, whole.simple_roots)] + [
                    pair for lv in levis
                    for pair in ((lv.dominance_rows, lv.simple_roots),
                                 (lv.weyl_rows, lv.phi_lambda_plus))]:
                assert len(rows) == len(roots)
                for row, a in zip(rows, roots):
                    assert _positive_multiple(row, a)
                    assert _positive_multiple(row, coroot_reference(a))

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(data=st.data())
    def test_coroot_under_a_rational_form(self, data):
        """A lattice vector taken as the one positive root of a torus
        datum: its coroot rows and its reflection under the dot product
        against the Fraction references.  A zero vector is refused, and so
        is the vector divided by an integer d > 1, a Fraction tuple, when
        the datum is built."""
        n = data.draw(st.integers(1, 4))
        alpha = tuple(data.draw(st.integers(-6, 6)) for _ in range(n))
        datum = build_group(f"Torus({n})")
        if not any(alpha):
            with pytest.raises(InputError, match="root is zero"):
                _with_root(datum, alpha)
            return
        div = data.draw(st.integers(2, 6))
        with pytest.raises(InputError, match="is not an int tuple"):
            _with_root(datum, tuple(F(x, div) for x in alpha))
        want = coroot_reference(alpha)
        lv = full_levi(_with_root(datum, alpha))
        assert lv.simple_roots == simple_roots_reference(lv.datum) == (alpha,)
        assert _positive_multiple(lv.dominance_rows[0], want)
        assert _positive_multiple(lv.weyl_rows[0], want)
        norm = vdot(alpha, alpha)
        g, = weyl_generators_reference(lv)
        for j in range(n):
            unit = tuple(norm * (i == j) for i in range(n))
            assert reflect(lv.datum, alpha, unit) == \
                tuple(norm * row[j] for row in g)

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_invariants_match_fraction_coroots(self, tag):
        """``is_invariant`` and ``invariant_vectors`` on the integer coroot
        rays against the Fraction coroots, on every standard Levi and on
        seeded ones, under rescaled roots."""
        base, standard = _standard_levis(tag)
        rng = random.Random("invariants " + tag)
        lams = [lv.lam for lv in standard] + _seeded_coweights(base, rng, 3)
        for root_factor in ROOT_FACTORS:
            datum = _rescaled(base, root_factor)
            for lam in lams:
                lv = levi(datum, lam)
                fixed = lv.invariant_vectors()
                assert fixed == coroot_invariant_vectors_reference(lv)
                pairs = simple_pairs_reference(lv)
                units = [vec(int(i == j) for i in range(datum.rank))
                         for j in range(datum.rank)]
                for v in fixed + units + _seeded_weights(datum, rng, 3) + [
                        datum.rho_bar, lv.rho_bar_lambda, lam]:
                    assert lv.is_invariant(v) == \
                        all(vdot(cr, v) == 0 for _, cr in pairs), (lam, v)

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    @settings(derandomize=True, database=None, max_examples=15,
              deadline=None)
    @given(data=st.data())
    def test_levi_and_weyl_dim_match_references(self, tag, data):
        base, standard = _standard_levis(tag)
        datum = _rescaled(base, data.draw(st.sampled_from(ROOT_FACTORS)))
        lam = [data.draw(RATIONALS) for _ in range(datum.rank)]
        for c, pin in datum.quotient_pairs:
            lam[pin] -= vdot(vec(lam), c)
        # the antidominant coweights of every standard Levi, and one random
        # rational coweight
        for lam in [lv.lam for lv in standard] + [vec(lam)]:
            lv = levi(datum, lam)
            want, simple, rho = levi_reference(datum, lam)
            assert lv == want
            assert lv.simple_roots == simple and lv.rho_bar_lambda == rho
            chi = tuple(F(data.draw(st.integers(-4, 4)),
                          data.draw(st.sampled_from((1, 2))))
                        for _ in range(datum.rank))
            chi, _ = make_dominant(lv, chi)
            assert _outcome(weyl_dim, lv, chi) == \
                _outcome(weyl_dim_reference, datum, chi, lv), (lam, chi)
