import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (coroot_reference, invariant_projector_reference,
                     invariant_vectors_reference, is_dominant_reference,
                     levi_reference, weyl_dim_reference,
                     weyl_elements_reference, weyl_generators_reference)
from sodlab.characters import weyl_dim
from sodlab.linalg import mat_vec, vdot, vec
from sodlab.linprog import InputError
from sodlab.rootdata import (RootDatum, build_group, coroot, coroot_pairing,
                             full_levi, invariant_subspace, is_dominant, levi,
                             descend, make_dominant, orbit, pairing,
                             star_dominate)

SP4 = build_group("Sp(4)")
SL2 = build_group("SL(2)")
GL2 = build_group("GL(2)")
T3 = build_group("Torus(3)")


class TestBuildGroup:
    def test_sp4_rho(self):
        assert SP4.rho_bar == vec([2, 1])

    def test_torus_is_flat(self):
        assert T3.roots == () and T3.rho_bar == vec([0, 0, 0])

    def test_sl2_normalization(self):
        assert len(SL2.positive_roots) == 1
        a = SL2.positive_roots[0]
        assert coroot_pairing(SL2, a, SL2.rho_bar) == 1

    def test_unknown_tag(self):
        with pytest.raises(InputError):
            build_group("E(8)")

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
        assert is_dominant(SL2, vec([3, 0]))
        assert not is_dominant(SL2, vec([-1, 0]))

    def test_torus_everything(self):
        assert is_dominant(T3, vec([-5, 2, 9]))

    def test_levi_restricted(self):
        lv = levi(SP4, vec([-1, -1]))
        # only the root pair through (1, -1) survives; dominance ignores 2L_i
        assert is_dominant(SP4, vec([1, -1]), lv)
        assert not is_dominant(SP4, vec([-1, 1]), lv)
        assert not is_dominant(SP4, vec([1, -1]))


class TestStarDominate:
    def test_sl2_reflection(self):
        chi_plus, sign, _ = star_dominate(SL2, vec([-2, 0]))
        assert chi_plus == vec([0, 0]) and sign == -1

    def test_wall_undefined(self):
        assert star_dominate(SL2, vec([-1, 0])) is None

    def test_already_dominant(self):
        chi_plus, sign, word = star_dominate(SL2, vec([5, 0]))
        assert chi_plus == vec([5, 0]) and sign == 1 and word == ()

    def test_orbit_independence(self):
        for chi in [vec([2, -1]), vec([-3, 1]), vec([0, 2])]:
            out = star_dominate(SP4, chi)
            if out is None:
                continue
            plus = out[0]
            for m, _, _ in weyl_elements_reference(SP4):
                shifted = mat_vec(m, vec([x + r for x, r in zip(chi, SP4.rho_bar)]))
                again = star_dominate(
                    SP4, vec([x - r for x, r in zip(shifted, SP4.rho_bar)]))
                assert again is not None and again[0] == plus

    def test_outputs_dominant(self):
        for chi in [vec([-4, 0]), vec([3, -2]), vec([-1, -3])]:
            out = star_dominate(SP4, chi)
            if out is not None:
                assert is_dominant(SP4, out[0])


class TestMakeDominant:
    def test_sl2(self):
        dom, _ = make_dominant(SL2, vec([-4, 0]))
        assert dom == vec([4, 0])

    def test_sp4_sorted_absolute(self):
        dom, _ = make_dominant(SP4, vec([-1, 2]))
        assert dom == vec([2, 1])

    def test_identity_on_dominant(self):
        dom, word = make_dominant(SP4, vec([3, 1]))
        assert dom == vec([3, 1]) and word == ()


class TestLevi:
    def test_zero_gives_full(self):
        lv = full_levi(SP4)
        assert set(lv.phi_lambda) == set(SP4.roots)
        assert lv.rho_bar_lambda == SP4.rho_bar

    def test_sp4_diagonal(self):
        lv = levi(SP4, vec([-1, -1]))
        assert set(lv.phi_lambda) == {vec([1, -1]), vec([-1, 1])}
        assert lv.rho_bar_lambda == vec([F(1, 2), F(-1, 2)])

    def test_torus_always_empty(self):
        assert levi(T3, vec([1, -5, 2])).phi_lambda == ()

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
        assert invariant_subspace(build_group("GL(3)")) == [vec([1, 1, 1])]

    def test_sp(self):
        assert invariant_subspace(SP4) == []

    def test_torus_full(self):
        assert len(invariant_subspace(T3)) == 3

    def test_sl_quotient_kills_determinant(self):
        assert invariant_subspace(SL2) == []

    def test_vectors_fixed_by_generators(self):
        for tag in ("GL(2)", "GL(3)", "Torus(2)"):
            datum = build_group(tag)
            for v in invariant_subspace(datum):
                for g in weyl_generators_reference(datum):
                    assert mat_vec(g, v) == v


# Every catalog family up to rank 4 (L coordinates), plus products.
SMALL_CATALOG = ("Torus(1)", "Torus(3)", "GL(1)", "GL(2)", "GL(3)", "GL(4)",
                 "SL(2)", "SL(3)", "SL(4)", "Sp(2)", "Sp(4)", "Sp(6)", "Sp(8)",
                 "Product(SL(2),Torus(1))", "Product(GL(2),Sp(4))",
                 "Product(SL(2),SL(2))")


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
            bool(datum.roots)
        for lv in levis:
            assert lv.invariant_projector() == invariant_projector_reference(lv)
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
    simple = [tuple(map(int, a)) for a in datum.simple_roots]
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
            assert is_dominant(datum, chi, lv) == want, (lv, chi)
            if as_ints is not None:
                assert is_dominant(datum, as_ints, lv) == want, (lv, chi)


class TestWeylKernels:
    """Descent and orbit search over the simple reflections against the
    breadth-first enumeration of the group as reflection matrices."""

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_orbit_and_signs(self, tag):
        datum, rng, levis = _weyl_cases(tag)
        for lv in levis:
            pairs = datum.simple_pairs if lv is None else lv.simple_pairs
            elements = weyl_elements_reference(datum if lv is None else lv)
            for chi in _seeded_weights(datum, rng, 5):
                points = orbit(pairs, chi)
                assert len({p for p, _ in points}) == len(points)
                assert {p for p, _ in points} == \
                    {mat_vec(m, chi) for m, _, _ in elements}
                positive = datum.positive_roots if lv is None \
                    else lv.phi_lambda_plus
                if all(coroot_pairing(datum, a, chi) != 0 for a in positive):
                    # regular: one point per element, signed by det w
                    assert len(points) == len(elements)
                    det = {mat_vec(m, chi): sign for m, _, sign in elements}
                    assert all(det[p] == sign for p, sign in points)

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_descent_finds_shortest_element(self, tag):
        datum, rng, levis = _weyl_cases(tag)
        for lv in levis:
            data = datum if lv is None else lv
            pairs = data.simple_pairs
            elements = weyl_elements_reference(data)
            gens = weyl_generators_reference(data)
            for chi in _seeded_weights(datum, rng, 5):
                dom, word = descend(pairs, chi)
                m, ref_word, _ = next(e for e in elements
                                      if is_dominant(datum, mat_vec(e[0], chi), lv))
                assert dom == mat_vec(m, chi)
                assert len(word) == len(ref_word)
                assert _product([gens[i] for i in word], datum.rank) == m
                assert make_dominant(datum, chi, lv) == \
                    (datum.normalize_weight(dom), word)
                low, _ = descend(pairs, chi, lowest=True)
                assert all(vdot(cr, low) <= 0 for _, cr in pairs)
                assert low in {mat_vec(m, chi) for m, _, _ in elements}

    def test_reference_reflections_preserve_the_form(self):
        tripled = TestFormRescaling()._scaled_sp4()
        for datum in [build_group(tag) for tag in SMALL_CATALOG] + [tripled]:
            g_form = datum.gram
            for g in weyl_generators_reference(datum):
                gt = tuple(zip(*g))
                assert _product([gt, g_form, g], datum.rank) == g_form


class TestFormRescaling:
    """Downstream quantities must not depend on the scale of the invariant
    form; rebuilding Sp(4) with a tripled form must change nothing."""

    def _scaled_sp4(self):
        tripled = tuple(tuple(3 * x for x in row) for row in SP4.gram)
        return RootDatum(
            label=SP4.label, rank=SP4.rank, roots=SP4.roots,
            positive_roots=SP4.positive_roots, simple_roots=SP4.simple_roots,
            gram=tripled, rho_bar=SP4.rho_bar, quotient_pairs=SP4.quotient_pairs)

    def test_dominance_and_star(self):
        scaled = self._scaled_sp4()
        for chi in [vec([2, 1]), vec([-1, 2]), vec([0, -3]), vec([1, 1])]:
            assert is_dominant(scaled, chi) == is_dominant(SP4, chi)
            assert star_dominate(scaled, chi) == star_dominate(SP4, chi)

    def test_characters(self):
        from sodlab.characters import irr_character, weyl_dim

        scaled = self._scaled_sp4()
        assert weyl_dim(scaled, vec([2, 1])) == weyl_dim(SP4, vec([2, 1]))
        assert irr_character(scaled, vec([1, 1])).entries == \
            irr_character(SP4, vec([1, 1])).entries

    def test_invariant_projector(self):
        scaled = self._scaled_sp4()
        for lam in (vec([0, 0]), vec([-1, -1]), vec([1, 0])):
            lv = levi(scaled, lam)
            assert lv.invariant_projector() == invariant_projector_reference(lv)
            assert lv.invariant_projector() == levi(SP4, lam).invariant_projector()


def _rescaled(datum, factor, root_factor=F(1)):
    """The datum with its invariant form multiplied by ``factor`` and its
    roots, so also rho, by ``root_factor``."""
    def scaled(vectors):
        return tuple(tuple(root_factor * x for x in v) for v in vectors)
    return dataclasses.replace(
        datum, gram=tuple(tuple(factor * x for x in row) for row in datum.gram),
        roots=scaled(datum.roots), positive_roots=scaled(datum.positive_roots),
        simple_roots=scaled(datum.simple_roots),
        rho_bar=scaled([datum.rho_bar])[0])


# The catalog form, the tripled form and a halved (rational) form.
FORM_FACTORS = (F(1), F(3), F(1, 2))
# Catalog roots, and rational multiples of them: the root scale is no
# longer 1.
ROOT_FACTORS = (F(1), F(1, 2), F(2, 3))

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
        for factor, root_factor in itertools.product(FORM_FACTORS,
                                                     ROOT_FACTORS):
            datum = _rescaled(build_group(tag), factor, root_factor)
            for a in datum.roots:
                assert datum.coroots[a] == coroot_reference(datum.gram, a)

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(data=st.data())
    def test_coroot_under_a_rational_form(self, data):
        # a symmetric form whose rows have different denominators, and a
        # rational vector that is no root
        n = data.draw(st.integers(1, 4))
        gram = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = data.draw(RATIONALS)
        alpha = tuple(data.draw(RATIONALS) for _ in range(n))
        want = coroot_reference(gram, alpha) \
            if vdot(alpha, mat_vec(gram, alpha)) else ZeroDivisionError
        datum = dataclasses.replace(build_group(f"Torus({n})"),
                                    gram=tuple(map(tuple, gram)))
        try:
            got = coroot(datum, alpha)
        except ZeroDivisionError:
            got = ZeroDivisionError
        assert got == want

    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    @settings(derandomize=True, database=None, max_examples=15,
              deadline=None)
    @given(data=st.data())
    def test_levi_and_weyl_dim_match_references(self, tag, data):
        base, standard = _standard_levis(tag)
        datum = _rescaled(base, data.draw(st.sampled_from(FORM_FACTORS)),
                          data.draw(st.sampled_from(ROOT_FACTORS)))
        lam = [data.draw(RATIONALS) for _ in range(datum.rank)]
        for c, pin in datum.quotient_pairs:
            lam[pin] -= vdot(vec(lam), c)
        # the antidominant coweights of every standard Levi, and one random
        # rational coweight
        for lam in [lv.lam for lv in standard] + [vec(lam)]:
            lv = levi(datum, lam)
            assert lv == levi_reference(datum, lam)
            chi = tuple(F(data.draw(st.integers(-4, 4)),
                          data.draw(st.sampled_from((1, 2))))
                        for _ in range(datum.rank))
            chi, _ = make_dominant(datum, chi, lv)
            assert _outcome(weyl_dim, datum, chi, lv) == \
                _outcome(weyl_dim_reference, datum, chi, lv), (lam, chi)
