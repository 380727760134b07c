import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (basic_solution_reference, forced_tight_reference,
                     grid_strict_search, lex_minimal_integral_reference,
                     lp_optimize_reference, phase1_all_artificial_reference,
                     phase1_reference, phase2_reference, random_bounded_program,
                     random_mixed_program, sign_rows_reference,
                     strict_point_reference, to_standard_reference, vertex_forced, vertex_optimize,
                     with_random_open_flags)
from sodlab import linprog
from sodlab.linalg import int_row
from sodlab.linprog import (INTEGRAL_CANDIDATE_CAP, LATTICE_BOX_CAP,
                            BoxedLinearProgram, InputError, LpBuilder,
                            LpResult, _basic_solution, _phase1,
                            _phase2, _to_standard, enumerate_lattice,
                            feasible_point, forced_tight, integral_shell,
                            lattice_walk, lex_minimal_integral, lp_optimize,
                            strict_feasible)


def box_program(bounds, eqs=(), objective=None, opens=()):
    b = LpBuilder()
    cols = []
    for i, (lo, hi) in enumerate(bounds):
        lo_open = ("lower", i) in opens
        hi_open = ("upper", i) in opens
        cols.append(b.add_var(lower=lo, upper=hi,
                              lower_open=lo_open, upper_open=hi_open))
    for coeffs, rhs in eqs:
        b.add_eq({cols[j]: c for j, c in coeffs.items()}, rhs)
    return b.build(None if objective is None
                   else {cols[j]: c for j, c in objective.items()})


class TestOptimize:
    def test_box_maximum(self):
        res = lp_optimize(box_program([(-1, 2)], objective={0: 1}), "max")
        assert (res.status, res.value, res.attained) == ("optimal", 2, True)

    def test_min_radius_two_coefficients(self):
        # min r with a1 - a2 = 3, a in [-r, 0]^2: frozen from the vertex
        # oracle on the literal three-variable system.
        b = LpBuilder()
        a1 = b.add_var(upper=0)
        a2 = b.add_var(upper=0)
        r = b.add_var(lower=0)
        b.add_eq({a1: 1, a2: -1}, 3)
        b.add_ge({a1: 1, r: 1}, 0)
        b.add_ge({a2: 1, r: 1}, 0)
        res = lp_optimize(b.build({r: 1}), "min")
        assert (res.status, res.value) == ("optimal", 3)

    def test_unbounded_above(self):
        b = LpBuilder()
        x = b.add_var(lower=0)
        assert lp_optimize(b.build({x: 1}), "max").status == "unbounded"

    def test_open_bound_not_attained(self):
        res = lp_optimize(
            box_program([(-1, 2)], objective={0: 1}, opens=[("upper", 0)]),
            "max")
        assert res.status == "optimal" and res.value == 2
        assert res.attained is False

    def test_open_bounds_run_one_phase1(self, monkeypatch):
        """``attained`` sweeps the open bounds over the optimal face of the
        one solve, not over a second program with the optimum fixed."""
        runs = []
        real_phase1 = linprog._phase1

        def counted(*args):
            runs.append(args)
            return real_phase1(*args)

        monkeypatch.setattr(linprog, "_phase1", counted)
        # max x0 on [-1, 2] x [0, 1]: x0 = 2 at every optimum, x1 anywhere
        for opens, attained in (([("upper", 0)], False),
                                ([("lower", 1), ("upper", 1)], True)):
            runs.clear()
            res = lp_optimize(box_program([(-1, 2), (0, 1)],
                                          objective={0: 1}, opens=opens),
                              "max")
            assert (res.value, res.attained, len(runs)) == (2, attained, 1)

    def test_requires_objective(self):
        with pytest.raises(InputError):
            lp_optimize(box_program([(0, 1)]), "max")

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            BoxedLinearProgram(((F(1), F(2)),), (F(0),), (None,), (None,),
                               (False,), (False,))


class TestForcedTight:
    def test_forced_pair(self):
        p = box_program([(-2, 0), (-2, 0)], eqs=[({0: 1, 1: -1}, 2)])
        rep = forced_tight(p)
        assert rep.feasible
        assert rep.lower_forced == (False, True)
        assert rep.upper_forced == (True, False)

    def test_nothing_forced(self):
        p = box_program([(-2, 0), (-2, 0)], eqs=[({0: 1, 1: -1}, 1)])
        rep = forced_tight(p)
        assert rep.feasible
        assert rep.lower_forced == (False, False)
        assert rep.upper_forced == (False, False)

    def test_infeasible(self):
        p = box_program([(0, 1)], eqs=[({0: 1}, 5)])
        assert forced_tight(p).feasible is False

    def test_optimal_face_of_a_tie_and_of_a_vertex(self):
        # x0 + x1 = 1 in [0, 1]^2: every point maximizes x0 + x1, one point
        # maximizes x0
        eqs = [({0: 1, 1: 1}, 1)]
        tie = box_program([(0, 1), (0, 1)], eqs, {0: 1, 1: 1})
        rep = forced_tight(tie, lp_optimize(tie, "max"))
        assert rep == forced_tight(tie)
        assert rep.lower_forced == rep.upper_forced == (False, False)
        vertex = box_program([(0, 1), (0, 1)], eqs, {0: 1})
        rep = forced_tight(vertex, lp_optimize(vertex, "max"))
        assert rep.lower_forced == (False, True)
        assert rep.upper_forced == (True, False)

    def test_refuses_a_result_that_is_not_an_optimum(self):
        infeasible = box_program([(0, 1)], eqs=[({0: 1}, 5)], objective={0: 1})
        unbounded = box_program([(0, None)], objective={0: 1})
        for p in (infeasible, unbounded):
            res = lp_optimize(p, "max")
            assert res.status != "optimal"
            with pytest.raises(InputError):
                forced_tight(p, res)
        # an optimum not produced by lp_optimize carries no tableau
        with pytest.raises(InputError):
            forced_tight(infeasible, LpResult("optimal", F(1), (F(1),), True))


class TestStrict:
    def test_open_interval(self):
        p = box_program([(0, 1)], opens=[("lower", 0), ("upper", 0)])
        assert strict_feasible(p) is True

    def test_pinned_to_boundary(self):
        p = box_program([(0, 1)], eqs=[({0: 1}, 0)],
                        opens=[("lower", 0), ("upper", 0)])
        assert strict_feasible(p) is False

    def test_diagonal_witness(self):
        p = box_program([(-2, 0), (-2, 0)], eqs=[({0: 1, 1: -1}, 1)],
                        opens=[("lower", 0), ("upper", 0),
                               ("lower", 1), ("upper", 1)])
        assert strict_feasible(p) is True
        w = strict_point_reference(p)
        assert w[0] - w[1] == 1
        assert -2 < w[0] < 0 and -2 < w[1] < 0


class TestEnumerateLattice:
    def test_interval(self):
        pts = enumerate_lattice(lambda v: True, [(F(-5, 2), F(1, 2))])
        assert pts == [(-2,), (-1,), (0,)]

    def test_wider_interval(self):
        pts = enumerate_lattice(lambda v: True, [(F(-7, 2), F(3, 2))])
        assert pts == [(-3,), (-2,), (-1,), (0,), (1,)]

    def test_coset(self):
        class OddCoset:
            def contains(self, v):
                return (v[0] - 1) % 2 == 0

        pts = enumerate_lattice(lambda v: True, [(F(0), F(5))], OddCoset())
        assert pts == [(1,), (3,), (5,)]

    def test_requires_finite_box(self):
        with pytest.raises(InputError):
            enumerate_lattice(lambda v: True, [(None, F(1))])

    def test_box_cap(self):
        assert len(enumerate_lattice(
            lambda v: True, [(F(1), F(LATTICE_BOX_CAP))])) == LATTICE_BOX_CAP
        tested = []
        for box in ([(F(0), F(LATTICE_BOX_CAP))],
                    [(F(-1, 2), F(LATTICE_BOX_CAP // 2)), (F(0), F(1))],
                    [(F(0), F(10 ** 9))] * 3):
            with pytest.raises(InputError, match="cap"):
                enumerate_lattice(tested.append, box)
        assert tested == []

    def test_predicate_sees_ints_and_result_is_ints(self):
        seen, coset_seen = [], []

        class NonzeroFirst:
            def contains(self, v):
                coset_seen.append(v)
                return v[0] != 0

        def even(v):
            seen.append(v)
            return sum(v) % 2 == 0

        pts = enumerate_lattice(even, [(F(-3, 2), F(1)), (F(0), F(5, 2))],
                                NonzeroFirst())
        assert all(type(x) is int for v in seen + coset_seen for x in v)
        assert all(type(x) is int for v in pts for x in v)
        assert coset_seen == sorted(coset_seen) and len(coset_seen) == 9
        assert seen == [v for v in coset_seen if v[0] != 0]
        assert pts == [v for v in seen if sum(v) % 2 == 0]
        assert pts == [(F(-1), F(1)), (F(1), F(1))]

    def test_sorted_and_unique(self):
        pts = enumerate_lattice(lambda v: True,
                                [(F(-1), F(1)), (F(-1), F(1))])
        assert pts == sorted(pts) and len(pts) == len(set(pts)) == 9

    def test_rows_pass_before_the_coset_and_the_predicate(self):
        seen = []

        class Everything:
            def contains(self, v):
                seen.append(v)
                return True

        # v0 >= v1 >= 0: 10 of the 16 points of [0, 3]^2 reach the coset
        pts = enumerate_lattice(lambda v: seen.append(v) or True,
                                [(F(0), F(3))] * 2, Everything(),
                                rows=[((1, -1), (0, 1)), ((0, 1), (0, 1))])
        assert pts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                       (3, 0), (3, 1), (3, 2), (3, 3)]
        assert seen == [p for v in pts for p in [v, v]]

    def test_box_cap_counts_the_walk_step_by_step(self, monkeypatch):
        """31^3 = 29,791 points are over the cap as a whole, but the rows
        v0 >= v1 >= v2 leave 496 prefixes of the first two coordinates, so
        the walk tests at most 15,376 points in one step."""
        steps = []
        check = linprog.check_box_size
        monkeypatch.setattr(linprog, "check_box_size",
                            lambda n: (steps.append(n), check(n)))
        rows = [((1, -1, 0), (0, 1)), ((0, 1, -1), (0, 1))]
        pts = enumerate_lattice(lambda p: True, [(-15, 15)] * 3, rows=rows)
        assert steps == [31, 961, 15_376]
        assert len(pts) == 5_456 == len(set(pts))
        assert pts == [v for v in itertools.product(range(-15, 16), repeat=3)
                       if v[0] >= v[1] >= v[2]]
        with pytest.raises(InputError, match="holds 29791 points"):
            enumerate_lattice(lambda p: True, [(-15, 15)] * 3)


# sign sets of a row: any subset of {-1, 0, 1}, the empty one included
SIGN_SETS = st.sets(st.sampled_from((-1, 0, 1))).map(
    lambda s: tuple(sorted(s)))


@st.composite
def sign_rows(draw, n):
    """Up to 3 sign rows over n coordinates, zero rows included."""
    return draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n), SIGN_SETS), max_size=3))


@st.composite
def walk_boxes(draw):
    """Up to 4 spans, each empty, the pinned [0, 0] or an interval of width
    at most 4 within [-3, 6], with sign rows over them."""
    spans = draw(st.lists(st.one_of(
        st.just(range(1, 0)), st.just(range(0, 1)),
        st.builds(lambda lo, w: range(lo, lo + w),
                  st.integers(-3, 2), st.integers(0, 4))), max_size=4))
    return spans, draw(sign_rows(len(spans)))


class TestLatticeWalk:
    @settings(max_examples=300, deadline=None)
    @given(walk_boxes())
    def test_walk_is_the_product_filtered_by_the_rows(self, box):
        spans, rows = box
        ok = sign_rows_reference(rows)
        got = lattice_walk(spans, rows)
        assert got == [p for p in itertools.product(*spans) if ok(p)]
        assert all(type(x) is int for p in got for x in p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shell_is_the_filtered_reference_shell(self, data):
        n = data.draw(st.integers(1, 3))
        bound = data.draw(st.integers(1, 4))
        rows = data.draw(sign_rows(n))
        ok = sign_rows_reference(rows)
        want = [v for v in itertools.product(range(-bound, bound + 1),
                                             repeat=n)
                if (bound == 1 or max(map(abs, v)) == bound) and ok(v)]
        assert integral_shell(n, bound, rows) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_search_matches_the_reference_with_the_rows_folded_in(self, data):
        n = data.draw(st.integers(1, 3))
        rows = data.draw(sign_rows(n))
        hits = set(data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4)))
        in_rows = sign_rows_reference(rows)
        tested = []

        def ok(v):
            tested.append(v)
            return v in hits

        if not any(map(in_rows, hits)):
            with pytest.raises(InputError, match="above the cap"):
                lex_minimal_integral(n, ok, rows)
            return
        got = lex_minimal_integral(n, ok, rows)
        assert got == lex_minimal_integral_reference(
            n, lambda v: in_rows(v) and v in hits)
        # each candidate that passes the rows is tested once, in shell order
        order = [v for b in range(1, 4) for v in itertools.product(
                     range(-b, b + 1), repeat=n)
                 if (b == 1 or max(map(abs, v)) == b) and in_rows(v)]
        assert tested == order[:order.index(got) + 1]


def _spread(prog, j):
    """Whether variable j takes more than one value on the feasible set of
    ``prog`` (known to be feasible)."""
    obj = tuple(F(int(k == j)) for k in range(prog.nvars))
    at = dataclasses.replace(prog, objective=obj)
    top, bottom = lp_optimize(at, "max"), lp_optimize(at, "min")
    return top.status != "optimal" or bottom.status != "optimal" \
        or top.value != bottom.value


class TestRandomizedAgainstOracles:
    def test_optimum_matches_vertex_enumeration(self):
        rng = random.Random(101)
        for _ in range(40):
            p = random_bounded_program(rng, nvars=rng.randint(2, 5))
            for sense in ("min", "max"):
                res = lp_optimize(p, sense)
                status, value = vertex_optimize(p, sense)
                assert res.status == status
                if status == "optimal":
                    assert res.value == value

    def test_forced_matches_vertex_enumeration(self):
        rng = random.Random(202)
        for _ in range(25):
            p = random_bounded_program(rng, nvars=rng.randint(2, 4))
            feas, lf, uf = vertex_forced(p)
            rep = forced_tight(p)
            assert rep.feasible == feas
            if feas:
                assert rep.lower_forced == lf
                assert rep.upper_forced == uf

    def test_forced_equals_bound_optimization(self):
        rng = random.Random(303)
        for _ in range(20):
            p = random_bounded_program(rng, nvars=3)
            rep = forced_tight(p)
            if not rep.feasible:
                continue
            for j in range(p.nvars):
                obj = {k: F(0) for k in range(p.nvars)}
                obj[j] = F(1)
                top = lp_optimize(BoxedLinearProgram(
                    p.eq_rows, p.eq_rhs, p.lower, p.upper, p.lower_open,
                    p.upper_open, tuple(obj[k] for k in range(p.nvars))),
                    "max")
                assert rep.lower_forced[j] == (top.value == p.lower[j])

    def test_strict_grid_consistency(self):
        rng = random.Random(404)
        for _ in range(30):
            b = LpBuilder()
            n = rng.randint(2, 3)
            for _ in range(n):
                lo = F(rng.randint(-4, 0), rng.choice([1, 2]))
                hi = lo + F(rng.randint(0, 6), 2)
                b.add_var(lower=lo, upper=hi,
                          lower_open=rng.random() < 0.5,
                          upper_open=rng.random() < 0.5)
            b.add_eq({j: F(rng.randint(-2, 2)) for j in range(n)},
                     F(rng.randint(-3, 3), 2))
            p = b.build()
            found = grid_strict_search(p, max_den=16)
            if found is not None:
                assert strict_feasible(p)
            w = strict_point_reference(p)
            assert (w is not None) == strict_feasible(p)
            if w is not None:
                for row, rhs in zip(p.eq_rows, p.eq_rhs):
                    assert sum(c * x for c, x in zip(row, w)) == rhs
                for j in range(n):
                    if p.lower_open[j]:
                        assert w[j] > p.lower[j]
                    if p.upper_open[j]:
                        assert w[j] < p.upper[j]

    def test_forced_matches_per_bound_reference(self):
        # free, one-sided and pinned variables, duplicated and contradictory
        # rows: shapes the fully bounded generator never produces
        rng = random.Random(505)
        outcomes = set()
        for _ in range(200):
            p = random_mixed_program(rng)
            rep = forced_tight(p)
            assert rep == forced_tight_reference(p)
            outcomes.add(rep.feasible)
            if rep.feasible:
                outcomes.update(("lower", f) for f in rep.lower_forced)
                outcomes.update(("upper", f) for f in rep.upper_forced)
        assert outcomes == {False, True, ("lower", False), ("lower", True),
                            ("upper", False), ("upper", True)}

    def test_optimal_face_sweep_matches_face_reference(self):
        # forced tightness at an optimum against the reference on the
        # optimal face written out as the program plus objective == value;
        # objective entries in -1..1 tie often, and pinned variables,
        # duplicated rows and the free variables of the mixed shapes give
        # degenerate optimal vertices and unbounded or infeasible programs
        rng = random.Random(808)
        outcomes = set()
        for i in range(150):
            p = (random_mixed_program(rng) if i % 2 else
                 random_bounded_program(rng, nvars=rng.randint(2, 5)))
            p = dataclasses.replace(p, objective=tuple(
                F(rng.randint(-1, 1)) for _ in range(p.nvars)))
            for sense in ("min", "max"):
                res = lp_optimize(p, sense)
                if res.status != "optimal":
                    with pytest.raises(InputError):
                        forced_tight(p, res)
                    outcomes.add(res.status)
                    continue
                face = p.with_extra_eq(p.objective, res.value)
                got = forced_tight(p, res)
                assert got == forced_tight_reference(face)
                tab = res.tableau[0][0]
                outcomes.add(("degenerate", any(not row[-1] for row in tab)))
                outcomes.add(("tied", any(_spread(face, j)
                                          for j in range(p.nvars))))
                outcomes.add(("narrower", got != forced_tight(p)))
        assert outcomes == {"infeasible", "unbounded",
                            ("degenerate", False), ("degenerate", True),
                            ("tied", False), ("tied", True),
                            ("narrower", False), ("narrower", True)}

    def test_strict_matches_slack_reference(self):
        # the mixed shapes above, with random open flags on finite bounds
        rng = random.Random(606)
        verdicts = set()
        for _ in range(200):
            p = with_random_open_flags(rng, random_mixed_program(rng))
            got = strict_feasible(p)
            assert got == (strict_point_reference(p) is not None)
            verdicts.add(got)
        assert verdicts == {False, True}

    def test_attained_matches_slack_reference(self):
        rng = random.Random(707)
        outcomes = set()
        for _ in range(150):
            p = with_random_open_flags(rng, random_mixed_program(rng))
            obj = tuple(F(rng.randint(-2, 2)) for _ in range(p.nvars))
            p = BoxedLinearProgram(p.eq_rows, p.eq_rhs, p.lower, p.upper,
                                   p.lower_open, p.upper_open, obj)
            for sense in ("min", "max"):
                res = lp_optimize(p, sense)
                assert res == lp_optimize_reference(p, sense)
                if res.status == "optimal":
                    outcomes.add(res.attained)
        assert outcomes == {False, True}


def phase2_outcome(start, obj, n):
    """(status, optimal x or None) of the integer kernel's phase 2, for
    comparison with ``phase2_reference``."""
    end = _phase2(start, int_row(obj)[0])
    return ("unbounded", None) if end is None else \
        ("optimal", _basic_solution(*end, n))


def kernels_agree(rows, rhs, n, objectives):
    """Run the integer-row kernel and the Fraction reference on rows x = rhs,
    x >= 0 and assert the same phase-1 outcome, basis, tableau and vertex,
    and the same phase-2 result for every objective.  The kernel gets the
    rows as ``int_row`` makes them.  Returns the statuses seen."""
    got = _phase1([int_row(tuple(row) + (b,)) for row, b in zip(rows, rhs)],
                  n)
    ref = phase1_reference(rows, rhs, n)
    assert (got is None) == (ref is None)
    if ref is None:
        return {"infeasible"}
    tab, den, basis = got
    assert basis == ref[2]
    assert all(d > 0 for d in den)
    assert [[F(x, d) for x in row] for row, d in zip(tab, den)] == \
        [list(row) + [b] for row, b in zip(ref[0], ref[1])]
    assert _basic_solution(*got, n) == basic_solution_reference(ref, n)
    frozen = ([list(row) for row in tab], list(den), list(basis))
    statuses = set()
    for obj in objectives:
        result = phase2_outcome(got, obj, n)
        assert result == phase2_reference(ref, obj, n)
        statuses.add(result[0])
    assert got == frozen  # phase 2 works on a copy of its start
    return statuses


small = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
entry = st.one_of(st.just(F(0)), small)


@st.composite
def standard_systems(draw):
    """rows x = rhs over n columns with zero-heavy data (degenerate vertices),
    negative right-hand sides, and sometimes a combination of two rows
    appended: redundant, or inconsistent when offset."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(small)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + c * rhs[j] + draw(st.sampled_from((0, 0, 1))))
    objectives = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                               min_size=1, max_size=3))
    return rows, rhs, n, objectives


class TestIntegerKernelAgainstFractionReference:
    @pytest.mark.parametrize("rows, rhs, n, obj, statuses", [
        # negative right-hand side: x0 - x1 = 2, max -x0 at (2, 0)
        ([[-1, 1]], [-2], 2, [-1, 0], {"optimal"}),
        # unbounded ray along (1, 1)
        ([[1, -1]], [0], 2, [1, 0], {"unbounded"}),
        ([[1, 1]], [-1], 2, [1, 0], {"infeasible"}),
        # redundant row: its artificial stays basic at zero and is dropped
        ([[1, 1], [2, 2]], [1, 2], 2, [1, 2], {"optimal"}),
        # inconsistent twin rows
        ([[1, 1], [2, 2]], [1, 3], 2, [1, 2], {"infeasible"}),
        # degenerate vertex: x0 + x1 = 0 pins both, so basic values are 0
        ([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]], [0, 1, 1], 4,
         [1, 1, 0, 0], {"optimal"}),
        # rational data, optimum at (5/3, 0, 0)
        ([[F(1, 2), F(-2, 3), 3]], [F(5, 6)], 3, [F(1, 3), -1, -1],
         {"optimal"}),
    ])
    def test_named_shapes(self, rows, rhs, n, obj, statuses):
        rows = [[F(x) for x in row] for row in rows]
        got = kernels_agree(rows, [F(b) for b in rhs], n,
                            [[F(c) for c in obj]])
        assert got == statuses

    @settings(max_examples=300, deadline=None)
    @given(standard_systems())
    def test_random_standard_systems(self, system):
        kernels_agree(*system)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_random_programs_in_standard_form(self, rng, mixed):
        prog = (random_mixed_program(rng) if mixed
                else random_bounded_program(rng))
        std = to_standard_reference(prog)
        if std is None:
            return
        rows, rhs, ncols, _, encode_obj = std
        objectives = [encode_obj([F(rng.randint(-3, 3), rng.choice((1, 2)))
                                  for _ in range(prog.nvars)])
                      for _ in range(3)]
        kernels_agree(rows, rhs, ncols, objectives)

    def test_feasible_point_is_the_phase1_vertex(self):
        rng = random.Random(808)
        for _ in range(100):
            prog = random_mixed_program(rng)
            std = to_standard_reference(prog)
            ref = None if std is None else phase1_reference(*std[:3])
            expect = None if ref is None else std[3](
                basic_solution_reference(ref, std[2]))
            assert feasible_point(prog) == expect


def crash_start_agrees(rows, n, objectives):
    """Assert on the integer rows of ``_to_standard`` over n columns that the
    crash-start phase 1 and the all-artificial one agree on feasibility,
    that the crash basis's basic solution satisfies rows x = b, x >= 0, and
    that phase 2 from either start reaches the same status and optimal
    value for every integer objective."""
    got = _phase1(rows, n)
    old = phase1_all_artificial_reference(rows, n)
    assert (got is None) == (old is None)
    if got is None:
        return
    x = _basic_solution(*got, n)
    assert all(v >= 0 for v in x)
    for ints, _ in rows:  # both sides are over the row's denominator
        assert sum(a * v for a, v in zip(ints, x)) == ints[-1]
    for cost in objectives:
        values = []
        for start in (got, old):
            end = _phase2(start, cost)
            values.append(None if end is None else
                          sum(c * v for c, v in
                              zip(cost, _basic_solution(*end, n))))
        assert values[0] == values[1]


class TestCrashStartAgainstAllArtificial:
    @settings(max_examples=300, deadline=None)
    @given(standard_systems())
    def test_random_standard_systems(self, system):
        rows, rhs, n, objectives = system
        crash_start_agrees(
            [int_row(tuple(row) + (b,)) for row, b in zip(rows, rhs)], n,
            [int_row(obj)[0] for obj in objectives])

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_mixed_programs(self, rng):
        prog = random_mixed_program(rng)
        std = _to_standard(prog)
        if std is None:
            return
        rows, ncols, _, encode_obj, _ = std
        objectives = [encode_obj([F(rng.randint(-3, 3), rng.choice((1, 2)))
                                  for _ in range(prog.nvars)])
                      for _ in range(3)]
        crash_start_agrees(rows, ncols, objectives)

    def test_every_row_on_a_unit_column_makes_no_pivot(self, monkeypatch):
        # x0 + x1 - x2 + x3 = 4: column 2 is in this row alone but has the
        # wrong sign, so column 3 starts basic; x0 - x1 - x4 = -2 and
        # 2 x0 - x1 - 3 x5 = 0 are negated to start on columns 4 and 5
        rows = [[1, 1, -1, 1, 0, 0], [1, -1, 0, 0, -1, 0],
                [2, -1, 0, 0, 0, -3]]
        rhs = [4, -2, 0]
        pivots = []
        real_pivot = linprog._pivot

        def counted(*args):
            pivots.append(args[3:])
            real_pivot(*args)

        monkeypatch.setattr(linprog, "_pivot", counted)
        start = _phase1(
            [int_row(tuple(map(F, row)) + (F(b),)) for row, b in zip(rows, rhs)],
            6)
        assert pivots == []
        assert start[2] == [3, 4, 5]
        assert _basic_solution(*start, 6) == (0, 0, 0, 4, 2, 0)
        kernels_agree([[F(x) for x in row] for row in rows],
                      [F(b) for b in rhs], 6, [[F(1), F(1), 0, 0, 0, 0]])


bound_value = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4)))
KINDS = ("free", "lower", "upper", "pinned", "box")


@st.composite
def bounded_programs(draw, pinned=False):
    """Programs over every kind of variable (free, lower-only, upper-only,
    pinned with lower == upper, boxed) with rational bounds, sometimes a
    contradictory pair (upper < lower) and sometimes an all-zero row;
    ``pinned`` asks for at least one pinned variable and random open flags
    on the finite bounds."""
    n = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    if pinned:
        kinds[draw(st.integers(0, n - 1))] = "pinned"
    lower, upper = [], []
    for kind in kinds:
        lo = draw(bound_value)
        width = draw(bound_value.map(abs))
        lower.append(None if kind in ("free", "upper") else lo)
        upper.append(None if kind in ("free", "lower") else
                     lo if kind == "pinned" else lo + width)
    if not pinned and draw(st.integers(0, 4)) == 0:
        j = draw(st.integers(0, n - 1))
        lower[j], upper[j] = F(1, 2), F(-1, 3)  # contradictory
    rows = [tuple(draw(st.lists(entry, min_size=n, max_size=n)))
            for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (F(0),) * n)
    rhs = tuple(draw(entry) for _ in rows)

    def flags(bounds):
        return tuple(b is not None and pinned and draw(st.booleans())
                     for b in bounds)

    return BoxedLinearProgram(tuple(rows), rhs, tuple(lower), tuple(upper),
                              flags(lower), flags(upper))


def standard_forms_agree(prog, values):
    """Assert that ``_to_standard`` builds the ``int_row`` form of each
    reference row, decodes and encodes as the reference does, and names for
    each finite bound the column that measures the distance to it."""
    got = _to_standard(prog)
    ref = to_standard_reference(prog)
    assert (got is None) == (ref is None)
    if ref is None:
        return
    rows, ncols, decode, encode_obj, zero_cols = got
    ref_rows, ref_rhs, ref_ncols, ref_decode, ref_encode = ref
    assert ncols == ref_ncols
    assert rows == [int_row(tuple(row) + (b,))
                    for row, b in zip(ref_rows, ref_rhs)]
    assert [[F(x, d) for x in ints] for ints, d in rows] == \
        [list(row) + [b] for row, b in zip(ref_rows, ref_rhs)]
    # a standard-form point on every width row y + s = u - l
    x = [F(values[k % len(values)]) for k in range(ncols)]
    m = len(prog.eq_rows)
    for row, width in zip(ref_rows[m:], ref_rhs[m:]):
        y, s = [k for k, a in enumerate(row) if a]
        x[s] = width - x[y]
    point = decode(x)
    assert point == ref_decode(x)
    obj = [F(values[j % len(values)], j + 1) for j in range(prog.nvars)]
    assert encode_obj(obj) == int_row(ref_encode(obj))[0]
    finite = {(j, side) for j in range(prog.nvars)
              for side, b in (("lower", prog.lower[j]),
                              ("upper", prog.upper[j])) if b is not None}
    assert set(zero_cols) == finite
    for j, side in finite:
        gap = (point[j] - prog.lower[j] if side == "lower"
               else prog.upper[j] - point[j])
        assert x[zero_cols[j, side]] == gap


class TestStandardFormAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(bounded_programs(),
           st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    def test_rows_match_reference(self, prog, values):
        standard_forms_agree(prog, values)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(),
           st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    def test_random_programs_match_reference(self, rng, mixed, values):
        standard_forms_agree(random_mixed_program(rng) if mixed
                             else random_bounded_program(rng), values)

    def test_named_shapes(self):
        # x0 free, x1 in [1/2, 5/2], x2 >= -1/3, x3 <= 2, x4 pinned at 3/2,
        # then an all-zero row
        half, third = F(1, 2), F(1, 3)
        prog = BoxedLinearProgram(
            ((F(1), F(2), F(3), F(-1), F(1, 2)), (F(0),) * 5),
            (F(1), F(0)), (None, half, -third, None, 3 * half),
            (None, 5 * half, None, F(2), 3 * half),
            (False,) * 5, (False,) * 5)
        rows, ncols, _, _, zero_cols = _to_standard(prog)
        # columns: x0+, x0-, y1, y2, y3, y4, then the slacks of x1 and x4;
        # rhs 1 - 2(1/2) - 3(-1/3) + 2 - (1/2)(3/2) = 9/4
        assert ncols == 8
        assert rows == [([4, -4, 8, 12, 4, 2, 0, 0, 9], 4),
                        ([0] * 9, 1),
                        ([0, 0, 1, 0, 0, 0, 1, 0, 2], 1),
                        ([0, 0, 0, 0, 0, 1, 0, 1, 0], 1)]
        assert zero_cols == {(1, "lower"): 2, (1, "upper"): 6,
                             (2, "lower"): 3, (3, "upper"): 4,
                             (4, "lower"): 5, (4, "upper"): 7}
        assert _to_standard(dataclasses.replace(
            prog, upper=(None, F(0), None, F(2), 3 * half))) is None

    @settings(max_examples=200, deadline=None)
    @given(bounded_programs(pinned=True))
    def test_sweeps_with_pinned_columns_match_references(self, prog):
        assert forced_tight(prog) == forced_tight_reference(prog)
        assert strict_feasible(prog) == \
            (strict_point_reference(prog) is not None)


class TestLexMinimalIntegral:
    def test_matches_rescanning_reference_with_fewer_calls(self):
        rng = random.Random(23)
        saved = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            hits = {tuple(F(rng.randint(-3, 3)) for _ in range(n))
                    for _ in range(rng.randint(1, 4))}
            calls = ([], [])

            def counted(k):
                def ok(v):
                    calls[k].append(v)
                    return v in hits
                return ok

            got = lex_minimal_integral(n, counted(0))
            assert got == lex_minimal_integral_reference(n, counted(1))
            assert len(set(calls[0])) == len(calls[0])  # each tested once
            assert set(calls[0]) == set(calls[1])
            saved += len(calls[1]) - len(calls[0])
        assert saved > 0

    def test_returns_int_tuples(self):
        got = lex_minimal_integral(3, lambda v: sum(v) == 2 and v[0] < 0)
        assert got == lex_minimal_integral_reference(
            3, lambda v: sum(v) == 2 and v[0] < 0) == (-2, 2, 2)
        assert all(type(x) is int for x in got)

    def test_shells_follow_the_reference_order_as_ints(self):
        for n in range(1, 4):
            for bound in range(1, 6):
                want = [v for v in itertools.product(
                            range(-bound, bound + 1), repeat=n)
                        if bound == 1 or max(map(abs, v)) == bound]
                got = list(integral_shell(n, bound))
                assert got == want
                assert all(type(x) is int for v in got for x in v)
        assert list(integral_shell(0, 2)) == []

    def test_zero_vector_is_a_candidate(self):
        assert lex_minimal_integral(2, lambda v: not any(v)) == (F(0), F(0))
        assert lex_minimal_integral(1, lambda v: v[0] > 1) == (F(2),)

    def test_rank_zero_raises(self):
        with pytest.raises(InputError):
            lex_minimal_integral(0, lambda v: True)

    def test_candidate_cap_stops_a_miss(self):
        # rank 3: the shells up to sup-norm b hold (2b + 1)^3 vectors
        b = 1
        while (2 * b + 3) ** 3 <= INTEGRAL_CANDIDATE_CAP:
            b += 1
        tested = []
        with pytest.raises(InputError, match="above the cap"):
            lex_minimal_integral(3, lambda v: tested.append(v))
        assert len(tested) == (2 * b + 1) ** 3 <= INTEGRAL_CANDIDATE_CAP
        last = (F(b),) * 3  # the last candidate of shell b
        assert lex_minimal_integral(3, lambda v: v == last) == last

    def test_rank_one_runs_to_the_candidate_cap(self):
        # rank 1: sup-norm 4,999 is the last shell within the cap, 9,999
        # candidates (3 at sup-norm 1, then 2 per shell)
        tested = []
        last = (F(4999),)
        assert lex_minimal_integral(
            1, lambda v: tested.append(v) or v == last) == last
        assert len(tested) == len(set(tested)) == 9_999
        tested.clear()
        with pytest.raises(InputError, match="sup-norm 5000 tests 10001"):
            lex_minimal_integral(1, lambda v: tested.append(v))
        assert len(tested) == 9_999

    def test_candidate_cap_just_past_its_value(self, monkeypatch):
        # the shells up to sup-norm 4 hold 9^2 = 81 vectors in rank 2
        last = (F(4), F(4))
        monkeypatch.setattr(linprog, "INTEGRAL_CANDIDATE_CAP", 81)
        assert lex_minimal_integral(2, lambda v: v == last) == last
        monkeypatch.setattr(linprog, "INTEGRAL_CANDIDATE_CAP", 80)
        tested = []
        with pytest.raises(InputError, match="81 candidates"):
            lex_minimal_integral(2, lambda v: tested.append(v) or v == last)
        assert len(tested) == 7 ** 2
