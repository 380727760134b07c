"""The integer elimination kernel of ``sodlab.linalg`` against the textbook
Fraction Gauss-Jordan of ``oracles.rref_reference``.

``rank`` and ``in_span`` are compared with the rank of the reference RREF;
``nullspace``, ``span_basis`` and ``solve`` with the same functions run on
the reference RREF in place of the kernel, and so is the span intersection
of ``oracles.subspace_intersection_reference``, which runs on ``nullspace``
and ``span_basis``.  Every value is compared exactly, and every returned
entry must be a Fraction.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from oracles import (primitive_reference, rref_reference,
                     subspace_intersection_reference)
from sodlab import linalg
from sodlab.linalg import (in_span, nullspace, primitive, rank, rref, solve,
                           span_basis)

# small ints give rank-deficient matrices and negative pivots; the wide
# Fractions give rows whose least common denominators run to 10^24
ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
    st.integers(-10, 10).map(F),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12)))


@st.composite
def matrices(draw, max_rows=6, max_cols=5):
    """(rows, ncols): up to max_rows rows of ncols entries, with duplicate
    rows, zero rows and sums of rows drawn in as well."""
    ncols = draw(st.integers(0, max_cols))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=max_rows))
    extra = st.sampled_from(["duplicate", "zero", "sum", "negated"])
    for kind in draw(st.lists(extra, max_size=2)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
            continue
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            rows.append(list(rows[i]))
        elif kind == "sum":
            rows.append([x + y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([-x for x in rows[i]])
    return draw(st.permutations(rows)), ncols


def with_reference_rref(fn, *args):
    """fn(*args) with ``linalg.rref`` replaced by the Fraction reference."""
    saved = linalg.rref
    linalg.rref = rref_reference
    try:
        return fn(*args)
    finally:
        linalg.rref = saved


def all_fractions(values) -> bool:
    return all(type(x) is F for x in values)


class TestRref:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_matches_fraction_reference(self, case):
        rows, _ = case
        red, pivots = rref(rows)
        assert (red, pivots) == rref_reference(rows)
        assert len(red) == len(rows)
        assert all(all_fractions(row) for row in red)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_rank_matches_reference(self, case):
        rows, _ = case
        assert rank(rows) == len(rref_reference(rows)[1])

    def test_empty_and_zero_shapes(self):
        assert rref([]) == ([], []) == rref_reference([])
        assert rref([[], []]) == ([[], []], []) == rref_reference([[], []])
        assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
        assert all_fractions(rref([[0, 0]])[0][0])
        assert rank([]) == rank([[], []]) == rank([[0, 0, 0]]) == 0

    def test_negative_pivot_and_large_denominators(self):
        rows = [[F(-3, 10**15), F(7, 11), 5], [-2, F(1, 3), 0],
                [F(-3, 10**15), F(7, 11), 5]]
        red, pivots = rref(rows)
        assert (red, pivots) == rref_reference(rows)
        assert pivots == [0, 1]
        assert red[0][0] == 1 and red[2] == [0, 0, 0]


class TestSpans:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_in_span_matches_rank(self, case, data):
        rows, ncols = case
        target = data.draw(st.one_of(
            st.lists(ENTRIES, min_size=ncols, max_size=ncols),
            st.just([sum(col) for col in zip(*rows)] if rows else [0] * ncols)))
        want = (len(rref_reference(rows + [target])[1])
                == len(rref_reference(rows)[1]))
        assert in_span(rows, target) is want

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_nullspace_and_span_basis(self, case):
        rows, ncols = case
        kernel = nullspace(rows, ncols)
        assert kernel == with_reference_rref(nullspace, rows, ncols)
        assert all(all_fractions(v) for v in kernel)
        basis = span_basis(rows, ncols)
        assert basis == with_reference_rref(span_basis, rows, ncols)
        assert all(all_fractions(v) for v in basis)

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_solve(self, case, data):
        rows, ncols = case
        b = data.draw(st.lists(ENTRIES, min_size=len(rows),
                               max_size=len(rows)))
        x = solve(rows, b)
        assert x == with_reference_rref(solve, rows, b)
        if x is not None:
            assert all_fractions(x)
            assert [sum(a * v for a, v in zip(row, x)) for row in rows] == b

    @settings(max_examples=100, deadline=None)
    @given(matrices(max_rows=4, max_cols=4), st.data())
    def test_subspace_intersection(self, case, data):
        a, dim = case
        b = data.draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim),
                               max_size=4))
        got = subspace_intersection_reference(a, b, dim)
        assert got == with_reference_rref(subspace_intersection_reference,
                                          a, b, dim)
        assert all(all_fractions(v) for v in got)


class TestPrimitive:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ENTRIES, max_size=6))
    def test_matches_fraction_reference(self, v):
        v = tuple(map(F, v))
        got = primitive(v)
        assert got == primitive_reference(v)
        assert all_fractions(got)

    def test_sign_and_scale(self):
        assert primitive((F(0), F(-2, 3), F(4, 9))) == (0, 3, -2)
        assert primitive((F(0), F(0))) == (0, 0)
