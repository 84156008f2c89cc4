"""Exact scalar and matrix kernels: normal forms, canonical bases, solving."""

import copy
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspchain import embeddings
from cuspchain.errors import MixedDiscriminants
from cuspchain.exact import (
    Matrix,
    QuadFieldElement,
    hnf,
    rref_basis,
    smith,
)

from support import conjugate_scalar, json_scalar, oracle_hnf, oracle_invariant_factors


def mat(rows):
    return Matrix([[Fraction(x) for x in r] for r in rows])


small_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _order_system():
    """The integer 4x16 stability system that order_of_lattice solves."""
    lattice = embeddings.MatrixLattice(
        (
            Matrix([[1, 2], [0, 3]]),
            Matrix([[0, Fraction(1, 2)], [1, 0]]),
            Matrix([[2, 0], [Fraction(1, 3), 1]]),
            Matrix([[1, 1], [1, 2]]),
        )
    )
    left = embeddings._left_multiplications(lattice.basis) * lattice._dual
    stacked = embeddings._side_by_side(left)
    return stacked * stacked.denominator_lcm()


def _random_rows(seed, m, n, bound):
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


# Normal-form inputs of the shapes the package meets: the order system, its
# transpose and random matrices of both shapes, empty and zero matrices, and
# one 10x10 with entries up to 10**6 (too large for the minor-gcd oracle).
NORMAL_FORM_INPUTS = {
    "order-4x16": _order_system(),
    "order-16x4": _order_system().transpose(),
    "random-4x16": mat(_random_rows(1, 4, 16, 20)),
    "random-16x4": mat(_random_rows(2, 16, 4, 20)),
    "rank-2-4x16": mat(_random_rows(3, 4, 2, 9)) * mat(_random_rows(4, 2, 16, 9)),
    "empty-0x3": Matrix([], ncols=3),
    "empty-0x0": Matrix.identity(0),
    "zero-1x3": Matrix.zero(1, 3),
    "zero-2x2": Matrix.zero(2, 2),
    "zero-3x1": Matrix.zero(3, 1),
    "random-4x4": mat(_random_rows(5, 4, 4, 9)),
    "large-10x10": mat(_random_rows(6, 10, 10, 10**6)),
}


def _int_rows(m):
    return [[int(x) for x in r] for r in m.rows]


def _nonsingular(m):
    return m.nrows == m.ncols and m.det() != 0


class TestQuadFieldElement:
    def test_arithmetic_and_norm(self):
        x = QuadFieldElement(Fraction(1, 2), Fraction(3), 5)
        y = QuadFieldElement(2, Fraction(-1, 3), 5)
        assert (x + y) - y == x
        assert x * y == y * x
        assert (x / y) * y == x
        assert x.conjugate().conjugate() == x
        assert x.norm() == Fraction(1, 4) + 5 * 9
        assert (x * x.conjugate()) == x.norm()
        assert x and QuadFieldElement(0, 1, 5) and not QuadFieldElement(0, 0, 5)
        assert repr(x) == "QuadFieldElement(1/2, 3, d=5)"
        assert str(y) == "2+-1/3*sqrt(-5)"

    def test_mixed_discriminants_error(self):
        x = QuadFieldElement(1, 1, 2)
        y = QuadFieldElement(1, 1, 3)
        with pytest.raises(MixedDiscriminants):
            _ = x + y

    def test_requires_squarefree(self):
        with pytest.raises(ValueError):
            QuadFieldElement(1, 0, 4)
        with pytest.raises(ValueError):
            QuadFieldElement(1, 0, -1)

    def test_rational_interop(self):
        x = QuadFieldElement(3, 0, 7)
        assert x == 3
        assert x + Fraction(1, 2) == QuadFieldElement(Fraction(7, 2), 0, 7)
        assert 1 / QuadFieldElement(0, 1, 7) == QuadFieldElement(0, Fraction(-1, 7), 7)


class TestMatrixBasics:
    def test_empty_matrices(self):
        z = Matrix([], ncols=3)
        assert z.shape == (0, 3)
        assert rref_basis(z).shape == (0, 3)
        assert Matrix([], ncols=0).det() == 1

    def test_mul_and_inverse(self):
        a = mat([[1, 2], [3, 5]])
        assert a * a.inverse() == Matrix.identity(2)
        assert a.det() == -1

    def test_solve_free_variables_zeroed(self):
        a = mat([[1, 1]])
        assert a.solve([Fraction(2)]) == (Fraction(2), Fraction(0))

    def test_solve_identity(self):
        a = Matrix.identity(3)
        rhs = (Fraction(4), Fraction(-1), Fraction(7, 3))
        assert a.solve(rhs) == rhs

    def test_solve_inconsistent(self):
        a = mat([[1, 1], [1, 1]])
        assert a.solve([Fraction(0), Fraction(1)]) is None

    def test_right_kernel(self):
        a = mat([[1, 2, 3]])
        k = a.right_kernel()
        assert k.nrows == 2
        for row in k.rows:
            assert all(x == 0 for x in (a * Matrix.column(row)).entries())


def all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


class TestIntegerEntries:
    def test_int_entries_give_exact_fractions(self):
        m = Matrix([[1, 2], [3, 4]])
        d = m.det()
        assert d == -2 and type(d) is Fraction
        inv = m.inverse()
        assert inv == mat([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
        assert all_fractions(inv.entries())
        assert all_fractions((m * m).entries())
        assert all_fractions(m.rref()[0].entries())
        x = m.solve([1, 1])
        assert x == (Fraction(-1), Fraction(1)) and all_fractions(x)

    def test_int_entries_singular(self):
        m = Matrix([[2, 4], [1, 2]])
        assert type(m.det()) is Fraction and m.det() == 0
        k = m.right_kernel()
        assert k == mat([[-2, 1]]) and all_fractions(k.entries())


# Rational matrices for the integer kernel, checked against the entry-wise
# reference below (ref_mul, ref_rref, ...), which computes in Fractions.
small_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.sampled_from([1, 2, 3, 4, 6]),
    ),
)


@st.composite
def rational_rows(draw, nrows=None, ncols=None):
    """(rows, ncols): plain rows of ints and Fractions, as drawn."""
    m = draw(st.integers(min_value=0, max_value=5)) if nrows is None else nrows
    n = draw(st.integers(min_value=0, max_value=5)) if ncols is None else ncols
    rows = draw(
        st.lists(
            st.lists(small_rationals, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    if m >= 2 and draw(st.booleans()):
        # rank-deficient: a zero row or a combination of two other rows
        i, j, k = (draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(3))
        c1, c2 = draw(small_rationals), draw(small_rationals)
        rows[i] = [c1 * x + c2 * y for x, y in zip(rows[j], rows[k])]
    return rows, n


sparse_values = st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-4, 3)])


@st.composite
def sparse_rows(draw, nrows=None, ncols=None):
    """(rows, ncols) with at most one nonzero per row, as in echelon bases and
    the Gram matrices of hyperbolic planes: a unit or another value, and
    about one row in four zero."""
    m = draw(st.integers(min_value=0, max_value=6)) if nrows is None else nrows
    n = draw(st.integers(min_value=0, max_value=6)) if ncols is None else ncols
    rows = []
    for _ in range(m):
        row = [0] * n
        if n and draw(st.integers(min_value=0, max_value=3)):
            row[draw(st.integers(min_value=0, max_value=n - 1))] = draw(sparse_values)
        rows.append(row)
    return rows, n


def kernel_rows(nrows=None, ncols=None):
    return st.one_of(rational_rows(nrows, ncols), sparse_rows(nrows, ncols))


def embed(m: Matrix, d: int) -> Matrix:
    return m.map_entries(lambda x: QuadFieldElement(x, 0, d))


def as_fractions(rows: list) -> list:
    """The rows in Fractions: the reference divides, and int / int is a float."""
    return [[Fraction(x) for x in r] for r in rows]


def same_as_reference_rows(result: Matrix, reference: list, ncols: int) -> bool:
    return (
        result.shape == (len(reference), ncols)
        and [list(r) for r in result.rows] == reference
        and all_fractions(result.entries())
    )


discriminants = st.sampled_from([1, 2, 3, 7])


class TestIntegerKernelAgainstEntrywise:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product(self, data):
        m, k, n = data.draw(st.tuples(*[st.integers(min_value=0, max_value=5)] * 3))
        a, _ = data.draw(kernel_rows(m, k))
        b, _ = data.draw(kernel_rows(k, n))
        ref = ref_mul(a, b, n)
        assert same_as_reference_rows(Matrix(a, k) * Matrix(b, n), ref, n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_vector_times_square(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        v, _ = data.draw(kernel_rows(1, n))
        g, _ = data.draw(kernel_rows(n, n))
        ref = ref_mul(v, g, n)
        assert same_as_reference_rows(Matrix(v, n) * Matrix(g, n), ref, n)

    @settings(max_examples=100, deadline=None)
    @given(kernel_rows())
    def test_rref_and_kernel(self, drawn):
        rows, n = drawn
        m, rows = Matrix(rows, n), as_fractions(rows)
        red, pivots = m.rref()
        ref_red, ref_pivots = ref_rref(rows, n)
        assert pivots == ref_pivots
        assert same_as_reference_rows(red, ref_red, n)
        assert same_as_reference_rows(m.right_kernel(), ref_right_kernel(rows, n), n)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_det_and_inverse(self, data):
        n = data.draw(st.integers(min_value=0, max_value=5))
        rows, _ = data.draw(kernel_rows(n, n))
        m, rows = Matrix(rows, n), as_fractions(rows)
        det = m.det()
        assert type(det) is Fraction and det == ref_det(rows)
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            with pytest.raises(ZeroDivisionError):
                ref_inverse(rows)
        else:
            assert same_as_reference_rows(m.inverse(), ref_inverse(rows), n)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_solve(self, data):
        rows, n = data.draw(kernel_rows())
        size = len(rows)
        rhs = data.draw(st.lists(small_rationals, min_size=size, max_size=size))
        x = Matrix(rows, n).solve(rhs)
        ref = ref_solve(as_fractions(rows), n, map(Fraction, rhs))
        if ref is None:
            assert x is None
        else:
            assert x == ref and all_fractions(x)


class TestHNF:
    def test_identity(self):
        h, u = hnf(Matrix.identity(2))
        assert h == Matrix.identity(2)
        assert u == Matrix.identity(2)

    def test_zero(self):
        z = Matrix.zero(2, 2)
        h, u = hnf(z)
        assert h == z
        assert u == Matrix.identity(2)

    def test_worked_example(self):
        # det 2 input; oracle-checked canonical form frozen below
        m = mat([[2, 4], [1, 3]])
        h, u = hnf(m)
        assert h == mat([[1, 1], [0, 2]])
        assert h.det() == 2
        assert u * m == h
        assert abs(u.det()) == 1
        assert [[int(x) for x in r] for r in h.rows] == oracle_hnf([[2, 4], [1, 3]])

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_random_agrees_with_oracle(self, rows):
        m = mat(rows)
        h, u = hnf(m)
        assert u * m == h
        assert abs(u.det()) == 1
        assert [[int(x) for x in r] for r in h.rows] == oracle_hnf(rows)

    @settings(max_examples=40, deadline=None)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_invariant_under_row_operations(self, rows, rng):
        m = mat(rows)
        nrows = m.nrows
        u = [[Fraction(1 if i == j else 0) for j in range(nrows)] for i in range(nrows)]
        for _ in range(4):
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        transformed = Matrix(u) * m
        assert hnf(transformed)[0] == hnf(m)[0]

    @pytest.mark.parametrize("name", NORMAL_FORM_INPUTS)
    def test_normal_form_inputs(self, name):
        m = NORMAL_FORM_INPUTS[name]
        h, u = hnf(m)
        assert u * m == h
        assert abs(u.det()) == 1
        assert _int_rows(h) == oracle_hnf(_int_rows(m))
        if _nonsingular(m):
            assert u == h * m.inverse()  # U is unique for a nonsingular input


class TestSmith:
    def test_identity(self):
        s, u, v = smith(Matrix.identity(3))
        assert s == Matrix.identity(3)

    def test_rank_one(self):
        m = mat([[2, 4], [4, 8]])
        s, u, v = smith(m)
        assert s == mat([[2, 0], [0, 0]])
        assert u * m * v == s
        assert oracle_invariant_factors([[2, 4], [4, 8]]) == [2, 0]

    def test_diag_6_4(self):
        # invariant factors of Z^2 / (6Z x 4Z), cross-checked by minor gcds
        m = mat([[6, 0], [0, 4]])
        s, u, v = smith(m)
        assert s == mat([[2, 0], [0, 12]])
        assert oracle_invariant_factors([[6, 0], [0, 4]]) == [2, 12]
        assert u * m * v == s

    @settings(max_examples=50, deadline=None)
    @given(small_matrices)
    def test_random_against_minor_gcds(self, rows):
        m = mat(rows)
        s, u, v = smith(m)
        assert u * m * v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [int(s[i, i]) for i in range(min(s.shape))]
        for i in range(min(s.shape)):
            for j in range(s.ncols):
                if i != j:
                    assert s[i, j] == 0 or i >= s.nrows
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert diag == oracle_invariant_factors(rows)

    def test_square_nonsingular_product(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            m = mat(rows)
            if m.det() == 0:
                continue
            s, u, v = smith(m)
            prod = Fraction(1)
            for i in range(3):
                prod *= s[i, i]
            assert prod == abs(m.det())

    @pytest.mark.parametrize("name", NORMAL_FORM_INPUTS)
    def test_normal_form_inputs(self, name):
        m = NORMAL_FORM_INPUTS[name]
        s, u, v = smith(m)
        assert u * m * v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [int(s[i, i]) for i in range(min(s.shape))]
        assert s == Matrix(
            [[diag[i] if i == j else 0 for j in range(s.ncols)] for i in range(s.nrows)],
            ncols=s.ncols,
        )
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b == 0) if a == 0 else (b % a == 0)
        if min(m.shape) <= 4:
            assert diag == oracle_invariant_factors(_int_rows(m))


class TestCanonicalBasis:
    def test_scaled_identity(self):
        m = mat([[2, 0], [0, 2]])
        assert rref_basis(m) == Matrix.identity(2)

    def test_dependent_rows_dropped(self):
        m = mat([[1, 2], [2, 4]])
        assert rref_basis(m) == mat([[1, 2]])

    def test_quad_field_leading_one(self):
        i = QuadFieldElement(0, 1, 1)
        m = Matrix([[i, QuadFieldElement(-1, 0, 1)]])
        red = rref_basis(m)
        assert red.rows[0][0] == QuadFieldElement(1, 0, 1)
        # span unchanged: original row is a multiple of the reduced row
        assert red.rows[0][1] == QuadFieldElement(-1, 0, 1) / i

    @settings(max_examples=50, deadline=None)
    @given(small_matrices, small_matrices)
    def test_equal_spans_iff_equal_bases(self, rows_a, rows_b):
        if len(rows_a[0]) != len(rows_b[0]):
            return
        a, b = mat(rows_a), mat(rows_b)
        same_basis = rref_basis(a) == rref_basis(b)
        # mutual membership check as the independent definition of span equality
        def inside(rows, other):
            return all(
                other.transpose().solve(list(r)) is not None for r in rows.rows
            )

        same_span = inside(a, rref_basis(b)) and inside(b, rref_basis(a))
        if rref_basis(a).nrows == 0 or rref_basis(b).nrows == 0:
            same_span = rref_basis(a).nrows == rref_basis(b).nrows
        assert same_basis == same_span

    def test_referential_transparency(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        assert hnf(mat(rows)) == hnf(mat(rows))
        assert smith(mat(rows)) == smith(mat(rows))
        assert rref_basis(mat(rows)) == rref_basis(mat(rows))


# -- the pair kernel against an entry-wise reference --------------------------
#
# The reference is the entry-wise elimination Matrix used for matrices with
# QuadFieldElement entries before they ran on integer pairs, kept here
# verbatim as an oracle: every scalar operation is a Fraction or
# QuadFieldElement operation.  It takes and returns plain rows: a Matrix
# lifts its entries when built, which would rewrite the reference's types.


def ref_dot(row, col):
    total = None
    for x, y in zip(row, col):
        term = x * y
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def ref_mul(a: list, b: list, ncols: int) -> list:
    cols = [[r[j] for r in b] for j in range(ncols)]
    return [[ref_dot(r, c) for c in cols] for r in a]


def ref_rref(a: list, ncols: int):
    m = [list(r) for r in a]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def ref_det(a: list):
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in a]
    det = None
    sign = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return m[0][0] * 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        pv = m[c][c]
        det = pv if det is None else det * pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det if sign == 1 else -det


def ref_zero(a: list):
    for x in itertools.chain(*a):
        if isinstance(x, QuadFieldElement):
            return QuadFieldElement(0, 0, x.d)
    return Fraction(0)


def ref_inverse(a: list) -> list:
    n = len(a)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    red, pivots = ref_rref(aug, 2 * n)
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in red]


def ref_solve(a: list, ncols: int, rhs):
    rhs = tuple(rhs)
    if not a:
        return tuple([ref_zero(a)] * ncols)
    aug = [list(r) + [y] for r, y in zip(a, rhs)]
    red, pivots = ref_rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ref_zero(aug)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def ref_right_kernel(a: list, ncols: int) -> list:
    red, pivots = ref_rref(a, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    zero = ref_zero(a)
    one = zero + 1
    rows = []
    for fc in free:
        x = [zero] * ncols
        x[fc] = one
        for r, p in enumerate(pivots):
            x[p] = -red[r][fc]
        rows.append(x)
    return rows


# Rule for entry types: an operation that meets a QuadFieldElement returns
# QuadFieldElements of that d in every entry (and a QuadFieldElement det).
# Where every entry of the operands is a QuadFieldElement -- the only case a
# FormSpace hands to Matrix, since it coerces every hermitian entry -- this
# is also what the entry-wise path returned.  With mixed operands the
# entry-wise path left a Fraction wherever no QuadFieldElement reached the
# entry (a row the elimination never touched, a product term without one);
# the values are the same either way, and the golden certificate digests in
# tests/test_cli.py show that no output byte moves.


def quad_entries(d):
    return st.builds(
        lambda a, b: QuadFieldElement(a, b, d), small_rationals, small_rationals
    )


# Fraction, not int, beside quad entries: the entry-wise reference turns an
# int divided by an int pivot into a float (see test_int_entries_stay_exact).
small_fractions = small_rationals.map(Fraction)


@st.composite
def hermitian_rows(draw, d, nrows=None, ncols=None, uniform=None):
    """(rows, ncols) over Q(sqrt(-d)); mixed rows also carry Fraction entries.

    Every matrix with entries has a QuadFieldElement, so the pair kernel
    applies; rank deficiency is planted as in rational_rows.
    """
    m = draw(st.integers(min_value=0, max_value=5)) if nrows is None else nrows
    n = draw(st.integers(min_value=0, max_value=5)) if ncols is None else ncols
    if uniform is None:
        uniform = draw(st.booleans())
    entry = quad_entries(d) if uniform else st.one_of(small_fractions, quad_entries(d))
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    if m and n:
        rows[0][0] = draw(quad_entries(d))
    if m >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(3))
        c1, c2 = draw(quad_entries(d)), draw(entry)
        rows[i] = [c1 * x + c2 * y for x, y in zip(rows[j], rows[k])]
    return rows, n


def is_quad(x, d) -> bool:
    return (
        type(x) is QuadFieldElement
        and x.d == d
        and type(x.a) is Fraction
        and type(x.b) is Fraction
    )


def all_quad(*row_lists) -> bool:
    rows = itertools.chain(*row_lists)
    return all(type(x) is QuadFieldElement for x in itertools.chain(*rows))


def same_as_reference(result, reference, d, uniform):
    """Equal values, QuadFieldElements of d, the reference's types if uniform."""
    result, reference = list(result), list(reference)
    assert result == reference
    assert all(is_quad(x, d) for x in result)
    if uniform:
        assert [type(x) for x in result] == [type(x) for x in reference]


class TestPairKernelAgainstEntrywise:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), discriminants)
    def test_product(self, data, d):
        m, k, n = data.draw(st.tuples(*[st.integers(min_value=0, max_value=5)] * 3))
        if data.draw(st.booleans()):
            a, _ = data.draw(hermitian_rows(d, m, k))
            b, _ = data.draw(st.one_of(hermitian_rows(d, k, n), rational_rows(k, n)))
        else:
            a, _ = data.draw(rational_rows(m, k))
            b, _ = data.draw(hermitian_rows(d, k, n))
        prod, ref = Matrix(a, k) * Matrix(b, n), ref_mul(a, b, n)
        ref_entries = list(itertools.chain(*ref))
        assert prod.shape == (len(ref), n)
        if k == 0:
            # no entry to meet: the rational kernel's Fraction zeros, as before
            assert list(prod.entries()) == ref_entries
            assert all_fractions(prod.entries()) and all_fractions(ref_entries)
        else:
            same_as_reference(prod.entries(), ref_entries, d, all_quad(a, b))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), discriminants)
    def test_rref_and_kernel(self, data, d):
        rows, n = data.draw(hermitian_rows(d))
        a, uniform = Matrix(rows, n), all_quad(rows)
        red, pivots = a.rref()
        ref_red, ref_pivots = ref_rref(rows, n)
        assert pivots == ref_pivots and red.shape == (len(ref_red), n)
        same_as_reference(red.entries(), itertools.chain(*ref_red), d, uniform)
        assert rref_basis(a) == Matrix(ref_red[: len(ref_pivots)], n)
        assert a.rank() == len(ref_pivots)
        kernel, ref_kernel = a.right_kernel(), ref_right_kernel(rows, n)
        assert kernel.shape == (len(ref_kernel), n)
        if rows:
            same_as_reference(
                kernel.entries(), itertools.chain(*ref_kernel), d, uniform
            )
        else:
            # no entries: the kernel is the identity in Fractions, as before
            assert all_fractions(itertools.chain(*ref_kernel))
            assert kernel == Matrix(ref_kernel, n) and all_fractions(kernel.entries())

    @settings(max_examples=100, deadline=None)
    @given(st.data(), discriminants)
    def test_det_and_inverse(self, data, d):
        n = data.draw(st.integers(min_value=0, max_value=5))
        rows, _ = data.draw(hermitian_rows(d, n, n))
        a = Matrix(rows, n)
        det, ref = a.det(), ref_det(rows)
        assert det == ref
        if n == 0:
            assert type(det) is Fraction and type(ref) is Fraction
            return
        assert is_quad(det, d)
        if ref == 0:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                ref_inverse(rows)
        else:
            inv, ref_inv = a.inverse(), ref_inverse(rows)
            same_as_reference(
                inv.entries(), itertools.chain(*ref_inv), d, all_quad(rows)
            )
            assert a * inv == Matrix.identity(n)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), discriminants)
    def test_solve(self, data, d):
        rows, n = data.draw(hermitian_rows(d))
        entry = st.one_of(small_fractions, quad_entries(d))
        rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        x, ref = Matrix(rows, n).solve(rhs), ref_solve(rows, n, rhs)
        if ref is None:
            assert x is None
        elif not rows:
            assert x == ref and all_fractions(x) and all_fractions(ref)
        else:
            same_as_reference(x, ref, d, all_quad(rows, [rhs]))

    def test_untouched_rows_become_quad(self):
        # the entry-wise path kept this Fraction row; the rule makes it quad
        q = lambda a, b=0: QuadFieldElement(a, b, 2)
        rows = [[q(1, 1), q(2)], [Fraction(0), Fraction(0)]]
        red, pivots = Matrix(rows).rref()
        ref_red, _ = ref_rref(rows, 2)
        assert pivots == (0,) and red == Matrix(ref_red)
        assert all_fractions(ref_red[1])
        assert all(is_quad(x, 2) for x in red.entries())

    def test_int_entries_stay_exact(self):
        q = QuadFieldElement(0, 0, 1)
        assert type(ref_rref([[q, 1]], 2)[0][0][1]) is float
        assert Matrix([[q, 1]]).rref()[0].rows == ((q, QuadFieldElement(1, 0, 1)),)
        assert Matrix([[q + 1, 2], [3, 4]]).inverse() == Matrix(
            [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
        ).map_entries(lambda x: QuadFieldElement(x, 0, 1))

    # hermitian_rows draws at most 5x5; the determinant interpolates a
    # polynomial of degree n, so larger n reach higher differences
    @pytest.mark.parametrize("n", [6, 7, 8])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), d=discriminants)
    def test_square_past_five(self, n, data, d):
        rows, _ = data.draw(hermitian_rows(d, n, n))
        if data.draw(st.booleans(), label="plant"):
            c1, c2 = data.draw(quad_entries(d)), data.draw(quad_entries(d))
            rows[-1] = [c1 * x + c2 * y for x, y in zip(rows[0], rows[1])]
        a, uniform = Matrix(rows, n), all_quad(rows)
        det = a.det()
        assert det == ref_det(rows) and is_quad(det, d)
        red, pivots = a.rref()
        ref_red, ref_pivots = ref_rref(rows, n)
        assert pivots == ref_pivots
        same_as_reference(red.entries(), itertools.chain(*ref_red), d, uniform)
        if len(ref_pivots) < n:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            ref_inv = ref_inverse(rows)
            same_as_reference(
                a.inverse().entries(), itertools.chain(*ref_inv), d, uniform
            )

    def test_dense_large_coefficients(self):
        rng = random.Random(13)
        part = lambda: rng.getrandbits(300) - 2**299
        entry = lambda: QuadFieldElement(part(), part(), 7)
        a = Matrix([[entry() for _ in range(10)] for _ in range(10)])
        inv = a.inverse()
        assert inv * a == Matrix.identity(10)
        assert a.det() * inv.det() == 1


class TestPairKernelMixedDiscriminants:
    def test_product_rref_and_det_refuse_two_fields(self):
        x2, x3 = QuadFieldElement(1, 1, 2), QuadFieldElement(1, 1, 3)
        a = Matrix([[x2, x2], [x2, 1]])
        b = Matrix([[x3, 1], [1, x3]])
        with pytest.raises(MixedDiscriminants):
            a * b
        with pytest.raises(MixedDiscriminants):
            Matrix.vstack(a, b)
        with pytest.raises(MixedDiscriminants):
            a * x3
        # entries over two fields are refused when the matrix is built
        for rows in ([[x2, 1], [1, x3]], [[x2, 0], [0, Fraction(1)], [x3, 1]]):
            with pytest.raises(MixedDiscriminants):
                Matrix(rows)

    def test_rational_operand_joins_either_field(self):
        r = Matrix([[1, Fraction(1, 2)]])
        for d in (2, 3):
            q = Matrix.column([QuadFieldElement(0, 1, d), QuadFieldElement(2, 0, d)])
            assert (r * q).rows == ((QuadFieldElement(1, 1, d),),)


# -- one matrix, built or parsed ------------------------------------------------
#
# A matrix built from entries and one parsed from JSON both hold integer
# arrays and build their entries on first access, by the entry-type rule
# above.  Neither may differ from the entries as drawn, except in the types
# of the built entries.


def two_forms(rows: list, ncols: int) -> tuple[Matrix, Matrix]:
    from cuspchain import serialize

    text = [[json_scalar(x) for x in r] for r in rows]
    return Matrix(rows, ncols), serialize.matrix_from_json(text, ncols=ncols)


def quad_field(rows: list):
    return next(
        (x.d for x in itertools.chain(*rows) if isinstance(x, QuadFieldElement)), None
    )


def entry_denominators(rows: list):
    for x in itertools.chain(*rows):
        if isinstance(x, QuadFieldElement):
            yield from (x.a.denominator, x.b.denominator)
        else:
            yield Fraction(x).denominator


def any_rows(shape=None):
    nrows, ncols = shape or (None, None)
    return st.one_of(
        rational_rows(nrows, ncols),
        discriminants.flatmap(lambda d: hermitian_rows(d, nrows, ncols)),
    )


def same_matrix(a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a == b and b == a and hash(a) == hash(b)


class TestStoredForm:
    @settings(max_examples=120, deadline=None)
    @given(any_rows())
    def test_forms_agree(self, drawn):
        rows, n = drawn
        d = quad_field(rows)
        cols = [[r[j] for r in rows] for j in range(n)]
        dens = list(entry_denominators(rows))
        built, parsed = two_forms(rows, n)
        assert same_matrix(built, parsed)
        for x in (built, parsed):
            assert x.shape == (len(rows), n) and x.rows == tuple(map(tuple, rows))
            read = x.rows
            cells = list(itertools.product(range(len(rows)), range(n)))
            for i, j in cells + ([(-1, -1)] if cells else []):
                assert x[i, j] == read[i][j] and type(x[i, j]) is type(read[i][j])
            for i, j in ((len(rows), 0), (0, n)):
                with pytest.raises(IndexError):
                    x[i, j]
            if d is None:
                assert all_fractions(x.entries())
            else:
                assert all(is_quad(y, d) for y in x.entries())
            assert same_matrix(x.transpose(), Matrix(cols, len(rows)))
            conj = [[conjugate_scalar(y) for y in c] for c in cols]
            assert same_matrix(x.conj_transpose(), Matrix(conj, len(rows)))
            assert same_matrix(Matrix.vstack(x, built), Matrix(rows + rows, n))
            assert same_matrix(-x, Matrix([[-y for y in r] for r in rows], n))
            assert x.is_zero() == all(y == 0 for y in itertools.chain(*rows))
            assert x.is_integral() == all(q == 1 for q in dens)
            assert x.denominator_lcm() == lcm(*dens)

    @settings(max_examples=60, deadline=None)
    @given(any_rows())
    def test_unequal_values_stay_unequal(self, drawn):
        rows, n = drawn
        if rows and n:
            other = [list(r) for r in rows]
            other[-1][-1] += Fraction(1, 3)
            for x, y in itertools.product(two_forms(rows, n), two_forms(other, n)):
                assert x != y and y != x

    def test_zero_sized_shapes_are_rational(self):
        q = QuadFieldElement(1, 1, 7)
        tall = Matrix([[q], [q]]).submatrix(cols=slice(0))
        assert tall.shape == (2, 0) and tall == Matrix([[], []])
        assert tall.right_kernel().shape == (0, 0)
        kernel = Matrix([[q, 1]]).submatrix(rows=[]).right_kernel()
        assert kernel == Matrix.identity(2) and all_fractions(kernel.entries())

    def test_negative_pivots_and_mixed_denominators(self):
        m = Matrix([[Fraction(-1, 2), Fraction(2, 3)], [Fraction(-3), Fraction(5, 6)]])
        red, pivots = m.rref()
        assert pivots == (0, 1) and red == Matrix.identity(2)
        assert m.inverse() * m == Matrix.identity(2)
        assert m.denominator_lcm() == 6 and (m * 6).is_integral()
        assert (m * 6).rows == ((-3, 4), (-18, 5))

    def test_entries_are_checked_when_built(self):
        for bad in (1.5, "1", True, None):
            with pytest.raises(TypeError):
                Matrix([[1, bad]])
        m = Matrix([[1, 2]])
        assert m.rows == ((1, 2),) and all_fractions(m.entries())

    def test_rational_matrix_equals_its_embedding(self):
        r = Matrix([[1, Fraction(1, 2)], [0, 3]])
        for d in (2, 3):
            assert same_matrix(r, embed(r, d))
        assert embed(r, 2) != embed(r, 3)

    def test_rows_kept_without_imaginary_parts(self):
        q = lambda a, b=0: QuadFieldElement(a, b, 3)
        m = Matrix([[q(0, 1), q(2)], [q(0), q(0)], [q(5), q(4)]])
        assert m.submatrix(rows=[1]).is_zero()
        assert same_matrix(m.submatrix(rows=[2]), Matrix([[5, 4]]))


scalars = st.one_of(small_rationals, discriminants.flatmap(quad_entries))


class TestScalarProduct:
    @settings(max_examples=100, deadline=None)
    @given(any_rows().map(lambda drawn: Matrix(*drawn)), scalars)
    def test_against_entrywise(self, m, c):
        try:
            ref = m.map_entries(lambda x: x * c)
        except MixedDiscriminants:
            with pytest.raises(MixedDiscriminants):
                m * c
            with pytest.raises(MixedDiscriminants):
                c * m
            return
        for prod in (m * c, c * m):
            assert same_matrix(prod, ref) and prod.rows == ref.rows
            assert [type(x) for x in prod.entries()] == [type(x) for x in ref.entries()]

    def test_other_operands_are_refused(self):
        m = Matrix([[1, 2]])
        for other in (1.5, True, "x", None):
            with pytest.raises(TypeError):
                m * other
            with pytest.raises(TypeError):
                other * m


# -- products with an adjoint ---------------------------------------------------


def adjoint_rows(rows: list, ncols: int) -> list:
    """The conjugate transpose of plain rows with ncols columns."""
    return [[conjugate_scalar(r[j]) for r in rows] for j in range(ncols)]


class TestMulAdjoint:
    @settings(max_examples=120, deadline=None)
    @given(st.data(), discriminants)
    def test_against_product_with_adjoint(self, data, d):
        m, k, n = data.draw(st.tuples(*[st.integers(min_value=0, max_value=5)] * 3))
        # rational, hermitian and one-sided-imaginary pairs
        quad_a, quad_b = data.draw(st.booleans()), data.draw(st.booleans())
        a, _ = data.draw(hermitian_rows(d, m, k) if quad_a else kernel_rows(m, k))
        b, _ = data.draw(hermitian_rows(d, n, k) if quad_b else kernel_rows(n, k))
        x, y = Matrix(a, k), Matrix(b, k)
        prod = x.mul_adjoint(y)
        ref = list(itertools.chain(*ref_mul(a, adjoint_rows(b, k), n)))
        assert prod.shape == (m, n) and list(prod.entries()) == ref
        if k and ((quad_a and m) or (quad_b and n)):
            assert all(is_quad(z, d) for z in prod.entries())
        else:
            assert all_fractions(prod.entries())
        assert same_matrix(prod, x * y.conj_transpose())

    def test_shape_and_field_mismatches_are_refused(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]]).mul_adjoint(Matrix([[1, 2, 3]]))
        with pytest.raises(ValueError):
            Matrix([], ncols=2).mul_adjoint(Matrix([], ncols=1))
        x2, x3 = QuadFieldElement(1, 1, 2), QuadFieldElement(1, 1, 3)
        with pytest.raises(MixedDiscriminants):
            Matrix([[x2, 1]]).mul_adjoint(Matrix([[1, x3]]))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_operands_are_left_unchanged(self, data):
        n = data.draw(st.integers(min_value=0, max_value=5))
        rows_a, _ = data.draw(any_rows((n, n)))
        rows_b, _ = data.draw(st.one_of(any_rows((n, n)), sparse_rows(n, n)))
        a, b = Matrix(rows_a, n), Matrix(rows_b, n)
        before = copy.deepcopy((a._ints, b._ints))
        try:
            a * b, a.mul_adjoint(b), b.mul_adjoint(a)
        except MixedDiscriminants:
            pass
        for m in (a, b):
            m.rref(), m.det(), m.right_kernel()
        assert (a._ints, b._ints) == before


# rref_basis returns a matrix already in reduced echelon form without zero
# rows unchanged; each near miss of that form takes the elimination.


def without_zero_rows(m: Matrix) -> Matrix:
    """m's reduced echelon rows up to the rank, by the reference ref_rref."""
    red, pivots = ref_rref(m.rows, m.ncols)
    return Matrix(red[: len(pivots)], m.ncols)


def near_misses(r: Matrix):
    """(name, matrix) pairs with r's row space, each one step from reduced."""
    rows, n = [list(row) for row in r.rows], r.ncols
    if rows:
        yield "pivot not one", Matrix([[2 * x for x in rows[0]]] + rows[1:], n)
        d = r._ints[3] or 1
        t = QuadFieldElement(1, 1, d)
        yield "imaginary pivot part", Matrix([[t * x for x in rows[0]]] + rows[1:], n)
    if len(rows) >= 2:
        above = [x + y for x, y in zip(rows[0], rows[1])]
        yield "nonzero above a pivot", Matrix([above] + rows[1:], n)
        yield "decreasing pivots", Matrix([rows[1], rows[0]] + rows[2:], n)
    if n:
        yield "zero row", Matrix(rows + [[0] * n], n)


class TestReducedBasisIsFixed:
    @settings(max_examples=150, deadline=None)
    @given(any_rows())
    def test_reduced_basis_comes_back_unchanged(self, drawn):
        rows, n = drawn
        m = Matrix(rows, n)
        r = rref_basis(m)
        assert r._ints == without_zero_rows(m)._ints
        assert r._ints == without_zero_rows(r)._ints
        for name, p in near_misses(r):
            got = rref_basis(p)
            assert got._ints == without_zero_rows(p)._ints, name
            assert got == r, name

    @pytest.mark.parametrize("nrows", [0, 1, 3])
    def test_zero_columns(self, nrows):
        m = Matrix([[]] * nrows, ncols=0)
        assert rref_basis(m).shape == (0, 0)

    def test_imaginary_part_left_of_the_pivot(self):
        s = QuadFieldElement(0, 1, 2)
        m = Matrix([[s, 1]])  # the real parts alone look reduced
        assert rref_basis(m) is not m
        assert rref_basis(m) == Matrix([[1, 1 / s]])
