"""Exact scalar and matrix kernels: normal forms, canonical bases, solving."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspchain.errors import MixedDiscriminants
from cuspchain.exact import Matrix, QuadFieldElement, hnf, rref_basis, smith

from support import oracle_hnf, oracle_invariant_factors


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
# path run on the same matrix embedded in Q(sqrt(-d)).
small_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.sampled_from([1, 2, 3, 4, 6]),
    ),
)


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
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
    return Matrix(rows, n)


def embed(m: Matrix, d: int) -> Matrix:
    return m.map_entries(lambda x: QuadFieldElement(x, 0, d))


def real(x) -> Fraction:
    if isinstance(x, QuadFieldElement):
        assert x.b == 0
        return x.a
    return x


def real_rows(m: Matrix) -> list:
    return [[real(x) for x in r] for r in m.rows]


def same_as_entrywise(result: Matrix, reference: Matrix) -> bool:
    return (
        result.shape == reference.shape
        and [list(r) for r in result.rows] == real_rows(reference)
        and all_fractions(result.entries())
    )


discriminants = st.sampled_from([1, 2, 3, 7])


class TestIntegerKernelAgainstEntrywise:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), discriminants)
    def test_product(self, data, d):
        shape = data.draw(st.tuples(*[st.integers(min_value=0, max_value=5)] * 3))
        a = data.draw(rational_matrices(shape[0], shape[1]))
        b = data.draw(rational_matrices(shape[1], shape[2]))
        assert same_as_entrywise(a * b, embed(a, d) * embed(b, d))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), discriminants)
    def test_vector_times_square(self, data, d):
        n = data.draw(st.integers(min_value=0, max_value=6))
        v = data.draw(rational_matrices(1, n))
        g = data.draw(rational_matrices(n, n))
        assert same_as_entrywise(v * g, embed(v, d) * embed(g, d))

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices(), discriminants)
    def test_rref_and_kernel(self, m, d):
        q = embed(m, d)
        red, pivots = m.rref()
        q_red, q_pivots = q.rref()
        assert pivots == q_pivots
        assert same_as_entrywise(red, q_red)
        assert same_as_entrywise(m.right_kernel(), q.right_kernel())

    @settings(max_examples=100, deadline=None)
    @given(st.data(), discriminants)
    def test_det_and_inverse(self, data, d):
        n = data.draw(st.integers(min_value=0, max_value=5))
        m = data.draw(rational_matrices(n, n))
        q = embed(m, d)
        det = m.det()
        assert type(det) is Fraction and det == real(q.det())
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            with pytest.raises(ZeroDivisionError):
                q.inverse()
        else:
            assert same_as_entrywise(m.inverse(), q.inverse())

    @settings(max_examples=100, deadline=None)
    @given(st.data(), discriminants)
    def test_solve(self, data, d):
        m = data.draw(rational_matrices())
        rhs = data.draw(
            st.lists(small_rationals, min_size=m.nrows, max_size=m.nrows)
        )
        x = m.solve(rhs)
        q_x = embed(m, d).solve([QuadFieldElement(y, 0, d) for y in rhs])
        if q_x is None:
            assert x is None
        else:
            assert x is not None and all_fractions(x)
            assert list(x) == [real(y) for y in q_x]


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
