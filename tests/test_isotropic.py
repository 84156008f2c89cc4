"""Isotropic search and the constructive subspace machinery."""

import itertools
import json
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspchain.errors import (
    PreconditionFailed,
    SearchExhausted,
    SignatureMismatch,
    SubspacesIntersect,
    VectorNotIsotropic,
)
from cuspchain.chains import _to_local
from cuspchain.exact import (
    Matrix,
    QuadFieldElement,
    rref_basis,
    shell_tuples,
)
from cuspchain.forms import (
    FormSpace,
    canonical_subspace,
    hyperbolic_plane,
    is_perfect_pairing,
    line,
    orthogonal_complement,
    pairing_matrix,
    quadratic_2u_perp_diagonal,
    restricted_space,
    signature_of,
    standard_2u,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    subspace_sum,
    unit_vector,
    zero_subspace,
)
from cuspchain.isotropic import (
    _candidate_vectors,
    _has_no_zero,
    _hilbert_symbol,
    _primitive_count,
    _search_vector,
    dual_isotropic_basis,
    find_isotropic_vector,
    hyperbolic_complete,
    integer_form,
    isotropic_dual_complement,
    j0_construct,
    split_off_kernels,
    third_isotropic_lines,
)

from support import conjugate_scalar, field_zero, run_optimized


def diag_space(entries):
    n = len(entries)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, d in enumerate(entries):
        rows[i][i] = Fraction(d)
    return FormSpace("symmetric", Matrix(rows))


class TestFindIsotropicVector:
    def test_hyperbolic_plane(self):
        assert find_isotropic_vector(hyperbolic_plane()) == (1, 0)

    def test_diag_1_minus1(self):
        assert find_isotropic_vector(diag_space([1, -1])) == (1, 1)

    def test_anisotropic_returns_none(self):
        # x^2 = 3 y^2 has no nonzero rational solution; brute force confirms
        space = diag_space([1, -3])
        for x in range(-10, 11):
            for y in range(-10, 11):
                if (x, y) != (0, 0):
                    assert x * x - 3 * y * y != 0
        assert find_isotropic_vector(space, 10) is None

    def test_definite_short_circuits(self):
        assert find_isotropic_vector(diag_space([1, 1, 1])) is None
        assert find_isotropic_vector(diag_space([-2, -3])) is None

    def test_bound_below_one_is_refused_whatever_the_space(self):
        # definite and alternating spaces never search; the bound is checked first
        spaces = (diag_space([1, 1, 1]), standard_symplectic(1), diag_space([1, -1]))
        for space in spaces:
            with pytest.raises(ValueError, match="^need max_height >= 1$"):
                find_isotropic_vector(space, 0)

    def test_alternating_returns_first_basis_vector(self):
        space = standard_symplectic(2)
        assert find_isotropic_vector(space) == unit_vector(space, 0)

    def test_monotone_in_cap(self):
        space = quadratic_2u_perp_diagonal([-2])
        found = [find_isotropic_vector(space, cap) for cap in (1, 3, 50)]
        assert found[0] is not None
        assert found[0] == found[1] == found[2]

    def test_hermitian_search(self):
        space = standard_hermitian_hyperbolic(2)
        v = find_isotropic_vector(space)
        assert v is not None
        assert space.norm(v) == 0
        # first shell hit in the fixed descending order: (1 + sqrt(-2), 0)
        assert v == (QuadFieldElement(1, 1, 2), QuadFieldElement(0, 0, 2))

    def test_primitivity(self):
        # the shell order would otherwise hit (2, 0) before (1, 0) at height 2
        space = hyperbolic_plane()
        v = find_isotropic_vector(space, 2)
        assert v == (1, 0)


class TestHyperbolicComplete:
    def test_u_basis(self):
        space = hyperbolic_plane()
        w = hyperbolic_complete(space, (1, 0))
        assert w == (0, 1)

    def test_sum_of_isotropics(self):
        space = standard_2u()
        v = space.coerce_row((1, 0, 1, 0)).rows[0]  # e1 + e2
        w = hyperbolic_complete(space, v)
        assert space.pair(v, w) == 1
        assert space.pair(w, w) == 0

    def test_symplectic(self):
        space = standard_symplectic(1)
        w = hyperbolic_complete(space, (1, 0))
        assert space.pair((1, 0), w) == 1

    def test_hermitian(self):
        space = standard_hermitian_hyperbolic(7, 2)
        v = space.coerce_row((1, 0, 1, 0)).rows[0]
        w = hyperbolic_complete(space, v)
        assert space.pair(v, w) == 1
        assert space.pair(w, w) == 0

    def test_rejects_non_isotropic(self):
        with pytest.raises(VectorNotIsotropic):
            hyperbolic_complete(diag_space([1, -1]), (1, 0))


class TestDualComplement:
    def test_symplectic_lagrangian_half(self):
        space = standard_symplectic(2)
        w = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        dual = isotropic_dual_complement(space, w)
        expected = canonical_subspace(
            space, Matrix([unit_vector(space, 1), unit_vector(space, 3)])
        )
        assert dual == expected

    def test_2u_line(self):
        space = standard_2u()
        dual = isotropic_dual_complement(space, line(space, unit_vector(space, 0)))
        assert dual == line(space, unit_vector(space, 1))

    def test_zero(self):
        space = standard_2u()
        assert isotropic_dual_complement(space, zero_subspace(space)).dim == 0

    def test_orthogonal_plane(self):
        space = quadratic_2u_perp_diagonal([-2])
        w = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        dual = isotropic_dual_complement(space, w)
        assert dual.is_isotropic()
        assert is_perfect_pairing(space, w, dual)

    def test_hermitian(self):
        space = standard_hermitian_hyperbolic(1, 2)
        w = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        dual = isotropic_dual_complement(space, w)
        assert dual.is_isotropic()
        assert is_perfect_pairing(space, w, dual)


class TestThirdLines:
    def test_u_perp_minus2(self):
        # U perp <-2> with basis (v, w, u): expect lines v+u+w and v-u+w
        space = FormSpace(
            "symmetric", Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
        )
        i = line(space, (1, 0, 0))
        l3, l4 = third_isotropic_lines(space, i)
        assert l3 == line(space, (1, 1, 1))
        assert l4 == line(space, (1, 1, -1))
        stacked = Matrix.vstack(i.basis, l3.basis, l4.basis)
        assert rref_basis(stacked).nrows == 3

    def test_roles_swapped(self):
        space = FormSpace(
            "symmetric", Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
        )
        i = line(space, (0, 1, 0))
        l3, l4 = third_isotropic_lines(space, i)
        for l in (l3, l4):
            assert l.is_isotropic()
        stacked = Matrix.vstack(i.basis, l3.basis, l4.basis)
        assert rref_basis(stacked).nrows == 3

    def test_signature_guard(self):
        with pytest.raises(SignatureMismatch):
            third_isotropic_lines(hyperbolic_plane(), line(hyperbolic_plane(), (1, 0)))


class TestJ0:
    def test_symplectic_rank_one(self):
        space = standard_symplectic(2)
        j1 = line(space, unit_vector(space, 0))
        j2 = line(space, unit_vector(space, 2))
        j0 = j0_construct(space, j1, j2)
        expected = line(space, (0, 1, 0, 1))  # f1 + f2
        assert j0 == expected

    def test_hermitian_rank_one(self):
        space = standard_hermitian_hyperbolic(2, 2)
        j1 = line(space, unit_vector(space, 0))
        j2 = line(space, unit_vector(space, 2))
        j0 = j0_construct(space, j1, j2)
        assert j0.is_isotropic()
        assert pairing_matrix(space, j0, j1).det() != 0
        assert pairing_matrix(space, j0, j2).det() != 0

    def test_zero_inputs(self):
        space = standard_symplectic(2)
        z = zero_subspace(space)
        assert j0_construct(space, z, z).dim == 0

    def test_rank_two(self):
        space = standard_symplectic(4)
        j1 = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        j2 = canonical_subspace(
            space, Matrix([unit_vector(space, 4), unit_vector(space, 6)])
        )
        j0 = j0_construct(space, j1, j2)
        assert j0.dim == 2 and j0.is_isotropic()
        assert pairing_matrix(space, j0, j1).det() != 0
        assert pairing_matrix(space, j0, j2).det() != 0

    def test_precondition_pairing_zero(self):
        space = standard_symplectic(2)
        j1 = line(space, unit_vector(space, 0))
        j2 = line(space, unit_vector(space, 1))
        with pytest.raises(PreconditionFailed):
            j0_construct(space, j1, j2)


class TestSplitOffKernels:
    def test_perfect_pairing(self):
        space = standard_symplectic(2)
        i1 = line(space, unit_vector(space, 0))
        i2 = line(space, unit_vector(space, 1))
        j1, k1, j2, k2 = split_off_kernels(space, i1, i2)
        assert (j1.dim, k1.dim, j2.dim, k2.dim) == (0, 1, 0, 1)
        assert k1 == i1 and k2 == i2

    def test_zero_pairing(self):
        space = standard_symplectic(2)
        i1 = line(space, unit_vector(space, 0))
        i2 = line(space, unit_vector(space, 2))
        j1, k1, j2, k2 = split_off_kernels(space, i1, i2)
        assert j1 == i1 and j2 == i2
        assert k1.dim == 0 and k2.dim == 0

    def test_mixed(self):
        space = standard_symplectic(4)
        i1 = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )  # e1, e2
        i2 = canonical_subspace(
            space, Matrix([unit_vector(space, 4), unit_vector(space, 1)])
        )  # e3, f1
        j1, k1, j2, k2 = split_off_kernels(space, i1, i2)
        assert j1 == line(space, unit_vector(space, 2))  # e2
        assert k1 == line(space, unit_vector(space, 0))  # e1
        assert j2 == line(space, unit_vector(space, 4))  # e3
        assert k2 == line(space, unit_vector(space, 1))  # f1
        assert is_perfect_pairing(space, k1, k2)

    def test_rejects_intersecting(self):
        space = standard_symplectic(2)
        i1 = line(space, unit_vector(space, 0))
        with pytest.raises(SubspacesIntersect):
            split_off_kernels(space, i1, i1)


# -- dual rows: the two Gram identities, and rows pinned from tuple arithmetic --


def entrywise_pairings(space, xs, ys):
    """(x, y) for every pair of rows, summed entry by entry outside the kernels."""
    g = space.gram.rows
    return [
        [
            sum(
                (
                    a * g[p][q] * conjugate_scalar(b)
                    for p, a in enumerate(x)
                    for q, b in enumerate(y)
                ),
                field_zero(space),
            )
            for y in ys.rows
        ]
        for x in xs.rows
    ]


@st.composite
def isotropic_bases(draw):
    """(space, rows): isotropic rows in a random basis of a standard space.

    Symplectic of genus <= 3, hermitian hyperbolic over Q(sqrt(-d)) for
    d in {1, 2, 3, 7}, or 2U perp a diagonal with one isotropic line.  In
    each standard space the rows e_1, ..., e_k (even indices) are
    isotropic; with x' = x P^-1 the space carries the Gram P G P^H, and the
    rows are mixed by an invertible k x k matrix.
    """
    family = draw(st.sampled_from(["symplectic", "hermitian", "orthogonal"]))
    d = None
    if family == "symplectic":
        space = standard_symplectic(draw(st.integers(min_value=1, max_value=3)))
        rank = draw(st.integers(min_value=1, max_value=space.dim // 2))
    elif family == "hermitian":
        d = draw(st.sampled_from([1, 2, 3, 7]))
        copies = draw(st.integers(min_value=1, max_value=2))
        space = standard_hermitian_hyperbolic(d, copies)
        rank = draw(st.integers(min_value=1, max_value=space.dim // 2))
    else:
        diagonal = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2]), max_size=2))
        space = quadratic_2u_perp_diagonal(diagonal)
        rank = 1
    n = space.dim
    small = st.integers(min_value=-2, max_value=2)

    def entry():
        if d is None:
            return draw(small)
        return QuadFieldElement(draw(small), draw(small), d)

    p = Matrix([[entry() for _ in range(n)] for _ in range(n)])
    assume(p.det() != 0)
    mix = Matrix([[draw(small) for _ in range(rank)] for _ in range(rank)])
    assume(mix.det() != 0)
    moved = FormSpace(space.kind, (p * space.gram).mul_adjoint(p), d)
    standard = Matrix([unit_vector(space, 2 * i) for i in range(rank)])
    return moved, mix * standard * p.inverse()


class TestDualIsotropicBasis:
    @settings(max_examples=60, deadline=None)
    @given(isotropic_bases())
    def test_gram_identities(self, case):
        space, rows = case
        duals = dual_isotropic_basis(space, rows)
        k = rows.nrows
        assert duals.shape == (k, space.dim)
        assert entrywise_pairings(space, duals, duals) == [[0] * k] * k
        assert entrywise_pairings(space, rows, duals) == [
            [int(i == j) for j in range(k)] for i in range(k)
        ]

    def test_zero_rows(self):
        space = standard_symplectic(2)
        assert dual_isotropic_basis(space, Matrix([], ncols=4)).shape == (0, 4)


def q(d, a, b=0):
    return QuadFieldElement(Fraction(a), Fraction(b), d)


R2 = QuadFieldElement(0, 1, 2)
PIN_SYMMETRIC = FormSpace(
    "symmetric", Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -3]])
)
PIN_HERMITIAN = FormSpace(
    "hermitian",
    Matrix([[0, 1 + R2, 0, 0], [1 - R2, 0, 0, 0], [0, 0, 1, R2], [0, 0, -R2, -3]]),
    2,
)


class TestPinnedRows:
    """Exact rows recorded from the constructions' earlier tuple arithmetic.

    The matrix-row constructions solve the same systems, so they must give
    these rows entry for entry (the dual vector is not canonicalized).
    """

    def test_hyperbolic_complete(self):
        assert hyperbolic_complete(PIN_SYMMETRIC, (1, 1, 1, 0)) == tuple(
            map(Fraction, (1, 0, 0, 0))
        )
        v = (1 + R2,) * 4
        assert hyperbolic_complete(PIN_HERMITIAN, v) == (
            q(2, Fraction(1, 3)), q(2, 0), q(2, 0), q(2, 0)
        )

    def test_third_isotropic_lines(self):
        l3, l4 = third_isotropic_lines(PIN_SYMMETRIC, line(PIN_SYMMETRIC, (1, 1, 1, 0)))
        f = Fraction
        assert l3.basis.rows == ((f(1), f(2, 7), f(4, 7), f(2, 7)),)
        assert l4.basis.rows == ((f(1), f(2, 3), f(0), f(-2, 3)),)

    def test_j0_without_kernels(self):
        space = standard_hermitian_hyperbolic(3, 2)
        j1 = line(space, (1, 0, 1, 0))
        j2 = line(space, (0, 1, 0, -1))
        j0 = j0_construct(space, j1, j2)
        assert j0.basis.rows == ((q(3, 0), q(3, 1), q(3, -1), q(3, 0)),)

    def test_j0_with_kernels(self):
        # the unitary builder's route when the pairing has kernels J1, J2
        # beside perfectly paired complements K1, K2
        space = standard_hermitian_hyperbolic(2, 3)
        a = canonical_subspace(space, Matrix([(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0)]))
        b = canonical_subspace(
            space, Matrix([(1, 0, 0, 1, 0, -1), (0, 1, -1, -R2, 0, R2)])
        )
        j1, k1, j2, k2 = split_off_kernels(space, a, b)
        assert (j1.dim, k1.dim) == (1, 1)
        comp = orthogonal_complement(space, subspace_sum(k1, k2)).basis
        sub = restricted_space(space, comp)
        j0_local = j0_construct(sub, *_to_local(sub, comp, j1, j2))
        third = q(2, Fraction(1, 3), Fraction(1, 3))
        assert j0_local.basis.rows == ((q(2, 1), q(2, 0), third, q(2, 0)),)
        j0 = canonical_subspace(space, j0_local.basis * comp)
        assert j0.basis.rows == (
            (q(2, 1), q(2, 0), q(2, 0), third, -third, q(2, 0)),
        )


# -- the integer search against a Fraction search through space.pair ---------


def cube_shell(width, h):
    """The tuples of max-norm h, found by walking the whole (2h+1)^width cube."""
    values = range(h, -h - 1, -1)
    return [
        raw for raw in itertools.product(values, repeat=width) if max(map(abs, raw)) == h
    ]


def reference_search(space, predicate, max_height):
    """Every primitive candidate as exact scalars, tested through the form."""
    hermitian = space.kind == "hermitian"
    width = 2 * space.dim if hermitian else space.dim
    for h in range(1, max_height + 1):
        for raw in cube_shell(width, h):
            if reduce(gcd, (abs(int(x)) for x in raw), 0) != 1:
                continue
            if hermitian:
                v = tuple(
                    QuadFieldElement(raw[2 * i], raw[2 * i + 1], space.d)
                    for i in range(space.dim)
                )
            else:
                v = tuple(Fraction(x) for x in raw)
            if predicate(v):
                return v
    return None


def reference_find(space, max_height):
    """find_isotropic_vector as it was, with the same short-circuits."""
    sig = signature_of(space)
    if sig.plus == 0 or sig.minus == 0:
        return None
    return reference_search(space, lambda v: space.pair(v, v) == 0, max_height)


def searched(space, accept, max_height):
    try:
        return _search_vector(space, accept, max_height, "vector")
    except SearchExhausted:
        return None


def same_vector(ours, ref):
    if ref is None:
        return ours is None
    return (
        ours == ref
        and [type(x) for x in ours] == [type(x) for x in ref]
        and all(
            (x.d, type(x.a), type(x.b)) == (y.d, type(y.a), type(y.b))
            for x, y in zip(ours, ref)
            if isinstance(y, QuadFieldElement)
        )
    )


small_entries = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1, 1, 2, 3, 6]),
)


@st.composite
def symmetric_spaces(draw):
    """Non-diagonal symmetric Grams with mixed denominators.

    Half are a random unimodular change of basis of an indefinite diagonal
    form with a hyperbolic pair, so that isotropic vectors of small height
    occur; the rest are random and mostly anisotropic.
    """
    n = draw(st.integers(min_value=2, max_value=3))
    if draw(st.booleans()):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(small_entries)
    else:
        diag = [1, -1] + [draw(small_entries) for _ in range(n - 2)]
        assume(all(diag))
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(min_value=-2, max_value=2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        rows = [
            [sum(m[i][k] * diag[k] * m[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
        rows = [[scale * x for x in r] for r in rows]
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return FormSpace("symmetric", gram)


@st.composite
def hermitian_spaces(draw, max_dim=2):
    d = draw(st.sampled_from([1, 2, 3, 7]))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [[QuadFieldElement(0, 0, d)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = QuadFieldElement(draw(small_entries), 0, d)
        for j in range(i + 1, n):
            x = QuadFieldElement(draw(small_entries), draw(small_entries), d)
            rows[i][j], rows[j][i] = x, x.conjugate()
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return FormSpace("hermitian", gram, d=d)


caps = st.integers(min_value=1, max_value=3)


class TestIntegerSearchAgainstFractionSearch:
    @settings(max_examples=60, deadline=None)
    @given(symmetric_spaces(), caps)
    def test_symmetric_isotropic(self, space, cap):
        ours = find_isotropic_vector(space, cap)
        assert same_vector(ours, reference_find(space, cap))
        ours = searched(space, lambda n: n == 0, cap)
        assert same_vector(ours, reference_search(space, lambda v: space.pair(v, v) == 0, cap))

    @settings(max_examples=60, deadline=None)
    @given(symmetric_spaces(), caps)
    def test_symmetric_positive(self, space, cap):
        ours = searched(space, lambda n: n > 0, cap)
        ref = reference_search(space, lambda x: space.norm(x) > 0, cap)
        assert same_vector(ours, ref)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), caps)
    def test_hermitian_isotropic(self, data, cap):
        # width 2n: keep the cube small at cap 3
        space = data.draw(hermitian_spaces(max_dim=2 if cap < 3 else 1))
        ours = find_isotropic_vector(space, cap)
        assert same_vector(ours, reference_find(space, cap))
        ours = searched(space, lambda n: n == 0, cap)
        assert same_vector(ours, reference_search(space, lambda v: space.pair(v, v) == 0, cap))

    @settings(max_examples=40, deadline=None)
    @given(hermitian_spaces(), caps)
    def test_hermitian_positive(self, space, cap):
        ours = searched(space, lambda n: n > 0, cap)
        ref = reference_search(space, lambda x: space.norm(x) > 0, cap)
        assert same_vector(ours, ref)

    def test_hermitian_hyperbolic_finds_the_old_vector(self):
        for d in (1, 2, 3, 7):
            space = standard_hermitian_hyperbolic(d)
            assert same_vector(
                find_isotropic_vector(space), reference_find(space, 50)
            )


class TestIntegerForm:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(symmetric_spaces(), hermitian_spaces(max_dim=3)),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6),
    )
    def test_equals_den_times_norm(self, space, coords):
        form, den = integer_form(space)
        width = len(form)
        x = coords[:width]
        assert den > 0
        assert width == (2 if space.kind == "hermitian" else 1) * space.dim
        assert all(form[i][j] == form[j][i] for i in range(width) for j in range(width))
        if space.kind == "hermitian":
            v = [QuadFieldElement(x[2 * i], x[2 * i + 1], space.d) for i in range(space.dim)]
        else:
            v = x
        value = sum(x[i] * form[i][j] * x[j] for i in range(width) for j in range(width))
        assert value == den * space.norm(v)

    def test_hermitian_cross_terms(self):
        # g = diag(3, -3), h_01 = 1, h_10 = -1 over den = 3: 2d*h_ij sits at
        # (a_i, b_j) and (b_j, a_i), split evenly
        d = 2
        s = QuadFieldElement(0, 1, d)
        space = FormSpace(
            "hermitian",
            Matrix([[QuadFieldElement(1, 0, d), s / 3], [-s / 3, QuadFieldElement(-1, 0, d)]]),
            d=d,
        )
        form, den = integer_form(space)
        assert den == 3
        assert form[0][3] == form[3][0] == d * 1
        assert form[1][2] == form[2][1] == d * -1


def test_shell_tuples_is_the_cube_shell_in_order():
    for width in range(1, 7):
        for h in range(1, 5):
            assert list(shell_tuples(width, h)) == cube_shell(width, h), (width, h)


def cube_candidates(form, max_height):
    """(raw, raw S raw^T) for every primitive tuple of the cube walk."""
    width = len(form)
    for h in range(1, max_height + 1):
        for raw in cube_shell(width, h):
            if reduce(gcd, raw, 0) == 1:
                n = sum(raw[i] * form[i][j] * raw[j] for i in range(width) for j in range(width))
                yield raw, n


nonzero = st.integers(min_value=-4, max_value=4).filter(bool)


@st.composite
def last_column_forms(draw):
    """Integer forms S with nonzero entries in the last row and column.

    Symmetric forms of dimension 1-5 are drawn directly, with no zero in the
    last column.  A hermitian Gram of dimension 1-2 with no zero entry and
    nonzero imaginary parts enters through integer_form; at dimension 2 the
    last column of S is d * (h_01, g_01, 0, g_11).
    """
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=5))
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries = nonzero if j == n - 1 else st.integers(min_value=-4, max_value=4)
                s[i][j] = s[j][i] = draw(entries)
        return s
    d = draw(st.sampled_from([1, 2, 3, 7]))
    n = draw(st.integers(min_value=1, max_value=2))
    diagonal = [QuadFieldElement(draw(nonzero), 0, d) for _ in range(n)]
    if n == 1:
        rows = [diagonal]
    else:
        x = QuadFieldElement(draw(nonzero), draw(nonzero), d)
        rows = [[diagonal[0], x], [x.conjugate(), diagonal[1]]]
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return integer_form(FormSpace("hermitian", gram, d=d))[0]


class TestCandidateVectors:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_norms_match_the_cube_walk(self, data):
        # the benchmark's forms are diagonal: only this exercises the x * lin term
        form = data.draw(last_column_forms())
        cap = data.draw(st.integers(min_value=1, max_value=3 if len(form) <= 3 else 2))
        assert list(_candidate_vectors(form, cap)) == list(cube_candidates(form, cap))


@st.composite
def zero_target_forms(draw):
    """Integer forms for the zeros mode, with each kind of prefix equation.

    last_column_forms never has a zero corner, so each prefix there is a
    quadratic in x.  A zero corner makes it linear, and a hyperbolic pair
    placed last, as in U and U + <a>, makes it vanish for every x off the
    zero prefix.  Hermitian Grams, zero diagonal entries included, enter
    through integer_form.
    """
    kind = draw(st.sampled_from(["quadratic", "linear", "hyperbolic", "hermitian"]))
    if kind == "quadratic":
        return draw(last_column_forms())
    if kind == "hermitian":
        return integer_form(draw(hermitian_spaces(max_dim=2)))[0]
    entries = st.integers(min_value=-4, max_value=4)
    if kind == "linear":
        n = draw(st.integers(min_value=1, max_value=4))
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = 0 if i == j == n - 1 else draw(entries)
        return s
    head = draw(st.lists(entries, max_size=2))
    n = len(head) + 2
    s = [[0] * n for _ in range(n)]
    for i, a in enumerate(head):
        s[i][i] = a
    s[n - 2][n - 1] = s[n - 1][n - 2] = draw(nonzero)
    return s


def cube_zeros(form, max_height):
    return [c for c in cube_candidates(form, max_height) if c[1] == 0]


class TestZeroCandidates:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_zeros_match_the_cube_walk(self, data):
        form = data.draw(zero_target_forms())
        cap = data.draw(st.integers(min_value=1, max_value=3 if len(form) <= 3 else 2))
        assert list(_candidate_vectors(form, cap, zeros=True)) == cube_zeros(form, cap)

    @pytest.mark.parametrize("form", [
        [[0, 1], [1, 0]],
        [[3, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        integer_form(standard_hermitian_hyperbolic(2))[0],
    ], ids=["U", "<3> + U", "last row zero", "hermitian zero corner"])
    def test_prefixes_that_vanish_or_are_linear(self, form):
        # U's prefix (0,) and every prefix (t, +-t) of the degenerate form
        # vanish for every x; the hermitian hyperbolic form has a zero corner
        zeros = cube_zeros(form, 3)
        assert zeros
        assert list(_candidate_vectors(form, 3, zeros=True)) == zeros


def primitive_tuples(width, max_height):
    return [
        raw
        for h in range(1, max_height + 1)
        for raw in cube_shell(width, h)
        if reduce(gcd, raw, 0) == 1
    ]


def test_primitive_count_is_the_brute_force_count():
    for width in range(1, 7):
        for h in range(1, 5):
            assert _primitive_count(width, h) == len(primitive_tuples(width, h)), (width, h)


class TestExhaustionCount:
    # a^2 + b^2 = 3 (c^2 + e^2) only at 0: diag(1, -3) is anisotropic over Q(i)
    @pytest.mark.parametrize("space", [
        diag_space([1, -3]),
        FormSpace("hermitian", Matrix([[QuadFieldElement(1, 0, 1), 0], [0, -3]]), d=1),
    ], ids=["symmetric", "hermitian"])
    def test_both_modes_name_every_primitive_tuple(self, space):
        form, _ = integer_form(space)
        tried = len(primitive_tuples(len(form), 3))
        assert tried == len(list(_candidate_vectors(form, 3)))
        texts = []
        for accept in (None, lambda n: n == 0):
            with pytest.raises(SearchExhausted) as info:
                _search_vector(space, accept, 3, "isotropic vector")
            texts.append(str(info.value))
        assert texts == 2 * [
            f"no isotropic vector of height <= 3 ({tried} candidates tried, "
            "last shell reached 3)"
        ]
        assert find_isotropic_vector(space, 3) is None

    def test_width_one_reaches_only_shell_one(self):
        # (1,) and (-1,) are the only primitive tuples of width 1
        with pytest.raises(SearchExhausted) as info:
            _search_vector(diag_space([-1]), lambda n: n > 0, 3, "positive vector")
        assert str(info.value) == (
            "no positive vector of height <= 3 (2 candidates tried, last shell reached 1)"
        )


class TestSearchEffort:
    def test_exhausted_search_names_its_effort(self):
        space = diag_space([1, -3])
        with pytest.raises(SearchExhausted) as info:
            _search_vector(space, lambda n: n == 0, 3, "isotropic vector")
        tried = sum(
            1 for h in (1, 2, 3) for raw in cube_shell(2, h) if gcd(*raw) == 1
        )
        assert str(info.value) == (
            f"no isotropic vector of height <= 3 ({tried} candidates tried, "
            "last shell reached 3)"
        )


# -- the exact isotropy decision of binary and ternary forms -------------------


def has_zero_up_to(space, height):
    """Whether a nonzero integer tuple of max-norm <= height is a zero, by the cube."""
    form, _ = integer_form(space)
    n = len(form)
    values = range(-height, height + 1)
    return any(
        any(v) and sum(form[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) == 0
        for v in itertools.product(values, repeat=n)
    )


def decided_none(space):
    """Whether the decision answers "no zero" for an indefinite space."""
    sig = signature_of(space)
    assume(sig.plus and sig.minus)
    return _has_no_zero(space._pivots)


@st.composite
def small_symmetric_spaces(draw):
    """Non-diagonal binary and ternary Grams, entries p/q with |p| <= 5, both signs."""
    n = draw(st.integers(min_value=2, max_value=3))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(
                draw(st.integers(min_value=-5, max_value=5)), draw(st.sampled_from([1, 2, 3]))
            )
    assume(any(rows[i][j] for i in range(n) for j in range(i)))
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return FormSpace("symmetric", gram)


@pytest.fixture
def search_calls(monkeypatch):
    """The spaces find_isotropic_vector hands to the search, in order."""
    from cuspchain import isotropic

    calls, search = [], isotropic._search_vector
    counted = lambda space, *args: calls.append(space) or search(space, *args)
    monkeypatch.setattr(isotropic, "_search_vector", counted)
    return calls


# A prime past the trial bound: 2**61 - 1 is a Mersenne prime, 3 mod 4, and
# 65537 * 65539 a product of two primes past it.
MERSENNE_61 = 2**61 - 1


class TestIsotropyDecision:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(symmetric_spaces(), small_symmetric_spaces()))
    def test_no_zero_is_confirmed_by_brute_force(self, space):
        if decided_none(space):
            assert not has_zero_up_to(space, 12)
            assert find_isotropic_vector(space, 3) is None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_symmetric_spaces())
    def test_undecided_small_forms_have_a_zero(self, space):
        if not decided_none(space):
            assert has_zero_up_to(space, 12)

    @pytest.mark.parametrize("diag", [
        [1, 1, -7],  # seen at 7 (and, by reciprocity, at 2)
        [1, 1, -3],  # seen at 3 (and at 2)
        [1, 1, -21],  # seen at 3 and 7, not at 2
        [-5, 3, 3],  # negative pivots -5, -15, -45
        [1, 1, -4294967291],  # the largest prime below 2**32, still decided
        [1, 1, -3 * MERSENNE_61],  # seen at 3, whatever the prime past the bound
        [1, -3],
        [2, -3],
    ])
    def test_anisotropic_forms_skip_the_search(self, diag, search_calls):
        assert find_isotropic_vector(diag_space(diag)) is None
        assert search_calls == []

    @pytest.mark.parametrize("diag, found", [
        ([2, 3, -5], (1, 1, 1)),
        ([1, 1, -2], (1, 1, 1)),
        ([1, -1], (1, 1)),
        ([1, -4], None),  # has a zero, (2, 1), only past height 1
        ([3, 5, -2], None),  # has a zero, (1, 1, 2), only past height 1
    ])
    def test_isotropic_forms_still_search(self, diag, found, search_calls):
        space = diag_space(diag)
        assert find_isotropic_vector(space, 1) == found
        assert search_calls == [space]

    @pytest.mark.parametrize("q", [MERSENNE_61, 65537 * 65539])
    def test_factor_past_the_bound_falls_back_to_the_search(self, q, search_calls):
        space = diag_space([1, 1, -q])
        assert find_isotropic_vector(space, 3) is None
        assert search_calls == [space]
        assert reference_find(space, 3) is None

    def test_hilbert_symbols_at_odd_primes(self):
        # (a, b)_p by Serre's formula: Legendre symbols and (-1)^((p-1)/2)
        cases = {(-1, 3, 3): -1, (-1, 5, 5): 1, (2, 3, 3): -1, (2, 7, 7): 1,
                 (3, 3, 3): -1, (5, 5, 5): 1, (7, 7, 7): -1, (21, 21, 7): -1,
                 (9, 3, 3): 1, (3, 10, 5): -1, (4, 3, 3): 1}
        for (a, b, p), symbol in cases.items():
            assert _hilbert_symbol(a, b, p) == symbol, (a, b, p)


# A symplectic chain between e1 and e2 runs split_off_kernels; with
# is_perfect_pairing forced to False its last postcondition fails.
BROKEN_POSTCONDITION = """
import sys
from cuspchain import isotropic, serialize
from cuspchain.cli import main
from cuspchain.forms import line, standard_symplectic, unit_vector

space = standard_symplectic(2)
docs = {
    "space": serialize.form_space_to_json(space),
    "i1": serialize.subspace_to_json(line(space, unit_vector(space, 0))),
    "i2": serialize.subspace_to_json(line(space, unit_vector(space, 2))),
}
argv = ["chain"]
for name, doc in docs.items():
    path = f"{sys.argv[1]}/{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.dumps_canonical(doc))
    argv += [f"--{name}", path]
isotropic.is_perfect_pairing = lambda *args: False
sys.stdout.write(f"optimize={sys.flags.optimize}\\n")
sys.exit(main(argv))
"""


def test_postcondition_survives_python_O(tmp_path):
    proc = run_optimized(BROKEN_POSTCONDITION, str(tmp_path))
    assert proc.stdout == "optimize=1\n"
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {
        "error": "PostconditionFailed",
        "detail": "complements K1 and K2 do not pair perfectly",
    }
