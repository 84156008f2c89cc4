"""Isotropic search and the constructive subspace machinery."""

from fractions import Fraction

import pytest

from cuspchain.errors import (
    PreconditionFailed,
    SignatureMismatch,
    SubspacesIntersect,
    VectorNotIsotropic,
)
from cuspchain.exact import Matrix, QuadFieldElement, rref_basis
from cuspchain.forms import (
    FormSpace,
    canonical_subspace,
    hyperbolic_plane,
    is_perfect_pairing,
    line,
    pairing_matrix,
    quadratic_2u_perp_diagonal,
    standard_2u,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    unit_vector,
    zero_subspace,
)
from cuspchain.isotropic import (
    SearchConfig,
    find_isotropic_vector,
    hyperbolic_complete,
    isotropic_dual_complement,
    j0_construct,
    split_off_kernels,
    third_isotropic_lines,
)


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
        assert find_isotropic_vector(space, SearchConfig(max_height=10)) is None

    def test_definite_short_circuits(self):
        assert find_isotropic_vector(diag_space([1, 1, 1])) is None
        assert find_isotropic_vector(diag_space([-2, -3])) is None

    def test_alternating_returns_first_basis_vector(self):
        space = standard_symplectic(2)
        assert find_isotropic_vector(space) == unit_vector(space, 0)

    def test_monotone_in_cap(self):
        space = quadratic_2u_perp_diagonal([-2])
        found = [
            find_isotropic_vector(space, SearchConfig(max_height=cap)) for cap in (1, 3, 50)
        ]
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
        v = find_isotropic_vector(space, SearchConfig(max_height=2))
        assert v == (1, 0)


class TestHyperbolicComplete:
    def test_u_basis(self):
        space = hyperbolic_plane()
        w = hyperbolic_complete(space, (1, 0))
        assert w == (0, 1)

    def test_sum_of_isotropics(self):
        space = standard_2u()
        v = space.coerce_vector((1, 0, 1, 0))  # e1 + e2
        w = hyperbolic_complete(space, v)
        assert space.pair(v, w) == 1
        assert space.pair(w, w) == 0

    def test_symplectic(self):
        space = standard_symplectic(1)
        w = hyperbolic_complete(space, (1, 0))
        assert space.pair((1, 0), w) == 1

    def test_hermitian(self):
        space = standard_hermitian_hyperbolic(7, 2)
        v = space.coerce_vector((1, 0, 1, 0))
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
