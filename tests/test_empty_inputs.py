"""The zero subspace and the 0x0 matrix on the general paths.

Form operations, the matrix kernels, the J0 construction and the
symplectic/unitary recursion take the zero subspace and 0x0 matrices
through the same code as any other input.  Each test states the value for
that input on a symplectic, an orthogonal (2U + <-2>) and a hermitian
(D = 3) space.  A JSON row that mixes field elements with rationals is read
entry by entry, and gives the entry-wise reading's value or error.
"""

from fractions import Fraction

import pytest

from cuspchain import serialize
from cuspchain.chains import ProductSplit, _build_su_chain, build_chain_unitary
from cuspchain.errors import InputFormatError, MixedDiscriminants, PreconditionFailed
from cuspchain.exact import Matrix
from cuspchain.forms import (
    FormSpace,
    canonical_subspace,
    is_perfect_pairing,
    line,
    orthogonal_complement,
    pairing_matrix,
    quadratic_2u_perp_diagonal,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    subquotient,
    subspace_contains,
    subspace_intersection,
    unit_vector,
    zero_subspace,
)
from cuspchain.isotropic import find_isotropic_vector, j0_construct

SPACES = {
    "symplectic": standard_symplectic(2),
    "orthogonal": quadratic_2u_perp_diagonal([-2]),
    "hermitian": standard_hermitian_hyperbolic(3, 2),
}


@pytest.fixture(params=sorted(SPACES))
def space(request):
    return SPACES[request.param]


def first_line(space):
    return line(space, unit_vector(space, 0))


def test_zero_dimensional_form_space(space):
    empty = FormSpace(space.kind, Matrix([], ncols=0), space.d)
    assert empty.dim == 0
    assert empty.gram.shape == (0, 0)
    assert find_isotropic_vector(empty) is None


def test_intersection_with_the_zero_subspace(space):
    zero, s = zero_subspace(space), first_line(space)
    for a, b in ((zero, s), (s, zero), (zero, zero)):
        meet = subspace_intersection(a, b)
        assert meet == zero
        assert meet.basis.shape == (0, space.dim)


def test_containment_of_the_zero_subspace(space):
    zero, s = zero_subspace(space), first_line(space)
    assert subspace_contains(s, zero)
    assert subspace_contains(zero, zero)
    assert not subspace_contains(zero, s)


def test_complement_of_the_zero_subspace(space):
    perp = orthogonal_complement(space, zero_subspace(space))
    assert perp == canonical_subspace(space, Matrix.identity(space.dim))
    assert perp.basis == space.coerce_matrix(Matrix.identity(space.dim))
    # plain rows, none at all included
    assert canonical_subspace(space, Matrix.identity(space.dim).rows) == perp
    assert canonical_subspace(space, []) == zero_subspace(space)


def test_pairing_of_zero_subspaces(space):
    zero, s = zero_subspace(space), first_line(space)
    assert pairing_matrix(space, zero, zero).shape == (0, 0)
    assert is_perfect_pairing(space, zero, zero)
    assert not is_perfect_pairing(space, zero, s)
    assert not is_perfect_pairing(space, s, zero)


def test_subquotient_by_the_zero_subspace(space):
    data = subquotient(space, zero_subspace(space))
    identity = space.coerce_matrix(Matrix.identity(space.dim))
    assert data.quotient == space
    assert data.lift == identity
    assert data.project == identity


def test_zero_by_zero_matrix_kernels():
    empty = Matrix([], ncols=0)
    det = empty.det()
    assert det == 1 and type(det) is Fraction
    assert empty.inverse().shape == (0, 0)
    assert empty.solve(()) == ()


def test_solve_without_equations(space):
    # the 0 x 1 pairing of the zero subspace with a line: one free variable
    system = pairing_matrix(space, zero_subspace(space), first_line(space))
    assert system.shape == (0, 1)
    assert system.solve(()) == (Fraction(0),)
    assert Matrix([], ncols=space.dim).solve([]) == (Fraction(0),) * space.dim
    assert all(type(x) is Fraction for x in system.solve(()))


def test_j0_of_zero_subspaces(space):
    zero = zero_subspace(space)
    if space.kind == "symmetric":
        with pytest.raises(PreconditionFailed):
            j0_construct(space, zero, zero)
        return
    j0 = j0_construct(space, zero, zero)
    assert j0 == zero
    assert j0.basis.shape == (0, space.dim)


@pytest.mark.parametrize("kind", ["symplectic", "unitary"])
def test_recursion_on_equal_cusps(kind):
    space = SPACES["symplectic" if kind == "symplectic" else "hermitian"]
    s = first_line(space)
    assert _build_su_chain(space, kind, s, s) == ([s], [])


def test_unitary_lines_through_one_j0():
    # e1 and e2 pair to zero, so K1 and K2 are empty and both J0 midpoints
    # are J0 itself: one node between the endpoints
    space = SPACES["hermitian"]
    e1, e2 = line(space, unit_vector(space, 0)), line(space, unit_vector(space, 2))
    cert = build_chain_unitary(space, e1, e2)
    assert cert.nodes == (e1, j0_construct(space, e1, e2), e2)
    assert [type(link) for link in cert.links] == [ProductSplit, ProductSplit]


def entrywise(rows):
    """The entry-by-entry reading of a JSON matrix."""
    return Matrix([[serialize.scalar_from_json(x) for x in r] for r in rows])


@pytest.mark.parametrize(
    "rows",
    [
        [[{"a": "1/2", "b": "3", "D": 7}, "2/3"]],
        [["1", {"a": "0", "b": "-1/4", "D": 3}], [{"a": "5", "b": "0", "D": 3}, 2]],
    ],
)
def test_rows_mixing_field_elements_with_rationals(rows):
    got, expected = serialize.matrix_from_json(rows), entrywise(rows)
    assert got == expected
    assert got._ints == expected._ints


@pytest.mark.parametrize(
    "rows",
    [
        [[{"a": "1/2", "b": "3", "D": 7}, "2/3", {"a": "1", "b": "1", "D": 3}]],
        [[{"a": "1", "b": "1", "D": 3}, "1"], [{"a": "1", "b": "1", "D": 7}, "1"]],
    ],
)
def test_mixed_rows_over_two_fields(rows):
    with pytest.raises(MixedDiscriminants) as expected:
        entrywise(rows)
    with pytest.raises(InputFormatError) as got:
        serialize.matrix_from_json(rows)
    assert str(got.value) == str(expected.value)
