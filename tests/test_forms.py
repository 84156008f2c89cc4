"""Form spaces: signatures, complements, pairings, subquotients."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspchain import exact, forms
from cuspchain.errors import (
    AlternatingHasNoSignature,
    DimensionMismatch,
    NotIsotropic,
    NotNested,
)
from cuspchain.exact import (
    Matrix,
    QuadFieldElement,
    as_fraction,
    rref_basis,
)
from cuspchain.forms import (
    FormSpace,
    Signature,
    Subspace,
    canonical_subspace,
    _congruent_pivots,
    coordinate_map,
    extend_basis_rows,
    hyperbolic_plane,
    integer_form,
    is_perfect_pairing,
    line,
    orthogonal_complement,
    pairing_kernels,
    pairing_matrix,
    preserves_form,
    push_subspace,
    quadratic_2u_perp_diagonal,
    signature_of,
    standard_2u,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    subquotient,
    subspace_contains,
    subspace_intersection,
    subspace_sum,
    unit_vector,
    zero_subspace,
)

from support import conjugate_scalar, field_zero
from test_exact import ref_mul, ref_right_kernel, ref_rref


def test_form_space_validation():
    with pytest.raises(ValueError):
        FormSpace("symmetric", Matrix([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        FormSpace("alternating", Matrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        FormSpace("symmetric", Matrix([[1, 1], [1, 1]]))  # degenerate
    with pytest.raises(ValueError):
        FormSpace("hermitian", Matrix([[1]]))  # missing d


SQUAREFREE_COMPOSITES = (6, 10, 15, 30)


@pytest.mark.parametrize(
    "d", [4, 0, -3, 2**32 + 15, 10**14 + 31, 3.0, 12, 18, 50, *SQUAREFREE_COMPOSITES]
)
def test_field_parameter_is_checked_for_any_gram(d):
    # the empty Gram matrix has no determinant entry to check d by; the
    # composites reach the division step of the squarefree test
    for gram in (Matrix([], ncols=0), Matrix([[1, 0], [0, -1]])):
        if d in SQUAREFREE_COMPOSITES:
            assert FormSpace("hermitian", gram, d).d == d
            continue
        with pytest.raises(ValueError, match="squarefree"):
            FormSpace("hermitian", gram, d)


def test_coerce_matrix_refuses_other_fields():
    q = lambda d: QuadFieldElement(1, 1, d)
    herm = standard_hermitian_hyperbolic(3)
    with pytest.raises(ValueError, match="entry over d=7 in a space over d=3"):
        herm.coerce_matrix(Matrix([[q(7), 1]]))
    with pytest.raises(ValueError, match="imaginary entry in a rational form space"):
        hyperbolic_plane().coerce_matrix(Matrix([[q(7), 1]]))
    rational = Matrix([[1, Fraction(1, 2)]])
    assert herm.coerce_matrix(rational) == rational
    assert all(x.d == 3 for x in herm.coerce_matrix(rational).entries())
    assert hyperbolic_plane().coerce_matrix(rational) is rational


@pytest.mark.parametrize("x", [0.5, "1/3", True])
def test_vectors_refuse_inexact_entries(x):
    space = quadratic_2u_perp_diagonal([])
    with pytest.raises(TypeError, match="not exact scalars"):
        space.coerce_row([x, 0, 0, 0]).rows[0]
    with pytest.raises(TypeError, match="not exact scalars"):
        line(space, [x, 0, 0, 0])


def test_coerce_row_names_the_first_entry_off_the_field():
    q = lambda d: QuadFieldElement(1, 1, d)
    herm = standard_hermitian_hyperbolic(3, 2)
    for v, d in (([q(7), q(5), 0, 0], 7), ([q(3), 1, q(5), q(7)], 5)):
        with pytest.raises(ValueError, match=f"^entry over d={d} in a space over d=3$"):
            herm.coerce_row(v).rows[0]
    with pytest.raises(ValueError, match="^imaginary entry in a rational form space$"):
        quadratic_2u_perp_diagonal([]).coerce_row([0, q(5), q(7), 0]).rows[0]
    # an entry off the field is named before a wrong length
    with pytest.raises(ValueError, match="^entry over d=7"):
        herm.coerce_row([q(7)]).rows[0]
    with pytest.raises(DimensionMismatch, match="^vector of length 1 in a space of dimension 4$"):
        herm.coerce_row([q(3)]).rows[0]
    assert herm.coerce_row([q(3), 1, 0, 0]).rows[0] == (q(3), 1, 0, 0)
    assert all(x.d == 3 for x in herm.coerce_row([1, 0, 0, 0]).rows[0])


def test_unit_vector_indices():
    herm = standard_hermitian_hyperbolic(3, 2)
    assert unit_vector(herm, -1) == unit_vector(herm, 3) == (0, 0, 0, 1)
    assert all(x.d == 3 for x in unit_vector(herm, 0))
    with pytest.raises(IndexError):
        unit_vector(herm, 4)


def test_hermitian_gram_must_be_self_adjoint():
    i = QuadFieldElement(0, 1, 3)
    with pytest.raises(ValueError):
        FormSpace("hermitian", Matrix([[i]]), 3)
    ok = FormSpace("hermitian", Matrix([[0, i], [-i, 1]]), 3)
    assert ok.pair(unit_vector(ok, 0), unit_vector(ok, 1)) == i


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature_of(hyperbolic_plane()) == Signature(1, 1, 0)

    def test_2u_perp_minus2(self):
        space = quadratic_2u_perp_diagonal([-2])
        assert signature_of(space) == Signature(2, 3, 0)

    def test_hermitian_rank_one(self):
        space = FormSpace("hermitian", Matrix([[1]]), 3)
        assert signature_of(space) == Signature(1, 0, 0)

    def test_alternating_has_no_signature(self):
        with pytest.raises(AlternatingHasNoSignature):
            signature_of(standard_symplectic(1))

    def test_hermitian_hyperbolic(self):
        assert signature_of(standard_hermitian_hyperbolic(7)) == Signature(1, 1, 0)

    def test_purely_imaginary_offdiagonal(self):
        i = QuadFieldElement(0, 1, 1)
        space = FormSpace("hermitian", Matrix([[0, i], [-i, 0]]), 1)
        sig = signature_of(space)
        assert sig.null == 0 and sig.plus + sig.minus == 2

    def test_congruence_invariance(self):
        rng = random.Random(11)
        space = quadratic_2u_perp_diagonal([-2, -4])
        base = signature_of(space)
        for _ in range(100):
            n = space.dim
            t = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.choice([-2, -1, 1, 2])
                    t[i] = [x + c * y for x, y in zip(t[i], t[j])]
            tm = Matrix(t)
            transformed = FormSpace(
                "symmetric", tm * space.gram * tm.transpose()
            )
            assert signature_of(transformed) == base

    def test_congruence_invariance_hermitian(self):
        rng = random.Random(13)
        space = standard_hermitian_hyperbolic(2, 2)
        base = signature_of(space)
        n = space.dim
        for _ in range(50):
            t = [list(r) for r in space.coerce_field(Matrix.identity(n)).rows]
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = QuadFieldElement(rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]), 2)
                    t[i] = [x + c * y for x, y in zip(t[i], t[j])]
            tm = Matrix(t)
            transformed = FormSpace(
                "hermitian", tm * space.gram * tm.conj_transpose(), 2
            )
            assert signature_of(transformed) == base


class TestComplement:
    def test_whole_space(self):
        space = standard_2u()
        whole = canonical_subspace(space, Matrix.identity(4))
        assert orthogonal_complement(space, whole).dim == 0

    def test_line_in_2u(self):
        space = standard_2u()
        e1 = line(space, unit_vector(space, 0))
        comp = orthogonal_complement(space, e1)
        # (v, e1) = v_f1, so the complement is span(e1, e2, f2)
        expected = canonical_subspace(
            space,
            Matrix(
                [unit_vector(space, 0), unit_vector(space, 2), unit_vector(space, 3)]
            ),
        )
        assert comp == expected

    def test_symplectic_block(self):
        space = standard_symplectic(2)
        s = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 1)])
        )
        comp = orthogonal_complement(space, s)
        expected = canonical_subspace(
            space, Matrix([unit_vector(space, 2), unit_vector(space, 3)])
        )
        assert comp == expected

    def test_double_complement(self):
        rng = random.Random(3)
        space = quadratic_2u_perp_diagonal([-2])
        for _ in range(25):
            rows = [
                [Fraction(rng.randint(-3, 3)) for _ in range(space.dim)]
                for _ in range(rng.randint(1, 3))
            ]
            s = canonical_subspace(space, Matrix(rows, ncols=space.dim))
            assert orthogonal_complement(
                space, orthogonal_complement(space, s)
            ) == s
            assert s.dim + orthogonal_complement(space, s).dim == space.dim


class TestPairings:
    def test_orthogonal_pair(self):
        space = standard_symplectic(3)
        a = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )  # e1, e2
        b = canonical_subspace(
            space, Matrix([unit_vector(space, 1), unit_vector(space, 4)])
        )  # f1, e3
        ka, kb = pairing_kernels(space, a, b)
        assert ka == line(space, unit_vector(space, 2))  # e2
        assert kb == line(space, unit_vector(space, 4))  # e3

    def test_fully_orthogonal(self):
        space = standard_symplectic(2)
        a = line(space, unit_vector(space, 0))
        b = line(space, unit_vector(space, 2))
        ka, kb = pairing_kernels(space, a, b)
        assert ka == a and kb == b

    def test_self_pairing_isotropic(self):
        space = standard_symplectic(2)
        a = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        ka, kb = pairing_kernels(space, a, a)
        assert ka == a and kb == a

    def test_perfect_pairing(self):
        space = standard_symplectic(2)
        e1 = line(space, unit_vector(space, 0))
        f1 = line(space, unit_vector(space, 1))
        e2 = line(space, unit_vector(space, 2))
        assert is_perfect_pairing(space, e1, f1)
        assert not is_perfect_pairing(space, e1, e2)
        two = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        assert not is_perfect_pairing(space, two, f1)

    def test_perfect_iff_trivial_kernels(self):
        rng = random.Random(5)
        space = standard_symplectic(3)
        for _ in range(40):
            rows_a = [
                [Fraction(rng.randint(-2, 2)) for _ in range(6)]
                for _ in range(rng.randint(1, 2))
            ]
            rows_b = [
                [Fraction(rng.randint(-2, 2)) for _ in range(6)]
                for _ in range(rng.randint(1, 2))
            ]
            a = canonical_subspace(space, Matrix(rows_a, ncols=6))
            b = canonical_subspace(space, Matrix(rows_b, ncols=6))
            ka, kb = pairing_kernels(space, a, b)
            expected = ka.dim == 0 and kb.dim == 0 and a.dim == b.dim
            assert is_perfect_pairing(space, a, b) == expected


class TestSubquotient:
    def test_symplectic_line(self):
        space = standard_symplectic(2)
        data = subquotient(space, line(space, unit_vector(space, 0)))
        assert data.quotient.kind == "alternating"
        assert data.quotient.gram == standard_symplectic(1).gram

    def test_2u_line(self):
        space = standard_2u()
        data = subquotient(space, line(space, unit_vector(space, 0)))
        assert data.quotient.dim == 2
        assert signature_of(data.quotient) == Signature(1, 1, 0)

    def test_zero_subspace(self):
        space = standard_2u()
        data = subquotient(space, zero_subspace(space))
        assert data.quotient == space
        assert data.lift == Matrix.identity(4)
        assert data.lift * data.project == Matrix.identity(4)

    def test_round_trip_form_values(self):
        space = standard_symplectic(3)
        iso = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        data = subquotient(space, iso)
        q = data.quotient
        assert data.lift * space.gram * data.lift.conj_transpose() == q.gram
        assert data.lift * data.project == Matrix.identity(q.dim)

    def test_rejects_non_isotropic(self):
        space = standard_2u()
        with pytest.raises(NotIsotropic):
            subquotient(space, line(space, (1, 1, 0, 0)))

    def test_push_subspace(self):
        space = standard_symplectic(3)
        data = subquotient(space, line(space, unit_vector(space, 0)))
        s = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        image = push_subspace(data, s)
        assert image.dim == 1
        assert image.is_isotropic()
        # e1 itself pushes to zero
        assert push_subspace(data, data.subspace).dim == 0
        perp = orthogonal_complement(space, data.subspace)
        assert push_subspace(data, perp).dim == data.quotient.dim
        # a basis that is not reduced pushes to the same image
        e0, e2 = unit_vector(space, 0), unit_vector(space, 2)
        rows = Matrix([[x + 2 * y for x, y in zip(e0, e2)], e2])
        assert push_subspace(data, Subspace(space, rows)) == image

    def test_push_requires_nesting(self):
        space = standard_symplectic(2)
        data = subquotient(space, line(space, unit_vector(space, 0)))
        with pytest.raises(NotNested):
            push_subspace(data, line(space, unit_vector(space, 1)))
        # contains the core but leaves its orthogonal
        both = Matrix([unit_vector(space, 0), unit_vector(space, 1)])
        with pytest.raises(NotNested, match="orthogonal"):
            push_subspace(data, canonical_subspace(space, both))

    def test_hermitian_subquotient(self):
        space = standard_hermitian_hyperbolic(3, 2)
        data = subquotient(space, line(space, unit_vector(space, 0)))
        assert data.quotient.dim == 2
        assert signature_of(data.quotient) == Signature(1, 1, 0)


def test_preserves_form_detects_isometries():
    space = standard_2u()
    swap = Matrix(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )
    assert preserves_form(space, swap)
    assert not preserves_form(space, Matrix.identity(4) * 2)


def test_sum_intersection_containment():
    space = standard_symplectic(2)
    a = canonical_subspace(
        space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
    )
    b = canonical_subspace(
        space, Matrix([unit_vector(space, 0), unit_vector(space, 3)])
    )
    assert subspace_sum(a, b).dim == 3
    meet = subspace_intersection(a, b)
    assert meet == line(space, unit_vector(space, 0))
    assert subspace_contains(a, meet)
    assert not subspace_contains(meet, a)


@pytest.mark.parametrize(
    "space", [standard_2u(), standard_hermitian_hyperbolic(3, 2)], ids=["Q", "Q(sqrt-3)"]
)
def test_containment_with_dependent_rows_in_the_containing_basis(space):
    # big spans <u, v> through four rows: u, u again, a combination of u
    # and v, and v; its dimension is 2, not its row count
    c = Fraction(-2, 3) if space.d is None else QuadFieldElement(Fraction(-2, 3), 1, space.d)
    u = [1, 0, c, 0]
    v = [0, 1, 0, 2]
    mixed = [x + c * y for x, y in zip(u, v)]
    big = Subspace(space, Matrix([u, u, mixed, v], space.dim))
    assert not big.is_canonical()
    inside = line(space, [2 * x - c * y for x, y in zip(u, v)])
    outside = line(space, unit_vector(space, 3))
    assert subspace_contains(big, inside)
    assert not subspace_contains(big, outside)


def test_subspace_canonical_flag():
    space = standard_2u()
    raw = Subspace(space, Matrix([[2, 0, 0, 0]]))
    assert not raw.is_canonical()
    assert canonical_subspace(space, raw.basis).is_canonical()
    assert pairing_matrix(space, raw, raw).shape == (1, 1)


# -- signatures and pairings against an entry-wise reference ---------------


def reference_signature(space: FormSpace) -> Signature:
    """Congruent elimination on the Gram entries themselves, in their field."""
    n = space.dim
    g = [list(r) for r in space.gram.rows]

    def add_row_col(i, j, c):
        # basis change b_i <- b_i + c * b_j
        cc = conjugate_scalar(c)
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] = row[i] + row[j] * cc

    def swap(i, j):
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    plus = minus = null = 0
    for i in range(n):
        if g[i][i] == 0:
            j = next((k for k in range(i + 1, n) if g[k][k] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                j = next((k for k in range(i + 1, n) if g[i][k] != 0), None)
                if j is None:
                    null += 1
                    continue
                entry = g[i][j]
                if isinstance(entry, QuadFieldElement) and entry.a == 0:
                    # purely imaginary pairing: mix with weight sqrt(-d)
                    add_row_col(i, j, QuadFieldElement(0, 1, entry.d))
                else:
                    add_row_col(i, j, 1)
        pivot = g[i][i]
        for k in range(i + 1, n):
            if g[k][i] != 0:
                add_row_col(k, i, -(g[k][i] / pivot))
        value = as_fraction(pivot)
        if value > 0:
            plus += 1
        elif value < 0:
            minus += 1
    return Signature(plus, minus, null)


def reference_pair(space: FormSpace, u, v):
    gu = Matrix([u]) * space.gram
    total = field_zero(space)
    for x, y in zip(gu.rows[0], v):
        total = total + x * conjugate_scalar(y)
    return total


mixed_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 1, 2, 3, 5, 6]),
)


@st.composite
def symmetric_grams(draw):
    """Symmetric Grams of dimension 1-8 with mixed denominators.

    The first 2h basis vectors form zero-diagonal hyperbolic blocks
    [[0, c], [c, 0]], coupled to the rest or orthogonal to it; in the
    orthogonal case the elimination meets an all-zero remaining diagonal.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(mixed_fractions)
    h = draw(st.integers(min_value=0, max_value=n // 2))
    coupled = draw(st.booleans())
    for i in range(2 * h):
        for j in range(n):
            if j // 2 == i // 2 or (not coupled and j >= 2 * h):
                rows[i][j] = rows[j][i] = Fraction(0)
    for b in range(h):
        c = draw(mixed_fractions.filter(bool))
        rows[2 * b][2 * b + 1] = rows[2 * b + 1][2 * b] = c
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return FormSpace("symmetric", gram)


@st.composite
def hermitian_grams(draw):
    """Hermitian Grams over d in {1, 2, 3, 7}, dimension 1-4.

    Off-diagonal entries are purely imaginary or zero unless ``general``
    draws a rational part as well; diagonal entries may vanish.
    """
    d = draw(st.sampled_from([1, 2, 3, 7]))
    n = draw(st.integers(min_value=1, max_value=4))
    general = draw(st.booleans())
    rows = [[QuadFieldElement(0, 0, d)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = QuadFieldElement(draw(mixed_fractions), 0, d)
        for j in range(i + 1, n):
            re = draw(mixed_fractions) if general else 0
            x = QuadFieldElement(re, draw(mixed_fractions), d)
            rows[i][j], rows[j][i] = x, x.conjugate()
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return FormSpace("hermitian", gram, d)


def vectors(space: FormSpace):
    if space.kind == "hermitian":
        entry = st.builds(
            QuadFieldElement, mixed_fractions, mixed_fractions, st.just(space.d)
        )
    else:
        entry = mixed_fractions
    return st.lists(entry, min_size=space.dim, max_size=space.dim).map(tuple)


class TestAgainstEntrywiseReference:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(symmetric_grams(), hermitian_grams()), st.data())
    def test_signature_and_pair(self, space, data):
        assert signature_of(space) == reference_signature(space)
        u, v = data.draw(vectors(space)), data.draw(vectors(space))
        ours, ref = space.pair(u, v), reference_pair(space, u, v)
        assert ours == ref and type(ours) is type(ref)

    def test_dense_30_bit(self):
        rng = random.Random(12)
        n = 12
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(-(2**30), 2**30)
        space = FormSpace("symmetric", Matrix(rows))
        assert signature_of(space) == reference_signature(space)
        # every pivot is a leading minor of P * G * P^T: Hadamard's bound
        form, _ = integer_form(space)
        assert max(abs(p).bit_length() for p in _congruent_pivots(form)) <= n * 32


@st.composite
def alternating_grams(draw):
    """Nondegenerate alternating Grams of dimension 2-8 with mixed denominators."""
    n = 2 * draw(st.integers(min_value=1, max_value=4))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(mixed_fractions)
            rows[i][j], rows[j][i] = x, -x
    gram = Matrix(rows)
    assume(gram.det() != 0)
    return FormSpace("alternating", gram)


@settings(max_examples=200, deadline=None)
@given(st.one_of(symmetric_grams(), alternating_grams(), hermitian_grams()), st.data())
def test_complement_is_the_reduced_kernel_after_one_elimination(space, data):
    # dense rows, dependent ones and none at all: the complement is the
    # canonical span of the kernel of conj(s * G), reduced by the kernel's
    # own elimination alone
    rows = data.draw(st.lists(vectors(space), max_size=space.dim + 1))
    s = Subspace(space, Matrix(rows, space.dim))
    m = (s.basis * space.gram).conjugate()
    expected = canonical_subspace(space, m.right_kernel())
    calls, reduced = [], exact._reduced
    with mock.patch.object(exact, "_reduced", lambda *a: calls.append(1) or reduced(*a)):
        comp = orthogonal_complement(space, s)
    assert comp == expected and comp.basis._ints == expected.basis._ints
    assert len(calls) == 1


def greedy_extension(sub: Matrix, within: Matrix) -> Matrix:
    """Reference: take each row of within that raises the rank, one rref each."""
    chosen, current = [], sub
    for i in range(within.nrows):
        stacked = Matrix.vstack(current, within.submatrix(rows=[i]))
        if rref_basis(stacked).nrows > current.nrows:
            current = stacked
            chosen.append(i)
    return within.submatrix(rows=chosen)


@st.composite
def extension_problems(draw):
    """(sub, within): independent rows of sub, then rows of within that
    repeat, scale and combine each other (dependent rows), over Q or Q(sqrt(-d)).
    """
    d = draw(st.sampled_from([None, 1, 2, 3, 7]))
    n = draw(st.integers(min_value=1, max_value=5))
    if d is None:
        entry = mixed_fractions
    else:
        entry = st.builds(QuadFieldElement, mixed_fractions, mixed_fractions, st.just(d))
    vector = st.lists(entry, min_size=n, max_size=n)
    sub = rref_basis(Matrix(draw(st.lists(vector, max_size=n)), n))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        how = draw(st.sampled_from(["new", "zero", "copy", "combine"]))
        if how == "new" or not rows:
            rows.append(draw(vector))
        elif how == "zero":
            rows.append([x * 0 for x in rows[0]])
        else:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            c = draw(entry) if how == "combine" else 1
            rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
    if sub.nrows and draw(st.booleans()):
        rows.insert(0, list(sub.rows[0]))  # a row already in span(sub)
    return sub, Matrix(rows, n)


@settings(max_examples=150, deadline=None)
@given(extension_problems())
def test_extend_basis_rows_matches_greedy_loop(problem):
    sub, within = problem
    assert extend_basis_rows(sub, within) == greedy_extension(sub, within)


# -- meets and coordinate maps against references --------------------------


class Quad:
    """a + b*sqrt(-d) in Fractions: the reference's scalar over Q(sqrt(-d)),
    so that the reference uses nothing of exact."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def _lift(self, x):
        return x if isinstance(x, Quad) else Quad(x, 0, self.d)

    def __add__(self, other):
        other = self._lift(other)
        return Quad(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        return Quad(
            self.a * o.a - self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.a * o.a + self.d * o.b * o.b
        return self * Quad(o.a / norm, -o.b / norm, self.d)

    def __eq__(self, other):
        other = self._lift(other)
        return (self.a, self.b) == (other.a, other.b)


def reference_meet(a_rows: list, b_rows: list, n: int) -> list:
    """Reduced echelon basis of span(a) & span(b), entry by entry: a kernel
    (x, y) of the stacked rows written as columns, then x * A reduced."""
    stacked = a_rows + b_rows
    columns = [[r[j] for r in stacked] for j in range(n)]
    coeffs = ref_right_kernel(columns, len(stacked))
    rows = ref_mul([x[: len(a_rows)] for x in coeffs], a_rows, n)
    red, pivots = ref_rref(rows, n)
    return red[: len(pivots)]


@st.composite
def meet_problems(draw):
    """(space, a rows, b rows, reference rows of a, of b): zero, equal, nested,
    transverse and planted pairs over Q or Q(sqrt(-d)), d in {1, 2, 3, 7}.

    An entry is drawn as a pair (x, y) of Fractions, standing for
    x + y*sqrt(-d); the package gets it as a QuadFieldElement and the
    reference as a Quad.
    """
    d = draw(st.sampled_from([None, 1, 2, 3, 7]))
    n = draw(st.integers(min_value=1, max_value=5))
    part = mixed_fractions if d is not None else st.just(Fraction(0))
    pair = st.tuples(mixed_fractions, part)
    vector = st.lists(pair, min_size=n, max_size=n)

    def times(c, x):
        return (c[0] * x[0] - (d or 0) * c[1] * x[1], c[0] * x[1] + c[1] * x[0])

    def combine(rows, count):
        # count rows p * u + q * v, u and v rows of the given ones
        out = []
        for _ in range(count):
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            p, q = draw(pair), draw(pair)
            terms = ((times(p, x), times(q, y)) for x, y in zip(rows[i], rows[j]))
            out.append([(u[0] + v[0], u[1] + v[1]) for u, v in terms])
        return out

    how = draw(st.sampled_from(["zero", "equal", "nested", "transverse", "planted"]))
    a = draw(st.lists(vector, min_size=1, max_size=n))
    if how == "zero":
        b = []
    elif how == "equal":
        b = combine(a, draw(st.integers(len(a), len(a) + 1))) + a[::-1]
    elif how == "nested":
        b = combine(a, draw(st.integers(0, len(a))))
    elif how == "transverse":
        b = draw(st.lists(vector, max_size=n))
    else:
        common = draw(st.lists(vector, min_size=1, max_size=2))
        a = common + a
        b = combine(common, 2) + draw(st.lists(vector, max_size=n))
    if draw(st.booleans()):
        a, b = b, a
    if d is None:
        space = FormSpace("symmetric", Matrix.identity(n))
        ours = lambda rows: Matrix([[x for x, _ in r] for r in rows], n)
        ref = lambda rows: [[x for x, _ in r] for r in rows]
    else:
        space = FormSpace("hermitian", Matrix.identity(n), d)
        ours = lambda rows: Matrix(
            [[QuadFieldElement(x, y, d) for x, y in r] for r in rows], n
        )
        ref = lambda rows: [[Quad(x, y, d) for x, y in r] for r in rows]
    return space, Subspace(space, ours(a)), Subspace(space, ours(b)), ref(a), ref(b)


def same_entries(result: Matrix, reference: list) -> bool:
    parts = lambda x: (x.a, x.b) if isinstance(x, (Quad, QuadFieldElement)) else (x, 0)
    pairs = zip(itertools.chain(*result.rows), itertools.chain(*reference))
    return result.nrows == len(reference) and all(parts(x) == parts(y) for x, y in pairs)


@settings(max_examples=200, deadline=None)
@given(meet_problems())
def test_intersection_matches_the_kernel_reference(problem):
    space, a, b, a_ref, b_ref = problem
    meet = subspace_intersection(a, b)
    assert meet.is_canonical()
    assert same_entries(meet.basis, reference_meet(a_ref, b_ref, space.dim))


@settings(max_examples=60, deadline=None)
@given(meet_problems())
def test_intersection_is_one_elimination(problem):
    _, a, b, _, _ = problem
    expected = subspace_intersection(a, b)
    calls = []
    counted = lambda f: lambda *args: calls.append(1) or f(*args)

    def refused(*args):
        raise AssertionError("no rref or kernel in an intersection")

    with mock.patch.object(exact, "_reduced", counted(exact._reduced)), \
            mock.patch.object(forms, "_reduced", counted(forms._reduced)), \
            mock.patch.object(Matrix, "rref", refused), \
            mock.patch.object(Matrix, "right_kernel", refused):
        meet = subspace_intersection(a, b)
    assert meet == expected and meet.basis._ints == expected.basis._ints
    assert len(calls) == 1


@st.composite
def full_row_rank_bases(draw):
    """k x n rows of rank k, 1 <= k <= n, over Q or Q(sqrt(-d))."""
    d = draw(st.sampled_from([None, 1, 2, 3, 7]))
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=n))
    if d is None:
        entry = mixed_fractions
    else:
        entry = st.builds(QuadFieldElement, mixed_fractions, mixed_fractions, st.just(d))
    row = st.lists(entry, min_size=n, max_size=n)
    basis = Matrix(draw(st.lists(row, min_size=k, max_size=k)))
    assume(basis.rank() == k)
    return basis


@settings(max_examples=200, deadline=None)
@given(full_row_rank_bases())
def test_coordinate_map_is_the_right_inverse(basis):
    # the map is written into certificates (project), so its arrays are pinned
    # to the product with the inverse of the hermitian basis * basis^H
    expected = basis.conj_transpose() * basis.mul_adjoint(basis).inverse()
    found = coordinate_map(basis)
    assert found.shape == expected.shape and found._ints == expected._ints
    assert basis * found == Matrix.identity(basis.nrows)


def test_coordinate_map_refuses_dependent_rows():
    for basis in (Matrix([[1, 2, 0], [2, 4, 0]]), Matrix([[0, 0]])):
        with pytest.raises(ZeroDivisionError):
            coordinate_map(basis)
