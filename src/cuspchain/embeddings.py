"""Explicit models and maps behind the ``demo`` command and the tests.

Contains the trace-zero 2x2 model of the signature (2, 1) quadric with its
SL2 conjugation action, the rational Veronese and Segre parametrizations,
the SL2 x SL2 action on 2U, the hermitian structure on M2(Q) by left
multiplication of sqrt(-D), and right-order arithmetic for full lattices in
M2(Q).  The right orders work on vec(X) = (x00, x01, x10, x11): left
multiplication by a matrix is one 4x4 Kronecker block acting on vec, so the
stability system and the checks of an order are a few stacked products,
each tested for integrality as a whole.  A lattice inverts its vec basis
once, when it is built: that inverse is the rank test of the basis and the
coordinate map that every membership and stability check multiplies by.
The 2x2 models read and build single entries (traces, adjugates, SL2
entries, M2 coordinates); they are the module's only entry-wise code.

Matrices of linear maps act on column coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import NotContained, NotDeterminantOne, _ensure
from .exact import (
    Matrix,
    QuadFieldElement,
    _canonical,
    _echelon,
    _one_denominator,
    hnf,
)
from .forms import HERMITIAN, SYMMETRIC, FormSpace, preserves_form, standard_2u


@dataclass(frozen=True)
class SL2Element:
    """A 2x2 rational matrix of determinant one."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a * self.d - self.b * self.c != 1:
            raise NotDeterminantOne(f"det {self.a * self.d - self.b * self.c} != 1")

    @classmethod
    def identity(cls) -> "SL2Element":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SL2Element":
        if m.shape != (2, 2):
            raise NotDeterminantOne("SL2 elements are 2x2 matrices")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def matrix(self) -> Matrix:
        return Matrix([[self.a, self.b], [self.c, self.d]])

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element.from_matrix(self.matrix() * other.matrix())


# 2x2 helpers ----------------------------------------------------------------

E12 = Matrix([[0, 1], [0, 0]])
E21 = Matrix([[0, 0], [1, 0]])
HDIAG = Matrix([[1, 0], [0, -1]])
I2 = Matrix.identity(2)

TRACE_ZERO_BASIS = (E12, E21, HDIAG)
TRACE_ZERO_LABELS = ("E", "F", "H")


def _tr(m: Matrix):
    return m[0, 0] + m[1, 1]


def trace_zero_space() -> tuple[FormSpace, tuple[str, str, str]]:
    """The trace-zero 2x2 matrices with the form (A, B) = tr(AB).

    In the basis (E, F, H) = (e12, e21, diag(1, -1)) the Gram matrix is
    [[0, 1, 0], [1, 0, 0], [0, 0, 2]], i.e. U perp <2>.
    """
    gram = Matrix(
        [
            [_tr(x * y) for y in TRACE_ZERO_BASIS]
            for x in TRACE_ZERO_BASIS
        ]
    )
    return FormSpace(SYMMETRIC, gram), TRACE_ZERO_LABELS


def _trace_zero_coords(m: Matrix) -> tuple[Fraction, Fraction, Fraction]:
    # [[h, e], [f, -h]] = e*E + f*F + h*H
    if m[0, 0] + m[1, 1] != 0:
        raise ValueError("matrix has nonzero trace")
    return (Fraction(m[0, 1]), Fraction(m[1, 0]), Fraction(m[0, 0]))


def sl2_conjugation_image(g: SL2Element) -> Matrix:
    """Matrix of A -> g A g^-1 on trace-zero matrices, in the (E, F, H) basis.

    Kernel {+-1}; the image preserves the U perp <2> Gram matrix exactly.
    """
    gm, gi = g.matrix(), g.inverse().matrix()
    cols = [_trace_zero_coords(gm * basis * gi) for basis in TRACE_ZERO_BASIS]
    image = Matrix(cols).transpose()
    space, _ = trace_zero_space()
    _ensure(
        preserves_form(space, image), "conjugation image does not preserve U perp <2>"
    )
    return image


def veronese_point(tau) -> tuple[Fraction, Fraction, Fraction]:
    """The isotropic point (1, -tau^2, tau) of U perp <2> in the (e, f, v0) basis."""
    tau = Fraction(tau)
    return (Fraction(1), -tau * tau, tau)


def segre_point(tau1, tau2) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The isotropic point (1, -tau1*tau2, tau1, tau2) of 2U in (e1, f1, e2, f2)."""
    tau1, tau2 = Fraction(tau1), Fraction(tau2)
    return (Fraction(1), -tau1 * tau2, tau1, tau2)


def _sl2_first_factor(g: SL2Element) -> Matrix:
    # acts as g on span(e2, e1) and as the dual inverse-transpose on span(f2, f1)
    a, b, c, d = g.a, g.b, g.c, g.d
    z = Fraction(0)
    return Matrix(
        [
            [d, z, c, z],
            [z, a, z, -b],
            [b, z, a, z],
            [z, -c, z, d],
        ]
    )


def _sl2_second_factor(g: SL2Element) -> Matrix:
    # acts as g on span(f2, e1) and as the dual inverse-transpose on span(e2, f1)
    a, b, c, d = g.a, g.b, g.c, g.d
    z = Fraction(0)
    return Matrix(
        [
            [d, z, z, c],
            [z, a, -b, z],
            [z, -c, d, z],
            [b, z, z, a],
        ]
    )


def sl2_pair_orthogonal_image(g1: SL2Element, g3: SL2Element) -> Matrix:
    """Image of (g1, g3) in the isometries of 2U, in the (e1, f1, e2, f2) basis.

    The first factor moves the first Segre coordinate, the second factor the
    second; both preserve the 2U Gram matrix exactly and the two factor
    images commute.
    """
    image = _sl2_first_factor(g1) * _sl2_second_factor(g3)
    _ensure(
        preserves_form(standard_2u(), image), "SL2 x SL2 image does not preserve 2U"
    )
    return image


# hermitian model of M2(Q) ---------------------------------------------------


def _conj_2x2(m: Matrix) -> Matrix:
    # the adjugate [[d, -b], [-c, a]]
    return Matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _jd(d: int) -> Matrix:
    return Matrix([[0, -d], [1, 0]])


def m2_hermitian_pair(a: Matrix, b: Matrix, d: int) -> QuadFieldElement:
    """(A, B) = tr(A B*) + sqrt(-d)^(-1) tr(J_d A B*), valued in Q(sqrt(-d))."""
    bstar = _conj_2x2(b)
    first = Fraction(_tr(a * bstar))
    second = Fraction(_tr(_jd(d) * a * bstar))
    # 1/sqrt(-d) = -sqrt(-d)/d
    return QuadFieldElement(first, -second / d, d)


@dataclass(frozen=True)
class M2Model:
    """Coordinates for M2(Q) as a 2-dimensional Q(sqrt(-d)) space.

    The field acts by left multiplication of J_d; the K-basis is (I, e12).
    Coordinates (x, y) with x = a + b*sqrt(-d), y = c + e*sqrt(-d) represent
    the matrix a*I + b*J_d + c*e12 + e*J_d*e12.
    """

    d: int

    def from_matrix(self, m: Matrix) -> tuple[QuadFieldElement, QuadFieldElement]:
        m00, m01 = Fraction(m[0, 0]), Fraction(m[0, 1])
        m10, m11 = Fraction(m[1, 0]), Fraction(m[1, 1])
        x = QuadFieldElement(m00, m10, self.d)
        y = QuadFieldElement(m01 + self.d * m10, m11 - m00, self.d)
        return (x, y)


def hermitian_m2_space(d: int) -> tuple[FormSpace, M2Model]:
    """The hermitian structure on M2(Q) via left multiplication by J_d.

    Returns the signature (1, 1) form space in the K-basis (I, e12) together
    with the coordinate model.
    """
    model = M2Model(d)
    basis = (I2, E12)
    gram = Matrix(
        [[m2_hermitian_pair(x, y, d) for y in basis] for x in basis]
    )
    return FormSpace(HERMITIAN, gram, d), model


def sl2_su11_image(d: int, g: SL2Element) -> Matrix:
    """K-matrix of right multiplication A -> A g on M2(Q), in the (I, e12) basis.

    Preserves the hermitian form and has determinant one.  Note that right
    multiplication reverses composition order: the image of a product is the
    product of the images in reverse.
    """
    space, model = hermitian_m2_space(d)
    gm = g.matrix()
    cols = [model.from_matrix(b * gm) for b in (I2, E12)]
    image = Matrix(cols).transpose()
    _ensure(preserves_form(space, image), "SU(1, 1) image does not preserve the form")
    _ensure(image.det() == 1, "SU(1, 1) image does not have determinant 1")
    return image


# right orders of full lattices in M2(Q) -------------------------------------
#
# With vec(M) = (m00, m01, m10, m11) as a row, left multiplication by bm is
# vec(bm * X) = vec(X) * R(bm), where R(bm) is the Kronecker product bm^T (x) I2:
# row k of R(bm) is vec(bm * E_k) for the k-th unit matrix E_k.


def _vec_rows(mats: Sequence[Matrix]) -> Matrix:
    """The rows vec(m) of rational 2x2 matrices, built from their integers."""
    re, den = [], []
    for m in mats:
        ((a, b), (c, d)), _, q = _one_denominator(m._ints)
        re.append([a, b, c, d])
        den.append(q)
    return _canonical(re, None, den, None, 4)


def _unvec_rows(vecs: Matrix) -> tuple[Matrix, ...]:
    """The 2x2 matrices whose vec are the rows of a rational matrix."""
    re, _, den, _ = vecs._ints
    return tuple(
        _canonical([r[:2], r[2:]], None, [q, q], None, 2) for r, q in zip(re, den)
    )


def _left_multiplications(mats: Sequence[Matrix]) -> Matrix:
    """The 4x4 blocks R(m) of the given rational 2x2 matrices, stacked.

    R(m) = [[a, 0, c, 0], [0, a, 0, c], [b, 0, d, 0], [0, b, 0, d]] for
    m = [[a, b], [c, d]], built from the integers of m over one denominator.
    """
    re, den = [], []
    for m in mats:
        ((a, b), (c, d)), _, q = _one_denominator(m._ints)
        re += [[a, 0, c, 0], [0, a, 0, c], [b, 0, d, 0], [0, b, 0, d]]
        den += [q] * 4
    return _canonical(re, None, den, None, 4)


def _side_by_side(m: Matrix) -> Matrix:
    """The consecutive 4-row blocks of a rational m, stacked side by side.

    Row r joins the rows r, r + 4, ... of m's integers over one denominator.
    """
    re, _, q = _one_denominator(m._ints)
    rows = [list(chain.from_iterable(re[r::4])) for r in range(4)]
    return _canonical(rows, None, [q] * 4, None, m.nrows // 4 * m.ncols)


@dataclass(frozen=True)
class MatrixLattice:
    """A full Z-lattice in M2(Q), given by four Z-independent 2x2 matrices.

    ``_dual`` is vec_basis()^-1, computed once when the lattice is built:
    vec(X) * _dual holds the coordinates of X in the basis.
    """

    basis: tuple[Matrix, Matrix, Matrix, Matrix]
    _dual: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = tuple(
            _rational(m if isinstance(m, Matrix) else Matrix(m)) for m in self.basis
        )
        if len(basis) != 4 or any(m.shape != (2, 2) for m in basis):
            raise ValueError("a matrix lattice needs four 2x2 matrices")
        object.__setattr__(self, "basis", basis)
        try:
            dual = self.vec_basis().inverse()
        except ZeroDivisionError:
            raise ValueError("matrix lattice basis is not full rank") from None
        object.__setattr__(self, "_dual", dual)

    def vec_basis(self) -> Matrix:
        return _vec_rows(self.basis)

    def contains(self, m: Matrix) -> bool:
        return self.contains_each([m])[0]

    def contains_each(self, mats: Sequence[Matrix]) -> tuple[bool, ...]:
        """Membership of each matrix, read off one product with _dual.

        Raises ValueError for a matrix that is not rational.
        """
        coords = _vec_rows([_rational(m) for m in mats]) * self._dual
        return tuple(
            coords.submatrix(rows=[i]).is_integral() for i in range(coords.nrows)
        )


def _rational(m: Matrix) -> Matrix:
    """m, which must be a rational matrix; ValueError for a field element entry."""
    if m._ints[3] is not None:
        raise ValueError("matrix lattice entries must be rational")
    return m


def order_of_lattice(lattice: MatrixLattice) -> MatrixLattice:
    """The right order { X in M2(Q) : lattice * X inside lattice }.

    Solved exactly: X is in the order when vec(X) * R(l) * B^-1 is integral
    for each basis element l, with B = vec_basis() and R(l) the Kronecker
    form of left multiplication by l.  The four R(l) * B^-1, side by side,
    are one 4x16 system A.  With A = A0 / denom for an integer A0, x * A is
    integral exactly when x pairs into denom * Z with the column lattice of
    A0.  Any basis C of it will do, here the top of the row echelon of A0^T,
    and the solutions are the rows of denom * (C^-1)^T, whose Hermite form
    is the result's basis.  It contains the identity, is closed under
    multiplication and stabilizes the lattice, all checked on a few products
    of the same form.
    """
    # column block m of vec(X) * stacked holds the coordinates of l_m * X
    stacked = _side_by_side(_left_multiplications(lattice.basis) * lattice._dual)
    a0, _, denom = _one_denominator(stacked._ints)
    rows = [list(col) for col in zip(*a0)]  # A0^T
    _ensure(_echelon(rows, 4) == [0, 1, 2, 3], "stability system must have full rank")
    cols_t = _canonical([list(c) for c in zip(*rows[:4])], None, [1] * 4, None, 4)
    solutions = cols_t.inverse() * denom  # denom * (C^-1)^T = denom * (C^T)^-1
    scale = solutions.denominator_lcm()
    h, _ = hnf(solutions * scale)
    vecs = h * Fraction(1, scale)
    order = MatrixLattice(_unvec_rows(vecs))
    o_inv = order._dual
    _ensure(
        (_vec_rows([I2]) * o_inv).is_integral(), "order does not contain the identity"
    )
    # column block i of closed: the coordinates of x_i * y for y in the
    # order's basis; row i of vecs * stacked: those of l_m * x_i for each l_m
    closed = vecs * _side_by_side(_left_multiplications(order.basis) * o_inv)
    _ensure(closed.is_integral(), "order must be multiplicatively closed")
    _ensure((vecs * stacked).is_integral(), "order does not stabilize the lattice")
    return order


def order_containment_scale(order: MatrixLattice, maximal: MatrixLattice) -> int:
    """Minimal positive N0 with N0 * maximal inside order: the least common
    denominator of change^-1 = M * O^-1, for change = O * M^-1 with vec bases
    O and M, read off the inverses the two lattices keep."""
    if not (order.vec_basis() * maximal._dual).is_integral():
        raise NotContained("the first order is not contained in the second")
    return (maximal.vec_basis() * order._dual).denominator_lcm()
