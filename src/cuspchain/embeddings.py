"""Explicit models and maps used as chain witnesses and test surfaces.

Contains the trace-zero 2x2 model of the signature (2, 1) quadric with its
SL2 conjugation action, the rational Veronese and Segre parametrizations,
the SL2 x SL2 action on 2U, the hermitian structure on M2(Q) by left
multiplication of sqrt(-D), and right-order arithmetic for full lattices in
M2(Q).

Matrices of linear maps act on column coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import NotContained, NotDeterminantOne, _ensure
from .exact import Matrix, QuadFieldElement, _in_field, hnf, smith
from .forms import HERMITIAN, SYMMETRIC, FormSpace, preserves_form


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
    from .forms import standard_2u

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
    inv_root = QuadFieldElement(0, Fraction(-1, d), d)
    return QuadFieldElement(first, 0, d) + inv_root * second


@dataclass(frozen=True)
class M2Model:
    """Coordinates for M2(Q) as a 2-dimensional Q(sqrt(-d)) space.

    The field acts by left multiplication of J_d; the K-basis is (I, e12).
    Coordinates (x, y) with x = a + b*sqrt(-d), y = c + e*sqrt(-d) represent
    the matrix a*I + b*J_d + c*e12 + e*J_d*e12.
    """

    d: int

    def to_matrix(self, coords: Sequence[QuadFieldElement]) -> Matrix:
        x, y = coords
        a, b = x.a, x.b
        c, e = y.a, y.b
        return Matrix([[a, c - self.d * b], [b, a + e]])

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
    det = image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
    _ensure(det == 1, "SU(1, 1) image does not have determinant 1")
    return image


# right orders of full lattices in M2(Q) -------------------------------------


def _vec(m: Matrix) -> tuple:
    return (m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def _unvec(row: Sequence) -> Matrix:
    return Matrix([[row[0], row[1]], [row[2], row[3]]])


@dataclass(frozen=True)
class MatrixLattice:
    """A full Z-lattice in M2(Q), given by four Z-independent 2x2 matrices."""

    basis: tuple[Matrix, Matrix, Matrix, Matrix]

    def __post_init__(self):
        basis = tuple(
            _rational(m if isinstance(m, Matrix) else Matrix(m)) for m in self.basis
        )
        if len(basis) != 4 or any(m.shape != (2, 2) for m in basis):
            raise ValueError("a matrix lattice needs four 2x2 matrices")
        object.__setattr__(self, "basis", basis)
        if self.vec_basis().det() == 0:
            raise ValueError("matrix lattice basis is not full rank")

    def vec_basis(self) -> Matrix:
        return Matrix([_vec(m) for m in self.basis])

    @cached_property
    def _dual(self) -> Matrix:
        """vec_basis()^-1: vec(X) * _dual holds the coordinates of X in the basis."""
        return self.vec_basis().inverse()

    def contains(self, m: Matrix) -> bool:
        return self.contains_each([m])[0]

    def contains_each(self, mats: Sequence[Matrix]) -> tuple[bool, ...]:
        """Membership of each matrix, read off one product with _dual."""
        coords = Matrix([_vec(m) for m in mats], 4) * self._dual
        return tuple(coords.submatrix(rows=[i]).is_integral() for i in range(len(mats)))


def _rational(m: Matrix) -> Matrix:
    """m with Fraction entries; entries of other types go through Fraction()."""
    out = _in_field(m, None)
    return m.map_entries(Fraction) if out is None else out


def _canonical_lattice_rows(rows: Matrix) -> Matrix:
    """HNF-canonical basis of a full rational row lattice."""
    scale = rows.denominator_lcm()
    h, _ = hnf(rows * scale)
    return h * Fraction(1, scale)


def order_of_lattice(lattice: MatrixLattice) -> MatrixLattice:
    """The right order { X in M2(Q) : lattice * X inside lattice }.

    Solved exactly: stability under each basis element is a lattice-valued
    linear condition on vec(X); the intersection is extracted through the
    Smith normal form.  The result contains the identity, is closed under
    multiplication and stabilizes the lattice (all checked, with one product
    per lattice).
    """
    b_inv = lattice._dual
    blocks = []
    for bm in lattice.basis:
        # columns of r: vec(bm * E_k) for the four unit matrices E_k
        cols = []
        for k in range(4):
            unit = _unvec([Fraction(1) if i == k else Fraction(0) for i in range(4)])
            cols.append(_vec(bm * unit))
        r = Matrix(cols).transpose()
        blocks.append(r.transpose() * b_inv)
    stacked = Matrix.hstack(*blocks)  # x * stacked must be integral
    denom = stacked.denominator_lcm()
    s, u, _ = smith(stacked * denom)
    # With S = U * ints * V, the rows x with x * ints in denom * Z^16 are
    # exactly y * U for y in the row lattice diag(denom / s_i).
    diag = [s[i, i] for i in range(4)]
    _ensure(all(dv != 0 for dv in diag), "stability system must have full rank")
    scale_rows = Matrix(
        [
            [denom / diag[i] if i == j else Fraction(0) for j in range(4)]
            for i in range(4)
        ]
    )
    basis_rows = _canonical_lattice_rows(scale_rows * u)
    order = MatrixLattice(tuple(_unvec(r) for r in basis_rows.rows))
    products = [x * y for x in order.basis for y in order.basis]
    moved = [lm * x for x in order.basis for lm in lattice.basis]
    in_order = order.contains_each([I2] + products)
    in_lattice = lattice.contains_each(moved)
    _ensure(in_order[0], "order does not contain the identity")
    for i in range(4):  # the products x_i * y, then lm * x_i, for each x_i in turn
        closed = all(in_order[1 + 4 * i : 5 + 4 * i])
        _ensure(closed, "order must be multiplicatively closed")
        stable = all(in_lattice[4 * i : 4 * i + 4])
        _ensure(stable, "order does not stabilize the lattice")
    return order


def order_containment_scale(order: MatrixLattice, maximal: MatrixLattice) -> int:
    """Minimal positive N0 with N0 * maximal inside order."""
    change = order.vec_basis() * maximal.vec_basis().inverse()
    if not change.is_integral():
        raise NotContained("the first order is not contained in the second")
    s, _, _ = smith(change)
    n0 = s[3, 3]
    _ensure(n0 != 0, "containment scale is zero")
    return int(n0)
