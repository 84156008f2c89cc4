"""Form spaces, subspaces, signatures, complements and subquotients.

A :class:`FormSpace` carries a nondegenerate symmetric, alternating, or
hermitian Gram matrix.  Pairings are linear in the first argument and
conjugate-linear in the second, matching the hermitian trace form used by
the matrix-algebra model; for the rational kinds conjugation is trivial.
Row vectors pair as ``u * G * conj(v)^T`` and isometries act on column
vectors, so a matrix M preserves the form iff ``M^T * G * conj(M) == G``.

:func:`integer_form` is the one integer matrix of a form (a hermitian form
as its rational form in 2n variables); signatures come from a fraction-free
(Bareiss) symmetric elimination of it.  Rows pair with rows as
``(X * G).mul_adjoint(Y)``: one product with G and one with the adjoint of
Y, which is never built.  Rows of a span become coordinates on its
independent basis B by one product with the right inverse
``B^H (B B^H)^-1`` of :func:`coordinate_map`, for subquotient projections
and restricted spaces alike; it is read off one elimination of
``[B B^H | B]``, with no inverse and no dense product.  The meet of two
subspaces is one elimination too (Zassenhaus, :func:`subspace_intersection`).
Vectors reach a space's field as one-row matrices
(:meth:`FormSpace.coerce_row`, :func:`unit_vector`), never one scalar at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    AlternatingHasNoSignature,
    DimensionMismatch,
    FormKindMismatch,
    MixedDiscriminants,
    NotIsotropic,
    NotNested,
)
from .exact import (
    Matrix,
    _canonical,
    _check_field,
    _in_field,
    _one_denominator,
    _reduced,
    as_fraction,
    rref_basis,
)

SYMMETRIC = "symmetric"
ALTERNATING = "alternating"
HERMITIAN = "hermitian"
KINDS = (SYMMETRIC, ALTERNATING, HERMITIAN)


@dataclass(frozen=True)
class FormSpace:
    """A finite-dimensional space over Q or Q(sqrt(-d)) with a fixed form."""

    kind: str
    gram: Matrix
    d: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FormKindMismatch(f"unknown form kind {self.kind!r}")
        if self.gram.nrows != self.gram.ncols:
            raise ValueError("Gram matrix must be square")
        if self.kind == HERMITIAN:
            if self.d is None:
                raise ValueError("hermitian spaces need the field parameter d")
            _check_field(self.d)
            object.__setattr__(self, "gram", self.coerce_matrix(self.gram))
            if self.gram != self.gram.conj_transpose():
                raise ValueError("hermitian Gram matrix must equal its adjoint")
        else:
            if self.d is not None:
                raise ValueError("only hermitian spaces carry a field parameter")
            object.__setattr__(self, "gram", self.coerce_matrix(self.gram))
            if self.kind == SYMMETRIC and self.gram != self.gram.transpose():
                raise ValueError("symmetric Gram matrix must equal its transpose")
            # over Q, G = -G^T already forces a zero diagonal
            if self.kind == ALTERNATING and self.gram != -self.gram.transpose():
                raise ValueError("alternating Gram matrix must be antisymmetric")
        if self.gram.det() == 0:
            raise ValueError("degenerate Gram matrix")

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def coerce_row(self, v: Sequence) -> Matrix:
        """v over the space's field, as a one-row matrix.

        An entry off the field is named before a wrong length; of entries
        over two fields, the first one off the space's field is named.
        """
        v = tuple(v)
        try:
            row = Matrix([v])
        except MixedDiscriminants:
            for x in v:  # name the first entry off the space's field
                self.coerce_field(Matrix([[x]]))
            raise
        row = self.coerce_field(row)
        if len(v) != self.dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in a space of dimension {self.dim}"
            )
        return row

    def coerce_matrix(self, m: Matrix) -> Matrix:
        """m over the space's field; a matrix already over it comes back as is.

        Raises ValueError for a matrix over another field.
        """
        if m.ncols != self.dim:
            raise DimensionMismatch(
                f"{m.ncols}-column matrix in a space of dimension {self.dim}"
            )
        return self.coerce_field(m)

    def coerce_field(self, m: Matrix) -> Matrix:
        """m, of any shape, over the space's field; as coerce_matrix otherwise."""
        out = _in_field(m, self.d)
        if out is not None:
            return out
        if self.kind == HERMITIAN:
            raise ValueError(f"entry over d={m._ints[3]} in a space over d={self.d}")
        raise ValueError("imaginary entry in a rational form space")

    def pair(self, u: Sequence, v: Sequence):
        """Form value (u, v); linear in u, conjugate-linear in v."""
        return (Matrix([u]) * self.gram).mul_adjoint(Matrix([v]))[0, 0]

    def norm(self, v: Sequence) -> Fraction:
        """(v, v); rational even in the hermitian case."""
        return as_fraction(self.pair(v, v))

    @cached_property
    def _pivots(self) -> list[int]:
        """The congruent pivots of the integer form, computed once per space."""
        return _congruent_pivots(integer_form(self)[0])

    @cached_property
    def _signature(self) -> "Signature":
        """signature_of's counts, computed once per space."""
        pivots = self._pivots
        plus = sum((p > 0) == (q > 0) for p, q in zip(pivots, [1] + pivots))
        counts = (plus, len(pivots) - plus)
        if self.kind == HERMITIAN:
            counts = tuple(c // 2 for c in counts)
        return Signature(*counts, self.dim - sum(counts))


@dataclass(frozen=True)
class Signature:
    plus: int
    minus: int
    null: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.plus, self.minus, self.null)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by basis rows inside a form space.

    The constructor does not canonicalize: deserialized certificate data is
    stored verbatim so the verifier can report violations instead of
    crashing.  Use :func:`canonical_subspace` to build canonical instances.
    """

    space: FormSpace
    basis: Matrix

    def __post_init__(self):
        object.__setattr__(self, "basis", self.space.coerce_matrix(self.basis))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_canonical(self) -> bool:
        return self.basis == rref_basis(self.basis)

    def is_isotropic(self) -> bool:
        return pairing_matrix(self.space, self, self).is_zero()


def canonical_subspace(space: FormSpace, rows: Matrix | Iterable[Iterable]) -> Subspace:
    """Unique representative of the span of the given rows."""
    if not isinstance(rows, Matrix):
        rows = Matrix(rows, ncols=space.dim)
    return Subspace(space, rref_basis(space.coerce_matrix(rows)))


def zero_subspace(space: FormSpace) -> Subspace:
    return Subspace(space, Matrix([], ncols=space.dim))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _same_space(a, b)
    return canonical_subspace(a.space, Matrix.vstack(a.basis, b.basis))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """The canonical basis of A & B, from one elimination (Zassenhaus).

    The rows of [[A, A], [B, 0]] combine to (x*A + y*B, x*A); a combination
    with first half zero has x*A = -y*B in A & B, and every vector of A & B
    arises so.  Reduced, the rows whose pivots lie in the second half are
    zero in the first, and their second halves are the reduced echelon basis
    of A & B: no second elimination is needed.
    """
    _same_space(a, b)
    n, d = a.space.dim, a.space.d
    (ar, ai, _, _), (br, bi, _, _) = a.basis._ints, b.basis._ints
    stack = lambda x, y: [r + r for r in x] + [r + [0] * n for r in y]
    im = None
    if ai is not None or bi is not None:
        im = stack(ai or [[0] * n] * a.dim, bi or [[0] * n] * b.dim)
    re, im, den, pivots = _reduced(stack(ar, br), im, d, 2 * n)
    rows = [i for i, c in enumerate(pivots) if c >= n]
    im = None if im is None else [im[i][n:] for i in rows]
    basis = _canonical([re[i][n:] for i in rows], im, [den[i] for i in rows], d, n)
    return Subspace(a.space, basis)


def subspace_contains(big: Subspace, small: Subspace) -> bool:
    _same_space(big, small)
    stacked = Matrix.vstack(big.basis, small.basis)
    return stacked.rank() == big.basis.rank()


def _same_space(a: Subspace, b: Subspace) -> None:
    if a.space != b.space:
        raise DimensionMismatch("subspaces live in different form spaces")


def pairing_matrix(space: FormSpace, a: Subspace, b: Subspace) -> Matrix:
    """Matrix of form values (a_i, b_j) between the two bases."""
    return (a.basis * space.gram).mul_adjoint(b.basis)


def integer_form(space: FormSpace) -> tuple[list[list[int]], int]:
    """(S, den) with x * S * x^T = den * (v, v) and den > 0.

    x holds the coordinates of v: its entries, or for a hermitian space the
    interleaved parts (a_0, b_0, a_1, b_1, ...) of the entries
    v_i = a_i + b_i*sqrt(-d).  With Gram entries (g_ij + h_ij*sqrt(-d))/den,
    h(v, v) * den = sum g_ij (a_i a_j + d b_i b_j) + 2d sum h_ij a_i b_j, a
    rational form in 2n variables; S is its symmetric integer matrix.
    """
    g, h, den = _one_denominator(space.gram._ints)
    if space.kind != HERMITIAN:
        return [list(r) for r in g], den
    d, n = space.d, space.dim
    s = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            s[2 * i][2 * j] = g[i][j]
            s[2 * i + 1][2 * j + 1] = d * g[i][j]
            if h is not None:
                s[2 * i][2 * j + 1] = s[2 * j + 1][2 * i] = d * h[i][j]
    return s, den


def _congruent_pivots(s: list[list[int]]) -> list[int]:
    """Pivots d_1, ..., d_r of a fraction-free congruent elimination of s.

    Symmetric Bareiss elimination of a symmetric integer matrix: each step
    pivots on the first nonzero diagonal entry of the remaining block
    (moving its row and column to the front together), or, when every
    remaining diagonal entry is zero, first sets b_i <- b_i + b_j for the
    first a_ij != 0, which makes a_ii = 2 a_ij.  Every update divides
    exactly by the previous pivot, so d_k is the k-th leading principal
    minor of P * s * P^T for the unimodular basis change P made so far, and
    every intermediate entry is a minor of it.  r is the rank of s.
    """
    a = [list(row) for row in s]
    pivots: list[int] = []
    prev = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            pairs = [(i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
            if not pairs:
                break
            k, j = pairs[0]
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        pivot_row = a.pop(k)  # also the pivot column, by symmetry
        p = pivot_row.pop(k)
        for row in a:
            c = row.pop(k)
            row[:] = [(p * x - c * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(p)
        prev = p
    return pivots


def signature_of(space: FormSpace) -> Signature:
    """Inertia counts of the integer form, by Jacobi's rule on its pivots.

    The k-th diagonal entry of the congruent diagonalization has the sign of
    d_k * d_(k-1) (d_0 = 1).  A hermitian form of signature (p, q) is a
    rational form of signature (2p, 2q) in 2n variables, so its counts are
    halved.
    """
    if space.kind == ALTERNATING:
        raise AlternatingHasNoSignature("alternating forms have no signature")
    return space._signature


def orthogonal_complement(space: FormSpace, s: Subspace) -> Subspace:
    """All vectors pairing to zero with the given subspace."""
    if s.space != space:
        raise DimensionMismatch("subspace belongs to a different space")
    # v pairs to zero with s iff (s * G) * conj(v)^T == 0, so the complement
    # is the right kernel of conj(s * G); that matrix is (G * s^H)^T up to
    # sign for all three kinds
    m = (s.basis * space.gram).conjugate()
    # The kernel of m with its columns reversed, read back in reverse, is
    # the canonical basis as it stands: each row's leading 1 sits in a free
    # column and its other entries in later pivot columns, so no second
    # elimination is needed.
    flip = slice(None, None, -1)
    kernel = m.submatrix(cols=flip).right_kernel()
    return Subspace(space, kernel.submatrix(rows=flip, cols=flip))


def pairing_kernels(
    space: FormSpace, a: Subspace, b: Subspace
) -> tuple[Subspace, Subspace]:
    """Kernels of the pairing restricted to a x b, on each side.

    The form is hermitian or skew, so (s, b) = 0 and (b, s) = 0 cut the
    same kernel in a.
    """
    return pairing_kernel(space, b, a), pairing_kernel(space, a, b)


def pairing_kernel(space: FormSpace, a: Subspace, b: Subspace) -> Subspace:
    """{ t in b : (a, t) = 0 }, the kernel of the pairing on the b side."""
    coeffs = pairing_matrix(space, a, b).right_kernel().conjugate()
    return canonical_subspace(space, coeffs * b.basis)


def is_perfect_pairing(space: FormSpace, a: Subspace, b: Subspace) -> bool:
    if a.dim != b.dim:
        return False
    return pairing_matrix(space, a, b).det() != 0


def restricted_space(space: FormSpace, basis: Matrix) -> FormSpace:
    """Form space induced on the (nondegenerate) span of the given rows."""
    gram = (basis * space.gram).mul_adjoint(basis)
    return FormSpace(space.kind, gram, space.d)


def coordinate_map(basis: Matrix) -> Matrix:
    """The right inverse basis^H (basis basis^H)^-1 of independent rows.

    A row x * basis of their span times it gives back its coordinates x;
    a row outside the span gives the coordinates of its projection.
    M = basis basis^H is hermitian, so the map is (M^-1 basis)^H, and
    M^-1 basis is read off one elimination of [M | basis].
    """
    k, n = basis.shape
    (mr, mi, md, _), (br, bi, bd, d) = basis.mul_adjoint(basis)._ints, basis._ints
    # row i of [M | basis] times md[i] * bd[i]; scaling a row leaves the
    # reduced form unchanged
    beside = lambda ms, bs: [
        [q * x for x in m] + [p * y for y in b] for m, b, p, q in zip(ms, bs, md, bd)
    ]
    im = None
    if mi is not None or bi is not None:
        im = beside(mi or [[0] * k] * k, bi or [[0] * n] * k)
    re, im, den, pivots = _reduced(beside(mr, br), im, d, k)
    if len(pivots) != k:
        raise ZeroDivisionError("basis rows are dependent")
    im = None if im is None else [r[k:] for r in im]
    return _canonical([r[k:] for r in re], im, den, d, n).conj_transpose()


def extend_basis_rows(sub: Matrix, within: Matrix) -> Matrix:
    """Rows of ``within`` extending span(sub) to span(within), greedily.

    The rows of ``sub`` must be independent, as a canonical basis is.  A row
    is taken when it is independent of ``sub`` and of the rows before it,
    which makes it a pivot column of the reduced echelon form of all the
    rows written as columns.
    """
    k = sub.nrows
    re, im, _, d = Matrix.vstack(sub, within).transpose()._ints
    pivots = _reduced(re, im, d, k + within.nrows)[3]
    return within.submatrix(rows=[c - k for c in pivots if c >= k])


@dataclass(frozen=True)
class SubquotientData:
    """The induced form on I-perp/I together with its coordinate maps.

    ``lift`` rows are coset representatives (quotient coordinates times
    ``lift`` land in I-perp); ``project`` maps ambient rows of I-perp onto
    quotient coordinates, with ``lift * project`` the identity.
    """

    space: FormSpace
    subspace: Subspace
    quotient: FormSpace
    lift: Matrix
    project: Matrix


def subquotient(space: FormSpace, iso: Subspace) -> SubquotientData:
    if iso.space != space:
        raise DimensionMismatch("subspace belongs to a different space")
    if not iso.is_isotropic():
        raise NotIsotropic("subquotient requires an isotropic subspace")
    return _subquotient(space, canonical_subspace(space, iso.basis))


def _subquotient(space: FormSpace, iso: Subspace) -> SubquotientData:
    """subquotient of a canonical isotropic subspace of the space, unchecked."""
    perp = orthogonal_complement(space, iso)
    lift = extend_basis_rows(iso.basis, perp.basis)
    quotient = restricted_space(space, lift)
    project = coordinate_map(Matrix.vstack(iso.basis, lift)).submatrix(cols=slice(iso.dim, None))
    return SubquotientData(space, iso, quotient, lift, project)


def push_subspace(data: SubquotientData, s: Subspace) -> Subspace:
    """Image of S with I <= S <= I-perp inside the subquotient."""
    if s.space != data.space:
        raise DimensionMismatch("subspace belongs to a different space")
    if not subspace_contains(s, data.subspace):
        raise NotNested("subspace does not contain the quotiented core")
    if not pairing_matrix(data.space, s, data.subspace).is_zero():
        raise NotNested("subspace is not inside the orthogonal of the core")
    image = _push_subspace(data, s)
    if image.dim != s.dim - data.subspace.dim:  # pragma: no cover - consistency
        raise NotNested("pushed dimension mismatch")
    return image


def _push_subspace(data: SubquotientData, s: Subspace) -> Subspace:
    """push_subspace of an S known to lie between I and I-perp, unchecked."""
    return canonical_subspace(data.quotient, s.basis * data.project)


def preserves_form(space: FormSpace, m: Matrix) -> bool:
    """Whether the column action of m is an isometry of the space."""
    if m.shape != (space.dim, space.dim):
        return False
    mt = space.coerce_field(m).transpose()
    return (mt * space.gram).mul_adjoint(mt) == space.gram


# -- standard spaces -------------------------------------------------------


def hyperbolic_plane() -> FormSpace:
    return FormSpace(SYMMETRIC, Matrix([[0, 1], [1, 0]]))


def standard_2u() -> FormSpace:
    """U perp U in the basis (e1, f1, e2, f2)."""
    return quadratic_2u_perp_diagonal(())


def quadratic_2u_perp_diagonal(diagonal: Sequence) -> FormSpace:
    """2U perp <d1, ..., dk> in the basis (e1, f1, e2, f2, u1, ..., uk)."""
    n = 4 + len(diagonal)
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = Fraction(1)
    rows[2][3] = rows[3][2] = Fraction(1)
    for i, dv in enumerate(diagonal):
        rows[4 + i][4 + i] = Fraction(dv)
    return FormSpace(SYMMETRIC, Matrix(rows))


def standard_symplectic(genus: int) -> FormSpace:
    """Block-diagonal [[0, 1], [-1, 0]] form in the basis (e1, f1, ..., eg, fg)."""
    n = 2 * genus
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(genus):
        rows[2 * i][2 * i + 1] = Fraction(1)
        rows[2 * i + 1][2 * i] = Fraction(-1)
    return FormSpace(ALTERNATING, Matrix(rows))


def standard_hermitian_hyperbolic(d: int, copies: int = 1) -> FormSpace:
    """Hyperbolic hermitian planes [[0, 1], [1, 0]] over Q(sqrt(-d))."""
    return hermitian_perp_diagonal(d, copies, ())


def hermitian_perp_diagonal(d: int, copies: int, diagonal: Sequence) -> FormSpace:
    """Hyperbolic hermitian planes perp a rational diagonal part."""
    n = 2 * copies + len(diagonal)
    rows = [[0] * n for _ in range(n)]
    for i in range(copies):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = 1
    for i, dv in enumerate(diagonal):
        rows[2 * copies + i][2 * copies + i] = Fraction(dv)
    return FormSpace(HERMITIAN, Matrix(rows), d)


def unit_vector(space: FormSpace, index: int) -> tuple:
    return space.coerce_field(Matrix.identity(space.dim)).rows[index]


def line(space: FormSpace, v: Sequence) -> Subspace:
    return canonical_subspace(space, space.coerce_row(v))
