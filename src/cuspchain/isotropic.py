"""Constructive production of isotropic vectors and subspaces.

Searches enumerate primitive integer coordinate tuples shell by shell in a
fixed deterministic order, so every result is reproducible.  The Gram matrix
is lifted once per search to an integer form (:func:`forms.integer_form`).
Only the shell is enumerated, and a candidate's norm is split over its last
coordinate x as base + x * (lin + c * x): base and lin are computed once per
prefix of the other coordinates, so each candidate costs a few integer
operations whatever the dimension.  The isotropic search goes further: it
finds the integer roots of c x^2 + lin x + base once per prefix and passes
over the prefix's other tuples with no gcd and no norm.  Only the accepted
tuple becomes a vector of ``Fraction``s or ``QuadFieldElement``s, and its
norm is checked once more in exact arithmetic.  An exhausted search names
the primitive tuples it passed, counted in closed form.  The dual basis,
dual complement, third-line and J0 constructions run on matrix rows: each
dual row is one solve of the stacked conditions, the standard isotropy
correction x -> x - ((x,x)/2) w is a row operation, and their
postconditions are Gram products, checked explicitly so that a violation
raises :class:`PostconditionFailed`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    DimensionTooSmall,
    NotIsotropic,
    PostconditionFailed,
    PreconditionFailed,
    SearchExhausted,
    SignatureMismatch,
    SubspacesIntersect,
    VectorInRadical,
    VectorNotIsotropic,
    _ensure,
)
from .exact import (
    Matrix,
    QuadFieldElement,
    as_fraction,
    shell_tuples,
)
from .forms import (
    ALTERNATING,
    HERMITIAN,
    FormSpace,
    Subspace,
    canonical_subspace,
    extend_basis_rows,
    integer_form,
    is_perfect_pairing,
    orthogonal_complement,
    pairing_kernels,
    pairing_matrix,
    signature_of,
    subspace_intersection,
    unit_vector,
)


# Default hard cap on the shell height that vector searches reach.
MAX_HEIGHT = 50


def _check_max_height(max_height: int) -> None:
    """Refuse a search bound below 1, before any work is done."""
    if max_height < 1:
        raise ValueError("need max_height >= 1")


def _candidate_vectors(form: list[list[int]], max_height: int, zeros: bool = False):
    """(raw, n) for primitive tuples raw by increasing shell, n = raw S raw^T.

    S is the symmetric integer ``form`` of :func:`integer_form`; the tuples
    come in the order of :func:`shell_tuples`.  With x the last coordinate
    and p the others, n = base + x * (lin + c * x), where base = p S' p^T
    over the head block, lin = 2 * p . (last column) and c the corner.  A
    tuple starts a new prefix exactly when x == h, so base and lin are
    recomputed there (before the gcd filter, since a prefix's first tuple
    may be non-primitive), and each candidate costs O(1).

    With ``zeros`` only the tuples with n == 0 come, in the same order: the
    integer roots of c x^2 + lin x + base are found once per prefix, and
    every other tuple of the prefix is passed over with no gcd and no norm.
    """
    last = len(form) - 1
    head = [
        (i, j, c if i == j else 2 * c)
        for i, row in enumerate(form[:last])
        for j, c in enumerate(row[i:last], i)
        if c
    ]
    column = [(i, 2 * row[last]) for i, row in enumerate(form[:last]) if row[last]]
    corner = form[last][last]
    for h in range(1, max_height + 1):
        for raw in shell_tuples(len(form), h):
            x = raw[last]
            if x == h:
                # plain loops: before Python 3.12 a comprehension is a function call
                base = lin = 0
                for i, j, c in head:
                    base += c * raw[i] * raw[j]
                for i, c in column:
                    lin += c * raw[i]
                if zeros:
                    everywhere = not (corner or lin or base)
                    roots = () if everywhere else _integer_roots(corner, lin, base)
            if zeros:
                if (everywhere or x in roots) and gcd(*raw) == 1:
                    yield raw, 0
            elif gcd(*raw) == 1:
                yield raw, base + x * (lin + corner * x)


def _integer_roots(c: int, lin: int, base: int) -> tuple:
    """The integers x with c x^2 + lin x + base == 0; not all three are 0."""
    if c == 0:
        return (-base // lin,) if lin and base % lin == 0 else ()
    disc = lin * lin - 4 * c * base
    if disc < 0:
        return ()
    r = isqrt(disc)
    if r * r != disc:
        return ()
    return tuple(-(lin + s) // (2 * c) for s in {r, -r} if (lin + s) % (2 * c) == 0)


def _primitive_count(width: int, height: int) -> int:
    """The number of primitive integer tuples of a width and max-norm <= height.

    Each nonzero tuple of height <= H is d times a primitive one of height
    <= H // d, so by Moebius inversion the count is
    sum over d <= H of mu(d) * ((2 * (H // d) + 1)^width - 1).
    """
    mu = [0, 1] + [0] * (height - 1)
    for n in range(1, height + 1):
        for m in range(2 * n, height + 1, n):
            mu[m] -= mu[n]
    return sum(mu[d] * ((2 * (height // d) + 1) ** width - 1) for d in range(1, height + 1))


def _search_vector(space: FormSpace, accept, max_height: int, what: str):
    """The first candidate v, as a vector of the space's scalars, that passes.

    ``accept`` is called on the integer n = den * (v, v) of
    :func:`integer_form`; den > 0, so n has the sign of (v, v).  With
    ``accept`` None the search seeks n == 0 and solves each prefix's
    quadratic in place of testing its tuples one by one.  For a hermitian
    space each coordinate a + b*sqrt(-d) contributes the pair (a, b), and
    the shell is the max over all |a|, |b|.  When no candidate up to
    ``max_height`` passes, SearchExhausted names the ``what`` sought, the
    candidates tried (every primitive tuple, counted in closed form) and
    the last shell reached (the highest shell holding a primitive tuple).
    """
    form, den = integer_form(space)
    zeros = accept is None
    for raw, n in _candidate_vectors(form, max_height, zeros):
        if zeros or accept(n):
            v = _exact_vector(space, raw)
            if space.norm(v) * den != n:
                raise PostconditionFailed(
                    f"integer norm {n}/{den} of {raw} disagrees with the exact norm"
                )
            return v
    width = len(form)
    raise SearchExhausted(
        f"no {what} of height <= {max_height} "
        f"({_primitive_count(width, max_height)} candidates tried, "
        f"last shell reached {max_height if width > 1 else 1})"
    )


def _exact_vector(space: FormSpace, raw: tuple) -> tuple:
    """The vector of the space's scalars whose search coordinates are raw."""
    if space.kind == HERMITIAN:
        return tuple(
            QuadFieldElement(raw[2 * i], raw[2 * i + 1], space.d)
            for i in range(space.dim)
        )
    return tuple(Fraction(x) for x in raw)


def find_isotropic_vector(
    space: FormSpace, max_height: int = MAX_HEIGHT
) -> tuple | None:
    """First primitive isotropic vector at minimal shell height, or None.

    Alternating spaces return the first basis vector (every vector is
    isotropic).  Definite spaces short-circuit to None: they contain no
    nonzero isotropic vector at any height.  Shells above ``max_height``
    are not searched.
    """
    _check_max_height(max_height)
    if space.dim == 0:
        return None
    if space.kind == ALTERNATING:
        return unit_vector(space, 0)
    sig = signature_of(space)
    if sig.plus == 0 or sig.minus == 0:
        return None
    try:
        return _search_vector(space, None, max_height, "isotropic vector")
    except SearchExhausted:
        return None


def hyperbolic_complete(space: FormSpace, v) -> tuple:
    """A partner w with (v, w) = 1 and (w, w) = 0 for isotropic v."""
    row = space.coerce_matrix(Matrix([v]))
    if row.is_zero():
        raise VectorInRadical("zero vector cannot be completed")
    if not (row * space.gram).mul_adjoint(row).is_zero():
        raise VectorNotIsotropic("hyperbolic completion needs an isotropic vector")
    return dual_isotropic_basis(space, row).rows[0]


def dual_isotropic_basis(space: FormSpace, rows: Matrix) -> Matrix:
    """Rows X with W G X^H = I and X G X^H = 0 for the rows W of ``rows``.

    ``rows`` must be the basis of an isotropic subspace of a nondegenerate
    space of dimension at least twice its rank.  Row i is solved from
    (w_j, x_i) = delta_ij and (x_j, x_i) = 0 for j < i, the free variables
    pinned to zero; the pairing is conjugate-linear in x_i, so the system
    is solved for conj(x_i), and the isotropy correction
    x_i - ((x_i, x_i)/2) w_i keeps every other condition.
    """
    w = space.coerce_matrix(rows)
    k = w.nrows
    if not (w * space.gram).mul_adjoint(w).is_zero():
        raise NotIsotropic("dual completion requires an isotropic subspace")
    if space.dim < 2 * k:
        raise DimensionTooSmall(
            f"dimension {space.dim} cannot carry dual pairs of rank {k}"
        )
    duals = Matrix([], ncols=space.dim)
    for i in range(k):
        system = Matrix.vstack(w, duals) * space.gram
        sol = system.solve([int(j == i) for j in range(k + i)])
        _ensure(sol is not None, "dual system unexpectedly inconsistent")
        x = Matrix([sol]).conjugate()
        if space.kind != ALTERNATING:
            half_norm = as_fraction((x * space.gram).mul_adjoint(x)[0, 0]) / 2
            x = x - half_norm * w.submatrix(rows=[i])
        duals = Matrix.vstack(duals, x)
    _ensure(
        (duals * space.gram).mul_adjoint(duals).is_zero(), "dual rows are not isotropic"
    )
    _ensure(
        (w * space.gram).mul_adjoint(duals) == Matrix.identity(k),
        "dual rows do not pair dually with the basis rows",
    )
    return duals


def isotropic_dual_complement(space: FormSpace, w: Subspace) -> Subspace:
    """An isotropic W' of the same rank with the pairing (W, W') perfect.

    W' is spanned by the dual rows of W's canonical basis, whose two Gram
    postconditions are exactly these properties.
    """
    w = canonical_subspace(space, w.basis)
    return canonical_subspace(space, dual_isotropic_basis(space, w.basis))


def third_isotropic_lines(
    space: FormSpace, iso_line: Subspace
) -> tuple[Subspace, Subspace]:
    """Two isotropic lines independent from the given one.

    Requires a symmetric space of signature (1, n-1) with n - 1 >= 2.  The
    line is completed to a hyperbolic pair (v, w); a negative vector u in
    the complement with (u, u) = -c gives the lines spanned by
    v + u + (c/2) w and v - u + (c/2) w.  The complement has signature
    (0, n-2), so u is simply the sum of its canonical basis rows.
    """
    if space.kind != "symmetric":
        raise SignatureMismatch("third-line construction needs a symmetric space")
    sig = signature_of(space)
    if sig.as_tuple() != (1, space.dim - 1, 0) or space.dim - 1 < 2:
        raise SignatureMismatch(
            f"signature {sig.as_tuple()} is not (1, n-1) with n-1 >= 2"
        )
    if iso_line.dim != 1 or not iso_line.is_isotropic():
        raise NotIsotropic("need an isotropic line")
    v = canonical_subspace(space, iso_line.basis).basis
    w = dual_isotropic_basis(space, v)
    plane = canonical_subspace(space, Matrix.vstack(v, w))
    comp = orthogonal_complement(space, plane).basis
    u = Matrix([[1] * comp.nrows]) * comp
    c = -(u * space.gram).mul_adjoint(u)[0, 0]
    half_w = (c / 2) * w
    lines = Matrix.vstack(v + u + half_w, v - u + half_w)
    norms = (lines * space.gram).mul_adjoint(lines)
    _ensure(norms[0, 0] == 0 and norms[1, 1] == 0, "third lines are not isotropic")
    _ensure(
        Matrix.vstack(v, lines).rank() == 3,
        "third lines are not independent of the given line",
    )
    return (
        canonical_subspace(space, lines.submatrix(rows=[0])),
        canonical_subspace(space, lines.submatrix(rows=[1])),
    )


def j0_construct(space: FormSpace, j1: Subspace, j2: Subspace) -> Subspace:
    """An isotropic J0 pairing perfectly with both J1 and J2.

    Requires (J1, J2) identically zero, J1 and J2 of equal rank k meeting
    trivially, in an alternating or hermitian space of dimension >= 4k.
    J0 is spanned by the sums x_i + y_i of the duals of J1's and J2's rows.
    """
    if space.kind not in (ALTERNATING, HERMITIAN):
        raise PreconditionFailed("J0 construction needs an alternating or hermitian space")
    if j1.dim != j2.dim:
        raise PreconditionFailed("J1 and J2 must have equal dimension")
    k = j1.dim
    if not (j1.is_isotropic() and j2.is_isotropic()):
        raise PreconditionFailed("J1 and J2 must be isotropic")
    if not pairing_matrix(space, j1, j2).is_zero():
        raise PreconditionFailed("the pairing (J1, J2) must vanish")
    if subspace_intersection(j1, j2).dim != 0:
        raise PreconditionFailed("J1 and J2 must intersect trivially")
    if space.dim < 4 * k:
        raise PreconditionFailed(
            f"dimension {space.dim} is too small for rank {k} dual pairs"
        )
    stacked = Matrix.vstack(
        canonical_subspace(space, j1.basis).basis,
        canonical_subspace(space, j2.basis).basis,
    )
    duals = dual_isotropic_basis(space, stacked)
    j0 = canonical_subspace(
        space, duals.submatrix(rows=slice(k)) + duals.submatrix(rows=slice(k, None))
    )
    _ensure(j0.dim == k and j0.is_isotropic(), f"J0 is not an isotropic {k}-space")
    _ensure(is_perfect_pairing(space, j0, j1), "J0 does not pair perfectly with J1")
    _ensure(is_perfect_pairing(space, j0, j2), "J0 does not pair perfectly with J2")
    return j0


def split_off_kernels(
    space: FormSpace, i1: Subspace, i2: Subspace
) -> tuple[Subspace, Subspace, Subspace, Subspace]:
    """Splittings I1 = J1 + K1 and I2 = J2 + K2 along the pairing kernels.

    J_i is the kernel of the pairing inside I_i; K_i is the deterministic
    complement obtained by extending J_i with rref-pivot rows of I_i.  The
    pairing between K1 and K2 is perfect and dim J1 = dim J2.
    """
    if subspace_intersection(i1, i2).dim != 0:
        raise SubspacesIntersect("the two subspaces must intersect trivially")
    i1 = canonical_subspace(space, i1.basis)
    i2 = canonical_subspace(space, i2.basis)
    j1, j2 = pairing_kernels(space, i1, i2)
    k1 = canonical_subspace(space, extend_basis_rows(j1.basis, i1.basis))
    k2 = canonical_subspace(space, extend_basis_rows(j2.basis, i2.basis))
    _ensure(j1.dim == j2.dim, "pairing kernels have different dimensions")
    _ensure(
        j1.dim + k1.dim == i1.dim and j2.dim + k2.dim == i2.dim,
        "kernel and complement do not split the subspaces",
    )
    _ensure(
        is_perfect_pairing(space, k1, k2),
        "complements K1 and K2 do not pair perfectly",
    )
    return j1, k1, j2, k2
