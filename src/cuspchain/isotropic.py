"""Constructive production of isotropic vectors and subspaces.

Searches enumerate primitive integer coordinate tuples shell by shell in a
fixed deterministic order, so every result is reproducible.  The Gram matrix
is lifted once per search to an integer form (:func:`forms.integer_form`).
Only the shell is enumerated, and a candidate's norm is split over its last
coordinate x as base + x * (lin + c * x): base and lin are computed once per
prefix of the other coordinates, so each candidate costs a few integer
operations whatever the dimension.  Only the accepted tuple becomes a vector
of ``Fraction``s or ``QuadFieldElement``s, and its norm is checked once more
in exact arithmetic.  The dual complement, third-line and J0 constructions
are built from exact linear solves plus the standard isotropy correction
w -> w - ((w,w)/2) v; their postconditions are explicit checks that raise
:class:`PostconditionFailed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
    conjugate_scalar,
    rref_basis,
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
    zero_subspace,
)


@dataclass(frozen=True)
class SearchConfig:
    """Hard cap on the shell height that vector searches reach."""

    max_height: int = 50

    def __post_init__(self):
        if self.max_height < 1:
            raise ValueError("need max_height >= 1")


DEFAULT_SEARCH = SearchConfig()


def _candidate_vectors(form: list[list[int]], max_height: int):
    """(raw, n) for primitive tuples raw by increasing shell, n = raw S raw^T.

    S is the symmetric integer ``form`` of :func:`integer_form`; the tuples
    come in the order of :func:`shell_tuples`.  With x the last coordinate
    and p the others, n = base + x * (lin + c * x), where base = p S' p^T
    over the head block, lin = 2 * p . (last column) and c the corner.  A
    tuple starts a new prefix exactly when x == h, so base and lin are
    recomputed there (before the gcd filter, since a prefix's first tuple
    may be non-primitive), and each candidate costs O(1).
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
                base = sum([c * raw[i] * raw[j] for i, j, c in head])
                lin = sum([c * raw[i] for i, c in column])
            if gcd(*raw) == 1:
                yield raw, base + x * (lin + corner * x)


def _search_vector(space: FormSpace, accept, max_height: int, what: str):
    """The first candidate v, as a vector of the space's scalars, that passes.

    ``accept`` is called on the integer n = den * (v, v) of
    :func:`integer_form`; den > 0, so n has the sign of (v, v).  For a
    hermitian space each coordinate a + b*sqrt(-d) contributes the pair
    (a, b), and the shell is the max over all |a|, |b|.  When no candidate
    up to ``max_height`` passes, SearchExhausted names the ``what`` sought,
    the candidates tried and the last shell reached.
    """
    form, den = integer_form(space)
    tried = 0
    raw = ()
    for raw, n in _candidate_vectors(form, max_height):
        tried += 1
        if accept(n):
            v = _exact_vector(space, raw)
            if space.norm(v) * den != n:
                raise PostconditionFailed(
                    f"integer norm {n}/{den} of {raw} disagrees with the exact norm"
                )
            return v
    height = max(map(abs, raw), default=0)
    raise SearchExhausted(
        f"no {what} of height <= {max_height} "
        f"({tried} candidates tried, last shell reached {height})"
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
    space: FormSpace, cfg: SearchConfig = DEFAULT_SEARCH
) -> tuple | None:
    """First primitive isotropic vector at minimal shell height, or None.

    Alternating spaces return the first basis vector (every vector is
    isotropic).  Definite spaces short-circuit to None: they contain no
    nonzero isotropic vector at any height.
    """
    if space.dim == 0:
        return None
    if space.kind == ALTERNATING:
        return unit_vector(space, 0)
    sig = signature_of(space)
    if sig.plus == 0 or sig.minus == 0:
        return None
    try:
        return _search_vector(
            space, lambda n: n == 0, cfg.max_height, "isotropic vector"
        )
    except SearchExhausted:
        return None


def hyperbolic_complete(space: FormSpace, v) -> tuple:
    """A partner w with (v, w) = 1 and (w, w) = 0 for isotropic v."""
    v = space.coerce_vector(v)
    if all(x == 0 for x in v):
        raise VectorInRadical("zero vector cannot be completed")
    if space.pair(v, v) != 0:
        raise VectorNotIsotropic("hyperbolic completion needs an isotropic vector")
    return dual_isotropic_basis(space, Matrix([v]))[0]


def _solve_pairing_conditions(space: FormSpace, conditions):
    """Some x with (a, x) = c for each (a, c) condition, or None.

    The pairing is conjugate-linear in x, so the system is solved for
    conj(x) and conjugated back; for rational kinds this is a plain solve.
    """
    system = Matrix([a for a, _ in conditions], ncols=space.dim) * space.gram
    sol = system.solve([conjugate_scalar(space._coerce(c)) for _, c in conditions])
    if sol is None:
        return None
    return tuple(conjugate_scalar(x) for x in sol)


def dual_isotropic_basis(space: FormSpace, rows: Matrix) -> list[tuple]:
    """Vectors x_i with (w_j, x_i) = delta_ij, isotropic, pairwise orthogonal.

    ``rows`` must be the basis of an isotropic subspace of a nondegenerate
    space of dimension at least twice its rank.
    """
    basis = [space.coerce_vector(r) for r in rows.rows]
    k = len(basis)
    if k == 0:
        return []
    w = canonical_subspace(space, rows)
    if not w.is_isotropic():
        raise NotIsotropic("dual completion requires an isotropic subspace")
    if space.dim < 2 * k:
        raise DimensionTooSmall(
            f"dimension {space.dim} cannot carry dual pairs of rank {k}"
        )
    duals: list[tuple] = []
    for i in range(k):
        conditions = [(bj, 1 if j == i else 0) for j, bj in enumerate(basis)]
        conditions += [(x, 0) for x in duals]
        x = _solve_pairing_conditions(space, conditions)
        if x is None:  # pragma: no cover - impossible for nondegenerate spaces
            raise SearchExhausted("dual system unexpectedly inconsistent")
        if space.kind != ALTERNATING:
            half_norm = space.norm(x) / 2
            x = tuple(xx - half_norm * yy for xx, yy in zip(x, basis[i]))
        duals.append(x)
    for i, x in enumerate(duals):
        _ensure(space.pair(x, x) == 0, f"dual vector {i} is not isotropic")
        for j, bj in enumerate(basis):
            _ensure(
                space.pair(bj, x) == (1 if i == j else 0),
                f"dual vector {i} pairs wrongly with basis vector {j}",
            )
    return duals


def isotropic_dual_complement(space: FormSpace, w: Subspace) -> Subspace:
    """An isotropic W' of the same rank with the pairing (W, W') perfect."""
    if w.dim == 0:
        return zero_subspace(space)
    w = canonical_subspace(space, w.basis)
    duals = dual_isotropic_basis(space, w.basis)
    out = canonical_subspace(space, Matrix(duals, ncols=space.dim))
    _ensure(out.is_isotropic(), "dual complement is not isotropic")
    _ensure(
        is_perfect_pairing(space, w, out),
        "dual complement does not pair perfectly with the subspace",
    )
    return out


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
    v = canonical_subspace(space, iso_line.basis).basis.rows[0]
    w = hyperbolic_complete(space, v)
    plane = canonical_subspace(space, Matrix([v, w]))
    comp = orthogonal_complement(space, plane).basis
    u = (Matrix([[1] * comp.nrows]) * comp).rows[0]
    c = -space.norm(u)
    half = c / 2
    l3 = tuple(a + b + half * d for a, b, d in zip(v, u, w))
    l4 = tuple(a - b + half * d for a, b, d in zip(v, u, w))
    _ensure(
        space.pair(l3, l3) == 0 and space.pair(l4, l4) == 0,
        "third lines are not isotropic",
    )
    _ensure(
        rref_basis(Matrix([v, l3, l4])).nrows == 3,
        "third lines are not independent of the given line",
    )
    return (
        canonical_subspace(space, Matrix([l3])),
        canonical_subspace(space, Matrix([l4])),
    )


def j0_construct(space: FormSpace, j1: Subspace, j2: Subspace) -> Subspace:
    """An isotropic J0 pairing perfectly with both J1 and J2.

    Requires (J1, J2) identically zero, J1 and J2 of equal rank k meeting
    trivially, in an alternating or hermitian space of dimension >= 4k.
    """
    if space.kind not in (ALTERNATING, HERMITIAN):
        raise PreconditionFailed("J0 construction needs an alternating or hermitian space")
    if j1.dim != j2.dim:
        raise PreconditionFailed("J1 and J2 must have equal dimension")
    k = j1.dim
    if k == 0:
        return zero_subspace(space)
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
    rows = [
        tuple(x + y for x, y in zip(duals[i], duals[k + i])) for i in range(k)
    ]
    j0 = canonical_subspace(space, Matrix(rows, ncols=space.dim))
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
