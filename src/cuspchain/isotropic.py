"""Constructive production of isotropic vectors and subspaces.

Searches enumerate primitive integer-coordinate vectors shell by shell in a
fixed deterministic order, so every result is reproducible.  The dual
complement, third-line and J0 constructions are built from exact linear
solves plus the standard isotropy correction w -> w - ((w,w)/2) v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionTooSmall,
    NotIsotropic,
    PreconditionFailed,
    SearchExhausted,
    SignatureMismatch,
    SubspacesIntersect,
    VectorInRadical,
    VectorNotIsotropic,
)
from .exact import (
    Matrix,
    QuadFieldElement,
    conjugate_scalar,
    rref_basis,
    shell_tuples,
    vector_gcd,
)
from .forms import (
    ALTERNATING,
    HERMITIAN,
    FormSpace,
    Subspace,
    canonical_subspace,
    extend_basis_rows,
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


def _candidate_vectors(space: FormSpace, max_height: int):
    """Primitive coordinate vectors by increasing shell, deterministic order.

    For hermitian spaces each coordinate is a + b*sqrt(-d) with integer a, b
    and the shell is the max over all |a|, |b|.
    """
    dim = space.dim
    hermitian = space.kind == HERMITIAN
    width = 2 * dim if hermitian else dim
    for h in range(1, max_height + 1):
        for raw in shell_tuples(width, h):
            if vector_gcd(raw) != 1:
                continue
            if hermitian:
                yield tuple(
                    QuadFieldElement(raw[2 * i], raw[2 * i + 1], space.d)
                    for i in range(dim)
                )
            else:
                yield tuple(Fraction(x) for x in raw)


def _search_vector(space: FormSpace, predicate, max_height: int):
    for v in _candidate_vectors(space, max_height):
        if predicate(v):
            return v
    return None


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
    return _search_vector(space, space.is_isotropic_vector, cfg.max_height)


def hyperbolic_complete(space: FormSpace, v) -> tuple:
    """A partner w with (v, w) = 1 and (w, w) = 0 for isotropic v."""
    v = space.coerce_vector(v)
    if all(x == 0 for x in v):
        raise VectorInRadical("zero vector cannot be completed")
    if space.pair(v, v) != 0:
        raise VectorNotIsotropic("hyperbolic completion needs an isotropic vector")
    w0 = _solve_pairing_conditions(space, [(v, 1)])
    if w0 is None:
        raise VectorInRadical("vector pairs to zero with the whole space")
    if space.kind == ALTERNATING:
        return w0
    half_norm = space.norm(w0) / 2
    w = tuple(x - half_norm * y for x, y in zip(w0, v))
    assert space.pair(v, w) == 1 and space.pair(w, w) == 0
    return w


def _solve_pairing_conditions(space: FormSpace, conditions):
    """Some x with (a, x) = c for each (a, c) condition, or None.

    The pairing is conjugate-linear in x, so the system is solved for
    conj(x) and conjugated back; for rational kinds this is a plain solve.
    """
    rows = []
    rhs = []
    for a, c in conditions:
        rows.append((Matrix([a]) * space.gram).rows[0])
        rhs.append(conjugate_scalar(space._coerce(c)))
    system = Matrix(rows, ncols=space.dim)
    sol = system.solve(rhs)
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
        assert space.pair(x, x) == 0
        for j, bj in enumerate(basis):
            assert space.pair(bj, x) == (1 if i == j else 0)
    return duals


def isotropic_dual_complement(space: FormSpace, w: Subspace) -> Subspace:
    """An isotropic W' of the same rank with the pairing (W, W') perfect."""
    if w.dim == 0:
        return zero_subspace(space)
    w = canonical_subspace(space, w.basis)
    duals = dual_isotropic_basis(space, w.basis)
    out = canonical_subspace(space, Matrix(duals, ncols=space.dim))
    assert out.is_isotropic()
    assert is_perfect_pairing(space, w, out)
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
    assert space.pair(l3, l3) == 0 and space.pair(l4, l4) == 0
    stacked = Matrix([v, l3, l4])
    assert rref_basis(stacked).nrows == 3
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
    assert j0.dim == k and j0.is_isotropic()
    assert is_perfect_pairing(space, j0, j1)
    assert is_perfect_pairing(space, j0, j2)
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
    assert j1.dim == j2.dim
    assert j1.dim + k1.dim == i1.dim and j2.dim + k2.dim == i2.dim
    assert is_perfect_pairing(space, k1, k2)
    return j1, k1, j2, k2
