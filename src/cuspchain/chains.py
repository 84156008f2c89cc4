"""Equivalence-chain certificates between isotropic subspaces.

A certificate records an ordered list of cusp data (isotropic subspaces of
one ambient form space) together with typed links whose witnesses make each
step checkable: boundary descents into a subquotient, product splits,
boundary planes, interior curves, and explicit isometries onto 2U.  Links
that bottom out on a modular curve carry a Manin-Drinfeld marker with no
computational content.

The verifier re-derives every condition from the stored witnesses and never
shares the builders' case analysis: malformed certificates produce failure
reports, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .errors import (
    CuspChainError,
    DimensionMismatch,
    ExcludedCase,
    FormKindMismatch,
    NotIsotropic,
    PreconditionFailed,
    SignatureMismatch,
    SignatureUnsupported,
    _ensure,
)
from .exact import Matrix, as_fraction
from .forms import (
    ALTERNATING,
    HERMITIAN,
    SYMMETRIC,
    FormSpace,
    Subspace,
    _push_subspace,
    _subquotient,
    canonical_subspace,
    coordinate_map,
    extend_basis_rows,
    is_perfect_pairing,
    orthogonal_complement,
    pairing_kernel,
    pairing_matrix,
    restricted_space,
    signature_of,
    standard_2u,
    subspace_contains,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)
from .isotropic import (
    MAX_HEIGHT,
    _check_max_height,
    _search_vector,
    j0_construct,
    split_off_kernels,
    third_isotropic_lines,
)

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
UNITARY = "unitary"

KIND_TO_FORM = {ORTHOGONAL: SYMMETRIC, SYMPLECTIC: ALTERNATING, UNITARY: HERMITIAN}

MANIN_DRINFELD_NOTE = (
    "base leaf: rational equivalence of modular-curve cusps (Manin-Drinfeld)"
)


@dataclass(frozen=True)
class ManinDrinfeldLeaf:
    """Marker that a link's equivalence rests on the Manin-Drinfeld theorem."""

    note: str = MANIN_DRINFELD_NOTE


@dataclass(frozen=True)
class BoundaryDescent:
    """Descend to the subquotient by the intersection of the two endpoints."""

    intersection: Subspace
    sub: "ChainCertificate"
    lift: Matrix
    project: Matrix


@dataclass(frozen=True)
class ProductSplit:
    """Split the ambient space as (I1 + I2) perp its complement."""

    span: Subspace
    complement: Subspace
    base: ManinDrinfeldLeaf = ManinDrinfeldLeaf()


@dataclass(frozen=True)
class OrthBoundaryPlane:
    """Join two isotropic lines through the isotropic plane they span."""

    plane: Subspace
    base: ManinDrinfeldLeaf = ManinDrinfeldLeaf()


@dataclass(frozen=True)
class OrthInteriorCurve:
    """Join two pairing lines through a positive-norm vector orthogonal to both."""

    vector: tuple
    base: ManinDrinfeldLeaf = ManinDrinfeldLeaf()


@dataclass(frozen=True)
class OrthSegre:
    """Explicit isometry carrying the standard 2U onto the span of two planes.

    The witness rows are the images of the standard basis (e1, f1, e2, f2);
    rows (2, 0) must span the first endpoint and rows (3, 1) the second.
    """

    witness: Matrix
    base: ManinDrinfeldLeaf = ManinDrinfeldLeaf()


Link = Union[BoundaryDescent, ProductSplit, OrthBoundaryPlane, OrthInteriorCurve, OrthSegre]


@dataclass(frozen=True)
class ChainCertificate:
    ambient: FormSpace
    kind: str
    nodes: tuple[Subspace, ...]
    links: tuple[Link, ...]


@dataclass(frozen=True)
class Failure:
    link: int  # -1 for certificate-level conditions
    condition: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[Failure, ...]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _check_endpoints(space: FormSpace, kind: str, i1: Subspace, i2: Subspace):
    if space.kind != KIND_TO_FORM[kind]:
        raise FormKindMismatch(
            f"{kind} chains need a {KIND_TO_FORM[kind]} space, got {space.kind}"
        )
    if i1.space != space or i2.space != space:
        raise DimensionMismatch("cusp data must live in the given space")
    a = canonical_subspace(space, i1.basis)
    b = canonical_subspace(space, i2.basis)
    if a.dim != b.dim:
        raise DimensionMismatch(f"cusp data of dimensions {a.dim} != {b.dim}")
    if a.dim == 0:
        raise DimensionMismatch("cusp data must be nonzero subspaces")
    for s in (a, b):
        if not s.is_isotropic():
            raise NotIsotropic("cusp data must be isotropic")
    return a, b


def build_chain_orthogonal(
    space: FormSpace,
    i1: Subspace,
    i2: Subspace,
    max_height: int = MAX_HEIGHT,
) -> ChainCertificate:
    """Certificate joining two isotropic lines or planes of a (2, n) space.

    Only an interior curve searches, through shells up to ``max_height``."""
    _check_max_height(max_height)
    a, b = _check_endpoints(space, ORTHOGONAL, i1, i2)
    sig = signature_of(space)
    if sig.plus != 2 or sig.null != 0:
        raise SignatureMismatch(f"need signature (2, n), got {sig.as_tuple()}")
    n = sig.minus
    if a.dim not in (1, 2):
        raise DimensionMismatch("orthogonal cusp data have dimension 1 or 2")
    if a.dim == 2 and n < 3:
        raise ExcludedCase("(n, k) = (2, 1) is excluded; need n >= 3 for planes")
    if a == b:
        return ChainCertificate(space, ORTHOGONAL, (a,), ())
    if a.dim == 1:
        if pairing_matrix(space, a, b).is_zero():
            plane = subspace_sum(a, b)
            link = OrthBoundaryPlane(plane=plane)
        else:
            link = OrthInteriorCurve(vector=_interior_vector(space, a, b, max_height))
        return ChainCertificate(space, ORTHOGONAL, (a, b), (link,))
    meet = subspace_intersection(a, b)
    if meet.dim == 0:
        return ChainCertificate(
            space, ORTHOGONAL, (a, b), (OrthSegre(witness=_segre_witness(space, a, b)),)
        )
    # intersecting planes: route through two auxiliary planes
    core = meet  # the common line
    a_rest = canonical_subspace(space, extend_basis_rows(core.basis, a.basis))
    b_rest = canonical_subspace(space, extend_basis_rows(core.basis, b.basis))
    _ensure(
        not pairing_matrix(space, a_rest, b_rest).is_zero(),
        "residual lines unexpectedly pair to zero",
    )
    split = subspace_sum(a_rest, b_rest)
    comp = orthogonal_complement(space, split)
    sub = restricted_space(space, comp.basis)
    (core_local,) = _to_local(sub, comp.basis, core)
    l3_local, l4_local = third_isotropic_lines(sub, core_local)
    l3 = canonical_subspace(space, l3_local.basis * comp.basis)
    l4 = canonical_subspace(space, l4_local.basis * comp.basis)
    p3 = subspace_sum(l4, b_rest)
    p4 = subspace_sum(l3, a_rest)
    links = (
        OrthSegre(witness=_segre_witness(space, a, p3)),
        OrthSegre(witness=_segre_witness(space, p3, p4)),
        OrthSegre(witness=_segre_witness(space, p4, b)),
    )
    return ChainCertificate(space, ORTHOGONAL, (a, p3, p4, b), links)


def _interior_vector(
    space: FormSpace, a: Subspace, b: Subspace, max_height: int
) -> tuple:
    span = subspace_sum(a, b)
    comp = orthogonal_complement(space, span)
    sub = restricted_space(space, comp.basis)
    local = _search_vector(
        sub, lambda n: n > 0, max_height, "positive vector orthogonal to both lines"
    )
    return tuple((Matrix([local]) * comp.basis).rows[0])


def _segre_witness(space: FormSpace, j1: Subspace, j2: Subspace) -> Matrix:
    """Images of (e1, f1, e2, f2) under an isometry 2U -> J1 + J2."""
    if j1.dim != 2 or j2.dim != 2:
        raise PreconditionFailed("need perfectly paired isotropic planes")
    try:
        p_inv = pairing_matrix(space, j1, j2).inverse()
    except ZeroDivisionError:
        raise PreconditionFailed("need perfectly paired isotropic planes") from None
    dual = p_inv.transpose() * j2.basis  # rows pair dually with j1 rows
    # rows a1, a2 of j1 and b1, b2 of dual, in the order (a1, b1, a2, b2)
    return Matrix.vstack(j1.basis, dual).submatrix(rows=[0, 2, 1, 3])


def build_chain_symplectic(
    space: FormSpace, i1: Subspace, i2: Subspace
) -> ChainCertificate:
    """Certificate joining two isotropic subspaces of a symplectic space."""
    a, b = _check_endpoints(space, SYMPLECTIC, i1, i2)
    nodes, links = _build_su_chain(space, SYMPLECTIC, a, b)
    return ChainCertificate(space, SYMPLECTIC, tuple(nodes), tuple(links))


def build_chain_unitary(
    space: FormSpace, i1: Subspace, i2: Subspace
) -> ChainCertificate:
    """Certificate joining two isotropic K-subspaces of a hermitian space."""
    a, b = _check_endpoints(space, UNITARY, i1, i2)
    sig = signature_of(space)
    if sig.plus > sig.minus:
        raise SignatureUnsupported(
            f"need signature (p, q) with p <= q, got {sig.as_tuple()}"
        )
    nodes, links = _build_su_chain(space, UNITARY, a, b)
    return ChainCertificate(space, UNITARY, tuple(nodes), tuple(links))


def _build_su_chain(space, kind, a, b, meet=None):
    """Shared symplectic/unitary recursion over the three pairing cases.

    ``meet`` is a & b when the caller knows it, else None and it is
    computed.  Two callers know it, both from a & b = 0.  The descent into
    M-perp/M, M = a & b, passes the zero subspace: a/M and b/M meet in M/M.
    The two halves through third = j1 + (j1-perp & b), j1 a line of a, pass
    j1 and j1-perp & b: a vector of a & third beyond j1, or of third & b
    beyond j1-perp & b, would give a nonzero vector of a & b.
    """
    if a == b:
        return [a], []
    if meet is None:
        meet = subspace_intersection(a, b)
    if meet.dim != 0:
        # meet = a & b is canonical, and a and b are isotropic and contain it,
        # so both lie between meet and its orthogonal: nothing is left to check
        data = _subquotient(space, meet)
        a_q = _push_subspace(data, a)
        b_q = _push_subspace(data, b)
        sub_nodes, sub_links = _build_su_chain(
            data.quotient, kind, a_q, b_q, zero_subspace(data.quotient)
        )
        sub = ChainCertificate(data.quotient, kind, tuple(sub_nodes), tuple(sub_links))
        link = BoundaryDescent(
            intersection=meet, sub=sub, lift=data.lift, project=data.project
        )
        return [a, b], [link]
    if is_perfect_pairing(space, a, b):
        if a.dim == 1:
            span = subspace_sum(a, b)
            comp = orthogonal_complement(space, span)
            return [a, b], [ProductSplit(span=span, complement=comp)]
        # interpolate through a third cusp meeting both
        j1 = canonical_subspace(space, a.basis.submatrix(rows=[0]))
        j1_perp_b = pairing_kernel(space, j1, b)
        third = subspace_sum(j1, j1_perp_b)
        left_nodes, left_links = _build_su_chain(space, kind, a, third, j1)
        right_nodes, right_links = _build_su_chain(space, kind, third, b, j1_perp_b)
        return left_nodes + right_nodes[1:], left_links + right_links
    # trivial intersection, imperfect pairing: route through J0-based cusps
    j1, k1, j2, k2 = split_off_kernels(space, a, b)
    span = subspace_sum(k1, k2)
    comp = orthogonal_complement(space, span)
    sub = restricted_space(space, comp.basis)
    j1_local, j2_local = _to_local(sub, comp.basis, j1, j2)
    j0_local = j0_construct(sub, j1_local, j2_local)
    j0 = canonical_subspace(space, j0_local.basis * comp.basis)
    mid3 = subspace_sum(j0, k2)
    mid4 = subspace_sum(j0, k1)
    nodes, links = _build_su_chain(space, kind, a, mid3)
    middle_nodes, middle_links = _build_su_chain(space, kind, mid3, mid4)
    nodes, links = nodes + middle_nodes[1:], links + middle_links
    tail_nodes, tail_links = _build_su_chain(space, kind, mid4, b)
    return nodes + tail_nodes[1:], links + tail_links


def _to_local(sub: FormSpace, basis: Matrix, *subspaces: Subspace) -> list[Subspace]:
    """Each subspace in the coordinates of ``sub``, the span of ``basis``'s rows.

    A subspace's rows map to coordinates by one product with the
    coordinate map of ``basis``; they lie in its span iff the coordinates
    times ``basis`` give them back.
    """
    to_coords = coordinate_map(basis)
    out = []
    for s in subspaces:
        coords = s.basis * to_coords
        if coords * basis != s.basis:
            raise PreconditionFailed("subspace does not lie in the restricted span")
        out.append(canonical_subspace(sub, coords))
    return out


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def verify_certificate(cert: ChainCertificate) -> VerificationReport:
    """Re-check every certificate condition from scratch.

    All problems are reported as failures; nothing raises.  Link index -1
    marks certificate-level conditions.
    """
    failures: list[Failure] = []
    _verify_into(cert, failures)
    return VerificationReport(ok=not failures, failures=tuple(failures))


# what checking a malformed in-memory certificate or link raises; each is
# reported as a failure
_CHECK_ERRORS = (
    AttributeError, CuspChainError, TypeError, ValueError, ZeroDivisionError
)


def _verify_into(cert: ChainCertificate, failures: list[Failure]) -> None:
    fail = lambda link, cond, detail: failures.append(Failure(link, cond, detail))
    try:
        if not _check_certificate(cert, fail):
            return
    except _CHECK_ERRORS as exc:
        fail(-1, "certificate-error", f"{type(exc).__name__}: {exc}")
        return
    for idx, link in enumerate(cert.links):
        _verify_link(cert, idx, link, cert.nodes[idx], cert.nodes[idx + 1], failures)


def _check_certificate(cert: ChainCertificate, fail) -> bool:
    """Certificate-level conditions; whether the links can be checked."""
    space = cert.ambient
    if cert.kind not in KIND_TO_FORM:
        fail(-1, "certificate-kind", f"unknown kind {cert.kind!r}")
        return False
    if space.kind != KIND_TO_FORM[cert.kind]:
        fail(
            -1,
            "ambient-kind",
            f"{cert.kind} certificate over a {space.kind} space",
        )
        return False
    if not cert.nodes:
        fail(-1, "node-count", "certificate has no nodes")
        return False
    if len(cert.links) != len(cert.nodes) - 1:
        fail(
            -1,
            "link-count",
            f"{len(cert.links)} links cannot join {len(cert.nodes)} nodes",
        )
        return False
    dims = set()
    for idx, node in enumerate(cert.nodes):
        if node.space != space:
            fail(-1, "node-space", f"node {idx} lives in a different space")
            return False
        if not node.is_canonical():
            fail(-1, "node-canonical", f"node {idx} basis is not canonical")
        if not node.is_isotropic():
            fail(-1, "node-isotropic", f"node {idx} is not isotropic")
        dims.add(node.dim)
    if len(dims) != 1:
        fail(-1, "node-dimension", f"nodes of unequal dimensions {sorted(dims)}")
        return False
    node_dim = cert.nodes[0].dim
    if node_dim == 0:
        fail(-1, "node-dimension", "nodes must be nonzero subspaces")
        return False
    if cert.kind == ORTHOGONAL:
        sig = signature_of(space)
        if sig.plus != 2 or sig.null != 0:
            fail(-1, "ambient-signature", f"signature {sig.as_tuple()} is not (2, n)")
        if node_dim not in (1, 2):
            fail(-1, "node-dimension", f"orthogonal cusp data of dimension {node_dim}")
        if node_dim == 1 and len(cert.links) > 2:
            fail(
                -1,
                "chain-length",
                f"{len(cert.links)} links exceed the bound 2 for point cusps",
            )
    else:
        if cert.kind == UNITARY:
            sig = signature_of(space)
            if sig.plus > sig.minus:
                fail(
                    -1,
                    "ambient-signature",
                    f"signature {sig.as_tuple()} has p > q",
                )
        if node_dim > 1 and len(cert.links) > 5:
            fail(
                -1,
                "chain-length",
                f"{len(cert.links)} links exceed the bound 5 for non-maximal cusps",
            )
    return True


def _verify_link(cert, idx, link, left, right, failures):
    """Checks shared by every link, then the checker its type declares."""
    fail = lambda cond, detail: failures.append(Failure(idx, cond, detail))
    link_type = LINK_TYPES.get(type(link))
    if link_type is None:
        fail("link-kind", f"unknown link type {type(link).__name__}")
    elif cert.kind not in link_type.kinds:
        fail("link-kind", link_type.kind_rule)
    elif link_type.node_dim not in (None, left.dim):
        fail("link-node-dimension", link_type.dim_rule)
    else:
        try:
            link_type.check(cert, link, left, right, fail)
        except _CHECK_ERRORS as exc:
            fail("link-error", f"{type(exc).__name__}: {exc}")


# Each checker re-derives one link type's conditions from its stored
# witnesses using only form and matrix primitives, never builder helpers.


def _check_boundary_plane(cert, link, left, right, fail):
    space = cert.ambient
    plane = link.plane
    if plane.space != space:
        fail("plane-shape", "plane lives in a different space")
        return
    if not plane.is_canonical():
        fail("plane-canonical", "plane basis is not canonical")
    if plane.dim != 2:
        fail("plane-dimension", f"plane has dimension {plane.dim}")
        return
    if not plane.is_isotropic():
        fail("plane-isotropic", "plane is not isotropic")
    for name, node in (("first", left), ("second", right)):
        if not subspace_contains(plane, node):
            fail("plane-contains-endpoints", f"plane misses the {name} endpoint")


def _check_interior_curve(cert, link, left, right, fail):
    space = cert.ambient
    try:
        v = space.coerce_row(link.vector)
    except (CuspChainError, ValueError) as exc:
        fail("vector-shape", str(exc))
        return
    vg = v * space.gram
    norm = as_fraction(vg.mul_adjoint(v)[0, 0])
    if norm <= 0:
        fail("vector-positive-norm", f"(v, v) = {norm} is not positive")
    span = subspace_sum(left, right)
    if not vg.mul_adjoint(span.basis).is_zero():
        fail("vector-orthogonal", "vector is not orthogonal to both endpoints")
    if pairing_matrix(space, left, right).is_zero():
        fail("endpoints-pairing-nonzero", "endpoints pair to zero")


def _check_segre(cert, link, left, right, fail):
    space = cert.ambient
    w = link.witness
    if w.shape != (4, space.dim):
        fail("witness-shape", f"witness has shape {w.shape}")
        return
    w = space.coerce_matrix(w)
    if (w * space.gram).mul_adjoint(w) != standard_2u().gram:
        fail("witness-isometry", "witness rows do not realize the 2U Gram matrix")
    first = canonical_subspace(space, w.submatrix(rows=[2, 0]))
    second = canonical_subspace(space, w.submatrix(rows=[3, 1]))
    if first != canonical_subspace(space, left.basis):
        fail("witness-first-plane", "rows (2, 0) do not span the first endpoint")
    if second != canonical_subspace(space, right.basis):
        fail("witness-second-plane", "rows (3, 1) do not span the second endpoint")


def _check_product_split(cert, link, left, right, fail):
    space = cert.ambient
    if pairing_matrix(space, left, right).det() == 0:
        fail("endpoints-pairing-perfect", "endpoint pairing is not perfect")
    span, comp = link.span, link.complement
    if span.space != space or comp.space != space:
        fail("split-shape", "split subspaces live in a different space")
        return
    if not span.is_canonical():
        fail("split-canonical", "split basis is not canonical")
    if not comp.is_canonical():
        fail("complement-canonical", "complement basis is not canonical")
    if span != subspace_sum(left, right):
        fail("split-is-endpoint-span", "split is not the span of the endpoints")
    if pairing_matrix(space, span, span).det() == 0:
        fail("split-nondegenerate", "split carries a degenerate form")
    if comp != orthogonal_complement(space, span):
        fail("complement-matches", "complement is not the orthogonal complement")
    if pairing_matrix(space, comp, comp).det() == 0:
        fail("complement-nondegenerate", "complement carries a degenerate form")
    if span.dim + comp.dim != space.dim:
        fail("decomposition-spans", "split and complement do not fill the space")


def _check_boundary_descent(cert, link, left, right, fail):
    space = cert.ambient
    meet = subspace_intersection(left, right)
    if link.intersection.space != space:
        fail("intersection-shape", "intersection lives in a different space")
        return
    if not link.intersection.is_canonical():
        fail("intersection-canonical", "intersection basis is not canonical")
    if link.intersection != meet:
        fail("intersection-matches", "stored intersection differs from the nodes'")
        return
    if meet.dim == 0:
        fail("intersection-nonzero", "endpoints intersect trivially")
        return
    sub = link.sub
    if sub.kind != cert.kind:
        fail("sub-kind", f"sub-certificate kind {sub.kind!r} differs")
        return
    k, m = meet.dim, sub.ambient.dim
    if m != space.dim - 2 * k:
        fail(
            "quotient-dimension",
            f"sub-certificate dimension {m} != {space.dim} - 2*{k}",
        )
        return
    lift, project = link.lift, link.project
    if lift.shape != (m, space.dim):
        fail("lift-shape", f"lift has shape {lift.shape}")
        return
    if project.shape != (space.dim, m):
        fail("project-shape", f"project has shape {project.shape}")
        return
    lift = space.coerce_matrix(lift)
    project = space.coerce_field(project)
    lift_gram = lift * space.gram
    if not lift_gram.mul_adjoint(meet.basis).is_zero():
        fail("lift-orthogonal", "lift rows leave the orthogonal of the intersection")
    if sub.ambient.kind != space.kind or sub.ambient.d != space.d:
        fail("sub-ambient", "sub-certificate scalar field differs")
        return
    if lift_gram.mul_adjoint(lift) != sub.ambient.gram:
        fail("lift-gram", "lift rows do not realize the sub-certificate form")
    if lift * project != Matrix.identity(m):
        fail("project-identity", "project is not a left inverse of lift")
    if not (meet.basis * project).is_zero():
        fail("project-kills-intersection", "project does not kill the intersection")
    for name, node, expected in (
        ("first", left, sub.nodes[0] if sub.nodes else None),
        ("second", right, sub.nodes[-1] if sub.nodes else None),
    ):
        if expected is None:
            fail("sub-endpoints", "sub-certificate has no nodes")
            return
        coords = node.basis * project
        residual = node.basis - coords * lift
        if Matrix.vstack(meet.basis, residual).rank() != meet.dim:
            fail(
                "push-residual",
                f"{name} endpoint does not project along the intersection",
            )
        pushed = canonical_subspace(sub.ambient, coords)
        if pushed != expected:
            fail(
                "sub-endpoints",
                f"pushed {name} endpoint differs from the sub-certificate's",
            )
    sub_failures: list[Failure] = []
    _verify_into(sub, sub_failures)
    for g in sub_failures:
        fail(f"sub:{g.condition}", f"(sub link {g.link}) {g.detail}")


# ---------------------------------------------------------------------------
# link registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkType:
    """Everything the serializer and the verifier know about one link class.

    ``fields`` lists the JSON keys, in decoding order, with the name of the
    codec ``serialize`` applies to each.  The verifier reports ``kind_rule``
    for a link in a chain whose kind is not in ``kinds`` and ``dim_rule``
    for endpoints whose dimension is not ``node_dim`` (None: any), and
    otherwise runs ``check``.
    """

    tag: str
    fields: tuple[tuple[str, str], ...]
    kinds: tuple[str, ...]
    kind_rule: str
    check: Callable
    node_dim: int | None = None
    dim_rule: str = ""


LINK_TYPES: dict[type, LinkType] = {
    BoundaryDescent: LinkType(
        tag="boundary_descent",
        fields=(
            ("sub", "certificate"),
            ("intersection", "subspace"),
            ("lift", "ambient_matrix"),
            ("project", "quotient_matrix"),
        ),
        kinds=(SYMPLECTIC, UNITARY),
        kind_rule="boundary-descent link needs a symplectic or unitary chain",
        check=_check_boundary_descent,
    ),
    ProductSplit: LinkType(
        tag="product_split",
        fields=(("span", "subspace"), ("complement", "subspace"), ("base", "leaf")),
        kinds=(SYMPLECTIC, UNITARY),
        kind_rule="product-split link needs a symplectic or unitary chain",
        check=_check_product_split,
        node_dim=1,
        dim_rule="product-split link needs rank-1 endpoints",
    ),
    OrthBoundaryPlane: LinkType(
        tag="orth_boundary_plane",
        fields=(("plane", "subspace"), ("base", "leaf")),
        kinds=(ORTHOGONAL,),
        kind_rule="boundary-plane link outside an orthogonal chain",
        check=_check_boundary_plane,
        node_dim=1,
        dim_rule="boundary-plane link needs line endpoints",
    ),
    OrthInteriorCurve: LinkType(
        tag="orth_interior_curve",
        fields=(("vector", "vector"), ("base", "leaf")),
        kinds=(ORTHOGONAL,),
        kind_rule="interior-curve link outside an orthogonal chain",
        check=_check_interior_curve,
        node_dim=1,
        dim_rule="interior-curve link needs line endpoints",
    ),
    OrthSegre: LinkType(
        tag="orth_segre",
        fields=(("witness", "ambient_matrix"), ("base", "leaf")),
        kinds=(ORTHOGONAL,),
        kind_rule="2U-isometry link outside an orthogonal chain",
        check=_check_segre,
        node_dim=2,
        dim_rule="2U-isometry link needs plane endpoints",
    ),
}
