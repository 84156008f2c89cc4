"""Chain builders and the independent certificate verifier."""

import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspchain import chains
from cuspchain.chains import (
    BoundaryDescent,
    ChainCertificate,
    OrthBoundaryPlane,
    OrthInteriorCurve,
    OrthSegre,
    ProductSplit,
    _to_local,
    build_chain_orthogonal,
    build_chain_symplectic,
    build_chain_unitary,
    verify_certificate,
)
from cuspchain.errors import (
    ExcludedCase,
    NotIsotropic,
    PreconditionFailed,
    SignatureUnsupported,
)
from cuspchain.exact import Matrix, QuadFieldElement
from cuspchain.forms import (
    FormSpace,
    Subspace,
    _push_subspace,
    _subquotient,
    canonical_subspace,
    is_perfect_pairing,
    line,
    pairing_kernel,
    quadratic_2u_perp_diagonal,
    restricted_space,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    subspace_intersection,
    subspace_sum,
    unit_vector,
)
from cuspchain.serialize import certificate_from_json, certificate_to_json

from support import (
    plain_json,
    random_orthogonal_isometry,
    random_symplectic_isometry,
    random_unitary_isometry,
    standard_isotropic,
    transform_subspace,
    unitary_test_space,
)


def plane(space, i, j):
    return canonical_subspace(
        space, Matrix([unit_vector(space, i), unit_vector(space, j)])
    )


class TestOrthogonalBuilder:
    def setup_method(self):
        self.space = quadratic_2u_perp_diagonal([-2])

    def test_orthogonal_lines_boundary_plane(self):
        e1 = line(self.space, unit_vector(self.space, 0))
        e2 = line(self.space, unit_vector(self.space, 2))
        cert = build_chain_orthogonal(self.space, e1, e2)
        assert len(cert.links) == 1
        assert isinstance(cert.links[0], OrthBoundaryPlane)
        assert cert.links[0].plane == plane(self.space, 0, 2)
        assert verify_certificate(cert).ok

    def test_bound_below_one_is_refused(self):
        # a boundary plane never searches; the bound is checked first
        e1 = line(self.space, unit_vector(self.space, 0))
        e2 = line(self.space, unit_vector(self.space, 2))
        with pytest.raises(ValueError, match="^need max_height >= 1$"):
            build_chain_orthogonal(self.space, e1, e2, max_height=0)

    def test_pairing_lines_interior_curve(self):
        e1 = line(self.space, unit_vector(self.space, 0))
        f1 = line(self.space, unit_vector(self.space, 1))
        cert = build_chain_orthogonal(self.space, e1, f1)
        assert len(cert.links) == 1
        link = cert.links[0]
        assert isinstance(link, OrthInteriorCurve)
        # search returns e2 + f2, of norm 2
        assert link.vector == self.space.coerce_row((0, 0, 1, 1, 0)).rows[0]
        assert verify_certificate(cert).ok

    def test_disjoint_planes_single_isometry_link(self):
        j1 = plane(self.space, 0, 2)
        j2 = plane(self.space, 1, 3)
        cert = build_chain_orthogonal(self.space, j1, j2)
        assert len(cert.links) == 1
        assert isinstance(cert.links[0], OrthSegre)
        assert verify_certificate(cert).ok

    def test_segre_witness_needs_perfectly_paired_planes(self):
        # the builder passes only planes that meet in zero, which pair
        # perfectly in signature (2, n); the witness refuses any other pair
        j1, j2 = plane(self.space, 0, 2), plane(self.space, 1, 3)
        e1 = line(self.space, unit_vector(self.space, 0))
        for left, right in ((j1, j1), (j1, plane(self.space, 0, 3)), (e1, j2)):
            with pytest.raises(
                PreconditionFailed, match="^need perfectly paired isotropic planes$"
            ):
                chains._segre_witness(self.space, left, right)

    def test_meeting_planes_three_isometry_links(self):
        j1 = plane(self.space, 0, 2)
        j2 = plane(self.space, 0, 3)
        cert = build_chain_orthogonal(self.space, j1, j2)
        assert len(cert.links) == 3
        assert all(isinstance(l, OrthSegre) for l in cert.links)
        assert cert.nodes[0] == j1 and cert.nodes[-1] == j2
        for left, right in zip(cert.nodes, cert.nodes[1:]):
            assert subspace_intersection(left, right).dim == 0
        assert verify_certificate(cert).ok

    def test_equal_inputs_trivial_certificate(self):
        e1 = line(self.space, unit_vector(self.space, 0))
        cert = build_chain_orthogonal(self.space, e1, e1)
        assert cert.nodes == (e1,)
        assert cert.links == ()
        assert verify_certificate(cert).ok

    def test_excluded_case(self):
        from cuspchain.forms import standard_2u

        space = standard_2u()
        j1 = plane(space, 0, 2)
        j2 = plane(space, 1, 3)
        with pytest.raises(ExcludedCase):
            build_chain_orthogonal(space, j1, j2)

    def test_rejects_non_isotropic(self):
        bad = line(self.space, (1, 1, 0, 0, 0))
        good = line(self.space, unit_vector(self.space, 0))
        with pytest.raises(NotIsotropic):
            build_chain_orthogonal(self.space, bad, good)


class TestSymplecticBuilder:
    def test_perfect_rank_one(self):
        space = standard_symplectic(2)
        cert = build_chain_symplectic(
            space,
            line(space, unit_vector(space, 0)),
            line(space, unit_vector(space, 1)),
        )
        assert [type(l) for l in cert.links] == [ProductSplit]
        link = cert.links[0]
        assert link.span == plane(space, 0, 1)
        assert link.complement == plane(space, 2, 3)
        assert verify_certificate(cert).ok

    def test_orthogonal_lines_via_j0(self):
        space = standard_symplectic(2)
        cert = build_chain_symplectic(
            space,
            line(space, unit_vector(space, 0)),
            line(space, unit_vector(space, 2)),
        )
        assert [type(l) for l in cert.links] == [ProductSplit, ProductSplit]
        assert cert.nodes[1] == line(space, (0, 1, 0, 1))  # f1 + f2
        assert verify_certificate(cert).ok

    def test_lagrangians_boundary_descent(self):
        space = standard_symplectic(2)
        l1 = standard_isotropic(space, 2, "e")
        l2 = standard_isotropic(space, 2, "f")
        cert = build_chain_symplectic(space, l1, l2)
        assert [type(l) for l in cert.links] == [BoundaryDescent, BoundaryDescent]
        # interpolating cusp span(e1, f2)
        assert cert.nodes[1] == plane(space, 0, 3)
        assert verify_certificate(cert).ok

    def test_intersecting_lagrangians(self):
        space = standard_symplectic(2)
        l1 = standard_isotropic(space, 2, "e")
        l3 = plane(space, 0, 3)  # e1, f2 shares e1 with l1
        cert = build_chain_symplectic(space, l1, l3)
        assert [type(l) for l in cert.links] == [BoundaryDescent]
        link = cert.links[0]
        assert link.intersection == line(space, unit_vector(space, 0))
        assert link.sub.ambient.dim == 2
        assert verify_certificate(cert).ok

    def test_mixed_case_three_parts(self):
        space = standard_symplectic(4)
        i1 = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )  # e1, e2
        i2 = canonical_subspace(
            space, Matrix([unit_vector(space, 1), unit_vector(space, 4)])
        )  # f1, e3: pairing has rank 1
        assert subspace_intersection(i1, i2).dim == 0
        cert = build_chain_symplectic(space, i1, i2)
        assert len(cert.links) <= 5
        assert verify_certificate(cert).ok

    def test_nodes_carry_endpoints(self):
        space = standard_symplectic(3)
        rng = random.Random(17)
        i1 = standard_isotropic(space, 2, "e")
        m = random_symplectic_isometry(space, rng, 4)
        i2 = transform_subspace(space, m, i1)
        cert = build_chain_symplectic(space, i1, i2)
        assert cert.nodes[0] == i1
        assert cert.nodes[-1] == i2
        assert verify_certificate(cert).ok


class TestUnitaryBuilder:
    def test_rank_one_base_case(self):
        space = standard_hermitian_hyperbolic(1)
        cert = build_chain_unitary(
            space,
            line(space, unit_vector(space, 0)),
            line(space, unit_vector(space, 1)),
        )
        assert [type(l) for l in cert.links] == [ProductSplit]
        assert cert.links[0].complement.dim == 0
        assert verify_certificate(cert).ok

    def test_orthogonal_lines_via_j0(self):
        space = standard_hermitian_hyperbolic(1, 2)
        cert = build_chain_unitary(
            space,
            line(space, unit_vector(space, 0)),
            line(space, unit_vector(space, 2)),
        )
        assert [type(l) for l in cert.links] == [ProductSplit, ProductSplit]
        assert verify_certificate(cert).ok

    def test_maximal_rank_descent(self):
        space = standard_hermitian_hyperbolic(1, 2)
        l1 = standard_isotropic(space, 2, "e")
        l2 = standard_isotropic(space, 2, "f")
        cert = build_chain_unitary(space, l1, l2)
        assert [type(l) for l in cert.links] == [BoundaryDescent, BoundaryDescent]
        assert verify_certificate(cert).ok

    def test_signature_guard(self):
        from cuspchain.forms import FormSpace

        gram = Matrix([[1, 0], [0, 1]])
        space = FormSpace("hermitian", gram, 3)
        l = Subspace(space, Matrix([], ncols=2))
        with pytest.raises(Exception):
            build_chain_unitary(space, l, l)

    def test_p_le_q_enforced(self):
        from cuspchain.forms import hermitian_perp_diagonal

        space = hermitian_perp_diagonal(2, 1, [1])  # signature (2, 1)
        i1 = line(space, unit_vector(space, 0))
        i2 = line(space, unit_vector(space, 1))
        with pytest.raises(SignatureUnsupported):
            build_chain_unitary(space, i1, i2)

    def test_random_isometry_images(self):
        space = standard_hermitian_hyperbolic(3, 2)
        rng = random.Random(23)
        base = standard_isotropic(space, 1, "e")
        for _ in range(5):
            m = random_unitary_isometry(space, rng, 4)
            moved = transform_subspace(space, m, base)
            cert = build_chain_unitary(space, base, moved)
            assert verify_certificate(cert).ok


class TestVerifierRejections:
    def test_corrupted_node_names_isotropy(self):
        space = quadratic_2u_perp_diagonal([-2])
        e1 = line(space, unit_vector(space, 0))
        e2 = line(space, unit_vector(space, 2))
        cert = build_chain_orthogonal(space, e1, e2)
        bad_node = line(space, (1, 1, 0, 0, 0))  # norm 2
        bad = replace(cert, nodes=(bad_node,) + cert.nodes[1:])
        report = verify_certificate(bad)
        assert not report.ok
        assert any(f.condition == "node-isotropic" for f in report.failures)

    def test_degenerate_equal_endpoints_accepted(self):
        space = standard_symplectic(1)
        e1 = line(space, unit_vector(space, 0))
        cert = ChainCertificate(space, "symplectic", (e1,), ())
        assert verify_certificate(cert).ok

    def test_tampered_interior_vector(self):
        space = quadratic_2u_perp_diagonal([-2])
        cert = build_chain_orthogonal(
            space,
            line(space, unit_vector(space, 0)),
            line(space, unit_vector(space, 1)),
        )
        link = cert.links[0]
        bad_vector = (Fraction(1),) + tuple(link.vector[1:])
        bad = replace(cert, links=(replace(link, vector=bad_vector),))
        report = verify_certificate(bad)
        assert not report.ok
        assert any(f.condition == "vector-orthogonal" for f in report.failures)

    def test_tampered_segre_witness(self):
        space = quadratic_2u_perp_diagonal([-2])
        cert = build_chain_orthogonal(
            space, plane(space, 0, 2), plane(space, 1, 3)
        )
        link = cert.links[0]
        rows = [list(r) for r in link.witness.rows]
        rows[0][4] = rows[0][4] + 1
        bad = replace(cert, links=(replace(link, witness=Matrix(rows)),))
        report = verify_certificate(bad)
        assert not report.ok

    def test_tampered_sub_certificate(self):
        space = standard_symplectic(2)
        cert = build_chain_symplectic(
            space,
            standard_isotropic(space, 2, "e"),
            standard_isotropic(space, 2, "f"),
        )
        link = cert.links[0]
        sub = link.sub
        bad_sub = replace(sub, nodes=sub.nodes[:-1], links=sub.links[1:])
        bad = replace(cert, links=(replace(link, sub=bad_sub),) + cert.links[1:])
        report = verify_certificate(bad)
        assert not report.ok

    def test_wrong_intersection_rejected(self):
        space = standard_symplectic(2)
        cert = build_chain_symplectic(
            space,
            standard_isotropic(space, 2, "e"),
            plane(space, 0, 3),
        )
        link = cert.links[0]
        wrong = line(space, unit_vector(space, 2))
        bad = replace(cert, links=(replace(link, intersection=wrong),))
        report = verify_certificate(bad)
        assert not report.ok
        assert any(f.condition == "intersection-matches" for f in report.failures)

    def test_chain_length_bound_orthogonal(self):
        space = quadratic_2u_perp_diagonal([-2])
        e1 = line(space, unit_vector(space, 0))
        e2 = line(space, unit_vector(space, 2))
        cert = build_chain_orthogonal(space, e1, e2)
        link = cert.links[0]
        stretched = replace(
            cert,
            nodes=(cert.nodes[0], cert.nodes[1], cert.nodes[0], cert.nodes[1]),
            links=(link, link, link),
        )
        report = verify_certificate(stretched)
        assert any(f.condition == "chain-length" for f in report.failures)


class TestAlternateRoutes:
    def test_two_plane_route_for_point_cusps_accepted(self):
        # pairing lines joined through a third line in their complement:
        # two boundary-plane links, within the length bound of 2
        space = quadratic_2u_perp_diagonal([-2])
        i1 = line(space, unit_vector(space, 0))  # e1
        i2 = line(space, unit_vector(space, 1))  # f1
        i3 = line(space, unit_vector(space, 2))  # e2, orthogonal to both
        first = canonical_subspace(
            space, Matrix([unit_vector(space, 0), unit_vector(space, 2)])
        )
        second = canonical_subspace(
            space, Matrix([unit_vector(space, 2), unit_vector(space, 1)])
        )
        cert = ChainCertificate(
            space,
            "orthogonal",
            (i1, i3, i2),
            (OrthBoundaryPlane(plane=first), OrthBoundaryPlane(plane=second)),
        )
        assert verify_certificate(cert).ok

    def test_boundary_descent_strictly_shrinks_dimension(self):
        space = standard_symplectic(3)
        cert = build_chain_symplectic(
            space,
            standard_isotropic(space, 3, "e"),
            standard_isotropic(space, 3, "f"),
        )

        def walk(c):
            for link in c.links:
                if isinstance(link, BoundaryDescent):
                    assert link.sub.ambient.dim < c.ambient.dim
                    walk(link.sub)

        walk(cert)
        assert verify_certificate(cert).ok


# The symplectic/unitary builder passes down the meets its case analysis
# fixes instead of intersecting again; these tests check the two facts it
# relies on, and that it no longer intersects when it knows the answer.


@st.composite
def isotropic_pairs(draw):
    """(space, a, b): isotropic subspaces of one rank k >= 2 in a symplectic
    space of genus <= 4 or a hermitian one over D in {1, 2, 3, 7}.

    a is the image of span(e_1..e_k) under a random isometry; b is either
    the image of span(e_1..e_j, f_j+1..f_k) under the same isometry, so that
    they meet in dimension j, or the image of span(e_1..e_k) under another.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        space = standard_symplectic(draw(st.integers(min_value=2, max_value=4)))
        isometry = random_symplectic_isometry
    else:
        d = draw(st.sampled_from([1, 2, 3, 7]))
        space = unitary_test_space(d, draw(st.integers(min_value=2, max_value=3)))
        isometry = random_unitary_isometry
    k = draw(st.integers(min_value=2, max_value=space.dim // 2))
    first = isometry(space, rng, rng.randint(1, 4))
    a = transform_subspace(space, first, standard_isotropic(space, k, "e"))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=k - 1))
        rows = [unit_vector(space, 2 * i + (i >= j)) for i in range(k)]
        b = transform_subspace(space, first, canonical_subspace(space, Matrix(rows)))
    else:
        second = isometry(space, rng, rng.randint(1, 4))
        b = transform_subspace(space, second, standard_isotropic(space, k, "e"))
    return space, a, b


class TestKnownMeets:
    @settings(max_examples=60, deadline=None)
    @given(isotropic_pairs())
    def test_known_meets_are_the_meets(self, pair):
        space, a, b = pair
        meet = subspace_intersection(a, b)
        if meet.dim:
            # the images of a and b in meet-perp/meet meet trivially
            data = _subquotient(space, meet)
            a_q, b_q = _push_subspace(data, a), _push_subspace(data, b)
            assert subspace_intersection(a_q, b_q).dim == 0
            return
        assume(is_perfect_pairing(space, a, b))
        # the third cusp j1 + (j1-perp & b) meets a in j1 and b in j1-perp & b
        j1 = canonical_subspace(space, a.basis.submatrix(rows=[0]))
        j1_perp_b = pairing_kernel(space, j1, b)
        third = subspace_sum(j1, j1_perp_b)
        assert subspace_intersection(a, third) == j1
        assert subspace_intersection(third, b) == j1_perp_b

    def test_general_position_lagrangians_intersect_once(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return subspace_intersection(a, b)

        monkeypatch.setattr(chains, "subspace_intersection", counted)
        space = standard_symplectic(4)
        isometry = random_symplectic_isometry(space, random.Random(4), 4)
        a = transform_subspace(space, isometry, standard_isotropic(space, 4, "e"))
        b = transform_subspace(space, isometry, standard_isotropic(space, 4, "f"))
        cert = build_chain_symplectic(space, a, b)
        assert len(calls) == 1
        assert verify_certificate(cert).ok


@st.composite
def spans_with_coordinates(draw):
    """(space, basis, coords): independent rows of a definite space, coordinates.

    The ambient form is the identity over Q or Q(sqrt(-d)), so the form
    restricted to the span of any independent rows is nondegenerate.
    """
    d = draw(st.sampled_from([None, 1, 2, 3, 7]))
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    small = st.integers(min_value=-3, max_value=3)

    def matrix(rows, cols):
        if d is None:
            return Matrix([[draw(small) for _ in range(cols)] for _ in range(rows)])
        return Matrix(
            [
                [QuadFieldElement(draw(small), draw(small), d) for _ in range(cols)]
                for _ in range(rows)
            ]
        )

    basis = matrix(k, n)
    assume(basis.rank() == k)
    kind = "symmetric" if d is None else "hermitian"
    space = FormSpace(kind, Matrix.identity(n), d)
    return space, basis, matrix(draw(st.integers(min_value=1, max_value=k)), k)


class TestToLocal:
    @settings(max_examples=60, deadline=None)
    @given(spans_with_coordinates())
    def test_coordinates_times_basis_give_the_rows(self, case):
        space, basis, coords = case
        sub = restricted_space(space, basis)
        inside = canonical_subspace(space, coords * basis)
        ambient = canonical_subspace(space, basis)
        local, whole = _to_local(sub, basis, inside, ambient)
        # coordinates on independent rows are unique
        assert local == canonical_subspace(sub, coords)
        assert canonical_subspace(space, local.basis * basis) == inside
        assert whole == canonical_subspace(sub, Matrix.identity(basis.nrows))

    @settings(max_examples=60, deadline=None)
    @given(spans_with_coordinates(), st.data())
    def test_row_outside_the_span_is_refused(self, case, data):
        space, basis, _ = case
        row = [data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(space.dim)]
        outside = Matrix.vstack(basis, Matrix([row]))
        assume(outside.rank() == basis.nrows + 1)
        sub = restricted_space(space, basis)
        with pytest.raises(PreconditionFailed):
            _to_local(sub, basis, canonical_subspace(space, outside))


class TestBuilderVerifierAgreement:
    def test_random_symplectic_instances(self):
        rng = random.Random(101)
        for _ in range(25):
            genus = rng.choice([1, 2, 3])
            space = standard_symplectic(genus)
            rank = rng.randint(1, genus)
            base = standard_isotropic(space, rank, "e")
            m1 = random_symplectic_isometry(space, rng, rng.randint(1, 4))
            m2 = random_symplectic_isometry(space, rng, rng.randint(1, 4))
            i1 = transform_subspace(space, m1, base)
            i2 = transform_subspace(space, m2, base)
            cert = build_chain_symplectic(space, i1, i2)
            report = verify_certificate(cert)
            assert report.ok, report.failures
            if rank > 1:
                assert len(cert.links) <= 5

    def test_random_orthogonal_instances(self):
        rng = random.Random(202)
        for _ in range(20):
            negatives = rng.choice([[-2], [-2, -4], [-2, -4, -6]])
            space = quadratic_2u_perp_diagonal(negatives)
            rank = rng.choice([1, 2])
            base = canonical_subspace(
                space,
                Matrix(
                    [unit_vector(space, 0)]
                    + ([unit_vector(space, 2)] if rank == 2 else []),
                    ncols=space.dim,
                ),
            )
            m1 = random_orthogonal_isometry(space, rng, rng.randint(1, 3))
            m2 = random_orthogonal_isometry(space, rng, rng.randint(1, 3))
            i1 = transform_subspace(space, m1, base)
            i2 = transform_subspace(space, m2, base)
            cert = build_chain_orthogonal(space, i1, i2)
            report = verify_certificate(cert)
            assert report.ok, report.failures

    def test_random_unitary_instances(self):
        rng = random.Random(303)
        for _ in range(15):
            d = rng.choice([1, 2, 3, 7])
            copies = rng.choice([1, 2])
            space = standard_hermitian_hyperbolic(d, copies)
            rank = rng.randint(1, copies)
            base = standard_isotropic(space, rank, "e")
            m1 = random_unitary_isometry(space, rng, rng.randint(1, 4))
            m2 = random_unitary_isometry(space, rng, rng.randint(1, 4))
            i1 = transform_subspace(space, m1, base)
            i2 = transform_subspace(space, m2, base)
            cert = build_chain_unitary(space, i1, i2)
            report = verify_certificate(cert)
            assert report.ok, report.failures
            if rank > 1:
                assert len(cert.links) <= 5


def _single_link_certificates():
    """One built certificate per link type, keyed by the type's JSON tag."""
    orth = quadratic_2u_perp_diagonal([-2])
    sym = standard_symplectic(2)
    herm = standard_hermitian_hyperbolic(1, 2)
    certs = {
        "orth_boundary_plane": build_chain_orthogonal(
            orth, line(orth, unit_vector(orth, 0)), line(orth, unit_vector(orth, 2))
        ),
        "orth_interior_curve": build_chain_orthogonal(
            orth, line(orth, unit_vector(orth, 0)), line(orth, unit_vector(orth, 1))
        ),
        "orth_segre": build_chain_orthogonal(orth, plane(orth, 0, 2), plane(orth, 1, 3)),
        "product_split": build_chain_symplectic(
            sym, line(sym, unit_vector(sym, 0)), line(sym, unit_vector(sym, 1))
        ),
        "boundary_descent": build_chain_symplectic(
            sym, standard_isotropic(sym, 2, "e"), plane(sym, 0, 3)
        ),
        "unitary_lines": build_chain_unitary(
            herm, line(herm, unit_vector(herm, 0)), line(herm, unit_vector(herm, 1))
        ),
    }
    for cert in certs.values():
        assert len(cert.links) == 1 and verify_certificate(cert).ok
    return certs


CERTS = _single_link_certificates()

# (link taken from, certificate it is grafted into, expected failures)
GRAFTS = [
    # a link in a chain of the wrong kind
    ("orth_boundary_plane", "product_split",
     [(0, "link-kind", "boundary-plane link outside an orthogonal chain")]),
    ("orth_boundary_plane", "unitary_lines",
     [(0, "link-kind", "boundary-plane link outside an orthogonal chain")]),
    ("orth_interior_curve", "product_split",
     [(0, "link-kind", "interior-curve link outside an orthogonal chain")]),
    ("orth_interior_curve", "unitary_lines",
     [(0, "link-kind", "interior-curve link outside an orthogonal chain")]),
    ("orth_segre", "boundary_descent",
     [(0, "link-kind", "2U-isometry link outside an orthogonal chain")]),
    ("orth_segre", "unitary_lines",
     [(0, "link-kind", "2U-isometry link outside an orthogonal chain")]),
    ("product_split", "orth_boundary_plane",
     [(0, "link-kind", "product-split link needs a symplectic or unitary chain")]),
    ("boundary_descent", "orth_segre",
     [(0, "link-kind", "boundary-descent link needs a symplectic or unitary chain")]),
    # a link whose endpoints have the wrong dimension
    ("orth_boundary_plane", "orth_segre",
     [(0, "link-node-dimension", "boundary-plane link needs line endpoints")]),
    ("orth_interior_curve", "orth_segre",
     [(0, "link-node-dimension", "interior-curve link needs line endpoints")]),
    ("orth_segre", "orth_boundary_plane",
     [(0, "link-node-dimension", "2U-isometry link needs plane endpoints")]),
    ("product_split", "boundary_descent",
     [(0, "link-node-dimension", "product-split link needs rank-1 endpoints")]),
    # boundary descents take endpoints of any dimension: the witness check fails
    ("boundary_descent", "product_split",
     [(0, "intersection-matches", "stored intersection differs from the nodes'")]),
]


class TestDeclarativeLinkChecks:
    """Chain kind, endpoint dimension and link type, checked before witnesses."""

    @pytest.mark.parametrize("source,target,expected", GRAFTS)
    def test_grafted_link(self, source, target, expected):
        cert = replace(CERTS[target], links=CERTS[source].links)
        report = verify_certificate(cert)
        assert [(f.link, f.condition, f.detail) for f in report.failures] == expected

    @pytest.mark.parametrize("target", ["orth_boundary_plane", "product_split", "unitary_lines"])
    @pytest.mark.parametrize("link", [object(), "link", None])
    def test_unknown_link_object(self, target, link):
        report = verify_certificate(replace(CERTS[target], links=(link,)))
        assert [(f.link, f.condition, f.detail) for f in report.failures] == [
            (0, "link-kind", f"unknown link type {type(link).__name__}")
        ]


class TestVerifierNeverRaises:
    @pytest.mark.parametrize("vector", [None, 5])
    def test_non_sequence_interior_vector(self, vector):
        cert = CERTS["orth_interior_curve"]
        bad = replace(cert, links=(replace(cert.links[0], vector=vector),))
        report = verify_certificate(bad)
        assert [(f.link, f.condition) for f in report.failures] == [(0, "link-error")]
        assert report.failures[0].detail.startswith("TypeError: ")

    def test_missing_descent_subcertificate(self):
        space = standard_symplectic(3)
        cert = build_chain_symplectic(
            space, standard_isotropic(space, 3, "e"), standard_isotropic(space, 3, "f")
        )
        descents = [i for i, l in enumerate(cert.links) if type(l) is BoundaryDescent]
        assert descents
        for idx in descents:
            links = list(cert.links)
            links[idx] = replace(links[idx], sub=None)
            report = verify_certificate(replace(cert, links=tuple(links)))
            assert [(f.link, f.condition) for f in report.failures] == [
                (idx, "link-error")
            ]
            assert report.failures[0].detail.startswith("AttributeError: ")

    def test_missing_boundary_plane(self):
        cert = CERTS["orth_boundary_plane"]
        bad = replace(cert, links=(replace(cert.links[0], plane=None),))
        report = verify_certificate(bad)
        assert [(f.link, f.condition) for f in report.failures] == [(0, "link-error")]
        assert report.failures[0].detail.startswith("AttributeError: ")

    @pytest.mark.parametrize(
        "change",
        [
            {"nodes": (None,) + CERTS["orth_segre"].nodes[1:]},
            {"kind": ["x"]},
            {"ambient": None},
            {"links": None},
        ],
        ids=["node", "kind", "ambient", "links"],
    )
    def test_malformed_certificate_fields(self, change):
        report = verify_certificate(replace(CERTS["orth_segre"], **change))
        assert [(f.link, f.condition) for f in report.failures] == [
            (-1, "certificate-error")
        ]
        assert report.failures[0].detail.startswith(("AttributeError: ", "TypeError: "))


# -- one case for every condition the verifier reports -----------------------

JSON = {name: plain_json(certificate_to_json(cert)) for name, cert in CERTS.items()}


def _json_case(source, *changes):
    """CERTS[source] read back from its JSON with each (path, value) set."""

    def make():
        obj = deepcopy(JSON[source])
        for path, value in changes:
            target = obj
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = deepcopy(value)
        return certificate_from_json(obj)

    return make


def _link_case(source, field, value):
    """CERTS[source] with one field of its one link replaced, in memory."""
    cert = CERTS[source]
    return lambda: replace(cert, links=(replace(cert.links[0], **{field: value}),))


def _elsewhere(s):
    """s's basis in a form space of the same shape whose Gram matrix is doubled."""
    space = s.space
    return Subspace(FormSpace(space.kind, 2 * space.gram, space.d), s.basis)


def _rows(*rows):
    return [[str(x) for x in r] for r in rows]


NODES, LINKS = ("nodes",), ("links",)
NODE0, NODE1 = ("nodes", 0, "basis"), ("nodes", 1, "basis")
LINK = ("links", 0)
PLANE, VECTOR = LINK + ("plane", "basis"), LINK + ("vector",)
WITNESS = LINK + ("witness",)
SPAN, COMPLEMENT = LINK + ("span", "basis"), LINK + ("complement", "basis")
MEET = LINK + ("intersection", "basis")
LIFT, PROJECT = LINK + ("lift",), LINK + ("project",)
SUB = LINK + ("sub",)
ORTH = "orth_boundary_plane"
SYM = "product_split"
DESCENT = "boundary_descent"
DESCENT_NODES = JSON[DESCENT]["nodes"]
SUB_NODES = JSON[DESCENT]["links"][0]["sub"]["nodes"]

VERIFIER_CONDITIONS = {
    # certificate level
    "certificate-error": [lambda: replace(CERTS[SYM], links=None)],
    "certificate-kind": [_json_case(ORTH, (("kind",), "affine"))],
    "ambient-kind": [_json_case(ORTH, (("kind",), "symplectic"))],
    "node-count": [_json_case(SYM, (NODES, []), (LINKS, []))],
    "link-count": [_json_case(SYM, (LINKS, []))],
    "node-space": [
        lambda: replace(CERTS[SYM], nodes=(_elsewhere(CERTS[SYM].nodes[0]),) * 2)
    ],
    "node-canonical": [_json_case(SYM, (NODE0, _rows([2, 0, 0, 0])))],
    "node-isotropic": [_json_case(ORTH, (NODE0, _rows([1, 1, 0, 0, 0])))],
    "node-dimension": [
        # unequal dimensions, zero dimension, an orthogonal 3-space
        _json_case(SYM, (NODE1, _rows([0, 1, 0, 0], [0, 0, 1, 0]))),
        _json_case(SYM, (NODES, [{"basis": []}]), (LINKS, [])),
        _json_case(
            ORTH,
            (NODES, [{"basis": _rows(*Matrix.identity(5).rows[::2])}]),
            (LINKS, []),
        ),
    ],
    "ambient-signature": [
        # 2U + <2> has signature (3, 2); U + <1> + <1> over Q(i) has (3, 1)
        _json_case(ORTH, (("ambient", "gram", 4, 4), "2")),
        _json_case(
            "unitary_lines",
            (
                ("ambient", "gram"),
                _rows([0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]),
            ),
        ),
    ],
    "chain-length": [
        # three links between lines, six between planes
        _json_case(
            ORTH, (NODES, JSON[ORTH]["nodes"] * 2), (LINKS, JSON[ORTH]["links"] * 3)
        ),
        _json_case(
            DESCENT,
            (NODES, DESCENT_NODES * 3 + DESCENT_NODES[:1]),
            (LINKS, JSON[DESCENT]["links"] * 6),
        ),
    ],
    # checks shared by every link
    "link-kind": [
        lambda: replace(CERTS[SYM], links=CERTS[ORTH].links),
        lambda: replace(CERTS[SYM], links=(None,)),
    ],
    "link-node-dimension": [_json_case("orth_segre", (LINKS, JSON[ORTH]["links"]))],
    "link-error": [_link_case(ORTH, "plane", None)],
    # boundary plane
    "plane-shape": [_link_case(ORTH, "plane", _elsewhere(CERTS[ORTH].links[0].plane))],
    "plane-canonical": [_json_case(ORTH, (PLANE + (0, 0), "2"))],
    "plane-dimension": [_json_case(ORTH, (PLANE, _rows([1, 0, 0, 0, 0])))],
    "plane-isotropic": [
        _json_case(ORTH, (PLANE, _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0])))
    ],
    "plane-contains-endpoints": [
        _json_case(ORTH, (PLANE, _rows([1, 0, 0, 0, 0], [0, 0, 0, 1, 0])))
    ],
    # interior curve
    "vector-shape": [_json_case("orth_interior_curve", (VECTOR, ["0", "0", "1", "1"]))],
    "vector-positive-norm": [
        _json_case("orth_interior_curve", (VECTOR, ["0", "0", "0", "0", "1"]))
    ],
    "vector-orthogonal": [
        _json_case("orth_interior_curve", (VECTOR, ["1", "0", "1", "1", "0"]))
    ],
    "endpoints-pairing-nonzero": [
        _json_case(ORTH, (LINKS, JSON["orth_interior_curve"]["links"]))
    ],
    # 2U isometry
    "witness-shape": [
        _json_case("orth_segre", (WITNESS, _rows(*Matrix.identity(5).rows[:3])))
    ],
    "witness-isometry": [_json_case("orth_segre", (WITNESS + (0, 4), "1"))],
    "witness-first-plane": [
        _json_case("orth_segre", (NODE0, _rows([1, 0, 0, 0, 0], [0, 0, 0, 1, 0])))
    ],
    "witness-second-plane": [
        _json_case("orth_segre", (NODE1, _rows([0, 1, 0, 0, 0], [0, 0, 1, 0, 0])))
    ],
    # product split
    "endpoints-pairing-perfect": [_json_case(SYM, (NODE1, _rows([0, 0, 1, 0])))],
    "split-shape": [_link_case(SYM, "span", _elsewhere(CERTS[SYM].links[0].span))],
    "split-canonical": [_json_case(SYM, (SPAN + (0, 0), "2"))],
    "complement-canonical": [_json_case(SYM, (COMPLEMENT + (0, 2), "2"))],
    "split-is-endpoint-span": [
        _json_case(SYM, (SPAN, _rows([1, 0, 0, 0], [0, 1, 1, 0])))
    ],
    "split-nondegenerate": [_json_case(SYM, (SPAN, _rows([1, 0, 0, 0], [0, 0, 1, 0])))],
    "complement-matches": [
        _json_case(SYM, (COMPLEMENT, _rows([1, 0, 0, 1], [0, 0, 1, 0])))
    ],
    "complement-nondegenerate": [_json_case(SYM, (COMPLEMENT, _rows([0, 0, 1, 0])))],
    "decomposition-spans": [_json_case(SYM, (COMPLEMENT, []))],
    # boundary descent
    "intersection-shape": [
        _link_case(
            DESCENT, "intersection", _elsewhere(CERTS[DESCENT].links[0].intersection)
        )
    ],
    "intersection-canonical": [_json_case(DESCENT, (MEET + (0, 0), "2"))],
    "intersection-matches": [_json_case(DESCENT, (MEET, _rows([0, 0, 1, 0])))],
    "intersection-nonzero": [
        _json_case(DESCENT, (NODE1, _rows([0, 1, 0, 0], [0, 0, 0, 1])), (MEET, []))
    ],
    "sub-kind": [_json_case(DESCENT, (SUB + ("kind",), "unitary"))],
    "quotient-dimension": [
        _json_case(
            DESCENT,
            (SUB + ("ambient",), JSON[DESCENT]["ambient"]),
            (SUB + ("nodes",), [{"basis": _rows([1, 0, 0, 0])}]),
            (SUB + ("links",), []),
        )
    ],
    "lift-shape": [
        _json_case(DESCENT, (LIFT, _rows([0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1])))
    ],
    "project-shape": [_json_case(DESCENT, (PROJECT, _rows([0, 0], [0, 0], [1, 0])))],
    "lift-orthogonal": [_json_case(DESCENT, (LIFT, _rows([0, 1, 0, 0], [0, 0, 0, 1])))],
    "sub-ambient": [
        _json_case(
            DESCENT,
            (SUB + ("ambient",), {"kind": "symmetric", "gram": _rows([0, 1], [1, 0])}),
        )
    ],
    "lift-gram": [_json_case(DESCENT, (LIFT, _rows([0, 0, 1, 0], [0, 0, 0, 2])))],
    "project-identity": [
        _json_case(DESCENT, (PROJECT, _rows([0, 0], [0, 0], [2, 0], [0, 1])))
    ],
    "project-kills-intersection": [_json_case(DESCENT, (PROJECT + (0,), ["1", "0"]))],
    "push-residual": [_json_case(DESCENT, (PROJECT, _rows(*[[0, 0]] * 4)))],
    "sub-endpoints": [
        # a sub-certificate without nodes, and one with its nodes swapped
        _json_case(DESCENT, (SUB + ("nodes",), []), (SUB + ("links",), [])),
        _json_case(DESCENT, (SUB + ("nodes",), SUB_NODES[::-1])),
    ],
}


class TestEveryVerifierCondition:
    """Each condition the verifier names, reported for a certificate that
    violates it; a JSON document where the parser lets the fault through."""

    @pytest.mark.parametrize(
        "condition,make",
        [
            pytest.param(cond, make, id=f"{cond}-{i}")
            for cond, makes in VERIFIER_CONDITIONS.items()
            for i, make in enumerate(makes)
        ],
    )
    def test_condition_is_reported(self, condition, make):
        report = verify_certificate(make())
        assert not report.ok
        assert condition in {f.condition for f in report.failures}, report.failures
