"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Every tolerance here is exact: the checked quantities are rational (or
Q(sqrt(-D))-valued) identities, counts, and exit codes.
"""

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

from cuspchain import serialize
from cuspchain.chains import (
    BoundaryDescent,
    OrthBoundaryPlane,
    OrthInteriorCurve,
    OrthSegre,
    ProductSplit,
    build_chain_orthogonal,
    build_chain_symplectic,
    build_chain_unitary,
    verify_certificate,
)
from cuspchain.cli import main
from cuspchain.embeddings import (
    SL2Element,
    hermitian_m2_space,
    segre_point,
    sl2_conjugation_image,
    sl2_pair_orthogonal_image,
    sl2_su11_image,
    trace_zero_space,
    veronese_point,
)
from cuspchain.exact import Matrix, hnf, rref_basis
from cuspchain.forms import (
    Signature,
    canonical_subspace,
    line,
    orthogonal_complement,
    pairing_matrix,
    preserves_form,
    quadratic_2u_perp_diagonal,
    signature_of,
    standard_2u,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    subspace_contains,
    subspace_intersection,
    subspace_sum,
    unit_vector,
)
from cuspchain.levels import FullLattice, congruence_membership, containment_level

from support import (
    mobius,
    random_orthogonal_isometry,
    random_sl2,
    random_symplectic_isometry,
    random_unitary_isometry,
    standard_isotropic,
    transform_subspace,
)


def announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


# -- criterion 1: builder/verifier suite -------------------------------------


def _symplectic_instances(rng, count):
    out = []
    for _ in range(count):
        genus = rng.randint(1, 4)
        space = standard_symplectic(genus)
        rank = rng.randint(1, genus)
        base = standard_isotropic(space, rank, "e")
        i1 = transform_subspace(
            space, random_symplectic_isometry(space, rng, rng.randint(1, 3)), base
        )
        i2 = transform_subspace(
            space, random_symplectic_isometry(space, rng, rng.randint(1, 3)), base
        )
        out.append((space, i1, i2, rank, "symplectic"))
    return out


def _unitary_instances(rng, count):
    out = []
    shapes = [(1, ()), (1, (-1,)), (2, ()), (1, (-1, -2))]
    for _ in range(count):
        d = rng.choice([1, 2, 3, 7])
        copies, negatives = rng.choice(shapes)
        from support import unitary_test_space

        space = unitary_test_space(d, copies, negatives)
        rank = rng.randint(1, copies)
        base = standard_isotropic(space, rank, "e")
        i1 = transform_subspace(
            space, random_unitary_isometry(space, rng, rng.randint(1, 3)), base
        )
        i2 = transform_subspace(
            space, random_unitary_isometry(space, rng, rng.randint(1, 3)), base
        )
        out.append((space, i1, i2, rank, "unitary"))
    return out


def _orthogonal_instances(rng, count):
    out = []
    for _ in range(count):
        negatives = rng.choice([[-2], [-2, -4], [-2, -4, -6]])
        space = quadratic_2u_perp_diagonal(negatives)
        rank = rng.choice([1, 2])
        rows = [unit_vector(space, 0)] + (
            [unit_vector(space, 2)] if rank == 2 else []
        )
        base = canonical_subspace(space, Matrix(rows, ncols=space.dim))
        i1 = transform_subspace(
            space, random_orthogonal_isometry(space, rng, rng.randint(1, 3)), base
        )
        i2 = transform_subspace(
            space, random_orthogonal_isometry(space, rng, rng.randint(1, 3)), base
        )
        out.append((space, i1, i2, rank, "orthogonal"))
    return out


BUILDERS = {
    "symplectic": build_chain_symplectic,
    "unitary": build_chain_unitary,
    "orthogonal": build_chain_orthogonal,
}


def test_criterion_1_builder_verifier_suite():
    rng = random.Random(20240901)
    instances = (
        _symplectic_instances(rng, 200)
        + _unitary_instances(rng, 200)
        + _orthogonal_instances(rng, 100)
    )
    start = time.monotonic()
    for space, i1, i2, rank, kind in instances:
        cert = BUILDERS[kind](space, i1, i2)
        report = verify_certificate(cert)
        assert report.ok, (kind, rank, report.failures[:3])
        assert cert.nodes[0] == i1 and cert.nodes[-1] == i2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(1, f"500 built certificates verify in {elapsed:.1f}s")


# -- criterion 2: chain-length bounds -----------------------------------------


def test_criterion_2_chain_length_bounds():
    rng = random.Random(20240902)
    # non-maximal symplectic and unitary pairs: at most 5 links
    for space, i1, i2, rank, kind in (
        _symplectic_instances(rng, 120) + _unitary_instances(rng, 120)
    ):
        if i1 == i2:
            continue
        cert = BUILDERS[kind](space, i1, i2)
        if rank > 1:
            assert len(cert.links) <= 5, (kind, rank, len(cert.links))
    # orthogonal planes: exactly 3 links when meeting, exactly 1 when disjoint
    meeting = disjoint = 0
    for space, i1, i2, rank, _ in _orthogonal_instances(rng, 150):
        if rank != 2 or i1 == i2:
            continue
        cert = build_chain_orthogonal(space, i1, i2)
        if subspace_intersection(i1, i2).dim != 0:
            assert len(cert.links) == 3
            assert all(isinstance(l, OrthSegre) for l in cert.links)
            meeting += 1
        else:
            assert len(cert.links) == 1
            assert isinstance(cert.links[0], OrthSegre)
            disjoint += 1
    assert meeting >= 5 and disjoint >= 5, (meeting, disjoint)
    announce(2, f"length bounds exact ({meeting} meeting, {disjoint} disjoint plane pairs)")


# -- criterion 3: trace-zero model --------------------------------------------


def test_criterion_3_trace_zero_model():
    space, labels = trace_zero_space()
    assert space.gram == Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    assert signature_of(space) == Signature(2, 1, 0)
    assert labels == ("E", "F", "H")
    announce(3, "trace-zero Gram matrix and signature (2, 1)")


# -- criterion 4: homomorphism / equivariance ----------------------------------


def test_criterion_4_homomorphism_and_equivariance():
    rng = random.Random(20240904)
    space, _ = trace_zero_space()
    two_u = standard_2u()
    for _ in range(100):
        g1, g2 = random_sl2(rng), random_sl2(rng)
        m1, m2 = sl2_conjugation_image(g1), sl2_conjugation_image(g2)
        assert preserves_form(space, m1)
        assert sl2_conjugation_image(g1 * g2) == m1 * m2
    for _ in range(100):
        t1 = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        t2 = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        assert space.norm(veronese_point(t1)) == 0
        assert two_u.norm(segre_point(t1, t2)) == 0
    checked = 0
    while checked < 20:
        g1, g3 = random_sl2(rng), random_sl2(rng)
        t1 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        t2 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        u1, u2 = mobius(g1, t1), mobius(g3, t2)
        if u1 is None or u2 is None:
            continue
        moved = sl2_pair_orthogonal_image(g1, g3) * Matrix.column(segre_point(t1, t2))
        scale = (g1.c * t1 + g1.d) * (g3.c * t2 + g3.d)
        assert moved == Matrix.column(segre_point(u1, u2)) * scale
        checked += 1
    announce(4, "conjugation homomorphism, isotropic points, equivariance")


# -- criterion 5: congruence containment sampling -------------------------------


def test_criterion_5_congruence_containment():
    rng = random.Random(20240905)
    space, _ = trace_zero_space()
    lattice = FullLattice(space, Matrix.identity(3))
    for n in (2, 3, 4, 5):
        gen_a = SL2Element(1, n, 0, 1)
        gen_b = SL2Element(1, 0, n, 1)
        for _ in range(50):
            word = SL2Element.identity()
            for _ in range(rng.randint(1, 8)):
                g = gen_a if rng.random() < 0.5 else gen_b
                if rng.random() < 0.5:
                    g = g.inverse()
                word = word * g
            image = sl2_conjugation_image(word)
            assert congruence_membership(image, lattice, n)
    announce(5, "level-N words land in level-N congruence isometries, N in 2..5")


# -- criterion 6: hermitian matrix-algebra model --------------------------------


def test_criterion_6_hermitian_m2_model():
    rng = random.Random(20240906)
    for d in (1, 2, 3, 7):
        space, model = hermitian_m2_space(d)
        assert signature_of(space) == Signature(1, 1, 0)
        e11 = model.from_matrix(Matrix([[1, 0], [0, 0]]))
        assert space.norm(e11) == 0
        samples = 100 if d == 1 else 34
        for _ in range(samples):
            g = random_sl2(rng)
            image = sl2_su11_image(d, g)
            assert preserves_form(space, image)
            det = image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
            assert det == 1
    announce(6, "signature (1,1), isotropic corner matrix, unit-determinant images")


# -- criterion 7: level minimality -----------------------------------------------


def _hnf_lattice_key(basis: Matrix):
    scale = basis.denominator_lcm()
    ints = basis.map_entries(lambda x: Fraction(x) * scale)
    h, _ = hnf(ints)
    return h.map_entries(lambda x: x / scale)


def _hnf_contains(outer: Matrix, inner: Matrix) -> bool:
    stacked = Matrix.vstack(outer, inner)
    return _hnf_lattice_key(stacked) == Matrix.vstack(
        _hnf_lattice_key(outer), Matrix.zero(inner.nrows, inner.ncols)
    )


def test_criterion_7_level_minimality():
    rng = random.Random(20240907)
    from cuspchain.forms import hyperbolic_plane

    space = hyperbolic_plane()
    unit = FullLattice(space, Matrix.identity(2))
    checked = 0
    while checked < 50:
        rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        m = Matrix([[Fraction(x) for x in r] for r in rows])
        det = m.det()
        if det == 0 or abs(det) > 20:
            continue
        other = FullLattice(space, m)
        n = rng.randint(1, 4)
        n1, n2, nprime = containment_level(unit, other, n)
        # brute-force minimality
        bound = 20 * n * int(abs(det)) + 1
        inv_scaled = other.basis * unit.basis.map_entries(lambda x: x * n).inverse()
        brute_n1 = next(
            k
            for k in range(1, bound)
            if inv_scaled.map_entries(lambda x: x * k).is_integral()
        )
        inv_other = unit.basis * other.basis.inverse()
        brute_n2 = next(
            k
            for k in range(1, bound)
            if inv_other.map_entries(lambda x: x * k).is_integral()
        )
        assert (n1, n2) == (brute_n1, brute_n2)
        assert nprime == n1 * n2
        # sandwich re-verified through Hermite forms
        assert _hnf_contains(
            unit.basis.map_entries(lambda x: x * n),
            other.basis.map_entries(lambda x: x * n1),
        )
        assert _hnf_contains(
            other.basis, unit.basis.map_entries(lambda x: x * n2)
        )
        checked += 1
    announce(7, "50 sandwich levels match brute force and re-verify by HNF")


# -- criterion 8: perturbation soundness ------------------------------------------


def _conditions_hold(cert, idx, link):
    """Independent evaluation of one link's conditions (exemption oracle)."""
    space = cert.ambient
    left, right = cert.nodes[idx], cert.nodes[idx + 1]
    try:
        if isinstance(link, OrthBoundaryPlane):
            plane = link.plane
            return (
                plane.is_canonical()
                and plane.dim == 2
                and plane.is_isotropic()
                and subspace_contains(plane, left)
                and subspace_contains(plane, right)
            )
        if isinstance(link, OrthInteriorCurve):
            v = space.coerce_row(link.vector).rows[0]
            span = subspace_sum(left, right)
            return (
                space.norm(v) > 0
                and (Matrix([v]) * space.gram * span.basis.conj_transpose()).is_zero()
                and not pairing_matrix(space, left, right).is_zero()
            )
        if isinstance(link, OrthSegre):
            w = space.coerce_matrix(link.witness)
            if w * space.gram * w.conj_transpose() != standard_2u().gram:
                return False
            first = canonical_subspace(space, Matrix([w.rows[2], w.rows[0]]))
            second = canonical_subspace(space, Matrix([w.rows[3], w.rows[1]]))
            return first == left and second == right
        if isinstance(link, ProductSplit):
            span, comp = link.span, link.complement
            return (
                span.is_canonical()
                and comp.is_canonical()
                and span == subspace_sum(left, right)
                and comp == orthogonal_complement(space, span)
                and pairing_matrix(space, left, right).det() != 0
                and (span.basis * space.gram * span.basis.conj_transpose()).det() != 0
            )
        if isinstance(link, BoundaryDescent):
            meet = subspace_intersection(left, right)
            if link.intersection != meet or meet.dim == 0:
                return False
            lift, project = link.lift, link.project
            sub = link.sub
            m = sub.ambient.dim
            if lift.shape != (m, space.dim) or project.shape != (space.dim, m):
                return False
            lift = space.coerce_matrix(lift)
            project = space.coerce_matrix(project.transpose()).transpose()
            if not (lift * space.gram * meet.basis.conj_transpose()).is_zero():
                return False
            if lift * space.gram * lift.conj_transpose() != sub.ambient.gram:
                return False
            if lift * project != space.coerce_field(Matrix.identity(m)):
                return False
            if not (meet.basis * project).is_zero():
                return False
            for node, expected in ((left, sub.nodes[0]), (right, sub.nodes[-1])):
                coords = node.basis * project
                residual = node.basis - coords * lift
                if rref_basis(Matrix.vstack(meet.basis, residual)).nrows != meet.dim:
                    return False
                if canonical_subspace(sub.ambient, coords) != expected:
                    return False
            return True
    except Exception:
        return False
    return False


def _witness_perturbations(link):
    """All single-entry +1 bumps of the link's witness data."""
    def bump_matrix(mat, i, j):
        rows = [list(r) for r in mat.rows]
        rows[i][j] = rows[i][j] + 1
        return Matrix(rows, ncols=mat.ncols)

    if isinstance(link, OrthBoundaryPlane):
        for i in range(link.plane.basis.nrows):
            for j in range(link.plane.basis.ncols):
                yield replace(
                    link,
                    plane=replace(link.plane, basis=bump_matrix(link.plane.basis, i, j)),
                )
    elif isinstance(link, OrthInteriorCurve):
        for j in range(len(link.vector)):
            bumped = tuple(
                x + 1 if k == j else x for k, x in enumerate(link.vector)
            )
            yield replace(link, vector=bumped)
    elif isinstance(link, OrthSegre):
        for i in range(link.witness.nrows):
            for j in range(link.witness.ncols):
                yield replace(link, witness=bump_matrix(link.witness, i, j))
    elif isinstance(link, ProductSplit):
        for field in ("span", "complement"):
            sub = getattr(link, field)
            for i in range(sub.basis.nrows):
                for j in range(sub.basis.ncols):
                    yield replace(
                        link, **{field: replace(sub, basis=bump_matrix(sub.basis, i, j))}
                    )
    elif isinstance(link, BoundaryDescent):
        for i in range(link.intersection.basis.nrows):
            for j in range(link.intersection.basis.ncols):
                yield replace(
                    link,
                    intersection=replace(
                        link.intersection,
                        basis=bump_matrix(link.intersection.basis, i, j),
                    ),
                )
        for field in ("lift", "project"):
            mat = getattr(link, field)
            for i in range(mat.nrows):
                for j in range(mat.ncols):
                    yield replace(link, **{field: bump_matrix(mat, i, j)})


def _sampled_certificates():
    rng = random.Random(20240908)
    certs = []
    orth = quadratic_2u_perp_diagonal([-2])
    certs.append(
        build_chain_orthogonal(
            orth, line(orth, unit_vector(orth, 0)), line(orth, unit_vector(orth, 2))
        )
    )
    certs.append(
        build_chain_orthogonal(
            orth, line(orth, unit_vector(orth, 0)), line(orth, unit_vector(orth, 1))
        )
    )
    j1 = canonical_subspace(orth, Matrix([unit_vector(orth, 0), unit_vector(orth, 2)]))
    j2 = canonical_subspace(orth, Matrix([unit_vector(orth, 0), unit_vector(orth, 3)]))
    certs.append(build_chain_orthogonal(orth, j1, j2))
    sym = standard_symplectic(2)
    certs.append(
        build_chain_symplectic(
            sym, line(sym, unit_vector(sym, 0)), line(sym, unit_vector(sym, 2))
        )
    )
    certs.append(
        build_chain_symplectic(
            sym, standard_isotropic(sym, 2, "e"), standard_isotropic(sym, 2, "f")
        )
    )
    herm = standard_hermitian_hyperbolic(3, 2)
    certs.append(
        build_chain_unitary(
            herm, standard_isotropic(herm, 2, "e"), standard_isotropic(herm, 2, "f")
        )
    )
    moved = transform_subspace(
        sym, random_symplectic_isometry(sym, rng, 3), standard_isotropic(sym, 2, "e")
    )
    certs.append(
        build_chain_symplectic(sym, standard_isotropic(sym, 2, "e"), moved)
    )
    # include sub-certificates so nested links are perturbed too
    expanded = []
    for cert in certs:
        expanded.append(cert)
        for link in cert.links:
            if isinstance(link, BoundaryDescent):
                expanded.append(link.sub)
    return expanded


def test_criterion_8_perturbation_soundness():
    total = rejected = exempt = 0
    for cert in _sampled_certificates():
        assert verify_certificate(cert).ok
        for idx, link in enumerate(cert.links):
            for bumped in _witness_perturbations(link):
                perturbed = replace(
                    cert, links=cert.links[:idx] + (bumped,) + cert.links[idx + 1 :]
                )
                still_valid = _conditions_hold(perturbed, idx, bumped)
                report = verify_certificate(perturbed)
                if still_valid:
                    exempt += 1
                    assert report.ok, "verifier rejected a condition-preserving bump"
                    continue
                total += 1
                if not report.ok:
                    rejected += 1
    assert total > 100, f"only {total} countable perturbations"
    rate = rejected / total
    assert rate > 0.95, f"rejection rate {rate:.3f} over {total}"
    announce(
        8,
        f"{rejected}/{total} non-exempt bumps rejected ({exempt} provably preserving)",
    )


# -- criterion 9: CLI determinism and round trip -----------------------------------


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    space = standard_symplectic(2)
    space_path = tmp_path / "space.json"
    space_path.write_text(
        serialize.dumps_canonical(serialize.form_space_to_json(space))
    )
    i1 = tmp_path / "i1.json"
    i1.write_text(
        serialize.dumps_canonical(
            serialize.subspace_to_json(line(space, unit_vector(space, 0)))
        )
    )
    i2 = tmp_path / "i2.json"
    i2.write_text(
        serialize.dumps_canonical(
            serialize.subspace_to_json(line(space, unit_vector(space, 2)))
        )
    )
    argv = [
        "chain",
        "--space",
        str(space_path),
        "--i1",
        str(i1),
        "--i2",
        str(i2),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(first)
    assert main(["verify", "--cert", str(cert_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    announce(9, "byte-identical chain output; verify exits 0")
