"""Explicit models: trace-zero SL2 action, Veronese/Segre points, the
hermitian M2(Q) structure, and right orders of matrix lattices."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspchain import embeddings
from cuspchain.embeddings import (
    E12,
    E21,
    I2,
    MatrixLattice,
    SL2Element,
    hermitian_m2_space,
    m2_hermitian_pair,
    order_containment_scale,
    order_of_lattice,
    segre_point,
    sl2_conjugation_image,
    sl2_pair_orthogonal_image,
    sl2_su11_image,
    trace_zero_space,
    veronese_point,
)
from cuspchain.errors import NotContained, NotDeterminantOne, PostconditionFailed
from cuspchain.exact import Matrix, QuadFieldElement, hnf, smith
from cuspchain.forms import Signature, preserves_form, signature_of, standard_2u
from cuspchain.levels import FullLattice, congruence_membership

from support import mobius, random_sl2, run_optimized


class TestTraceZeroSpace:
    def test_gram_is_u_perp_two(self):
        space, labels = trace_zero_space()
        assert labels == ("E", "F", "H")
        assert space.gram == Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]])

    def test_signature(self):
        space, _ = trace_zero_space()
        assert signature_of(space) == Signature(2, 1, 0)

    def test_basis_norms(self):
        space, _ = trace_zero_space()
        assert space.norm((1, 0, 0)) == 0  # tr(E^2) = 0
        assert space.norm((0, 0, 1)) == 2  # tr(H^2) = 2


class TestConjugationAction:
    def test_identity(self):
        assert sl2_conjugation_image(SL2Element.identity()) == Matrix.identity(3)

    def test_minus_identity_in_kernel(self):
        minus = SL2Element(-1, 0, 0, -1)
        assert sl2_conjugation_image(minus) == Matrix.identity(3)

    def test_shear_columns(self):
        g = SL2Element(1, 1, 0, 1)
        image = sl2_conjugation_image(g)
        # columns: E -> E, F -> -E + F + H, H -> H - 2E
        assert image.col(0) == (Fraction(1), Fraction(0), Fraction(0))
        assert image.col(1) == (Fraction(-1), Fraction(1), Fraction(1))
        assert image.col(2) == (Fraction(-2), Fraction(0), Fraction(1))

    def test_homomorphism_and_isometry(self):
        rng = random.Random(41)
        space, _ = trace_zero_space()
        for _ in range(100):
            g1 = random_sl2(rng)
            g2 = random_sl2(rng)
            m1, m2 = sl2_conjugation_image(g1), sl2_conjugation_image(g2)
            assert preserves_form(space, m1)
            assert sl2_conjugation_image(g1 * g2) == m1 * m2


class TestRationalPoints:
    def test_veronese_values(self):
        assert veronese_point(0) == (1, 0, 0)
        assert veronese_point(1) == (1, -1, 1)
        assert veronese_point(Fraction(1, 2)) == (1, Fraction(-1, 4), Fraction(1, 2))

    def test_segre_values(self):
        assert segre_point(0, 0) == (1, 0, 0, 0)
        assert segre_point(1, 1) == (1, -1, 1, 1)
        assert segre_point(2, Fraction(1, 3)) == (
            1,
            Fraction(-2, 3),
            2,
            Fraction(1, 3),
        )

    def test_isotropy_everywhere(self):
        rng = random.Random(43)
        trace_space, _ = trace_zero_space()
        two_u = standard_2u()
        for _ in range(100):
            tau = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            assert trace_space.norm(veronese_point(tau)) == 0
            tau2 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            assert two_u.norm(segre_point(tau, tau2)) == 0


class TestPairAction:
    def test_identity_pair(self):
        ident = SL2Element.identity()
        assert sl2_pair_orthogonal_image(ident, ident) == Matrix.identity(4)

    def test_first_factor_blocks(self):
        g = SL2Element(1, 1, 0, 1)
        image = sl2_pair_orthogonal_image(g, SL2Element.identity())
        assert preserves_form(standard_2u(), image)
        # e1 -> e1 + e2 under the first factor shear
        assert image.col(0) == (Fraction(1), Fraction(0), Fraction(1), Fraction(0))

    def test_factors_commute(self):
        rng = random.Random(47)
        ident = SL2Element.identity()
        for _ in range(10):
            g1, g3 = random_sl2(rng), random_sl2(rng)
            a = sl2_pair_orthogonal_image(g1, ident)
            b = sl2_pair_orthogonal_image(ident, g3)
            assert a * b == b * a
            assert sl2_pair_orthogonal_image(g1, g3) == a * b

    def test_projective_equivariance(self):
        rng = random.Random(53)
        checked = 0
        while checked < 20:
            g1, g3 = random_sl2(rng), random_sl2(rng)
            tau1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            tau2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            t1, t2 = mobius(g1, tau1), mobius(g3, tau2)
            if t1 is None or t2 is None:
                continue
            moved = sl2_pair_orthogonal_image(g1, g3) * Matrix.column(
                segre_point(tau1, tau2)
            )
            target = Matrix.column(segre_point(t1, t2))
            # exact proportionality with factor (c1 tau1 + d1)(c3 tau2 + d3)
            scale = (g1.c * tau1 + g1.d) * (g3.c * tau2 + g3.d)
            assert moved == target * scale
            checked += 1

    def test_specific_equivariance_point(self):
        g3 = SL2Element(0, -1, 1, 0)
        ident = SL2Element.identity()
        moved = sl2_pair_orthogonal_image(ident, g3) * Matrix.column(segre_point(1, 2))
        target = Matrix.column(segre_point(1, Fraction(-1, 2))) * Fraction(2)
        assert moved == target


def model_matrix(d, coords):
    """a*I + b*J_d + c*e12 + e*J_d*e12 for coords (a + b*sqrt(-d), c + e*sqrt(-d))."""
    (a, b), (c, e) = ((x.a, x.b) for x in coords)
    jd = Matrix([[0, -d], [1, 0]])
    return I2 * a + jd * b + E12 * c + jd * E12 * e


class TestHermitianM2:
    def test_identity_norm(self):
        for d in (1, 2, 3, 7):
            assert m2_hermitian_pair(I2, I2, d) == 2

    def test_gram_and_signature(self):
        for d in (1, 2, 3, 7):
            space, _ = hermitian_m2_space(d)
            assert signature_of(space) == Signature(1, 1, 0)
            assert space.pair((1, 0), (1, 0)) == 2

    def test_e11_isotropic(self):
        for d in (1, 3):
            space, model = hermitian_m2_space(d)
            e11 = Matrix([[1, 0], [0, 0]])
            coords = model.from_matrix(e11)
            assert space.norm(coords) == 0
            assert model_matrix(d, coords) == e11

    def test_model_round_trip(self):
        rng = random.Random(59)
        _, model = hermitian_m2_space(7)
        for _ in range(30):
            m = Matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            m = m.map_entries(Fraction)
            assert model_matrix(7, model.from_matrix(m)) == m

    def test_k_linearity_of_left_multiplication(self):
        # left multiplication by J_d realizes multiplication by sqrt(-d)
        d = 3
        space, model = hermitian_m2_space(d)
        jd = Matrix([[0, -d], [1, 0]])
        root = QuadFieldElement(0, 1, d)
        rng = random.Random(61)
        for _ in range(20):
            m = Matrix(
                [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
            )
            x, y = model.from_matrix(m)
            assert model.from_matrix(jd * m) == (root * x, root * y)


class TestSU11Image:
    def test_identity(self):
        image = sl2_su11_image(3, SL2Element.identity())
        one = QuadFieldElement(1, 0, 3)
        zero = QuadFieldElement(0, 0, 3)
        assert image == Matrix([[one, zero], [zero, one]])

    def test_rotation_preserves_form(self):
        image = sl2_su11_image(2, SL2Element(0, -1, 1, 0))
        space, _ = hermitian_m2_space(2)
        assert preserves_form(space, image)

    def test_determinant_one_and_isometry(self):
        rng = random.Random(67)
        for d in (1, 2, 3, 7):
            space, _ = hermitian_m2_space(d)
            for _ in range(25):
                g = random_sl2(rng)
                image = sl2_su11_image(d, g)
                assert preserves_form(space, image)
                det = image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
                assert det == 1

    def test_composition_reverses_order(self):
        # right multiplication: image(g1 g2) = image(g2) * image(g1)
        rng = random.Random(71)
        for _ in range(20):
            g1, g2 = random_sl2(rng), random_sl2(rng)
            lhs = sl2_su11_image(3, g1 * g2)
            rhs = sl2_su11_image(3, g2) * sl2_su11_image(3, g1)
            assert lhs == rhs


class TestCongruenceContainment:
    def gamma_n_word(self, rng, n, length):
        a = SL2Element(1, n, 0, 1)
        b = SL2Element(1, 0, n, 1)
        out = SL2Element.identity()
        for _ in range(length):
            g = a if rng.random() < 0.5 else b
            if rng.random() < 0.5:
                g = g.inverse()
            out = out * g
        return out

    def test_gamma_n_maps_into_level_n(self):
        rng = random.Random(73)
        space, _ = trace_zero_space()
        lattice = FullLattice(space, Matrix.identity(3))
        for n in (2, 3, 4, 5):
            for _ in range(50):
                word = self.gamma_n_word(rng, n, rng.randint(1, 8))
                image = sl2_conjugation_image(word)
                assert congruence_membership(image, lattice, n)

    def test_level_not_exceeded(self):
        space, _ = trace_zero_space()
        lattice = FullLattice(space, Matrix.identity(3))
        image = sl2_conjugation_image(SL2Element(1, 2, 0, 1))
        assert congruence_membership(image, lattice, 2)
        assert not congruence_membership(image, lattice, 3)


def lattice_from_positions(scales):
    units = [
        Matrix([[1, 0], [0, 0]]),
        Matrix([[0, 1], [0, 0]]),
        Matrix([[0, 0], [1, 0]]),
        Matrix([[0, 0], [0, 1]]),
    ]
    return MatrixLattice(tuple(u * s for u, s in zip(units, scales)))


class TestOrders:
    def test_standard_lattice_order(self):
        order = order_of_lattice(lattice_from_positions([1, 1, 1, 1]))
        assert order.vec_basis() == Matrix.identity(4)

    def test_row_scaled_lattice_gives_full_order(self):
        # scaling whole rows is left multiplication, so the right order stays M2(Z)
        order = order_of_lattice(lattice_from_positions([1, 1, 2, 2]))
        assert order.vec_basis() == Matrix.identity(4)

    def test_corner_scaled_lattice_gives_proper_suborder(self):
        # brute-force oracle: stability of X solved by direct linear conditions
        lattice = lattice_from_positions([1, 1, 1, 2])
        order = order_of_lattice(lattice)
        binv = lattice.vec_basis().inverse()
        oinv = order.vec_basis().inverse()

        def integral(row):
            return all(Fraction(x).denominator == 1 for x in row)

        def stable(cand):
            return all(
                integral(
                    (Matrix([[*(b * cand).entries()]], ncols=4) * binv).rows[0]
                )
                for b in lattice.basis
            )

        vals = sorted({Fraction(n, d) for d in (1, 2) for n in range(-4, 5)})
        brute = []
        for x1 in vals:
            for x2 in vals:
                for x3 in vals:
                    for x4 in vals:
                        cand = Matrix([[x1, x2], [x3, x4]])
                        if stable(cand):
                            brute.append(cand)
        assert brute, "oracle found no stable matrices"
        for cand in brute:
            row = (Matrix([[*cand.entries()]], ncols=4) * oinv).rows[0]
            assert integral(row), f"{cand!r} missing from the computed order"
        assert order.contains(Matrix([[1, 0], [0, 0]]))
        assert not order.contains(Matrix([[0, 1], [0, 0]]))
        assert order.contains(Matrix([[0, 2], [0, 0]]))
        assert abs(order.vec_basis().det()) == 2  # index 2 in M2(Z)

    def test_batched_membership_matches_solving(self):
        lattice = MatrixLattice(
            (Matrix([[1, 1], [0, 0]]), Matrix([[0, 2], [0, 0]]),
             Matrix([[0, 0], [3, 1]]), Matrix([[0, 0], [0, 2]]))
        )
        rng = random.Random(5)
        mats = [
            Matrix([[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in "ab"]
                    for _ in "cd"])
            for _ in range(60)
        ]

        def solved(m):  # coordinates in the basis by one linear solve
            coords = lattice.vec_basis().transpose().solve([*m.entries()])
            return all(c.denominator == 1 for c in coords)

        expected = tuple(map(solved, mats))
        assert lattice.contains_each(mats) == expected
        assert any(expected) and not all(expected)
        assert [lattice.contains(m) for m in mats] == list(expected)

    def test_homothety_invariance(self):
        a = order_of_lattice(lattice_from_positions([1, 1, 1, 2]))
        scaled = MatrixLattice(
            tuple(m * 3 for m in lattice_from_positions([1, 1, 1, 2]).basis)
        )
        b = order_of_lattice(scaled)
        assert a.vec_basis() == b.vec_basis()


UNITS = [Matrix([[int(k == 0), int(k == 1)], [int(k == 2), int(k == 3)]]) for k in range(4)]


def vec(m):
    return (m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def reference_order_rows(lattice):
    """The right order's vec basis, solved with one 2x2 product per unit matrix.

    Each basis element bm gives the block whose rows are vec(bm * E_k) * B^-1;
    the solutions of the 4x16 system come from the Smith form, canonical by HNF.
    """
    b_inv = lattice.vec_basis().inverse()
    blocks = [Matrix([vec(bm * e) for e in UNITS]) * b_inv for bm in lattice.basis]
    stacked = Matrix([sum((blk.rows[i] for blk in blocks), ()) for i in range(4)])
    denom = stacked.denominator_lcm()
    s, u, _ = smith(stacked * denom)
    scale_rows = Matrix(
        [[denom / s[i, i] if i == j else 0 for j in range(4)] for i in range(4)]
    )
    rows = scale_rows * u
    scale = rows.denominator_lcm()
    h, _ = hnf(rows * scale)
    return h * Fraction(1, scale)


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def unimodular(draw):
    """A 4x4 integer matrix of determinant +-1: a few row additions and swaps."""
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        elif draw(st.booleans()):
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = draw(st.integers(min_value=-2, max_value=2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(rows)


@st.composite
def matrix_lattices(draw):
    """Full lattices with vec basis U1 * diag(s) * U2: the scaled unit
    matrices, mixed by small unimodular U1 and U2, with s_i = p/q, q <= 6."""
    nonzero = st.integers(min_value=1, max_value=6).map(Fraction)
    scales = [
        draw(nonzero) * draw(st.sampled_from([1, -1])) / draw(st.integers(1, 6))
        for _ in range(4)
    ]
    diag = Matrix([[scales[i] if i == j else 0 for j in range(4)] for i in range(4)])
    rows = draw(unimodular()) * diag * draw(unimodular())
    return MatrixLattice(tuple(Matrix([r[:2], r[2:]]) for r in rows.rows))


class TestKroneckerOrders:
    @settings(max_examples=120, deadline=None)
    @given(matrix_lattices())
    def test_matches_reference_solution(self, lattice):
        assert order_of_lattice(lattice).vec_basis() == reference_order_rows(lattice)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(small_fractions, min_size=2, max_size=2), min_size=2,
                 max_size=2),
        st.lists(st.lists(small_fractions, min_size=2, max_size=2), min_size=2,
                 max_size=2),
    )
    def test_left_multiplication_is_kronecker_block(self, bm, x):
        bm, x = Matrix(bm), Matrix(x)
        block = embeddings._left_multiplications([bm])
        assert embeddings._vec_rows([bm * x]) == embeddings._vec_rows([x]) * block
        assert block == Matrix([vec(bm * e) for e in UNITS])

    def failing_only(self, monkeypatch, which):
        """Patch the integrality test so that only one check reads False.

        The order tests the identity, closure and stability products in that
        order; the last two are both 4x16, so the calls are told apart by
        their order, not by their shape.
        """
        lattice = lattice_from_positions([1, 1, 1, 2])
        real, kinds = Matrix.is_integral, iter(("identity", "closure", "stability"))

        def integral(coords):
            return next(kinds) != which and real(coords)

        monkeypatch.setattr(Matrix, "is_integral", integral)
        return lattice

    def test_identity_check(self, monkeypatch):
        lattice = self.failing_only(monkeypatch, "identity")
        with pytest.raises(PostconditionFailed, match="^order does not contain the identity$"):
            order_of_lattice(lattice)

    def test_closure_check(self, monkeypatch):
        lattice = self.failing_only(monkeypatch, "closure")
        with pytest.raises(PostconditionFailed, match="^order must be multiplicatively closed$"):
            order_of_lattice(lattice)

    def test_stability_check(self, monkeypatch):
        lattice = self.failing_only(monkeypatch, "stability")
        with pytest.raises(PostconditionFailed, match="^order does not stabilize the lattice$"):
            order_of_lattice(lattice)

    def test_full_rank_check(self, monkeypatch):
        real = embeddings._echelon
        monkeypatch.setattr(embeddings, "_echelon", lambda rows, n: real(rows, n)[:-1])
        with pytest.raises(PostconditionFailed, match="^stability system must have full rank$"):
            order_of_lattice(lattice_from_positions([1, 1, 1, 2]))

    @settings(max_examples=100, deadline=None)
    @given(matrix_lattices())
    def test_kept_dual_is_the_vec_basis_inverse(self, lattice):
        dual = lattice.vec_basis().inverse()
        assert lattice._dual == dual and lattice._dual._ints == dual._ints
        order = order_of_lattice(lattice)
        assert order._dual._ints == order.vec_basis().inverse()._ints

    @pytest.mark.parametrize(
        "mats",
        [
            (I2, E12, E21, Matrix([[0, 0], [0, 0]])),
            (I2, E12, E21, E21),
            (I2, E12, E21, E12 * Fraction(-3, 2)),
            (I2, E12, E21, I2 + E12 - E21 * 4),
            (E12, E12, E12, E12),
        ],
        ids=range(5),
    )
    def test_dependent_bases_are_refused(self, mats):
        with pytest.raises(ValueError, match="^matrix lattice basis is not full rank$"):
            MatrixLattice(mats)

    def test_field_elements_are_refused(self):
        root = QuadFieldElement(0, 1, 2)
        with pytest.raises(ValueError, match="rational"):
            MatrixLattice((I2 * root, E12, E21, Matrix([[0, 0], [0, 1]])))
        with pytest.raises(ValueError, match="rational"):
            lattice_from_positions([1, 1, 1, 1]).contains(I2 * root)


class TestOrderContainmentScale:
    def max_order(self):
        return lattice_from_positions([1, 1, 1, 1])

    def brute_minimal(self, order, maximal, bound=12):
        for k in range(1, bound + 1):
            if all(order.contains(m * k) for m in maximal.basis):
                return k
        raise AssertionError("no multiplier found")

    def test_equal_orders(self):
        assert order_containment_scale(self.max_order(), self.max_order()) == 1

    def test_quotient_two_two(self):
        # basis I, 2*e12, 2*e21, e22: index 4 with quotient (Z/2)^2
        order = MatrixLattice(
            (
                I2,
                E12 * 2,
                E21 * 2,
                Matrix([[0, 0], [0, 1]]),
            )
        )
        assert order_containment_scale(order, self.max_order()) == 2
        assert self.brute_minimal(order, self.max_order()) == 2

    def test_quotient_four(self):
        # basis I, 4*e12, e21, e22: index 4 with quotient Z/4
        order = MatrixLattice(
            (
                I2,
                E12 * 4,
                E21,
                Matrix([[0, 0], [0, 1]]),
            )
        )
        assert order_containment_scale(order, self.max_order()) == 4
        assert self.brute_minimal(order, self.max_order()) == 4

    def test_not_contained(self):
        half = MatrixLattice(
            (
                I2 * Fraction(1, 2),
                E12,
                E21,
                Matrix([[0, 0], [0, 1]]),
            )
        )
        with pytest.raises(NotContained):
            order_containment_scale(half, self.max_order())

    @settings(max_examples=60, deadline=None)
    @given(matrix_lattices())
    def test_matches_minimal_multiplier(self, lattice):
        order, maximal = order_of_lattice(lattice), self.max_order()
        if all(maximal.contains_each(order.basis)):
            change_inv = maximal.vec_basis() * order.vec_basis().inverse()
            expected = change_inv.denominator_lcm()
            assert order_containment_scale(order, maximal) == expected
        else:
            with pytest.raises(NotContained):
                order_containment_scale(order, maximal)


def test_sl2_element_validation():
    with pytest.raises(NotDeterminantOne):
        SL2Element(1, 0, 0, 2)
    g = SL2Element(2, 1, 1, 1)
    assert g * g.inverse() == SL2Element.identity()


# Each postcondition is made to fail by patching the check it relies on;
# the child prints the error each construction raises.
BROKEN_POSTCONDITIONS = """
import json, sys
from cuspchain import embeddings
from cuspchain.embeddings import SL2Element, MatrixLattice, order_of_lattice
from cuspchain.exact import Matrix

embeddings.preserves_form = lambda *args: False
lattice = MatrixLattice(tuple(
    Matrix([[int(k == 0), int(k == 1)], [int(k == 2), int(k == 3)]]) for k in range(4)
))
real = Matrix.is_integral

def order_failing(which):
    # the order tests its identity, closure and stability products in turn
    kinds = iter(("identity", "closure", "stability"))
    Matrix.is_integral = lambda self: next(kinds) != which and real(self)
    return order_of_lattice(lattice)

calls = {
    "conjugation": lambda: embeddings.sl2_conjugation_image(SL2Element.identity()),
    "pair": lambda: embeddings.sl2_pair_orthogonal_image(
        SL2Element.identity(), SL2Element.identity()
    ),
    "su11": lambda: embeddings.sl2_su11_image(2, SL2Element.identity()),
    "order": lambda: order_failing("identity"),
    "closure": lambda: order_failing("closure"),
    "stability": lambda: order_failing("stability"),
    "rank": lambda: (
        setattr(embeddings, "_echelon", lambda rows, n: [0, 1, 2]),
        order_of_lattice(lattice),
    ),
}
out = {"optimize": sys.flags.optimize}
for name, call in calls.items():
    try:
        call()
    except Exception as exc:
        out[name] = [type(exc).__name__, str(exc)]
sys.stdout.write(json.dumps(out))
"""


def test_postconditions_survive_python_O():
    proc = run_optimized(BROKEN_POSTCONDITIONS)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": 1,
        "conjugation": [
            "PostconditionFailed", "conjugation image does not preserve U perp <2>"
        ],
        "pair": ["PostconditionFailed", "SL2 x SL2 image does not preserve 2U"],
        "su11": ["PostconditionFailed", "SU(1, 1) image does not preserve the form"],
        "order": ["PostconditionFailed", "order does not contain the identity"],
        "closure": ["PostconditionFailed", "order must be multiplicatively closed"],
        "stability": ["PostconditionFailed", "order does not stabilize the lattice"],
        "rank": ["PostconditionFailed", "stability system must have full rank"],
    }
