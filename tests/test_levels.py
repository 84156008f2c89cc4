"""Lattice sandwich levels and principal congruence membership."""

import random
from fractions import Fraction

import pytest

from cuspchain.errors import AmbientMismatch, NotAnIsometry
from cuspchain.exact import Matrix, QuadFieldElement
from cuspchain.forms import (
    HERMITIAN,
    FormSpace,
    hyperbolic_plane,
    standard_symplectic,
    unit_vector,
)
from cuspchain.levels import (
    FullLattice,
    congruence_membership,
    containment_level,
)

from support import (
    orthogonal_test_space,
    random_orthogonal_isometry,
    random_symplectic_isometry,
    random_unitary_isometry,
    symplectic_transvection,
    unitary_test_space,
)


def brute_multiplier(inner: Matrix, outer: Matrix, bound: int) -> int:
    outer_inv = outer.inverse()
    for k in range(1, bound + 1):
        if (inner * outer_inv).map_entries(lambda x: x * k).is_integral():
            return k
    raise AssertionError("no multiplier up to bound")


def multiplier(inner: Matrix, outer: Matrix) -> int:
    """Least k >= 1 with k * rowlattice(inner) inside rowlattice(outer)."""
    return (inner * outer.inverse()).denominator_lcm()


class TestContainmentLevel:
    def setup_method(self):
        self.space = hyperbolic_plane()

    def lattice(self, rows):
        return FullLattice(self.space, Matrix(rows))

    def test_equal_lattices(self):
        lat = self.lattice([[1, 0], [0, 1]])
        for n in (1, 2, 5):
            assert containment_level(lat, lat, n) == (n, 1, n)
        for n in (0, -3):
            with pytest.raises(ValueError, match="^the level N must be a positive"):
                containment_level(lat, lat, n)

    def test_doubled_lattice(self):
        lat = self.lattice([[1, 0], [0, 1]])
        doubled = self.lattice([[2, 0], [0, 2]])
        n1, n2, nprime = containment_level(lat, doubled, 1)
        assert (n1, n2, nprime) == (1, 2, 2)
        assert brute_multiplier(doubled.basis, lat.basis, 10) == 1
        assert brute_multiplier(lat.basis, doubled.basis, 10) == 2

    def test_mixed_index(self):
        lat = self.lattice([[1, 0], [0, 1]])
        other = self.lattice([[1, 0], [0, 3]])
        n1, n2, nprime = containment_level(lat, other, 2)
        assert (n1, n2) == (2, 3)
        assert nprime == 6
        # sandwich containments re-verified exactly
        scaled = other.basis.map_entries(lambda x: x * n1)
        assert multiplier(scaled, lat.basis.map_entries(lambda x: x * 2)) == 1
        assert multiplier(lat.basis.map_entries(lambda x: x * n2), other.basis) == 1

    def test_ambient_mismatch(self):
        other_space = FormSpace("symmetric", Matrix([[2, 0], [0, -2]]))
        with pytest.raises(AmbientMismatch):
            containment_level(
                self.lattice([[1, 0], [0, 1]]),
                FullLattice(other_space, Matrix.identity(2)),
                1,
            )

    def test_minimality_against_brute_force(self):
        rng = random.Random(91)
        checked = 0
        while checked < 50:
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            m = Matrix([[Fraction(x) for x in r] for r in rows])
            if m.det() == 0 or abs(m.det()) > 20:
                continue
            lat = self.lattice([[1, 0], [0, 1]])
            other = FullLattice(self.space, m)
            n = rng.randint(1, 4)
            n1, n2, nprime = containment_level(lat, other, n)
            bound = int(abs(m.det())) * n + 1
            scaled = lat.basis.map_entries(lambda x: x * n)
            assert n1 == brute_multiplier(other.basis, scaled, 20 * bound)
            assert n2 == brute_multiplier(lat.basis, other.basis, 20 * bound)
            assert nprime == n1 * n2
            checked += 1

    def test_monotone_in_n(self):
        lat = self.lattice([[1, 0], [0, 1]])
        other = self.lattice([[2, 1], [0, 3]])
        for n in (1, 2, 3):
            for mult in (2, 3, 4):
                n1, n2, _ = containment_level(lat, other, n)
                m1, m2, _ = containment_level(lat, other, n * mult)
                assert m2 == n2
                # N1 grows exactly by a divisor of the extra factor
                assert m1 % n1 == 0
                assert (n1 * mult) % m1 == 0


class TestCongruenceMembership:
    def test_identity(self):
        space = standard_symplectic(2)
        lat = FullLattice(space, Matrix.identity(4))
        assert congruence_membership(Matrix.identity(4), lat, 7)
        for n in (0, -1):
            with pytest.raises(ValueError, match="^the level N must be a positive"):
                congruence_membership(Matrix.identity(4), lat, n)

    def test_transvection_level(self):
        space = standard_symplectic(2)
        lat = FullLattice(space, Matrix.identity(4))
        for n in (2, 3, 5):
            v = unit_vector(space, 0)
            t = symplectic_transvection(space, v, n)
            assert congruence_membership(t, lat, n)
            assert not congruence_membership(t, lat, n + 1)

    def test_rejects_non_isometry(self):
        space = standard_symplectic(1)
        lat = FullLattice(space, Matrix.identity(2))
        with pytest.raises(NotAnIsometry):
            congruence_membership(Matrix([[1, 0], [0, 2]]), lat, 2)
        for gamma in (Matrix([[1, 0, 0], [0, 1, 0]]), Matrix.identity(3)):
            with pytest.raises(NotAnIsometry, match="^matrix of shape .* cannot act$"):
                congruence_membership(gamma, lat, 2)

    def test_closed_under_composition(self):
        rng = random.Random(97)
        space = standard_symplectic(2)
        lat = FullLattice(space, Matrix.identity(4))
        n = 3
        passing = []
        while len(passing) < 6:
            v = [rng.randint(-1, 1) for _ in range(4)]
            if all(x == 0 for x in v):
                continue
            t = symplectic_transvection(space, v, n * rng.choice([1, 2]))
            if congruence_membership(t, lat, n):
                passing.append(t)
        for a in passing:
            for b in passing:
                assert congruence_membership(a * b, lat, n)

    def test_respects_lattice_scaling(self):
        space = standard_symplectic(1)
        lat = FullLattice(space, Matrix([[2, 0], [0, 2]]))
        t = symplectic_transvection(space, unit_vector(space, 0), 3)
        # (t - id) maps the scaled lattice into 3 * lattice as well
        assert congruence_membership(t, lat, 3)

    def test_sampled_level_consequence(self):
        # isometries congruent to 1 mod N' on L' stay congruent to 1 mod N on L
        rng = random.Random(99)
        space = standard_symplectic(2)
        lat = FullLattice(space, Matrix.identity(4))
        lat_prime = FullLattice(
            space,
            Matrix(
                [
                    [1, 0, 0, 0],
                    [0, 2, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 2],
                ]
            ),
        )
        n = 2
        n1, n2, nprime = containment_level(lat, lat_prime, n)
        found = 0
        while found < 10:
            v = [rng.randint(-1, 1) for _ in range(4)]
            if all(x == 0 for x in v):
                continue
            t = symplectic_transvection(space, v, nprime * rng.choice([1, 2]))
            if congruence_membership(t, lat_prime, nprime):
                assert congruence_membership(t, lat, n)
                found += 1

    def test_matches_definition_across_form_kinds(self):
        # the definition written out: gamma acts on the lattice by an integral
        # matrix with integral inverse, and B (gamma - I)^T B^-1 / n is integral
        def defined(gamma, lat, n):
            b, b_inv = lat.basis, lat.basis.inverse()
            action = b * gamma.transpose() * b_inv
            difference = b * (gamma - Matrix.identity(b.nrows)).transpose() * b_inv
            return (
                action.is_integral()
                and action.inverse().is_integral()
                and (difference * Fraction(1, n)).is_integral()
            )

        rng = random.Random(103)
        kinds = [(standard_symplectic(2), random_symplectic_isometry),
                 (orthogonal_test_space([-2]), random_orthogonal_isometry)]
        kinds += [(unitary_test_space(d, 2), random_unitary_isometry) for d in (1, 2, 3, 7)]
        answers = []
        for space, isometry in kinds:
            lattices = [FullLattice(space, Matrix.identity(space.dim))]
            while len(lattices) < 3:
                rows = [[Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
                         for _ in range(space.dim)] for _ in range(space.dim)]
                if Matrix(rows).det() != 0:
                    lattices.append(FullLattice(space, Matrix(rows)))
            for _ in range(16):
                gamma = isometry(space, rng, rng.randint(1, 3))
                for lat in lattices:
                    for n in (1, 2, 3):
                        expected = defined(gamma, lat, n)
                        assert congruence_membership(gamma, lat, n) == expected
                        answers.append(expected)
        assert 0 < sum(answers) < len(answers)

    def test_unit_determinant_beyond_plus_minus_one(self):
        # over Q(sqrt(-1)) the units include sqrt(-1), the determinant here
        space = FormSpace(HERMITIAN, Matrix.identity(2), 1)
        lat = FullLattice(space, Matrix.identity(2))
        gamma = Matrix([[QuadFieldElement(0, 1, 1), 0], [0, 1]])
        assert congruence_membership(gamma, lat, 1)
        assert not congruence_membership(gamma, lat, 2)


def test_lattice_contains():
    # L' lies in L exactly when N1 = 1 at level N = 1
    space = hyperbolic_plane()
    big = FullLattice(space, Matrix.identity(2))
    small = FullLattice(space, Matrix([[2, 0], [0, 3]]))
    assert containment_level(big, small, 1)[0] == 1
    assert containment_level(small, big, 1)[0] != 1


def test_full_lattice_validation():
    space = hyperbolic_plane()
    with pytest.raises(ValueError):
        FullLattice(space, Matrix([[1, 0], [2, 0]]))


# singular bases of full size: a zero row, a repeated row, a rational and a
# Q(sqrt(-d)) multiple of another row, a row that sums two others
SINGULAR_BASES = [
    (hyperbolic_plane(), [[0, 0], [1, 2]]),
    (hyperbolic_plane(), [[1, 2], [1, 2]]),
    (hyperbolic_plane(), [[Fraction(1, 2), 3], [-1, -6]]),
    (unitary_test_space(1, 1),
     [[1, QuadFieldElement(0, 1, 1)], [QuadFieldElement(0, 1, 1), -1]]),
    (unitary_test_space(7, 1),
     [[QuadFieldElement(1, 1, 7), 2],
      [QuadFieldElement(-6, 2, 7), QuadFieldElement(2, 2, 7)]]),
    (orthogonal_test_space([-2]),
     [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
      [1, 1, 0, 0, 2]]),
    (standard_symplectic(2), [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]]),
]


@pytest.mark.parametrize("case", range(len(SINGULAR_BASES)))
def test_singular_bases_are_refused(case):
    space, rows = SINGULAR_BASES[case]
    with pytest.raises(ValueError, match="^lattice basis is singular$"):
        FullLattice(space, Matrix(rows))
    with pytest.raises(ValueError, match="^a full lattice needs dim-many basis rows$"):
        FullLattice(space, Matrix(rows[1:], space.dim))


def _random_lattices(rng, space, count):
    """Nonsingular lattices with rational entries, or entries over the
    space's field for a hermitian space."""
    def entry():
        x = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
        if space.kind != HERMITIAN:
            return x
        y = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        return QuadFieldElement(x, y, space.d)

    out = []
    while len(out) < count:
        rows = Matrix([[entry() for _ in range(space.dim)] for _ in range(space.dim)])
        if rows.det() != 0:
            out.append(FullLattice(space, rows))
    return out


def test_kept_inverse_is_the_basis_inverse():
    rng = random.Random(25)
    spaces = [hyperbolic_plane(), standard_symplectic(2), orthogonal_test_space([-2])]
    spaces += [unitary_test_space(d, 1, negatives) for d in (1, 2, 3, 7)
               for negatives in ((), (-1,))]
    for space in spaces:
        lattices = _random_lattices(rng, space, 6)
        for lat in lattices:
            assert lat._inverse == lat.basis.inverse()
            assert lat._inverse._ints == lat.basis.inverse()._ints
        # the levels read off the kept inverses are those of the inverted bases
        for lat, lat_prime in zip(lattices, lattices[1:]):
            for n in (1, 2, 6):
                n1 = multiplier(lat_prime.basis, lat.basis * n)
                n2 = multiplier(lat.basis, lat_prime.basis)
                assert containment_level(lat, lat_prime, n) == (n1, n2, n1 * n2)
            assert (containment_level(lat, lat_prime, 1)[0] == 1) == (
                multiplier(lat_prime.basis, lat.basis) == 1
            )
