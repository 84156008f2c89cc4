"""Lattice-sandwich level computations and congruence membership tests.

Given commensurable full lattices L and L' in one form space, the sandwich
N1 L' <= N L <= L <= N2^-1 L' yields the level N' = N1 N2 at which the
principal congruence isometries of (L', N') land inside those of (L, N).
The multipliers are minimal: each is the least common denominator of the
coordinates of one lattice's basis rows in the other's basis, so L' lies in
L exactly when N1 = 1 at N = 1.  Each lattice inverts its basis once, when
it is built; that inversion is also the test that the basis is nonsingular,
and every change of basis into the lattice reads the kept inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AmbientMismatch, NotAnIsometry
from .exact import Matrix
from .forms import FormSpace, preserves_form


@dataclass(frozen=True)
class FullLattice:
    """A full-rank lattice in a form space, given by rational basis rows.

    ``_inverse`` is basis^-1, computed once when the lattice is built.
    """

    space: FormSpace
    basis: Matrix
    _inverse: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = self.space.coerce_matrix(self.basis)
        object.__setattr__(self, "basis", basis)
        if basis.nrows != self.space.dim:
            raise ValueError("a full lattice needs dim-many basis rows")
        try:
            inverse = basis.inverse()
        except ZeroDivisionError:
            raise ValueError("lattice basis is singular") from None
        object.__setattr__(self, "_inverse", inverse)


def _multiplier(inner: Matrix, outer_inverse: Matrix) -> int:
    """Least k >= 1 with k * rowlattice(inner) inside the row lattice of the
    basis whose inverse is outer_inverse: the least common denominator of
    inner * outer_inverse, the coordinates of inner's rows in that basis."""
    return (inner * outer_inverse).denominator_lcm()


def containment_level(
    lat: FullLattice, lat_prime: FullLattice, n: int
) -> tuple[int, int, int]:
    """Minimal (N1, N2) with N1 L' <= N L and N2 L <= L', and N' = N1 N2."""
    if lat.space != lat_prime.space:
        raise AmbientMismatch("lattices live in different form spaces")
    if n < 1:
        raise ValueError("the level N must be a positive integer")
    # N L has the basis n * lat.basis, whose inverse is lat's divided by n
    n1 = _multiplier(lat_prime.basis, lat._inverse * Fraction(1, n))
    n2 = _multiplier(lat.basis, lat_prime._inverse)
    return n1, n2, n1 * n2


def congruence_membership(gamma: Matrix, lat: FullLattice, n: int) -> bool:
    """Whether gamma fixes the lattice and is the identity modulo n on it.

    gamma acts on column vectors and must preserve the ambient form;
    non-isometries are rejected with an error rather than a False.
    """
    space = lat.space
    if gamma.shape != (space.dim, space.dim):
        raise NotAnIsometry(f"matrix of shape {gamma.shape} cannot act")
    gamma = space.coerce_field(gamma)
    if not preserves_form(space, gamma):
        raise NotAnIsometry("matrix does not preserve the form")
    if n < 1:
        raise ValueError("the level N must be a positive integer")
    action = lat.basis * gamma.transpose() * lat._inverse
    # One test also decides that action is unimodular: action - I in
    # n * M(Z[sqrt(-d)]) makes action integral, so det(action) = det(gamma)
    # is integral, and it has norm 1 because gamma preserves the form (det
    # +-1 over Q).  A unit, it divides the adjugate: action^-1 is integral.
    return ((action - Matrix.identity(space.dim)) * Fraction(1, n)).is_integral()
