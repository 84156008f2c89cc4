"""Lattice-sandwich level computations and congruence membership tests.

Given commensurable full lattices L and L' in one form space, the sandwich
N1 L' <= N L <= L <= N2^-1 L' yields the level N' = N1 N2 at which the
principal congruence isometries of (L', N') land inside those of (L, N).
The multipliers are minimal, read off the denominators of the exact
change-of-basis matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbientMismatch, NotAnIsometry
from .exact import Matrix
from .forms import FormSpace, preserves_form


@dataclass(frozen=True)
class FullLattice:
    """A full-rank lattice in a form space, given by rational basis rows."""

    space: FormSpace
    basis: Matrix

    def __post_init__(self):
        basis = self.space.coerce_matrix(self.basis)
        object.__setattr__(self, "basis", basis)
        if basis.nrows != self.space.dim:
            raise ValueError("a full lattice needs dim-many basis rows")
        if basis.det() == 0:
            raise ValueError("lattice basis is singular")


def minimal_multiplier(inner: Matrix, outer: Matrix) -> int:
    """Least k >= 1 with k * rowlattice(inner) inside rowlattice(outer)."""
    change = inner * outer.inverse()
    return change.denominator_lcm()


def lattice_contains(outer: FullLattice, inner: FullLattice) -> bool:
    return minimal_multiplier(inner.basis, outer.basis) == 1


def containment_level(
    lat: FullLattice, lat_prime: FullLattice, n: int
) -> tuple[int, int, int]:
    """Minimal (N1, N2) with N1 L' <= N L and N2 L <= L', and N' = N1 N2."""
    if lat.space != lat_prime.space:
        raise AmbientMismatch("lattices live in different form spaces")
    if n < 1:
        raise ValueError("the level N must be a positive integer")
    scaled = lat.basis * n
    n1 = minimal_multiplier(lat_prime.basis, scaled)
    n2 = minimal_multiplier(lat.basis, lat_prime.basis)
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
    action = lat.basis * gamma.transpose() * lat.basis.inverse()
    # One test also decides that action is unimodular: action - I in
    # n * M(Z[sqrt(-d)]) makes action integral, so det(action) = det(gamma)
    # is integral, and it has norm 1 because gamma preserves the form (det
    # +-1 over Q).  A unit, it divides the adjugate: action^-1 is integral.
    return ((action - Matrix.identity(space.dim)) * Fraction(1, n)).is_integral()
