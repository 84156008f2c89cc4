"""Shared helpers for the test suite: random isometries and instance
generators for the three chain families, plus small independent oracles.

Everything takes an explicit random.Random so test runs are reproducible.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import cuspchain
from cuspchain import serialize
from cuspchain.exact import Matrix, QuadFieldElement
from cuspchain.forms import (
    HERMITIAN,
    FormSpace,
    Subspace,
    canonical_subspace,
    preserves_form,
    quadratic_2u_perp_diagonal,
    standard_hermitian_hyperbolic,
    hermitian_perp_diagonal,
    unit_vector,
)


def transform_subspace(space: FormSpace, m: Matrix, s: Subspace) -> Subspace:
    """Image of a subspace under the column action of an isometry."""
    return canonical_subspace(space, s.basis * m.transpose())


def field_zero(space: FormSpace):
    """0 in the space's field: over Q(sqrt(-d)) for a hermitian space, else Q."""
    if space.kind == HERMITIAN:
        return QuadFieldElement(0, 0, space.d)
    return Fraction(0)


def conjugate_scalar(x):
    """Complex conjugation of a field element; the identity on rationals."""
    return x.conjugate() if isinstance(x, QuadFieldElement) else x


def _columns_from_action(space: FormSpace, image_of_basis) -> Matrix:
    cols = [image_of_basis(unit_vector(space, j)) for j in range(space.dim)]
    return Matrix(cols).transpose()


# -- symplectic -------------------------------------------------------------


def symplectic_transvection(space: FormSpace, v, c) -> Matrix:
    """x -> x + c * w(x, v) * v; integral and symplectic for integral v, c."""
    v = space.coerce_row(v).rows[0]

    def act(x):
        factor = space.pair(x, v) * c
        return tuple(a + factor * b for a, b in zip(x, v))

    m = _columns_from_action(space, act)
    assert preserves_form(space, m)
    return m


def random_symplectic_isometry(space: FormSpace, rng: random.Random, factors=3) -> Matrix:
    out = Matrix.identity(space.dim)
    for _ in range(factors):
        v = [0] * space.dim
        for idx in rng.sample(range(space.dim), k=min(2, space.dim)):
            v[idx] = rng.choice([-1, 1])
        c = rng.choice([-2, -1, 1, 2])
        out = symplectic_transvection(space, v, c) * out
    return out


# -- orthogonal ---------------------------------------------------------------


def orthogonal_eichler(space: FormSpace, e, a) -> Matrix:
    """x -> x + (x,a)e - (x,e)a - ((a,a)/2)(x,e)e for isotropic e with a _|_ e."""
    e = space.coerce_row(e).rows[0]
    a = space.coerce_row(a).rows[0]
    assert space.pair(e, e) == 0 and space.pair(e, a) == 0
    half = space.norm(a) / 2

    def act(x):
        xa, xe = space.pair(x, a), space.pair(x, e)
        return tuple(
            xi + xa * ei - xe * ai - half * xe * ei for xi, ei, ai in zip(x, e, a)
        )

    m = _columns_from_action(space, act)
    assert preserves_form(space, m)
    return m


def orthogonal_test_space(negatives) -> FormSpace:
    return quadratic_2u_perp_diagonal(negatives)


def random_orthogonal_isometry(space: FormSpace, rng: random.Random, factors=3) -> Matrix:
    iso_indices = [0, 1, 2, 3]  # e1, f1, e2, f2 are isotropic
    out = Matrix.identity(space.dim)
    for _ in range(factors):
        ei = rng.choice(iso_indices)
        e = unit_vector(space, ei)
        pool = [
            j
            for j in range(space.dim)
            if space.pair(unit_vector(space, j), e) == 0 and j != ei
        ]
        aj = rng.choice(pool)
        a = list(unit_vector(space, aj))
        scale = rng.choice([-1, 1, 2])
        a = [x * scale for x in a]
        out = orthogonal_eichler(space, e, a) * out
    return out


# -- unitary ------------------------------------------------------------------


def hermitian_shear(space: FormSpace, ei: int, fi: int, m: int) -> Matrix:
    """f -> f + m*sqrt(-d)*e on one hyperbolic pair, rest fixed."""
    t = QuadFieldElement(0, m, space.d)
    rows = [list(r) for r in space.coerce_field(Matrix.identity(space.dim)).rows]
    rows[ei][fi] = rows[ei][fi] + t
    mat = Matrix(rows)
    assert preserves_form(space, mat)
    return mat


def hermitian_swap(space: FormSpace, ei: int, fi: int) -> Matrix:
    rows = [list(r) for r in space.coerce_field(Matrix.identity(space.dim)).rows]
    rows[ei][ei], rows[fi][fi] = field_zero(space), field_zero(space)
    one = field_zero(space) + 1
    rows[ei][fi], rows[fi][ei] = one, one
    mat = Matrix(rows)
    assert preserves_form(space, mat)
    return mat


def hermitian_mixer(space: FormSpace, pair1, pair2, t: QuadFieldElement) -> Matrix:
    """e1 -> e1 + t*e2 and f2 -> f2 - conj(t)*f1 across two hyperbolic pairs."""
    e1, f1 = pair1
    e2, f2 = pair2
    rows = [list(r) for r in space.coerce_field(Matrix.identity(space.dim)).rows]
    rows[e2][e1] = rows[e2][e1] + t
    rows[f1][f2] = rows[f1][f2] - t.conjugate()
    mat = Matrix(rows)
    assert preserves_form(space, mat)
    return mat


def hermitian_anisotropic_shear(
    space: FormSpace, ei: int, fi: int, ui: int, beta: QuadFieldElement
) -> Matrix:
    """f -> f + beta*u + gamma*e, u -> u + alpha*e around one hyperbolic pair."""
    uu = space.norm(unit_vector(space, ui))
    alpha = -beta.conjugate() * uu
    gamma = -(beta * beta.conjugate()) * Fraction(uu, 2)
    rows = [list(r) for r in space.coerce_field(Matrix.identity(space.dim)).rows]
    rows[ui][fi] = rows[ui][fi] + beta
    rows[ei][fi] = rows[ei][fi] + gamma
    rows[ei][ui] = rows[ei][ui] + alpha
    mat = Matrix(rows)
    assert preserves_form(space, mat)
    return mat


def unitary_test_space(d: int, copies: int, negatives=()) -> FormSpace:
    if negatives:
        return hermitian_perp_diagonal(d, copies, negatives)
    return standard_hermitian_hyperbolic(d, copies)


def random_unitary_isometry(space: FormSpace, rng: random.Random, factors=3) -> Matrix:
    pairs = []
    i = 0
    while i + 1 < space.dim and space.pair(
        unit_vector(space, i), unit_vector(space, i + 1)
    ) == 1 and space.norm(unit_vector(space, i)) == 0:
        pairs.append((i, i + 1))
        i += 2
    anis = list(range(2 * len(pairs), space.dim))
    out = space.coerce_field(Matrix.identity(space.dim))
    for _ in range(factors):
        choice = rng.random()
        ei, fi = rng.choice(pairs)
        if choice < 0.35:
            gen = hermitian_shear(space, ei, fi, rng.choice([-2, -1, 1, 2]))
        elif choice < 0.55:
            gen = hermitian_swap(space, ei, fi)
        elif choice < 0.8 and len(pairs) > 1:
            other = rng.choice([p for p in pairs if p != (ei, fi)])
            t = QuadFieldElement(rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]), space.d)
            if t == 0:
                t = QuadFieldElement(1, 0, space.d)
            gen = hermitian_mixer(space, (ei, fi), other, t)
        elif anis:
            beta = QuadFieldElement(rng.choice([-1, 1]), rng.choice([-1, 0, 1]), space.d)
            gen = hermitian_anisotropic_shear(space, ei, fi, rng.choice(anis), beta)
        else:
            gen = hermitian_shear(space, ei, fi, rng.choice([-1, 1]))
        out = gen * out
    return out


def random_sl2(rng: random.Random, factors: int = 3):
    """Random SL2(Q) element as a short word in elementary matrices."""
    from cuspchain.embeddings import SL2Element

    out = SL2Element.identity()
    for _ in range(factors):
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if rng.random() < 0.5:
            gen = SL2Element(1, t, 0, 1)
        else:
            gen = SL2Element(1, 0, t, 1)
        out = out * gen
    return out


def mobius(g, tau: Fraction) -> Fraction | None:
    """(a tau + b) / (c tau + d); None at the pole."""
    den = g.c * tau + g.d
    if den == 0:
        return None
    return (g.a * tau + g.b) / den


# -- standard cusp data --------------------------------------------------------


def standard_isotropic(space: FormSpace, rank: int, which="e") -> Subspace:
    """span(e_1..e_rank) (or the f-side) in a block hyperbolic basis."""
    offset = 0 if which == "e" else 1
    rows = [unit_vector(space, 2 * i + offset) for i in range(rank)]
    return canonical_subspace(space, Matrix(rows, ncols=space.dim))


# -- independent oracles --------------------------------------------------------


def oracle_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Naive gcd-elimination row Hermite form (no transform tracking)."""
    m = [list(r) for r in rows]
    if not m:
        return m
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        # euclidean passes until at most the pivot entry survives in column c
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][c]), i))
            m[r], m[i0] = m[i0], m[r]
            clean = True
            for i in range(r + 1, len(m)):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        clean = False
            if clean:
                break
        if m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
    return m


def oracle_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Invariant factors via determinantal divisors (gcds of k x k minors)."""
    from itertools import combinations
    from math import gcd

    m = len(rows)
    n = len(rows[0]) if rows else 0
    rank = min(m, n)
    divisors = [1]
    for k in range(1, rank + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                sub = Matrix([[Fraction(rows[i][j]) for j in cs] for i in rs])
                g = gcd(g, int(sub.det()))
        divisors.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            factors.append(0)
        else:
            factors.append(divisors[k] // divisors[k - 1])
    while len(factors) < rank:
        factors.append(0)
    return factors


def json_scalar(x):
    """The JSON of a scalar, written out here: "p" or "p/q" for a rational,
    {"a", "b", "D"} for a field element."""
    if isinstance(x, QuadFieldElement):
        return {"a": str(x.a), "b": str(x.b), "D": x.d}
    return str(Fraction(x))


def plain_json(doc):
    """An encoder's document as plain JSON: its canonical text read back."""
    return json.loads(serialize.dumps_canonical(doc))


def run_optimized(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` under ``python -O``, importing this checkout's package."""
    paths = [str(Path(cuspchain.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
