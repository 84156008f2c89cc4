"""Seeded input generator for the benchmark workloads.

Everything here is plain ``int``/``Fraction`` arithmetic and never imports
``cuspchain``: cusp data are produced by applying integral transvections,
Eichler maps and hermitian shears directly to basis rows, so the cost of
generating inputs (``setup_s``) does not move when ``src/`` changes.

Hermitian scalars a + b*sqrt(-d) are pairs ``(a, b)`` of Fractions; the field
parameter ``d`` travels with the instance.

Each generator returns a list of ``Instance`` objects whose ``files`` map
file names to JSON documents and whose ``expect`` dict holds what the
checks in ``checks.py`` need (canonical endpoints, planted heights, ...).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

# -- shared scalar helpers -------------------------------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_json(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def herm_json(x, d: int) -> dict:
    return {"a": frac_json(x[0]), "b": frac_json(x[1]), "D": d}


def vector_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def hmul(x, y, d):
    return (x[0] * y[0] - d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def hadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def hsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def hconj(x):
    return (x[0], -x[1])


def hdiv(x, y, d):
    n = y[0] * y[0] + d * y[1] * y[1]
    return hmul(x, (y[0] / n, -y[1] / n), d)


def rref(rows, ncols, d=None):
    """Reduced row echelon basis (zero rows dropped).

    Rational entries when ``d`` is None, hermitian pairs otherwise.  The
    reduced echelon form of a row space is unique, so this matches the
    program's canonical subspaces entry for entry.
    """
    if d is None:
        m = [[Fraction(x) for x in r] for r in rows]
        nz = lambda x: x != 0
        div = lambda x, p: x / p
        sub_mul = lambda x, f, y: x - f * y
    else:
        m = [[(Fraction(x[0]), Fraction(x[1])) for x in r] for r in rows]
        nz = lambda x: x[0] != 0 or x[1] != 0
        div = lambda x, p: hdiv(x, p, d)
        sub_mul = lambda x, f, y: hsub(x, hmul(f, y, d))
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if nz(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [div(x, pv) for x in m[r]]
        for i in range(len(m)):
            if i != r and nz(m[i][c]):
                f = m[i][c]
                m[i] = [sub_mul(x, f, y) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m[:r]


@dataclass
class Instance:
    """One unit of work: the commands to run and what their outputs must be."""

    kind: str  # "cert", "analyze", "level" or "order"
    files: dict  # file name -> JSON document
    expect: dict = field(default_factory=dict)


def _matrix_json(rows, d=None):
    if d is None:
        return [[frac_json(x) for x in r] for r in rows]
    return [[herm_json(x, d) for x in r] for r in rows]


def _cert_instance(tag, space_json, i1, i2, ncols, d=None):
    return Instance(
        "cert",
        {
            "space": space_json,
            "i1": {"basis": _matrix_json(i1, d)},
            "i2": {"basis": _matrix_json(i2, d)},
        },
        {
            "tag": tag,
            "node_first": rref(i1, ncols, d),
            "node_last": rref(i2, ncols, d),
            "d": d,
        },
    )


# -- symplectic: integral transvections x -> x + c*w(x, v)*v ----------------


def _symplectic_gram(genus):
    n = 2 * genus
    g = [[0] * n for _ in range(n)]
    for i in range(genus):
        g[2 * i][2 * i + 1] = 1
        g[2 * i + 1][2 * i] = -1
    return g


def _omega(x, v):
    return sum(x[i] * v[i + 1] - x[i + 1] * v[i] for i in range(0, len(x), 2))


def _symplectic_rows(rng, genus, rank, factors):
    n = 2 * genus
    rows = [[1 if j == 2 * i else 0 for j in range(n)] for i in range(rank)]
    for _ in range(factors):
        v = [0] * n
        for idx in rng.sample(range(n), k=min(2, n)):
            v[idx] = rng.choice([-1, 1])
        c = rng.choice([-2, -1, 1, 2])
        rows = [[a + c * _omega(x, v) * b for a, b in zip(x, v)] for x in rows]
    return rows


def symplectic_instance(rng, genus, rank):
    space = {"kind": "alternating", "gram": _symplectic_gram(genus)}
    i1 = _symplectic_rows(rng, genus, rank, rng.randint(1, 3))
    i2 = _symplectic_rows(rng, genus, rank, rng.randint(1, 3))
    return _cert_instance("symplectic", space, i1, i2, 2 * genus)


# -- unitary: hermitian shears, swaps, mixers and anisotropic shears --------

UNITARY_SHAPES = [(1, ()), (1, (-1,)), (2, ()), (1, (-1, -2))]
UNITARY_DS = [1, 2, 3, 7]


def _unitary_rows(rng, d, copies, negatives, rank, factors):
    n = 2 * copies + len(negatives)
    z = (ZERO, ZERO)
    rows = [[(ONE, ZERO) if j == 2 * i else z for j in range(n)] for i in range(rank)]
    pairs = [(2 * i, 2 * i + 1) for i in range(copies)]
    anis = list(range(2 * copies, n))
    for _ in range(factors):
        choice = rng.random()
        ei, fi = rng.choice(pairs)
        if choice < 0.35:
            ops = [("shear", ei, fi, rng.choice([-2, -1, 1, 2]))]
        elif choice < 0.55:
            ops = [("swap", ei, fi)]
        elif choice < 0.8 and len(pairs) > 1:
            e2, f2 = rng.choice([p for p in pairs if p != (ei, fi)])
            t = (Fraction(rng.choice([-1, 0, 1])), Fraction(rng.choice([-1, 0, 1])))
            if t == (ZERO, ZERO):
                t = (ONE, ZERO)
            ops = [("mix", ei, fi, e2, f2, t)]
        elif anis:
            beta = (Fraction(rng.choice([-1, 1])), Fraction(rng.choice([-1, 0, 1])))
            ops = [("aniso", ei, fi, rng.choice(anis), beta)]
        else:
            ops = [("shear", ei, fi, rng.choice([-1, 1]))]
        for op in ops:
            rows = [_unitary_apply(x, op, d, negatives, copies) for x in rows]
    return rows


def _unitary_apply(x, op, d, negatives, copies):
    """Column action of one generator on the row vector x (as M @ x)."""
    x = list(x)
    if op[0] == "shear":  # f -> f + m*sqrt(-d)*e
        _, ei, fi, m = op
        x[ei] = hadd(x[ei], hmul((ZERO, Fraction(m)), x[fi], d))
    elif op[0] == "swap":
        _, ei, fi = op
        x[ei], x[fi] = x[fi], x[ei]
    elif op[0] == "mix":  # e1 -> e1 + t*e2, f2 -> f2 - conj(t)*f1
        _, e1, f1, e2, f2, t = op
        x[e2] = hadd(x[e2], hmul(t, x[e1], d))
        x[f1] = hsub(x[f1], hmul(hconj(t), x[f2], d))
    else:  # f -> f + beta*u + gamma*e, u -> u + alpha*e
        _, ei, fi, ui, beta = op
        uu = Fraction(negatives[ui - 2 * copies])
        alpha = hmul(hconj(beta), (-uu, ZERO), d)
        gamma = hmul(hmul(beta, hconj(beta), d), (-uu / 2, ZERO), d)
        old_f, old_u = x[fi], x[ui]
        x[ei] = hadd(x[ei], hadd(hmul(gamma, old_f, d), hmul(alpha, old_u, d)))
        x[ui] = hadd(old_u, hmul(beta, old_f, d))
    return x


def unitary_gram(copies, negatives):
    n = 2 * copies + len(negatives)
    g = [[0] * n for _ in range(n)]
    for i in range(copies):
        g[2 * i][2 * i + 1] = g[2 * i + 1][2 * i] = 1
    for i, dv in enumerate(negatives):
        g[2 * copies + i][2 * copies + i] = dv
    return g


def unitary_instance(rng, d, copies, negatives, rank):
    space = {"kind": "hermitian", "gram": unitary_gram(copies, negatives), "D": d}
    i1 = _unitary_rows(rng, d, copies, negatives, rank, rng.randint(1, 3))
    i2 = _unitary_rows(rng, d, copies, negatives, rank, rng.randint(1, 3))
    n = 2 * copies + len(negatives)
    return _cert_instance("unitary", space, i1, i2, n, d)


# -- orthogonal: Eichler maps on 2U + <negatives> ----------------------------

ORTHOGONAL_NEGATIVES = [[-2], [-2, -4], [-2, -4, -6]]


def orthogonal_gram(negatives):
    n = 4 + len(negatives)
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = g[2][3] = g[3][2] = 1
    for i, dv in enumerate(negatives):
        g[4 + i][4 + i] = dv
    return g


def _orthogonal_rows(rng, gram, rank, factors):
    n = len(gram)
    rows = [[1 if j == 0 else 0 for j in range(n)]]
    if rank == 2:
        rows.append([1 if j == 2 else 0 for j in range(n)])
    for _ in range(factors):
        ei = rng.choice([0, 1, 2, 3])
        aj = rng.choice([j for j in range(n) if j != ei and gram[j][ei] == 0])
        scale = rng.choice([-1, 1, 2])
        half = Fraction(scale * scale * gram[aj][aj], 2)
        # x -> x + (x,a)e - (x,e)a - ((a,a)/2)(x,e)e with e = u_ei, a = scale*u_aj
        new = []
        for x in rows:
            xa = scale * sum(x[k] * gram[k][aj] for k in range(n))
            xe = sum(x[k] * gram[k][ei] for k in range(n))
            y = list(x)
            y[ei] = y[ei] + xa - half * xe
            y[aj] = y[aj] - xe * scale
            new.append(y)
        rows = new
    return rows


def _null_space(rows, n):
    """Canonical (reduced echelon) basis of {x : rows @ x = 0}."""
    red = rref(rows, n)
    pivots = [next(j for j in range(n) if r[j] != 0) for r in red]
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        x = [ZERO] * n
        x[f] = ONE
        for r, p in zip(red, pivots):
            x[p] = -r[f]
        basis.append(x)
    return rref(basis, n)


def interior_search_height(a, b, gram, cap):
    """Least shell height of a positive vector orthogonal to the lines a, b.

    This is the height `chains._interior_vector` reaches for `chain`:
    it enumerates primitive integer vectors shell by shell in the canonical
    basis of (a + b)-perp.  Returns None when no shell up to ``cap`` has one.
    """
    n = len(gram)
    span_g = [[sum(r[k] * gram[k][j] for k in range(n)) for j in range(n)]
              for r in rref([a, b], n)]
    comp = _null_space(span_g, n)
    sub = [[sum(u[k] * gram[k][k2] * v[k2] for k in range(n) for k2 in range(n) if gram[k][k2])
            for v in comp] for u in comp]
    w = len(comp)
    scale = 1  # a positive multiple of the form has the same positive vectors
    for row in sub:
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    sub = [[int(x * scale) for x in row] for row in sub]
    for h in range(1, cap + 1):
        for raw in itertools.product(range(h, -h - 1, -1), repeat=w):
            if max(map(abs, raw)) != h or vector_gcd(raw) != 1:
                continue
            if sum(raw[i] * sub[i][j] * raw[j] for i in range(w) for j in range(w)) > 0:
                return h
    return None


def _interior_pair(a, b, gram):
    """Whether ``chain`` joins the canonical lines a, b by an interior curve."""
    n = len(gram)
    return a != b and sum(a[0][i] * gram[i][j] * b[0][j]
                          for i in range(n) for j in range(n)) != 0


# Interior-curve pairs are where `chains._interior_vector` searches shell by
# shell for a positive vector.  About 1 in 24 such pairs needs shell 3 or more;
# at shell 3 one `chain` takes 0.02-0.6 s (by dimension), past it up to 47 s.
# So that every seed carries the same search work, the slow case comes at
# fixed positions (one pass of cert-small has CERT_SMALL_COUNT //
# (5 * SHELL3_EVERY) of them, all of one class), and every other interior
# pair is redrawn until its vector lies in shell 1 or 2.
INTERIOR_MAX_HEIGHT = 2
SHELL3_EVERY = 48  # orthogonal instances; a multiple of len(ORTHOGONAL_CLASSES)
SHELL3_AT = 2  # position in that period; class ([-2, -4], rank 1)


def orthogonal_instance(rng, negatives, rank):
    gram = orthogonal_gram(negatives)
    space = {"kind": "symmetric", "gram": gram}
    while True:
        i1 = _orthogonal_rows(rng, gram, rank, rng.randint(1, 3))
        i2 = _orthogonal_rows(rng, gram, rank, rng.randint(1, 3))
        inst = _cert_instance("orthogonal", space, i1, i2, len(gram))
        a, b = inst.expect["node_first"], inst.expect["node_last"]
        if (rank == 2 or not _interior_pair(a, b, gram)
                or interior_search_height(a[0], b[0], gram, INTERIOR_MAX_HEIGHT)):
            return inst


def shell3_instance(rng, k, negatives):
    """An interior-curve pair whose positive vector lies in shell 3.

    The pair is drawn from a generator seeded by the position ``k`` only, so
    it costs the same to find for every seed; the seed then flips the signs
    of hyperbolic pairs and of negative coordinates.  Those flips are
    isometries that map the canonical basis of the complement to itself up
    to signs, so the shell is kept.
    """
    gram = orthogonal_gram(negatives)
    n = len(gram)
    base = random.Random(f"cert-small-shell3/{k}")
    while True:
        i1 = _orthogonal_rows(base, gram, 1, base.randint(1, 3))
        i2 = _orthogonal_rows(base, gram, 1, base.randint(1, 3))
        a, b = rref(i1, n), rref(i2, n)
        if _interior_pair(a, b, gram) and interior_search_height(a[0], b[0], gram, 3) == 3:
            break
    signs = [s for _ in range(2) for s in [rng.choice([-1, 1])] * 2]
    signs += [rng.choice([-1, 1]) for _ in negatives]
    i1, i2 = ([[s * x for s, x in zip(signs, row)] for row in rows] for rows in (i1, i2))
    inst = _cert_instance("orthogonal", {"kind": "symmetric", "gram": gram}, i1, i2, n)
    inst.expect["shell3"] = True
    return inst


# -- workloads ---------------------------------------------------------------

# 2 symplectic : 2 unitary : 1 orthogonal, interleaved so that every prefix
# of a pass carries the acceptance-criterion-1 mix.
CERT_SMALL_PATTERN = ("symplectic", "unitary", "symplectic", "unitary", "orthogonal")
CERT_SMALL_COUNT = 480

# Instance classes of each kind, in the proportions of acceptance criterion 1
# (genus uniform in 1..4 then rank uniform in 1..genus; D and shape uniform,
# rank uniform in 1..copies; negatives and rank uniform).  Each kind cycles
# through its classes, so every seed runs the same class mix and the seed
# only moves the random isometries.
SYMPLECTIC_CLASSES = [(g, r) for g in (1, 2, 3, 4) for r in range(1, g + 1)
                      for _ in range(12 // g)]
UNITARY_CLASSES = [(d, copies, neg, r) for d in UNITARY_DS
                   for copies, neg in UNITARY_SHAPES for r in range(1, copies + 1)
                   for _ in range(2 // copies)]
ORTHOGONAL_CLASSES = [(neg, r) for neg in ORTHOGONAL_NEGATIVES for r in (1, 2)]


def cert_small(seed, count=CERT_SMALL_COUNT):
    rng = random.Random(f"cert-small/{seed}")
    seen = {"symplectic": 0, "unitary": 0, "orthogonal": 0}
    out = []
    for i in range(count):
        kind = CERT_SMALL_PATTERN[i % len(CERT_SMALL_PATTERN)]
        k = seen[kind]
        seen[kind] += 1
        if kind == "symplectic":
            out.append(symplectic_instance(rng, *SYMPLECTIC_CLASSES[k % len(SYMPLECTIC_CLASSES)]))
        elif kind == "unitary":
            out.append(unitary_instance(rng, *UNITARY_CLASSES[k % len(UNITARY_CLASSES)]))
        elif k % SHELL3_EVERY == SHELL3_AT:
            negatives, _ = ORTHOGONAL_CLASSES[k % len(ORTHOGONAL_CLASSES)]
            out.append(shell3_instance(rng, k, negatives))
        else:
            out.append(orthogonal_instance(rng, *ORTHOGONAL_CLASSES[k % len(ORTHOGONAL_CLASSES)]))
    return out


CERT_LARGE_GENERA = (8, 12, 16)


def cert_large_shapes(genera=CERT_LARGE_GENERA):
    return [(g, r) for g in genera for r in (1, g // 2, g)]


CERT_LARGE_FACTORS = 6


def cert_large(seed, shapes=None):
    """Genus 8/12/16 x rank 1, g/2, g.

    The transvections of each shape are fixed (drawn from a generator seeded
    by the shape only) and the seed picks a sign for each hyperbolic pair,
    (e, f) -> (s e, s f), which is symplectic.  Every seed therefore asks for
    the same chain structure and elimination order (descent depth, link
    types, certificate size) with different entries, which keeps the few,
    large samples of this workload comparable across seeds.
    """
    rng = random.Random(f"cert-large/{seed}")
    out = []
    for genus, rank in shapes or cert_large_shapes():
        base = random.Random(f"cert-large-shape/{genus}/{rank}")
        signs = [s for _ in range(genus) for s in [rng.choice([-1, 1])] * 2]
        i1, i2 = ([[s * x for s, x in zip(signs, row)] for row in rows]
                  for rows in [_symplectic_rows(base, genus, rank, CERT_LARGE_FACTORS)
                               for _ in range(2)])
        space = {"kind": "alternating", "gram": _symplectic_gram(genus)}
        out.append(_cert_instance(f"g{genus}r{rank}", space, i1, i2, 2 * genus))
    return out


# analyze-search -------------------------------------------------------------

ANALYZE_MAX_HEIGHT = 3
PRIMES_3_MOD_4 = (3, 7, 11, 19, 23, 31, 43, 47)
SUMS_7_MOD_8 = (7, 15, 23, 31, 39, 47)


def _diag_space(diag):
    n = len(diag)
    return {
        "kind": "symmetric",
        "gram": [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
    }


def planted_form(rng, dim):
    """Diagonal form with a planted isotropic vector of height 1."""
    while True:
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(dim - 1)]
        vec = [rng.randint(-1, 1) for _ in range(dim - 1)]
        last = -sum(c * v * v for c, v in zip(coeffs, vec))
        if last != 0:
            break
    diag, vec = coeffs + [last], vec + [1]
    order = list(range(dim))
    rng.shuffle(order)
    return [diag[i] for i in order], [vec[i] for i in order]


def anisotropic_form(rng, dim):
    """Diagonal form with no rational isotropic vector (local obstruction).

    dim 3: s1^2 x^2 + s2^2 y^2 - p s3^2 z^2 with p = 3 (mod 4) prime has no
    solution modulo p.  dim 4: a sum of three scaled squares against
    -q w^2 with q = 7 (mod 8) fails over Q_2.  An overall sign flip keeps
    the obstruction.
    """
    squares = [rng.randint(1, 3) ** 2 for _ in range(dim)]
    if dim == 3:
        base = [1, 1, -rng.choice(PRIMES_3_MOD_4)]
    else:
        base = [1, 1, 1, -rng.choice(SUMS_7_MOD_8)]
    sign = rng.choice([-1, 1])
    diag = [sign * b * s for b, s in zip(base, squares)]
    rng.shuffle(diag)
    return diag


ANALYZE_PATTERN = (("planted", 3), ("aniso", 3), ("planted", 4), ("aniso", 4),
                   ("planted", 5), ("aniso", 3))


def analyze_search(seed, count=120):
    rng = random.Random(f"analyze-search/{seed}")
    out = []
    for i in range(count):
        mode, dim = ANALYZE_PATTERN[i % len(ANALYZE_PATTERN)]
        if mode == "planted":
            diag, vec = planted_form(rng, dim)
        else:
            diag, vec = anisotropic_form(rng, dim), None
        out.append(
            Instance(
                "analyze",
                {"space": _diag_space(diag)},
                {"diag": diag, "planted": vec, "max_height": ANALYZE_MAX_HEIGHT},
            )
        )
    return out


# lattice-queries -------------------------------------------------------------


def _det(m):
    """Exact determinant by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _random_basis(rng, n, lo, hi, denominators=(1,)):
    while True:
        den = rng.choice(denominators)
        rows = [[Fraction(rng.randint(lo, hi), den) for _ in range(n)] for _ in range(n)]
        if _det(rows) != 0:
            return rows


def level_instance(rng):
    n = rng.choice([2, 3])
    while True:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        if _det(gram) != 0:
            break
    lat = _random_basis(rng, n, -4, 4, (1, 1, 2, 3))
    lat_prime = _random_basis(rng, n, -4, 4, (1, 1, 2, 3))
    level = rng.randint(1, 12)
    return Instance(
        "level",
        {
            "space": {"kind": "symmetric", "gram": gram},
            "lattice": {"basis": _matrix_json(lat)},
            "lattice_prime": {"basis": _matrix_json(lat_prime)},
        },
        {"lattice": lat, "lattice_prime": lat_prime, "N": level},
    )


def order_instance(rng):
    while True:
        mats = [[[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)] for _ in range(4)]
        vec = [[m[0][0], m[0][1], m[1][0], m[1][1]] for m in mats]
        if _det(vec) != 0:
            break
    return Instance(
        "order",
        {"lattice": {"matrices": [_matrix_json(m) for m in mats]}},
        {"matrices": mats},
    )


def lattice_queries(seed, count=400):
    rng = random.Random(f"lattice-queries/{seed}")
    return [level_instance(rng) if i % 2 == 0 else order_instance(rng) for i in range(count)]


WORKLOADS = {
    "cert-small": cert_small,
    "cert-large": cert_large,
    "analyze-search": analyze_search,
    "lattice-queries": lattice_queries,
}

