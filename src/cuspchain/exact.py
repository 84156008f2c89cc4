"""Exact scalar and matrix arithmetic over Q and Q(sqrt(-D)).

Everything here is immutable and deterministic: the same input produces a
bit-identical output, with no rounding anywhere.  Rationals are stdlib
``fractions.Fraction``; imaginary quadratic scalars are ``QuadFieldElement``.

A matrix whose entries are all rational (``Fraction`` or ``int``) is
multiplied, row-reduced and has its determinant taken on integer numerators:
the matrix (each factor of a product) is lifted to integers over the lcm of
its denominators, elimination is fraction-free with each updated row divided
by its content, and the result is turned back into canonical ``Fraction``
entries once at the end.  A matrix with ``QuadFieldElement`` entries takes the
entry-wise path.  Both paths return the same exact values, so reduced echelon
forms, and everything built from them, do not depend on the path.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .errors import MixedDiscriminants

Rational = Fraction

_SQUAREFREE_CACHE: set[int] = set()


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    if n in _SQUAREFREE_CACHE:
        return True
    p = 2
    m = n
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        if m % p == 0:
            m //= p
        p += 1
    _SQUAREFREE_CACHE.add(n)
    return True


class QuadFieldElement:
    """Element a + b*sqrt(-d) of the imaginary quadratic field Q(sqrt(-d)).

    The discriminant parameter ``d`` is stored per element; mixing elements
    with different ``d`` raises :class:`MixedDiscriminants` rather than
    coercing.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int | None = None):
        if d is None:
            raise ValueError("QuadFieldElement requires a field parameter d")
        if not isinstance(d, int) or not is_squarefree(d):
            raise ValueError(f"d must be a positive squarefree integer, got {d!r}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QuadFieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, QuadFieldElement):
            if other.d != self.d:
                raise MixedDiscriminants(f"cannot mix d={self.d} with d={other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadFieldElement(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElement(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElement(o.a - self.a, o.b - self.b, self.d)

    def __neg__(self):
        return QuadFieldElement(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(a' + b' s) with s^2 = -d
        return QuadFieldElement(
            self.a * o.a - self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(-d))")
        inv = QuadFieldElement(o.a / n, -o.b / n, self.d)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        if isinstance(other, QuadFieldElement):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadFieldElement":
        return QuadFieldElement(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 + d*b^2; nonnegative, zero only at zero."""
        return self.a * self.a + self.d * self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def rational_part(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def __repr__(self):
        return f"QuadFieldElement({self.a!s}, {self.b!s}, d={self.d})"

    def __str__(self):
        return f"{self.a}+{self.b}*sqrt(-{self.d})"


Scalar = Fraction | QuadFieldElement


def conjugate_scalar(x):
    """Complex conjugation; the identity on rationals."""
    if isinstance(x, QuadFieldElement):
        return x.conjugate()
    return x


def as_fraction(x) -> Fraction:
    """Extract a rational value, failing on genuinely imaginary input."""
    if isinstance(x, QuadFieldElement):
        return x.rational_part()
    return Fraction(x)


class Matrix:
    """Immutable rectangular matrix with exact entries.

    Entries are rationals (Fractions or ints) or QuadFieldElements (uniform
    per matrix by convention; mixing is not policed here but upstream
    constructors coerce).  Products, rref and det of a rational matrix are
    computed on integer numerators and return Fractions.
    Zero-row matrices are allowed and must state their column count.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        z = Fraction(0)
        return cls([[z] * n for _ in range(m)], n)

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls([[e] for e in entries], 1)

    @classmethod
    def vstack(cls, *mats: "Matrix") -> "Matrix":
        ncols = mats[0].ncols
        rows = []
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("vstack column mismatch")
            rows.extend(m.rows)
        return cls(rows, ncols)

    @classmethod
    def hstack(cls, *mats: "Matrix") -> "Matrix":
        nrows = mats[0].nrows
        for m in mats:
            if m.nrows != nrows:
                raise ValueError("hstack row mismatch")
        rows = [sum((m.rows[i] for m in mats), ()) for i in range(nrows)]
        return cls(rows, sum(m.ncols for m in mats))

    # -- shape and access --------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def entries(self):
        for r in self.rows:
            yield from r

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return Matrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in subtraction")
        return Matrix(
            [[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"cannot multiply {self.shape} by {other.shape} matrices"
                )
            if _is_rational(self.rows) and _is_rational(other.rows):
                a, da = _lift_rows(self.rows)
                b, db = _lift_rows(other.rows)
                cols = list(zip(*b)) or [()] * other.ncols
                return _int_matrix(
                    [[sum(map(mul, r, c)) for c in cols] for r in a],
                    other.ncols,
                    [da * db] * len(a),
                )
            cols = [other.col(j) for j in range(other.ncols)]
            return Matrix(
                [[_dot(r, c) for c in cols] for r in self.rows],
                other.ncols,
            )
        return Matrix([[x * other for x in r] for r in self.rows], self.ncols)

    def __rmul__(self, other):
        return Matrix([[other * x for x in r] for r in self.rows], self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(
            [tuple(r[j] for r in self.rows) for j in range(self.ncols)],
            len(self.rows),
        )

    def conjugate(self) -> "Matrix":
        return Matrix(
            [[conjugate_scalar(x) for x in r] for r in self.rows], self.ncols
        )

    def conj_transpose(self) -> "Matrix":
        return self.conjugate().transpose()

    def map_entries(self, fn) -> "Matrix":
        return Matrix([[fn(x) for x in r] for r in self.rows], self.ncols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries())

    def is_integral(self) -> bool:
        """Every entry has denominator 1 (componentwise for quad entries)."""
        for x in self.entries():
            if isinstance(x, QuadFieldElement):
                if x.a.denominator != 1 or x.b.denominator != 1:
                    return False
            elif Fraction(x).denominator != 1:
                return False
        return True

    def denominator_lcm(self) -> int:
        out = 1
        for x in self.entries():
            if isinstance(x, QuadFieldElement):
                for q in (x.a, x.b):
                    out = out * q.denominator // gcd(out, q.denominator)
            else:
                q = Fraction(x)
                out = out * q.denominator // gcd(out, q.denominator)
        return out

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Deterministic: the pivot in each column is the topmost unprocessed
        row with a nonzero entry; pivots are scaled to one.
        """
        if _is_rational(self.rows):
            return _int_rref(self.rows, self.ncols)
        m = [list(r) for r in self.rows]
        nrows, ncols = len(m), self.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(m, ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        if _is_rational(self.rows):
            return _int_det(self.rows)
        m = [list(r) for r in self.rows]
        det = None
        sign = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pr is None:
                return m[0][0] * 0
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                sign = -sign
            pv = m[c][c]
            det = pv if det is None else det * pv
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] / pv
                    m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        return det if sign == 1 else -det

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix.hstack(self, Matrix.identity(n)) if n else Matrix([], 0)
        red, pivots = aug.rref()
        if tuple(range(n)) != pivots[:n] or len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix([r[n:] for r in red.rows], n)

    def solve(self, rhs: Sequence) -> tuple | None:
        """Some x with self @ x = rhs, free variables pinned to zero.

        Returns None when the system is inconsistent.
        """
        rhs = tuple(rhs)
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        aug = Matrix.hstack(self, Matrix.column(rhs)) if self.nrows else self
        if self.nrows == 0:
            return tuple([_zero_like(self)] * self.ncols)
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        zero = _zero_like(aug)
        x = [zero] * self.ncols
        for r, p in enumerate(pivots):
            x[p] = red.rows[r][self.ncols]
        return tuple(x)

    def right_kernel(self) -> "Matrix":
        """Rows form a basis of {x : self @ x = 0} (deterministic order)."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        zero = _zero_like(self)
        one = zero + 1
        rows = []
        for fc in free:
            x = [zero] * self.ncols
            x[fc] = one
            for r, p in enumerate(pivots):
                x[p] = -red.rows[r][fc]
            rows.append(x)
        return Matrix(rows, self.ncols)

    def left_kernel(self) -> "Matrix":
        return self.transpose().right_kernel()

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _dot(row: Sequence, col: Sequence):
    total = None
    for x, y in zip(row, col):
        term = x * y
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


_RATIONAL_TYPES = frozenset((Fraction, int))


def _is_rational(rows: Sequence[Sequence]) -> bool:
    """Every entry is a Fraction or an int: the integer kernel applies."""
    return _RATIONAL_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows)))


_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def _lift_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Integer numerators of rational rows over one common denominator."""
    den = lcm(*map(_DENOMINATOR, itertools.chain.from_iterable(rows)))
    if den == 1:
        return [list(map(_NUMERATOR, r)) for r in rows], 1
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows], den


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a zero row is returned as is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


# Shared results for the small integers that dominate sparse matrices;
# Fractions are immutable, so sharing them is safe.
_SMALL = {i: Fraction(i) for i in range(-16, 17)}
_ZERO = _SMALL[0]


def _int_matrix(rows: Sequence[Sequence[int]], ncols: int, dens=None) -> Matrix:
    """Matrix of the canonical Fractions rows[i][j] / dens[i] (dens: all 1)."""
    small = _SMALL
    return Matrix(
        [
            [small[x] if x in small else Fraction(x) for x in r]
            if d == 1
            else [Fraction(x, d) if x else _ZERO for x in r]
            for r, d in zip(rows, dens or itertools.repeat(1))
        ],
        ncols,
    )


def _int_rref(rows: Sequence[Sequence], ncols: int) -> tuple[Matrix, tuple[int, ...]]:
    """Matrix.rref of a rational matrix, computed on integer rows.

    Same pivot rule as the entry-wise elimination; an eliminated row becomes
    pv * row - f * pivot_row divided by its content, and each pivot row is
    divided by its pivot once, at the end.
    """
    m = _lift_rows(rows)[0]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _primitive([pv * x - f * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
    # rows past the rank are zero
    dens = [m[i][p] for i, p in enumerate(pivots)] + [1] * (nrows - r)
    return _int_matrix(m, ncols, dens), tuple(pivots)


def _int_det(rows: Sequence[Sequence]) -> Fraction:
    """Matrix.det of a square rational matrix, fraction-free on integer rows.

    Rows already zero in the pivot column are left alone.  det(self) is
    det(m) * num / den throughout: den collects the lifting denominator (once
    per row) and the pivot that scales each updated row, num the row contents
    divided out and the sign of each swap; at the end m is triangular.
    """
    n = len(rows)
    m, d = _lift_rows(rows)
    num, den = 1, d**n
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return _ZERO
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            num = -num
        prow = m[c]
        pv = prow[c]
        num *= pv
        for i in range(c + 1, n):
            f = m[i][c]
            if f:
                row = [pv * x - f * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    num *= g
                den *= pv
                m[i] = row
    return Fraction(num, den)


def _zero_like(mat: Matrix):
    for x in mat.entries():
        if isinstance(x, QuadFieldElement):
            return QuadFieldElement(0, 0, x.d)
    return Fraction(0)


def rref_basis(mat: Matrix) -> Matrix:
    """Canonical basis of the row space: rref with zero rows dropped.

    Equal row spans produce identical output, so row spaces can be compared
    by matrix equality.
    """
    red, pivots = mat.rref()
    return Matrix(red.rows[: len(pivots)], mat.ncols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _require_int_rows(mat: Matrix) -> list[list[int]]:
    if not mat.is_integral():
        raise ValueError("integer matrix required")
    out = []
    for r in mat.rows:
        row = []
        for x in r:
            if isinstance(x, QuadFieldElement):
                raise ValueError("integer matrix required")
            row.append(int(Fraction(x)))
        out.append(row)
    return out


def hnf(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form H = U * mat with U unimodular.

    Convention: pivots positive, entries above each pivot reduced into
    [0, pivot).  Deterministic, so equal row lattices give equal H.
    """
    h = _require_int_rows(mat)
    m, n = len(h), mat.ncols
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if h[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            h[r], h[pr] = h[pr], h[r]
            u[r], u[pr] = u[pr], u[r]
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            a, b = h[r][c], h[i][c]
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            h[r], h[i] = (
                [x * p + y * q for p, q in zip(h[r], h[i])],
                [-bb * p + aa * q for p, q in zip(h[r], h[i])],
            )
            u[r], u[i] = (
                [x * p + y * q for p, q in zip(u[r], u[i])],
                [-bb * p + aa * q for p, q in zip(u[r], u[i])],
            )
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [p - q * t for p, t in zip(h[i], h[r])]
                u[i] = [p - q * t for p, t in zip(u[i], u[r])]
        r += 1
    return _int_matrix(h, n), _int_matrix(u, m)


def smith(mat: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = U * mat * V.

    S is diagonal with nonnegative invariant factors d1 | d2 | ...; U and V
    are unimodular.
    """
    s = _require_int_rows(mat)
    m, n = len(s), mat.ncols
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def clear_row_entry(i):
        # zero s[i][t]; the xgcd branch strictly shrinks |pivot|
        a, b = s[t][t], s[i][t]
        if b % a == 0:
            q = b // a
            s[i] = [p - q * r for p, r in zip(s[i], s[t])]
            u[i] = [p - q * r for p, r in zip(u[i], u[t])]
        else:
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            s[t], s[i] = (
                [x * p + y * q for p, q in zip(s[t], s[i])],
                [-bb * p + aa * q for p, q in zip(s[t], s[i])],
            )
            u[t], u[i] = (
                [x * p + y * q for p, q in zip(u[t], u[i])],
                [-bb * p + aa * q for p, q in zip(u[t], u[i])],
            )

    def clear_col_entry(j):
        a, b = s[t][t], s[t][j]
        if b % a == 0:
            q = b // a
            for row in s:
                row[j] = row[j] - q * row[t]
            for row in v:
                row[j] = row[j] - q * row[t]
        else:
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            for row in s:
                p, q = row[t], row[j]
                row[t], row[j] = x * p + y * q, -bb * p + aa * q
            for row in v:
                p, q = row[t], row[j]
                row[t], row[j] = x * p + y * q, -bb * p + aa * q

    t = 0
    bound = min(m, n)
    while t < bound:
        # pick the remaining entry of least magnitude as pivot
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(s[i][j])
                if val and (best is None or val < best):
                    best, pos = val, (i, j)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in s:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if s[i][t]:
                    clear_row_entry(i)
            for j in range(t + 1, n):
                if s[t][j]:
                    clear_col_entry(j)
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            if any(s[t][j] for j in range(t + 1, n)):
                continue
            # force divisibility of the remaining block by the pivot
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            s[t] = [p + q for p, q in zip(s[t], s[bad])]
            u[t] = [p + q for p, q in zip(u[t], u[bad])]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return _int_matrix(s, n), _int_matrix(u, m), _int_matrix(v, n)


def vector_gcd(entries: Iterable[int]) -> int:
    return reduce(gcd, (abs(int(x)) for x in entries), 0)


def descending_range(h: int) -> range:
    """Coordinate values h, h-1, ..., -h used by shell enumeration."""
    return range(h, -h - 1, -1)


def shell_tuples(width: int, h: int):
    """Integer tuples with max-norm exactly h, in a fixed deterministic order."""
    for raw in itertools.product(descending_range(h), repeat=width):
        if max(map(abs, raw)) == h:
            yield raw
