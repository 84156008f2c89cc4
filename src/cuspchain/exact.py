"""Exact scalar and matrix arithmetic over Q and Q(sqrt(-D)).

Everything here is immutable and deterministic: the same input produces a
bit-identical output, with no rounding anywhere.  Rationals are stdlib
``fractions.Fraction``; imaginary quadratic scalars are ``QuadFieldElement``.

Matrix products, row reduction (and so rank, inverse, solving and kernels)
and determinants run on integers, in one of two kernels chosen by entry type:

* a matrix whose entries are all rational (``Fraction`` or ``int``) is lifted
  to integer numerators over the lcm of its denominators (each factor of a
  product on its own);
* a matrix with ``QuadFieldElement`` entries is lifted to integer pairs
  ``(re, im)`` over one common denominator, standing for
  ``(re + im*sqrt(-d)) / den``, and multiplied and eliminated in
  ``Z[sqrt(-d)]``; when every imaginary part is zero the pairs reduce to the
  rational kernel's integers.  Every entry of such a result is a
  ``QuadFieldElement``, and an operation meeting two values of ``d`` raises
  :class:`MixedDiscriminants`.

Elimination is fraction-free: each updated row is divided by its rational
content, and each pivot row by its pivot once, at the end.  Results are
turned back into canonical ``Fraction`` (or ``QuadFieldElement``) entries
once, at the end.  There is no entry-wise path; reduced echelon forms are
unique, so they, and everything built from them, match exact entry-wise
arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
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
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))
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

    Entries are rationals (Fractions or ints) or QuadFieldElements of one
    field; upstream constructors coerce hermitian entries to
    QuadFieldElements.  Products, rref and det run on integers (see the
    module docstring): a rational matrix gives Fractions, a matrix with a
    QuadFieldElement entry gives QuadFieldElements in every entry.  They
    refuse entries of any other type with a TypeError.
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
                return _int_mul(self.rows, other.rows, other.ncols)
            return _pair_mul(self.rows, other.rows, other.ncols)
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
        return _pair_rref(self.rows, self.ncols)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        if _is_rational(self.rows):
            return Fraction(*_int_det(*_lift_rows(self.rows)))
        return _pair_det(self.rows)

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


_RATIONAL_TYPES = frozenset((Fraction, int))


def _is_rational(rows: Sequence[Sequence]) -> bool:
    """Every entry is a Fraction or an int: the integer kernel applies."""
    return _RATIONAL_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows)))


_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def _numerators(rows: Sequence[Sequence], den: int) -> list[list[int]]:
    """The integers x * den of rational rows whose denominators divide den."""
    if den == 1:
        return [list(map(_NUMERATOR, r)) for r in rows]
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows]


def _lift_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Integer numerators of rational rows over one common denominator."""
    den = lcm(*set(map(_DENOMINATOR, itertools.chain.from_iterable(rows))))
    return _numerators(rows, den), den


def _int_product(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]):
    """Integer matrix product of the given rows with the given columns."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


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


def _int_mul(a_rows, b_rows, ncols: int) -> Matrix:
    """Matrix product of rational matrices on integer numerators."""
    a, da = _lift_rows(a_rows)
    b, db = _lift_rows(b_rows)
    cols = list(zip(*b)) or [()] * ncols
    return _int_matrix(_int_product(a, cols), ncols, [da * db] * len(a))


def _int_eliminate(m: list[list[int]], ncols: int) -> list[int]:
    """Reduce the integer rows m in place; returns the pivot columns.

    The pivot of each column is the topmost remaining row nonzero there (the
    rule of Matrix.rref); an eliminated row becomes pv * row - f * pivot_row
    divided by its content.  Afterwards row i is the i-th row of the reduced
    echelon form times its pivot entry, and rows past the rank are zero.
    """
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
    return pivots


def _int_rref(rows: Sequence[Sequence], ncols: int) -> tuple[Matrix, tuple[int, ...]]:
    """Matrix.rref of a rational matrix: each pivot row divided once, at the end."""
    m = _lift_rows(rows)[0]
    pivots = _int_eliminate(m, ncols)
    dens = [m[i][p] for i, p in enumerate(pivots)] + [1] * (len(m) - len(pivots))
    return _int_matrix(m, ncols, dens), tuple(pivots)


def _int_det(m: list[list[int]], lift: int) -> tuple[int, int]:
    """(num, den) with num / den the determinant of the square matrix m / lift.

    Fraction-free on the integer rows m (changed in place); rows already zero
    in the pivot column are left alone.  det(m / lift) is det(m) * num / den
    throughout: den collects lift (once per row) and the pivot that scales
    each updated row, num the row contents divided out and the sign of each
    swap; at the end m is triangular.
    """
    n = len(m)
    num, den = 1, lift**n
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0, 1
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
    return num, den


# -- the pair kernel: matrices with QuadFieldElement entries ------------------
#
# Every entry is lifted to a pair (re, im) of integers over one common
# denominator den, standing for (re + im*s) / den with s = sqrt(-d); Fraction
# and int entries have im = 0.  A matrix whose imaginary parts are all zero
# (most of them: Gram matrices, bases of rational subspaces) has im None and
# runs through the rational kernel's integer elimination.

_QUAD_TYPES = frozenset((QuadFieldElement,))
_SCALAR_TYPES = _RATIONAL_TYPES | _QUAD_TYPES
_A, _B, _D = attrgetter("a"), attrgetter("b"), attrgetter("d")


def _lift_pairs(rows: Sequence[Sequence], fields: set):
    """(re, im, den) of rows of scalars, im None when it would be all zero.

    The d of every QuadFieldElement entry is added to ``fields``.
    """
    entries = list(itertools.chain.from_iterable(rows))
    types = set(map(type, entries))
    if types <= _QUAD_TYPES:
        re = [list(map(_A, r)) for r in rows]
        im = [list(map(_B, r)) for r in rows]
        fields.update(map(_D, entries))
    elif types <= _SCALAR_TYPES:
        quad = QuadFieldElement
        re = [[x.a if type(x) is quad else x for x in r] for r in rows]
        im = [[x.b if type(x) is quad else 0 for x in r] for r in rows]
        fields.update(x.d for x in entries if type(x) is quad)
    else:
        bad = ", ".join(sorted(t.__name__ for t in types - _SCALAR_TYPES))
        raise TypeError(f"matrix entries of type {bad} are not exact scalars")
    if not any(map(any, im)):
        re, den = _lift_rows(re)
        return re, None, den
    den = lcm(*set(map(_DENOMINATOR, itertools.chain(*re, *im))))
    return _numerators(re, den), _numerators(im, den), den


def _field(fields: set) -> int:
    """The one d that the entries of an operation share."""
    if len(fields) > 1:
        d1, d2 = sorted(fields)[:2]
        raise MixedDiscriminants(f"cannot mix d={d1} with d={d2}")
    return next(iter(fields))


def _pair_matrix(re, im, ncols: int, dens: Sequence[int], d: int) -> Matrix:
    """Matrix of the QuadFieldElements (re[i][j] + im[i][j]*s) / dens[i].

    im None stands for zero imaginary parts.  Most entries of a product or a
    reduced echelon form are 0 or 1, so the result shares one instance of
    each (QuadFieldElements are immutable).
    """
    quad = QuadFieldElement
    zero, one = quad(_ZERO, _ZERO, d), quad(_SMALL[1], _ZERO, d)
    out = []
    for r, i, n in zip(re, im or itertools.repeat(None), dens):
        out.append(
            [
                (zero if not x else one if x == n else quad(Fraction(x, n), _ZERO, d))
                if not y
                else quad(Fraction(x, n) if x else _ZERO, Fraction(y, n), d)
                for x, y in zip(r, itertools.repeat(0) if i is None else i)
            ]
        )
    return Matrix(out, ncols)


def _pair_mul(a_rows, b_rows, ncols: int) -> Matrix:
    """Matrix product with QuadFieldElement entries, on integer pairs.

    (ar + ai*s)(br + bi*s) = (ar*br - d*ai*bi) + (ar*bi + ai*br)*s; when both
    factors have imaginary parts, each row [ar | ai] of the first meets the
    column [br | -d*bi] for the real part and [bi | br] for the imaginary part.
    """
    fields = set()
    ar, ai, da = _lift_pairs(a_rows, fields)
    br, bi, db = _lift_pairs(b_rows, fields)
    d = _field(fields)
    cols = list(zip(*br)) or [()] * ncols
    if ai is None or bi is None:
        re = _int_product(ar, cols)
        if bi is not None:
            im = _int_product(ar, list(zip(*bi)))
        else:
            im = None if ai is None else _int_product(ai, cols)
    else:
        icols = list(zip(*bi))
        rows = [r + i for r, i in zip(ar, ai)]
        re_cols = [c + tuple(-d * x for x in i) for c, i in zip(cols, icols)]
        re = _int_product(rows, re_cols)
        im = _int_product(rows, [i + c for c, i in zip(cols, icols)])
    return _pair_matrix(re, im, ncols, [da * db] * len(ar), d)


def _pair_update(p, x, f, y, d: int):
    """(re, im, g): p*x - f*y divided by its rational content g.

    p and f are pairs, x and y pairs of integer rows, all in Z[sqrt(-d)].
    """
    (pr, pi), (xr, xi), (fr, fi), (yr, yi) = p, x, f, y
    dpi, dfi = d * pi, d * fi
    re = [pr * a - dpi * b - fr * u + dfi * v for a, b, u, v in zip(xr, xi, yr, yi)]
    im = [pr * b + pi * a - fr * v - fi * u for a, b, u, v in zip(xr, xi, yr, yi)]
    g = gcd(*re, *im)
    if g > 1:
        re = [x // g for x in re]
        im = [x // g for x in im]
    return re, im, g


def _pair_rref(rows: Sequence[Sequence], ncols: int) -> tuple[Matrix, tuple[int, ...]]:
    """Matrix.rref with QuadFieldElement entries, computed on integer pairs.

    The elimination of _int_eliminate in Z[sqrt(-d)]: with pivot p and f the
    entry to clear, a row becomes p*row - f*pivot_row divided by its rational
    content; each pivot row is divided by its pivot once, at the end, as
    x*conj(p) / N(p).
    """
    fields = set()
    re, im, _ = _lift_pairs(rows, fields)
    d = _field(fields)
    nrows = len(re)
    if im is None:
        pivots = _int_eliminate(re, ncols)
        dens = [re[i][p] for i, p in enumerate(pivots)]
    else:
        pivots = []
        for c in range(ncols):
            r = len(pivots)
            if r == nrows:
                break
            pr = next((i for i in range(r, nrows) if re[i][c] or im[i][c]), None)
            if pr is None:
                continue
            re[r], re[pr] = re[pr], re[r]
            im[r], im[pr] = im[pr], im[r]
            prow = (re[r], im[r])
            pv = (prow[0][c], prow[1][c])
            for i in range(nrows):
                f = (re[i][c], im[i][c])
                if (f[0] or f[1]) and i != r:
                    re[i], im[i], _ = _pair_update(pv, (re[i], im[i]), f, prow, d)
            pivots.append(c)
        dens = []
        for i, c in enumerate(pivots):
            xr, xi = re[i], im[i]
            pr, pi = xr[c], xi[c]
            re[i] = [a * pr + d * b * pi for a, b in zip(xr, xi)]
            im[i] = [b * pr - a * pi for a, b in zip(xr, xi)]
            dens.append(pr * pr + d * pi * pi)
    # rows past the rank are zero
    dens += [1] * (nrows - len(pivots))
    return _pair_matrix(re, im, ncols, dens, d), tuple(pivots)


def _pair_det(rows: Sequence[Sequence]) -> QuadFieldElement:
    """Matrix.det with QuadFieldElement entries, fraction-free on integer pairs.

    As _int_det, with num a pair (nr, ni): scaling a row by the pivot p
    multiplies num by conj(p) and den by N(p), so den stays an integer.
    """
    fields = set()
    re, im, lift = _lift_pairs(rows, fields)
    d = _field(fields)
    if im is None:
        num, den = _int_det(re, lift)
        return QuadFieldElement(Fraction(num, den), _ZERO, d)
    n = len(re)
    nr, ni, den = 1, 0, lift**n
    for c in range(n):
        pr = next((i for i in range(c, n) if re[i][c] or im[i][c]), None)
        if pr is None:
            return QuadFieldElement(_ZERO, _ZERO, d)
        if pr != c:
            re[c], re[pr] = re[pr], re[c]
            im[c], im[pr] = im[pr], im[c]
            nr, ni = -nr, -ni
        prow = (re[c], im[c])
        pv = p0, p1 = prow[0][c], prow[1][c]
        nr, ni = nr * p0 - d * ni * p1, nr * p1 + ni * p0
        for i in range(c + 1, n):
            f = (re[i][c], im[i][c])
            if f[0] or f[1]:
                re[i], im[i], g = _pair_update(pv, (re[i], im[i]), f, prow, d)
                nr, ni = g * (nr * p0 + d * ni * p1), g * (ni * p0 - nr * p1)
                den *= p0 * p0 + d * p1 * p1
    return QuadFieldElement(Fraction(nr, den), Fraction(ni, den), d)


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


def descending_range(h: int) -> range:
    """Coordinate values h, h-1, ..., -h used by shell enumeration."""
    return range(h, -h - 1, -1)


def shell_tuples(width: int, h: int):
    """Integer tuples with max-norm exactly h, in a fixed deterministic order."""
    for raw in itertools.product(descending_range(h), repeat=width):
        if max(map(abs, raw)) == h:
            yield raw
