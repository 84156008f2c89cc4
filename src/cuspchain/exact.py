"""Exact scalar and matrix arithmetic over Q and Q(sqrt(-D)).

Everything here is immutable and deterministic: the same input produces a
bit-identical output, with no rounding anywhere.  Rationals are stdlib
``fractions.Fraction``; imaginary quadratic scalars are ``QuadFieldElement``.

A :class:`Matrix` holds its entries as integers, and nothing else.  Row i
holds integer pairs ``(re, im)`` over a positive denominator ``den[i]``,
standing for ``(re + im*sqrt(-d)) / den[i]``; a rational matrix has no ``d``
and no imaginary parts.  Each row is reduced (``den[i]`` shares no factor
with all of the row's integers), so equal matrices hold equal integers.

* A matrix built from rows lifts them to integers at once; entries that are
  not exact scalars raise ``TypeError``, two values of ``d``
  :class:`MixedDiscriminants`.
* Products, row reduction, determinants, transposes, conjugates and
  stacking run on the integers.
  Entries are computed from them on each read (``rows``, ``m[i, j]``) and
  never stored: ``Fraction`` entries for a rational matrix,
  ``QuadFieldElement`` entries in every position otherwise.  An operation
  meeting two values of ``d`` raises :class:`MixedDiscriminants`.

Products multiply in ``Z`` or ``Z[sqrt(-d)]``, row by row: row i of A*B
sums a_ik times row k of B over the nonzero a_ik only.  ``x.mul_adjoint(y)``
is x times the conjugate transpose of y, read off y's columns without
building it.  Elimination runs in ``Z`` only, fraction-free: each column is
scanned once, only its nonzero rows are updated, each updated row is
divided by its content, and each pivot row by its pivot once, at the end.
A matrix over Q(sqrt(-d)) is row-reduced as the rational matrix of the rows
x and sqrt(-d)*x, and the determinant of an n x n one is interpolated from
n+1 integer determinants.
There is no entry-wise path; reduced echelon forms and determinants are
unique, so they, and everything built from them, match exact entry-wise
arithmetic.

Row reduction has one kernel, ``_reduced``, which makes nothing canonical:
``rref`` makes every row canonical, ``rank`` reads the pivots, ``inverse``
reduces ``[A | I]`` and makes only I's part canonical, ``solve`` reads x off
the last column of ``[A | b]``, and ``right_kernel`` reads the raw rows.

The integer normal forms share one kernel, ``_echelon``: a row echelon by
unimodular row steps, with extra columns riding along, so ``[A | I]`` gives
the transform too.  ``hnf`` then reduces above each pivot, and ``smith``
alternates echelons of rows and of columns.  H and S are canonical; U is
unique only for full row rank, and Smith's U and V never are.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import factorial, gcd, lcm, prod
from operator import add, attrgetter
from typing import Iterable, Sequence

from .errors import MixedDiscriminants

# The largest field parameter d accepted: squarefreeness is decided by trial
# division, which has to stay fast on untrusted input.
_D_BOUND = 2**32

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


def _is_field(d) -> bool:
    """d is a squarefree integer in [1, _D_BOUND], bounded before trial division."""
    return isinstance(d, int) and 0 < d <= _D_BOUND and is_squarefree(d)


def _check_field(d) -> None:
    if not _is_field(d):
        bound = " at most 2**32" if isinstance(d, int) and d > _D_BOUND else ""
        raise ValueError(f"d must be a positive squarefree integer{bound}, got {d!r}")


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
        _check_field(d)
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


def as_fraction(x) -> Fraction:
    """Extract a rational value, failing on genuinely imaginary input."""
    if isinstance(x, QuadFieldElement):
        return x.rational_part()
    return Fraction(x)


class Matrix:
    """Immutable rectangular matrix with exact entries.

    Entries are rationals (Fractions or ints) or QuadFieldElements of one
    field, lifted to integer arrays when the matrix is built (see the module
    docstring); entries of any other type raise TypeError, and entries over
    two fields MixedDiscriminants.  The arrays and the shape are all a
    matrix stores: ``rows`` and ``m[i, j]`` compute entries from the arrays
    on each read, Fractions for a rational matrix, QuadFieldElements in
    every entry otherwise.
    Zero-row matrices are allowed and must state their column count.
    """

    __slots__ = ("_ints", "nrows", "ncols")

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
        object.__setattr__(self, "_ints", _lift(rows))
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _stored(
            [[int(i == j) for j in range(n)] for i in range(n)], None, [1] * n, None, n
        )

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        return _stored([[0] * n for _ in range(m)], None, [1] * m, None, n)

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls([[e] for e in entries], 1)

    @classmethod
    def vstack(cls, *mats: "Matrix") -> "Matrix":
        ncols = mats[0].ncols
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("vstack column mismatch")
        parts = [m._ints for m in mats]
        d = _join(*(p[3] for p in parts))
        re = [r for p in parts for r in p[0]]
        im = None
        if any(p[1] is not None for p in parts):
            im = [r for p in parts for r in (p[1] or [[0] * ncols] * len(p[0]))]
        return _stored(re, im, [q for p in parts for q in p[2]], d, ncols)

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        ints, cols = self._ints, range(self.ncols)
        return tuple(
            tuple([_entry(ints, i, j) for j in cols]) for i in range(self.nrows)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return _entry(self._ints, i, j)

    def col(self, j: int) -> tuple:
        return tuple(self[i, j] for i in range(self.nrows))

    def entries(self):
        for r in self.rows:
            yield from r

    def submatrix(
        self, rows: slice | Sequence[int] = slice(None), cols: slice = slice(None)
    ) -> "Matrix":
        """The given rows (a slice or indices, in that order) and column slice."""
        index = range(self.nrows)[rows] if isinstance(rows, slice) else rows
        ncols = len(range(self.ncols)[cols])
        re, im, den, d = self._ints
        im = None if im is None else [im[i][cols] for i in index]
        sub_re, sub_den = [re[i][cols] for i in index], [den[i] for i in index]
        if ncols < self.ncols:
            return _canonical(sub_re, im, sub_den, d, ncols)
        if im is not None and not any(map(any, im)):
            im = None  # only rows without imaginary parts were kept
        return _stored(sub_re, im, sub_den, d, ncols)

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        (ar, ai, ad, da), (br, bi, bd, db) = self._ints, other._ints
        # rows are canonical, so equal values have equal arrays; a rational
        # matrix equals a matrix over a field whose entries are all rational
        return (da is None or db is None or da == db) and (ad, ar, ai) == (bd, br, bi)

    def __hash__(self):
        re, im, den, _ = self._ints
        im = None if im is None else tuple(map(tuple, im))
        return hash((tuple(map(tuple, re)), im, tuple(den), self.ncols))

    def __add__(self, other: "Matrix") -> "Matrix":
        return _combine(self, other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _combine(self, other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        re, im, den, d = self._ints
        im = None if im is None else [[-x for x in r] for r in im]
        return _stored([[-x for x in r] for r in re], im, den, d, self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"cannot multiply {self.shape} by {other.shape} matrices"
                )
            b = other._ints
            return _mul(self._ints, _one_denominator(b), b[3], other.ncols)
        return self.__rmul__(other)  # scalars commute with matrices

    def mul_adjoint(self, other: "Matrix") -> "Matrix":
        """self * other^H, the product with other's conjugate transpose.

        other^H is never built: its integer rows are other's columns, the
        imaginary parts negated, taken by one zip of other's rows.
        """
        if self.ncols != other.ncols:
            raise ValueError(
                f"cannot multiply {self.shape} by {(other.ncols, other.nrows)} matrices"
            )
        re, im, q = _one_denominator(other._ints)
        cols = list(zip(*re)) if re else [()] * other.ncols
        if im is not None:
            im = list(zip(*([-x for x in r] for r in im)))
        return _mul(self._ints, (cols, im, q), other._ints[3], other.nrows)

    def __rmul__(self, other):
        if type(other) in _SCALAR_TYPES:
            return _scaled(self, other)
        return NotImplemented

    def transpose(self) -> "Matrix":
        re, im, q = _one_denominator(self._ints)
        if self.nrows:
            re = [list(c) for c in zip(*re)]
            im = None if im is None else [list(c) for c in zip(*im)]
        else:
            re = [[] for _ in range(self.ncols)]
        out = (re, im, [q] * self.ncols, self._ints[3], self.nrows)
        # over one denominator, each new row still has to be reduced
        return _stored(*out) if q == 1 else _canonical(*out)

    def conjugate(self) -> "Matrix":
        re, im, den, d = self._ints
        if im is None:
            return self
        return _stored(re, [[-x for x in r] for r in im], den, d, self.ncols)

    def conj_transpose(self) -> "Matrix":
        return self.conjugate().transpose()

    def map_entries(self, fn) -> "Matrix":
        return Matrix([[fn(x) for x in r] for r in self.rows], self.ncols)

    def is_zero(self) -> bool:
        re, im, _, _ = self._ints
        return im is None and not any(map(any, re))

    def is_integral(self) -> bool:
        """Every entry has denominator 1 (componentwise for quad entries)."""
        return all(q == 1 for q in self._ints[2])

    def denominator_lcm(self) -> int:
        return lcm(*self._ints[2])

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Deterministic: the pivot in each column is the topmost unprocessed
        row with a nonzero entry; pivots are scaled to one.  Scaling a row
        leaves the form unchanged, so each row's numerators are eliminated
        without its denominator.
        """
        re, im, _, d = self._ints
        re, im, den, pivots = _reduced(re, im, d, self.ncols)
        return _canonical(re, im, den, d, self.ncols), tuple(pivots)

    def rank(self) -> int:
        re, im, _, d = self._ints
        return len(_reduced(re, im, d, self.ncols)[3])

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        re, im, den, d = self._ints
        if im is None:
            num, q = _int_det(list(re), prod(den))
            if d is None:
                return Fraction(num, q)
            return QuadFieldElement(Fraction(num, q), _ZERO, d)
        return _pair_det(re, im, prod(den), d)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        re, im, den, d = self._ints
        # [A | I] row by row over den[i], the identity riding along
        re = [
            r + [q * (i == j) for j in range(n)] for i, (r, q) in enumerate(zip(re, den))
        ]
        im = None if im is None else [r + [0] * n for r in im]
        re, im, den, pivots = _reduced(re, im, d, n)
        if len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        im = None if im is None else [r[n:] for r in im]
        return _canonical([r[n:] for r in re], im, den, d, n)

    def solve(self, rhs: Sequence) -> tuple | None:
        """Some x with self @ x = rhs, free variables pinned to zero.

        Returns None when the system is inconsistent.
        """
        rhs = tuple(rhs)
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        ncols = self.ncols
        (ar, ai, ad, da), (br, bi, bd, db) = self._ints, Matrix.column(rhs)._ints
        d = _join(da, db)
        # [A | rhs] row by row over den[i] * q[i], q[i] the denominator of rhs[i]
        qs = list(zip(ad, bd))
        re = [[q * x for x in r] + [p * y] for r, (y,), (p, q) in zip(ar, br, qs)]
        im = None
        if ai is not None or bi is not None:
            ai, bi = ai or [[0] * ncols] * self.nrows, bi or [[0]] * self.nrows
            im = [[q * x for x in r] + [p * y] for r, (y,), (p, q) in zip(ai, bi, qs)]
        re, im, den, pivots = _reduced(re, im, d, ncols + 1)
        if ncols in pivots:
            return None
        zero = _ZERO if d is None else QuadFieldElement(_ZERO, _ZERO, d)
        x = [zero] * ncols
        for r, p in enumerate(pivots):
            x[p] = _entry((re, im, den, d), r, ncols)
        return tuple(x)

    def right_kernel(self) -> "Matrix":
        """Rows form a basis of {x : self @ x = 0} (deterministic order)."""
        re, im, _, d = self._ints
        ncols = self.ncols
        re, im, den, pivots = _reduced(re, im, d, ncols)
        out_re, out_im, out_den = [], [], []
        for fc in range(ncols):
            if fc in pivots:
                continue
            # x[fc] = 1 and x[p] = -re[r][fc] / den[r] for the reduced row r
            # of pivot p, over the lcm of the dens of the rows nonzero in
            # column fc
            hits = [
                (r, p)
                for r, p in enumerate(pivots)
                if re[r][fc] or (im is not None and im[r][fc])
            ]
            q = lcm(*(den[r] for r, _ in hits))
            xr = [0] * ncols
            xr[fc] = q
            xi = [0] * ncols
            for r, p in hits:
                s = q // den[r]
                xr[p] = -re[r][fc] * s
                if im is not None:
                    xi[p] = -im[r][fc] * s
            out_re.append(xr)
            out_im.append(xi)
            out_den.append(q)
        return _canonical(out_re, None if im is None else out_im, out_den, d, ncols)

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


# -- the stored form -----------------------------------------------------------
#
# (re, im, den, d): row i holds the entries (re[i][j] + im[i][j]*s) / den[i]
# with s = sqrt(-d); d is None for a rational matrix, and im is None when
# every imaginary part is zero.  Rows are canonical: den[i] > 0 and
# gcd(den[i], re[i], im[i]) = 1, so equal matrices have equal arrays and
# den[i] is the lcm of the row's entry denominators.  A matrix without
# entries is rational.  The arrays are never changed once stored; kernels
# replace rows instead of writing into them.

_RATIONAL_TYPES = frozenset((Fraction, int))
_QUAD_TYPES = frozenset((QuadFieldElement,))
_SCALAR_TYPES = _RATIONAL_TYPES | _QUAD_TYPES
_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")

_ZERO = Fraction(0)


def _stored(re, im, den, d, ncols: int) -> Matrix:
    """Matrix holding the canonical arrays (re, im, den, d)."""
    m = object.__new__(Matrix)
    put = object.__setattr__
    if not (re and ncols):
        im = d = None
    put(m, "_ints", (re, im, den, d))
    put(m, "nrows", len(re))
    put(m, "ncols", ncols)
    return m


def _canonical(re, im, den, d, ncols: int) -> Matrix:
    """_stored after dividing each row by its content with den, den made positive.

    The lists re, im and den are the caller's fresh ones and are updated.
    """
    for i, q in enumerate(den):
        if q == 1:
            continue
        r = re[i]
        s = None if im is None else im[i]
        g = gcd(q, *r) if s is None else gcd(q, *r, *s)
        if q < 0:
            g = -g
        if g != 1:
            re[i] = [x // g for x in r]
            if s is not None:
                im[i] = [x // g for x in s]
            den[i] = q // g
    if im is not None and not any(map(any, im)):
        im = None
    return _stored(re, im, den, d, ncols)


def _field(fields: set) -> int:
    """The one d that the entries of an operation share."""
    if len(fields) > 1:
        d1, d2 = sorted(fields)[:2]
        raise MixedDiscriminants(f"cannot mix d={d1} with d={d2}")
    return next(iter(fields))


def _join(*ds):
    """The field of an operation on matrices over the given d (None: rational)."""
    fields = {d for d in ds if d is not None}
    return _field(fields) if fields else None


def _lift(rows: Sequence[Sequence]) -> tuple:
    """The stored form of rows of exact scalars (fractions are reduced, so each
    row's lcm of denominators leaves it canonical)."""
    entries = list(itertools.chain.from_iterable(rows))
    types = set(map(type, entries))
    if types <= _RATIONAL_TYPES:
        re, den = [], []
        for r in rows:
            q = lcm(*map(_DENOMINATOR, r))
            re.append(
                list(map(_NUMERATOR, r))
                if q == 1
                else [x.numerator * (q // x.denominator) for x in r]
            )
            den.append(q)
        return re, None, den, None
    if not types <= _SCALAR_TYPES:
        bad = ", ".join(sorted(t.__name__ for t in types - _SCALAR_TYPES))
        raise TypeError(f"matrix entries of type {bad} are not exact scalars")
    quad = QuadFieldElement
    d = _field({x.d for x in entries if type(x) is quad})
    re, im, den = [], [], []
    for r in rows:
        a = [x.a if type(x) is quad else x for x in r]
        b = [x.b if type(x) is quad else 0 for x in r]
        q = lcm(*map(_DENOMINATOR, a), *map(_DENOMINATOR, b))
        re.append([x.numerator * (q // x.denominator) for x in a])
        im.append([x.numerator * (q // x.denominator) for x in b])
        den.append(q)
    if not any(map(any, im)):
        im = None
    return re, im, den, d


def _one_denominator(ints: tuple) -> tuple:
    """(re, im, q): the arrays of a stored form scaled to one denominator q."""
    re, im, den, _ = ints
    q = lcm(*den)
    if q == 1:
        return re, im, 1
    re = [[x * (q // t) for x in r] for r, t in zip(re, den)]
    if im is not None:
        im = [[x * (q // t) for x in r] for r, t in zip(im, den)]
    return re, im, q


def _entry(ints: tuple, i: int, j: int):
    """The scalar in row i, column j of a stored form."""
    re, im, den, d = ints
    if d is None:
        return Fraction(re[i][j], den[i])
    return QuadFieldElement(
        Fraction(re[i][j], den[i]), Fraction(0 if im is None else im[i][j], den[i]), d
    )


def _scaled(m: Matrix, c) -> Matrix:
    """m times the scalar c, a rational or a QuadFieldElement.

    With c = (cr + ci*s) / q and s = sqrt(-d), row i becomes
    ((cr*re - d*ci*im) + (ci*re + cr*im)*s) / (q*den[i]).
    """
    re, im, den, d = m._ints
    if type(c) is QuadFieldElement:
        d = _join(d, c.d)
        q = lcm(c.a.denominator, c.b.denominator)
        cr = c.a.numerator * (q // c.a.denominator)
        ci = c.b.numerator * (q // c.b.denominator)
    else:
        cr, ci, q = c.numerator, 0, c.denominator
    if ci:
        im = im or [[0] * m.ncols] * m.nrows
        re, im = (
            [[cr * x - d * ci * y for x, y in zip(r, i)] for r, i in zip(re, im)],
            [[ci * x + cr * y for x, y in zip(r, i)] for r, i in zip(re, im)],
        )
    else:
        re = [[cr * x for x in r] for r in re]
        im = None if im is None else [[cr * x for x in r] for r in im]
    return _canonical(re, im, [q * t for t in den], d, m.ncols)


def _combine(a: Matrix, b: Matrix, sign: int, what: str) -> Matrix:
    """a + sign * b, row by row over the lcm of the two denominators."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in {what}")
    ar, ai, ad, da = a._ints
    br, bi, bd, db = b._ints
    d = _join(da, db)
    re, im, den = [], [], []
    zeros = [[0] * a.ncols] * a.nrows
    for i, (p, q) in enumerate(zip(ad, bd)):
        t = lcm(p, q)
        s, u = t // p, sign * (t // q)
        re.append([s * x + u * y for x, y in zip(ar[i], br[i])])
        im.append([s * x + u * y for x, y in zip((ai or zeros)[i], (bi or zeros)[i])])
        den.append(t)
    return _canonical(re, im, den, d, a.ncols)


# -- kernels on the stored form ------------------------------------------------


def _int_product(
    rows: Sequence[Sequence[int]], brows: Sequence[Sequence[int]], width: int
) -> list[list[int]]:
    """Integer product of the rows with the matrix whose rows are brows (of width).

    Row by row (Gustavson): row i is the sum of a_ik * brows[k] over the
    nonzero a_ik only, so a product costs one row operation per nonzero of
    the first factor.  Most entries of the factors in chain builds are zero
    (echelon bases, the Gram matrices of hyperbolic planes).
    """
    out = []
    for r in rows:
        row = None
        for k in compress(range(len(r)), r):
            a, b = r[k], brows[k]
            if row is None:
                row = list(b) if a == 1 else [a * y for y in b]
            elif a == 1:
                row = list(map(add, row, b))
            else:
                row = [x + a * y for x, y in zip(row, b)]
        out.append([0] * width if row is None else row)
    return out


def _mul(a: tuple, b: tuple, db: int | None, ncols: int) -> Matrix:
    """Product of a stored form with the matrix of b = (br, bi, q) over Q(sqrt(-db)).

    b holds the second factor's integer rows (bi None when they have no
    imaginary parts) over one denominator q, so row i of the product is the
    integer product over a's den[i] * q.  With s = sqrt(-d),
    (ar + ai*s)(br + bi*s) = (ar*br - d*ai*bi) + (ar*bi + ai*br)*s; when both
    factors have imaginary parts, each row [ar | ai] of the first meets the
    stacked rows [br; -d*bi] for the real part and [bi; br] for the
    imaginary part.
    """
    ar, ai, ad, da = a
    br, bi, q = b
    d = _join(da, db)
    if ai is None or bi is None:
        re = _int_product(ar, br, ncols)
        if bi is not None:
            im = _int_product(ar, bi, ncols)
        else:
            im = None if ai is None else _int_product(ai, br, ncols)
    else:
        rows = [r + i for r, i in zip(ar, ai)]
        re = _int_product(rows, [*br, *([-d * x for x in r] for r in bi)], ncols)
        im = _int_product(rows, [*bi, *br], ncols)
    return _canonical(re, im, [t * q for t in ad], d, ncols)


def _interleaved(a: list[int], b: list[int]) -> list[int]:
    """[a0, b0, a1, b1, ...]."""
    row = [0] * (2 * len(a))
    row[::2], row[1::2] = a, b
    return row


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a zero row is returned as is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_eliminate(m: list[list[int]], ncols: int) -> list[int]:
    """Reduce the integer rows m in place; returns the pivot columns.

    The pivot of each column is the topmost remaining row nonzero there (the
    rule of Matrix.rref); an eliminated row becomes pv * row - f * pivot_row
    divided by its content.  One scan of each column finds the pivot and the
    rows to update, and only those rows are touched.  Afterwards row i is
    the i-th row of the reduced echelon form times its pivot entry, and rows
    past the rank are zero.
    """
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = [i for i in range(nrows) if m[i][c]]
        k = bisect_left(hits, r)
        if k == len(hits):
            continue
        pr = hits[k]
        # the rows r..pr-1 are zero in column c, so after the swap the rows
        # to update are the hits other than pr
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in hits:
            if i != pr:
                f = m[i][c]
                m[i] = _primitive([pv * x - f * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
    return pivots


def _reduced(re, im, d: int | None, ncols: int) -> tuple:
    """(re, im, den, pivots): the integer rows reduced on their first ncols columns.

    Row i over den[i], its pivot entry, is the i-th row of the reduced
    echelon form, and the rows past the rank are zero there (den 1); columns
    past ncols ride along.  Nothing is canonicalized, and the given rows are
    not changed.  With imaginary parts, the rows are reduced as the rational
    rows of x and sqrt(-d)*x for each row x, the parts (re, im) of each
    column side by side: their span is the row space over Q, so the reduced
    rows come in pairs, x_j and sqrt(-d)*x_j with pivots 2c and 2c+1, and
    row 2j holds x_j.
    """
    if im is None:
        re = list(re)
        pivots = _int_eliminate(re, ncols)
    else:
        m = []
        for a, b in zip(re, im):
            m.append(_interleaved(a, b))
            m.append(_interleaved([-d * y for y in b], a))
        pivots = [c // 2 for c in _int_eliminate(m, 2 * ncols)[::2]]
        m = m[::2]
        re, im = [r[::2] for r in m], [r[1::2] for r in m]
    den = [re[i][c] for i, c in enumerate(pivots)]
    return re, im, den + [1] * (len(re) - len(pivots)), pivots


def _int_det(m: list[list[int]], den: int) -> tuple[int, int]:
    """(num, q) with num / q = det(m) / den, for a square integer matrix m.

    Fraction-free on the integer rows m (changed in place); one scan of each
    column finds the pivot and the rows to update, as in _int_eliminate.
    det(m_0) / den is det(m) * num / q throughout: q collects den and the
    pivot that scales each updated row, num the row contents divided out
    and the sign of each swap; at the end m is triangular.
    """
    n = len(m)
    num, q = 1, den
    for c in range(n):
        hits = [i for i in range(c, n) if m[i][c]]
        if not hits:
            return 0, 1
        pr = hits[0]
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            num = -num
        prow = m[c]
        pv = prow[c]
        num *= pv
        for i in hits[1:]:
            f = m[i][c]
            row = [pv * x - f * y for x, y in zip(m[i], prow)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
                num *= g
            q *= pv
            m[i] = row
    return num, q


def _pair_det(re: list, im: list, den: int, d: int) -> QuadFieldElement:
    """Matrix.det on the rows (re + im*s) / den, from integer determinants.

    p(t) = det(re + t*im) is an integer polynomial of degree at most n, and
    det = p(s) / den.  With D^k its forward differences at 0 (from the values
    at t = 0..n), Newton's formula gives
    n! * p(s) = sum_k D^k * s(s-1)...(s-k+1) * n!/k!, summed on integer pairs.
    """
    n = len(re)
    diffs = []
    for t in range(n + 1):
        rows = [[x + t * y for x, y in zip(a, b)] for a, b in zip(re, im)]
        num, q = _int_det(rows, 1)
        diffs.append(num // q)
    scale = w = factorial(n)
    nr = ni = 0
    fr, fi = 1, 0
    for k in range(n + 1):
        # diffs[0] is D^k, (fr, fi) is s(s-1)...(s-k+1) and w is n!/k!
        nr += diffs[0] * w * fr
        ni += diffs[0] * w * fi
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        fr, fi = -k * fr - d * fi, fr - k * fi
        w //= k + 1
    q = scale * den
    return QuadFieldElement(Fraction(nr, q), Fraction(ni, q), d)


def _in_field(m: Matrix, d: int | None) -> Matrix | None:
    """m over Q (d None) or Q(sqrt(-d)), or None when it is over another field.

    A matrix already over that field is returned as is.
    """
    re, im, den, field = m._ints
    if field == d:
        return m
    return _stored(re, im, den, d, m.ncols) if field is None else None


def rref_basis(mat: Matrix) -> Matrix:
    """Canonical basis of the row space: rref with zero rows dropped.

    Equal row spans produce identical output, so row spaces can be compared
    by matrix equality.
    """
    red, pivots = mat.rref()
    return red.submatrix(rows=slice(len(pivots)))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """Bring integer rows to row echelon form on their first ncols columns.

    In place, by unimodular row steps only; returns the pivot columns.  Below
    each pivot, a row whose entry the pivot divides loses a multiple of the
    pivot row, and any other pair takes the xgcd step [[x, y], [-b/g, a/g]],
    which takes the entries (a, b) to (g, 0) with g = gcd(a, b) = x*a + y*b.
    Pivots are made positive.  Columns past ncols ride along, so [A | I]
    ends as [E | U] with U * A = E.
    """
    pivots = []
    r, m = 0, len(rows)
    for c in range(ncols):
        if r == m:
            break
        p = rows[r]
        for i in range(r + 1, m):
            q = rows[i]
            a, b = p[c], q[c]
            if not b:
                continue
            if a and not b % a:
                f = b // a
                rows[i] = [t - f * s for s, t in zip(p, q)]
            else:
                g, x, y = _xgcd(a, b)
                a, b = a // g, b // g
                p, rows[i] = (
                    [x * s + y * t for s, t in zip(p, q)],
                    [a * t - b * s for s, t in zip(p, q)],
                )
        if p[c]:
            rows[r] = p if p[c] > 0 else [-s for s in p]
            pivots.append(c)
            r += 1
    return pivots


def _require_int_rows(mat: Matrix) -> list[list[int]]:
    """Fresh integer rows of a rational matrix with integral entries."""
    re, _, den, d = mat._ints
    if d is not None or any(q != 1 for q in den):
        raise ValueError("integer matrix required")
    return [list(r) for r in re]


def _with_identity(rows: list[list[int]]) -> list[list[int]]:
    """[rows | I]: each row followed by the matching row of the identity."""
    m = len(rows)
    return [r + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]


def _transposed(a: list[list[int]], t: list[list[int]], width: int) -> tuple:
    """[X | T] and T2 as [X^T | T2] and T, with X the first width columns."""
    return [[r[j] for r in a] + t[j] for j in range(width)], [r[width:] for r in a]


def _integer_matrix(rows: list[list[int]], ncols: int) -> Matrix:
    return _stored(rows, None, [1] * len(rows), None, ncols)


def hnf(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form H = U * mat with U unimodular.

    Convention: pivots positive, entries above each pivot reduced into
    [0, pivot).  Deterministic, so equal row lattices give equal H.
    """
    n = mat.ncols
    hu = _with_identity(_require_int_rows(mat))
    for r, c in enumerate(_echelon(hu, n)):
        p = hu[r]
        for i in range(r):
            f = hu[i][c] // p[c]
            if f:
                hu[i] = [t - f * s for s, t in zip(p, hu[i])]
    return (
        _integer_matrix([row[:n] for row in hu], n),
        _integer_matrix([row[n:] for row in hu], len(hu)),
    )


def smith(mat: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = U * mat * V.

    S is diagonal with nonnegative invariant factors d1 | d2 | ..., zeros
    last; U and V are unimodular.  Row echelons of [S | U] and of
    [S^T | V^T] take turns until S is diagonal (Kannan and Bachem, 1979).
    Where some d_i does not divide d_(i+1), column i+1 is added to
    column i and the turns go on.

    The loop ends.  While S is nonzero, its corner entry is a positive g from
    the second echelon on, and each echelon replaces g by the gcd of its
    column or row: a proper divisor of g, unless g divides that column or
    row, when the echelon clears it and keeps g.  So after finitely many
    echelons the first row and column hold g alone, and no later step
    touches them; the same holds for the block left over.  Adding column
    i+1 to column i then replaces d_i by a proper divisor, gcd(d_i, d_(i+1))
    or less, and keeps d_1 .. d_(i-1), so (d_1, d_2, ...) falls
    lexicographically, which it can do only finitely often.
    """
    m, n = mat.nrows, mat.ncols
    su, vt = _with_identity(_require_int_rows(mat)), _with_identity([[]] * n)
    while True:
        _echelon(su, n)
        if any(row[j] for i, row in enumerate(su) for j in range(n) if j != i):
            svt, u = _transposed(su, vt, n)
            _echelon(svt, m)
            su, vt = _transposed(svt, u, m)
            continue
        d = [su[i][i] for i in range(min(m, n))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            break
        for row in su:
            row[i] += row[i + 1]
        vt[i] = [x + y for x, y in zip(vt[i], vt[i + 1])]
    return (
        _integer_matrix([row[:n] for row in su], n),
        _integer_matrix([row[n:] for row in su], m),
        _integer_matrix([list(c) for c in zip(*vt)], n),
    )


def shell_tuples(width: int, h: int):
    """Integer tuples with max-norm exactly h, in lexicographic order.

    Each coordinate runs down h, h-1, ..., -h, and the order is that of
    ``itertools.product`` over those values kept to the shell, but only the
    shell is generated: a prefix of the first width - 1 coordinates that
    already has max-norm h takes every last coordinate h, ..., -h, any other
    prefix only h and -h.  So each prefix's tuples are consecutive, and a
    tuple starts a new prefix exactly when its last coordinate is h.
    """
    full = range(h, -h - 1, -1)
    ends = (h, -h)
    for prefix in itertools.product(full, repeat=width - 1):
        for x in full if h in prefix or -h in prefix else ends:
            yield prefix + (x,)
