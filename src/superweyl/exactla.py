"""Exact rational scalars and dense linear algebra over the rationals.

Everything downstream reduces to linear algebra over Q: expanding a matrix
in a basis, inverting a Gram matrix, solving for dual bases.  ``Matrix`` is
an immutable container of ``fractions.Fraction`` entries with no arithmetic
of its own (sums, products, ``apply`` and ``trace`` are references in
``tests/oracles.py``).  It has one dense constructor, ``Matrix(rows)``, and
one sparse one, ``Matrix.from_entries``, from the map {(i, j): value} of
its nonzero entries, of which ``Matrix.identity`` is a special case.  One
elimination serves the solve, the inverse, the overdetermined solve and
the rank test (``solve_linear``, ``invert``, ``solve_overdetermined``,
``is_nonsingular``): ``_echelon``, a
fraction-free Gauss-Jordan on rows cleared to integers, after which one
``Fraction`` is formed per nonzero entry of the result.  There is
deliberately no floating point anywhere; the decision procedure rests on
exact vanishing tests, and a tolerance would turn a theorem into a
heuristic.

Those vanishing tests run on a fraction-free kernel.  One routine clears
denominators: ``integer_vectors`` scales sparse rational vectors by their
one exact common denominator.  ``integer_tables`` applies it to matrices
read column by column off a table, such as the adjoint matrices of a
bracket table, and ``integer_columns`` to dense matrices; both keep each
column as a sparse {row: int} map.  A zero test of an identity that is
homogeneous in each scaled operand then needs only integer arithmetic, and
it is still exact.  The same scaling serves exact sums of products, such
as those over polynomial coefficients: the sum is accumulated in ``int``,
and one ``Fraction`` is formed per output entry, dividing by the product
of the scales.  ``is_nonsingular`` decides invertibility on integer columns
with the same elimination.

``record`` makes the frozen value classes of every module: a small class
decorator, so that importing the package does not load ``dataclasses``.
``SuperweylError`` is the root of every exception class of the package.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

Scalar = Fraction

_ZERO = Fraction(0)


class SuperweylError(Exception):
    """Base class of every error the package raises on purpose; the command
    line reports these as one line of stderr, never as a traceback."""


class LinAlgError(SuperweylError):
    """Base class for exact linear algebra failures."""


class SingularMatrix(LinAlgError):
    """A matrix that must be invertible is not."""


class DimensionMismatch(LinAlgError):
    """Operand shapes are incompatible."""


def as_scalar(value: Scalar | int | str) -> Scalar:
    """Coerce ``value`` to an exact rational.

    Accepts Fractions, ints and strings like ``"-3/8"``.  Floats are
    rejected on purpose: converting one silently would smuggle rounding
    error into computations that rely on exact equality.  So are bools,
    which are ints to Python but never a coefficient.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int | str) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Matrix:
    """Immutable dense matrix with exact rational entries: construction,
    indexing, rows, columns, transpose, equality and hash, and no arithmetic."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        data = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        rows = len(data)
        if rows:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionMismatch("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise DimensionMismatch("declared column count does not match rows")
            cols = width
        elif cols is None:
            cols = 0
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_entries({(i, i): 1 for i in range(n)}, n)

    @classmethod
    def from_entries(cls, entries: Mapping[tuple[int, int], Scalar | int | str], rows: int,
                     cols: int | None = None) -> "Matrix":
        """The matrix, square unless ``cols`` is given, whose nonzero entries
        are the map {(i, j): value}; an index outside the shape, a negative
        one included, raises ``IndexError``.  ``__init__`` coerces each value
        once, through ``as_scalar``."""
        cols = rows if cols is None else cols
        data = [[_ZERO] * cols for _ in range(rows)]
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            data[i][j] = x
        return cls(data, cols=cols)

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[Scalar, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                      cols=self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)
        return f"Matrix([{rows}])"


def solve_linear(a: Matrix, b: Matrix) -> Matrix:
    """Solve ``a x = b`` for square nonsingular ``a`` by Gauss-Jordan elimination.

    ``b`` may have any number of columns; the result has the same shape as
    ``b``.  Raises ``SingularMatrix`` when ``a`` has no unique solution.
    """
    if not a.is_square():
        raise DimensionMismatch("coefficient matrix must be square")
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side has wrong number of rows")
    n = a.rows
    rows, pivots = _echelon([_cleared(a.row(i) + b.row(i)) for i in range(n)])
    missing = set(range(n)).difference(pivots)
    if missing:
        raise SingularMatrix(f"no pivot available in column {min(missing)}")
    return Matrix([[Fraction(x, row[i]) if x else _ZERO for x in row[n:]]
                   for i, row in enumerate(rows)], cols=b.cols)


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix."""
    if not a.is_square():
        raise DimensionMismatch("only square matrices can be inverted")
    return solve_linear(a, Matrix.identity(a.rows))


def _cleared(row: Sequence[Scalar]) -> list[int]:
    """The rational row times the lcm of its denominators, as ints."""
    scale = lcm(*{x.denominator for x in row})
    return [x.numerator * (scale // x.denominator) for x in row]


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    The pivot p of column c is the first nonzero entry at or below the next
    pivot row; every other row with a nonzero f there becomes p row - f
    pivot_row over its gcd, and rows with a zero there are not touched.  A
    row changes only by nonzero factors and multiples of the others, so row r
    of the rational reduced echelon form is ``rows[r]`` over ``rows[r][pivots[r]]``."""
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(top[c], f)
                p, f = top[c] // g, f // g
                row = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return rows, pivots


def solve_overdetermined(a: Matrix, b: Matrix) -> Matrix:
    """Solve ``a x = b`` exactly where ``a`` is tall with full column rank.

    Raises ``SingularMatrix`` when the columns of ``a`` are dependent and
    ``LinAlgError`` when the system is inconsistent.
    """
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side has wrong number of rows")
    rows, pivots = _echelon([_cleared(a.row(i) + b.row(i)) for i in range(a.rows)])
    if any(p >= a.cols for p in pivots):
        raise LinAlgError("inconsistent system: no exact solution")
    if len(pivots) < a.cols:
        raise SingularMatrix("coefficient columns are linearly dependent")
    return Matrix([[Fraction(x, row[pc]) if x else _ZERO for x in row[a.cols:]]
                   for row, pc in zip(rows, pivots)], cols=b.cols)


# -- the fraction-free check kernel ------------------------------------------

Column = dict[int, int]


class IntegerColumns(namedtuple("IntegerColumns", "scale columns")):
    """Matrices M_t stored as d M_t for one common denominator d, the int
    ``scale``: ``columns[t][j]`` maps each row i where (M_t)_ij is nonzero
    to the integer d (M_t)_ij."""

    __slots__ = ()


def integer_columns(matrices: Sequence[Matrix]) -> IntegerColumns:
    """Clear denominators: d is the lcm of the denominators of every entry
    of every matrix, so d M is integral for each of them; ``integer_tables``
    on the nonzero entries of each column."""
    return integer_tables([[{i: row[j] for i, row in enumerate(m.data) if row[j]}
                            for j in range(m.cols)] for m in matrices])


def integer_vectors(vectors: Sequence[Mapping]) -> tuple[int, list[dict]]:
    """Clear denominators of sparse rational vectors, given as maps from any
    key to a ``Fraction``: the lcm d of every denominator, and each vector
    as the map of d v on its nonzero entries."""
    scale = lcm(*{x.denominator for v in vectors for x in v.values()})
    return scale, [{key: x.numerator * (scale // x.denominator) for key, x in v.items() if x}
                   for v in vectors]


def integer_tables(tables: Sequence[Sequence[Mapping[int, Scalar]]]) -> IntegerColumns:
    """``integer_columns`` for matrices given column by column, each column a
    map from row to ``Fraction``, with no dense ``Matrix`` in between."""
    scale, flat = integer_vectors([col for table in tables for col in table])
    columns = iter(flat)
    return IntegerColumns(scale, [[next(columns) for _ in table] for table in tables])


def is_nonsingular(columns: Sequence[Column], n: int) -> bool:
    """Whether the n x n integer matrix with these sparse columns is
    invertible: whether the elimination of its transpose finds n pivots."""
    return len(_echelon([[col.get(i, 0) for i in range(n)] for col in columns])[1]) == n


def add_product(out: Column, a: Sequence[Column], v: Mapping[int, int], c: int = 1) -> Column:
    """out += c A v, for A given by its columns and a sparse integer vector v.
    Entries that cancel stay in ``out`` as zeros; ``out`` is returned."""
    for t, vt in v.items():
        factor = c * vt
        for i, x in a[t].items():
            out[i] = out.get(i, 0) + factor * x
    return out


def invariance_violation(a: Sequence[Column], g: Sequence[Column], g_t: Sequence[Column],
                         signs: Sequence[int] | None = None) -> tuple[int, int] | None:
    """The first (j, l), in row-major order, where a^T G + S G a has a nonzero
    entry, or None.  A, G and G^T are given by their integer columns and
    S = diag(signs) is the identity when ``signs`` is None.  The defect is
    linear in A and in G, so any nonzero scaling of either gives the same
    answer."""
    defect: dict[tuple[int, int], int] = {}
    for j, col in enumerate(a):
        # column j of G^T A is row j of A^T G
        for l, x in add_product({}, g_t, col).items():
            defect[j, l] = x
    for l, col in enumerate(a):
        for j, x in add_product({}, g, col).items():
            defect[j, l] = defect.get((j, l), 0) + (x if signs is None else signs[j] * x)
    return min((key for key, x in defect.items() if x), default=None)


# -- frozen records ------------------------------------------------------------

_MISSING = object()


def record(cls):
    """Class decorator for an immutable record, the value types of the package.

    The fields are the names annotated in the class body, in order; a class
    attribute of the same name is that field's default.  ``__init__`` takes
    the fields by position or by name, stores them and then calls the
    class's ``__post_init__``, if it has one, to check them.  Two records are
    equal when they are of the same class with equal fields, and the hash is
    that of the field tuple.  Assigning or deleting an attribute raises
    ``AttributeError``; ``functools.cached_property`` still caches, since it
    writes the instance dictionary directly."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, names))

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated field {name!r}")
            values[name] = value
        store = self.__dict__
        for name in names:
            value = values.get(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
            store[name] = value
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
                + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls._record_fields = names
    return cls
