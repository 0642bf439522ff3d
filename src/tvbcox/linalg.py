"""Exact rational matrices: parsing, dense storage, and fraction-free
elimination for ranks and left kernels."""

from fractions import Fraction
from math import lcm


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction.  Rejects anything else."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if not _is_int(num) or not _is_int(den):
            raise ValueError(f"not a rational literal: {text!r}")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), d)
    if not _is_int(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(s))


def _is_int(s):
    s = s.strip()
    if s and s[0] in "+-":
        s = s[1:]
    return s.isdigit()


def format_rational(q):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(q))


class _DenseMatrix:
    """Row-major dense matrix.  Values are immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        for r in rows_data:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return cls(rows, cols, [x for r in rows_data for x in r])

    def at(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return type(self)(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def column_submatrix(self, cols):
        """Matrix restricted to the given column indices, in the given order."""
        cols = list(cols)
        return type(self)(
            self.rows, len(cols), [self.at(i, j) for i in range(self.rows) for j in cols]
        )

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((type(self).__name__, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"{type(self).__name__}({self.rows}x{self.cols}: {body})"


class RatMatrix(_DenseMatrix):
    """Dense matrix over Fraction."""

    def __init__(self, rows, cols, entries):
        super().__init__(rows, cols, [Fraction(x) for x in entries])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])


class IntMatrix(_DenseMatrix):
    """Dense matrix over arbitrary-precision integers."""

    def __init__(self, rows, cols, entries):
        ints = []
        for x in entries:
            if not isinstance(x, int):
                raise ValueError(f"integer entry expected, got {x!r}")
            ints.append(x)
        super().__init__(rows, cols, ints)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])


def rational_rank(m):
    """Rank of a RatMatrix over Q, by fraction-free (Bareiss) elimination.

    A matrix with zero rows or zero columns has rank 0.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    return _bareiss(_integer_rows(m.row(i) for i in range(m.rows)), m.cols)


def left_kernel_basis(m):
    """Basis of the row vectors v with v * m = 0, for a RatMatrix m.

    Bareiss elimination on [m | I]: the rows left zero in the columns of m
    carry the kernel vectors in the identity part.  There is one vector per
    unit of rank deficiency, each scaled so its first nonzero entry is 1.
    """
    identity = RatMatrix.identity(m.rows)
    work = _integer_rows(m.row(i) + identity.row(i) for i in range(m.rows))
    rank = _bareiss(work, m.cols)
    kernel = []
    for row in work[rank:]:
        vec = row[m.cols :]
        lead = next(x for x in vec if x)
        kernel.append([Fraction(x, lead) for x in vec])
    return kernel


def _integer_rows(rows):
    """Clear denominators row by row; row scaling keeps the row space."""
    work = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
    return work


def _bareiss(work, ncols):
    """Fraction-free forward elimination of integer rows, in place.

    Pivots are taken in the first ncols columns only; later columns ride
    along.  Every division is exact (Bareiss 1968).  Returns the rank: the
    rows from there on are zero in the first ncols columns.
    """
    nrows = len(work)
    width = len(work[0]) if work else 0
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        pivot_row = next((r for r in range(rank, nrows) if work[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank]
        piv = pivot[col]
        for r in range(rank + 1, nrows):
            row = work[r]
            factor = row[col]
            for c in range(col, width):
                row[c] = (piv * row[c] - factor * pivot[c]) // prev
        prev = piv
        rank += 1
        col += 1
    return rank
