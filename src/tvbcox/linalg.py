"""Exact rational matrices as plain rows: parsing, formatting, and one
fraction-free elimination for ranks and left kernels."""

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


def rational_rank(rows):
    """Rank over Q of a matrix given as equal-length rows of Fractions or
    ints, by fraction-free (Bareiss) elimination.

    A matrix with zero rows or zero columns has rank 0.  Ragged rows or
    entries that are not Fractions or ints raise ValueError.
    """
    ncols = len(rows[0]) if rows else 0
    work = _integer_rows(rows, ncols)
    if ncols == 0:
        return 0
    return _bareiss(work, ncols)


def left_kernel_basis(rows):
    """Basis of the row vectors v with v * m = 0, for the matrix m given as
    equal-length rows of Fractions or ints.

    Bareiss elimination on [m | I]: the rows left zero in the columns of m
    carry the kernel vectors in the identity part.  There is one vector per
    unit of rank deficiency, each scaled so its first nonzero entry is 1.
    """
    ncols = len(rows[0]) if rows else 0
    unit = range(len(rows))
    work = _integer_rows(
        (list(row) + [int(i == k) for k in unit] for i, row in enumerate(rows)),
        ncols + len(rows),
    )
    rank = _bareiss(work, ncols)
    kernel = []
    for row in work[rank:]:
        vec = row[ncols:]
        lead = next(x for x in vec if x)
        kernel.append([Fraction(x, lead) for x in vec])
    return kernel


def _integer_rows(rows, ncols):
    """Clear denominators row by row; row scaling keeps the row space.
    Entries are Fractions or ints (an int's denominator is 1); every row
    must have ncols entries."""
    work = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"ragged rows: {len(row)} entries, expected {ncols}")
        try:
            scale = lcm(*(x.denominator for x in row))
            work.append([x.numerator * (scale // x.denominator) for x in row])
        except AttributeError:
            bad = next(x for x in row if not isinstance(x, (int, Fraction)))
            raise ValueError(f"matrix entry {bad!r} is not a Fraction or int") from None
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
