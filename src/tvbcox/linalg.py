"""Exact linear algebra over Q on integer rows: "p/q" parsing, and one
fraction-free elimination for ranks and left kernels.  Rank and left kernel
take ints only; a caller with rational entries clears their denominators
first, as BundleData does once where a bundle's M enters."""

from fractions import Fraction


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction.  Rejects anything else."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if not is_int_literal(num) or not is_int_literal(den):
            raise ValueError(f"not a rational literal: {text!r}")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), d)
    if not is_int_literal(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(s))


def is_int_literal(s):
    s = s.strip()
    if s and s[0] in "+-":
        s = s[1:]
    # ASCII digits only: str.isdigit also takes other scripts' digits and
    # superscripts, which int() reads or refuses with its own message
    return s.isascii() and s.isdigit()


def rational_rank(rows):
    """Rank over Q of a matrix given as equal-length rows of ints, by
    fraction-free (Bareiss) elimination.

    A matrix with zero rows or zero columns has rank 0.  Ragged rows or
    entries that are not ints raise ValueError.
    """
    ncols = len(rows[0]) if rows else 0
    return _bareiss(_int_rows(rows, ncols), ncols)


def left_kernel_basis(rows):
    """Basis of the row vectors v with v * m = 0, for the matrix m given as
    equal-length rows of ints.

    Bareiss elimination on [m | I]: the rows left zero in the columns of m
    carry the kernel vectors in the identity part.  There is one vector per
    unit of rank deficiency, each scaled so its first nonzero entry is 1.
    """
    ncols = len(rows[0]) if rows else 0
    work = _int_rows(rows, ncols)
    for i, row in enumerate(work):
        row.extend(int(i == k) for k in range(len(work)))
    rank = _bareiss(work, ncols)
    kernel = []
    for row in work[rank:]:
        vec = row[ncols:]
        lead = next(x for x in vec if x)
        kernel.append([Fraction(x, lead) for x in vec])
    return kernel


def _int_rows(rows, ncols):
    """The rows as fresh lists, each checked to hold ncols ints: a Fraction
    or float would be floor-divided into a wrong rank, and a bool is no
    matrix entry."""
    work = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"ragged rows: {len(row)} entries, expected {ncols}")
        if not {int}.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) is not int)
            raise ValueError(f"matrix entry {bad!r} is not an int")
        work.append(list(row))
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
