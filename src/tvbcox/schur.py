"""Partition combinatorics: Schur dimensions and the Cauchy identity."""

from math import comb

from .poly import CapExceeded

# Largest number of partitions cauchy_table sums over, a degree with none
# counted as one: degree 27 at dims 20 and 20, about 0.2 s on a 2-core host.
CAUCHY_CAP = 2**14


def normalize_partition(parts):
    """Trim trailing zeros and validate weak decrease."""
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in partition: {parts}")
    return tuple(parts)


def partitions_bounded(d: int, max_rows: int):
    """All partitions of d with at most max_rows rows, reverse-lex order;
    a negative max_rows raises ValueError."""
    if max_rows < 0:
        raise ValueError(f"the row bound must be at least 0, got {max_rows}")
    if d < 0:
        return []
    out = []

    def build(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_rows:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            build(remaining - part, part, prefix)
            prefix.pop()

    build(d, d, [])
    return out


def schur_dim(parts, n: int) -> int:
    """dim of the Schur module S_parts(K^n) via the hook content formula.

    Zero when the partition has more rows than n.  The contents and the
    hooks are multiplied as integers, and their quotient is one exact
    division, checked.
    """
    parts = normalize_partition(parts)
    if len(parts) > n:
        return 0
    column_length = [sum(1 for row in parts if row > j) for j in range(parts[0] if parts else 0)]
    contents = hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            contents *= n + j - i
            hooks *= row - j + column_length[j] - i - 1  # arm + leg + 1
    value, rest = divmod(contents, hooks)
    if rest:
        raise AssertionError(f"hook content product not integral for {parts}, n={n}")
    return value


def sym_power_dim(space_dim: int, d: int) -> int:
    """dim Sym^d of a space of the given dimension."""
    if d == 0:
        return 1
    return comb(space_dim + d - 1, d)


def cauchy_verify(d: int, e: int, v: int):
    """Check sum of dim S_l(K^e) * dim S_l(K^v) over l |- d against Sym^d(K^(e*v)).

    Returns (equal, lhs, rhs).
    """
    lhs = 0
    for p in partitions_bounded(d, min(e, v)):
        dim_e = schur_dim(p, e)
        lhs += dim_e * (dim_e if e == v else schur_dim(p, v))
    rhs = sym_power_dim(e * v, d)
    return lhs == rhs, lhs, rhs


def check_cauchy_cap(max_degree: int, max_rows: int):
    """Raise CapExceeded when the partitions of d = 0..max_degree with at
    most max_rows rows, a degree with none counted as one, pass CAUCHY_CAP.
    Their conjugates, with parts of size at most max_rows, are counted one
    part size at a time, stopping at the first count over the cap."""
    total = max_degree + 1  # parts of size 1: one partition of each degree
    counts, part = [1] * min(total, CAUCHY_CAP + 1), 2
    while total <= CAUCHY_CAP and part <= min(max_rows, max_degree):
        for d in range(part, max_degree + 1):
            counts[d] += counts[d - part]
        total, part = sum(counts), part + 1
    if total > CAUCHY_CAP:
        raise CapExceeded(
            f"degrees 0 to {max_degree} have at least {total} partitions under the row"
            f" bound {max_rows}, over the cap {CAUCHY_CAP}",
            size=total,
        )


def cauchy_table(max_degree: int, e: int, v: int):
    """Rows (d, lhs, rhs, equal) for d = 0..max_degree; max_degree < 0,
    a table of no row, and a negative dimension raise ValueError, and
    CapExceeded comes before any partition is built."""
    if max_degree < 0:
        raise ValueError(f"the largest degree must be at least 0, got {max_degree}")
    if min(e, v) < 0:
        raise ValueError(f"the dimensions must be at least 0, got dim_e = {e}, dim_v = {v}")
    check_cauchy_cap(max_degree, min(e, v))
    rows = []
    for d in range(max_degree + 1):
        equal, lhs, rhs = cauchy_verify(d, e, v)
        rows.append((d, lhs, rhs, equal))
    return rows
