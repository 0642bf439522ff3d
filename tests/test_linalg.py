import random
from fractions import Fraction

import pytest

from tvbcox.linalg import (
    IntMatrix,
    RatMatrix,
    format_rational,
    left_kernel_basis,
    parse_rational,
    rational_rank,
)
from oracles import rank_by_minors


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" 7 ") == Fraction(7)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_format_rational():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-6, 4)) == "-3/2"


def test_rank_identity():
    assert rational_rank(RatMatrix.identity(3)) == 3


def test_rank_all_ones_row():
    assert rational_rank(RatMatrix(1, 6, [1] * 6)) == 1


def test_rank_vandermonde_2x4():
    # hand row-reduction: subtract row 1 from row 2 leaves (0,1,2,3), two pivots
    m = RatMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4]])
    assert rational_rank(m) == 2


def test_rank_empty_matrices():
    assert rational_rank(RatMatrix(0, 4, [])) == 0
    assert rational_rank(RatMatrix(3, 0, [])) == 0


def test_rank_matches_minor_oracle_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        data = [
            [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = RatMatrix.from_rows(data)
        assert rational_rank(m) == rank_by_minors(data)


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = RatMatrix.from_rows(
            [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        )
        assert rational_rank(m) == rational_rank(m.transpose())


def test_rank_row_scaling_and_swaps():
    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randrange(2, 5)
        cols = rng.randrange(1, 5)
        data = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        base = rational_rank(RatMatrix.from_rows(data))
        i = rng.randrange(rows)
        scaled = [list(r) for r in data]
        scale = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
        scaled[i] = [scale * x for x in scaled[i]]
        assert rational_rank(RatMatrix.from_rows(scaled)) == base
        j = rng.randrange(rows)
        swapped = [list(r) for r in data]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert rational_rank(RatMatrix.from_rows(swapped)) == base


def test_matrix_validation():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, [Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1, 2], [3]])


def test_column_submatrix():
    m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    sub = m.column_submatrix([2, 0])
    assert sub.row_list() == [[3, 1], [6, 4]]


def test_left_kernel_basis_random():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 5)
        data = [
            [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 2:
            # a row combined from two others, so the rank drops
            i, j, k = rng.sample(range(rows), 3)
            a, b = Fraction(rng.randrange(-3, 4), 2), Fraction(rng.randrange(-3, 4))
            data[i] = [a * x + b * y for x, y in zip(data[j], data[k])]
        kernel = left_kernel_basis(RatMatrix.from_rows(data))
        assert len(kernel) == rows - rank_by_minors(data)
        assert rank_by_minors(kernel) == len(kernel)
        for v in kernel:
            assert next(x for x in v if x) == 1
            for c in range(cols):
                assert sum(v[r] * data[r][c] for r in range(rows)) == 0


def test_left_kernel_basis_empty_matrices():
    assert left_kernel_basis(RatMatrix(0, 3, [])) == []
    assert left_kernel_basis(RatMatrix(2, 0, [])) == [[1, 0], [0, 1]]
