import random
import re
from fractions import Fraction

import pytest

from tvbcox.bundle import BundleData
from tvbcox.linalg import (
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


@pytest.mark.parametrize(
    "text", ["\u0663", "1/\u0662", "\u00b2", "\u00b2/3", "1_000", "1/1_0", "\uff11"])
def test_parse_rational_takes_ascii_digits_only(text):
    # other scripts' digits (Arabic-Indic 3 and 2, fullwidth 1), a
    # superscript 2 and an underscore separator are not "p/q" literals,
    # though int() reads all but the superscript
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(text)


def test_rank_identity():
    assert rational_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_all_ones_row():
    assert rational_rank([[1] * 6]) == 1


def test_rank_vandermonde_2x4():
    # hand row-reduction: subtract row 1 from row 2 leaves (0,1,2,3), two pivots
    assert rational_rank([[1, 1, 1, 1], [1, 2, 3, 4]]) == 2


def test_rank_empty_matrices():
    assert rational_rank([]) == 0
    assert rational_rank([[]] * 3) == 0


def test_rank_mixes_fractions_and_ints():
    # rational_rank takes integer rows; BundleData clears each row of M by
    # the lcm of its denominators, and the rank survives the clearing
    with pytest.raises(ValueError, match="M has rank 1, expected full row rank 2"):
        BundleData([[Fraction(1, 2), 1, 0], [1, 2, 0]], [[0, 0, 0]])
    b = BundleData([(Fraction(1, 3), 0, 0), (0, Fraction(-2, 7), 0)], [[0, 0, 0]])
    assert b.d == 2 and b.m == ((1, 0, 0), (0, -2, 0))
    assert rational_rank([[1, 2], [1, 2]]) == 1
    with pytest.raises(ValueError, match="is not an int"):
        rational_rank([[Fraction(1, 2), 1], [1, 2]])


def test_rank_matches_minor_oracle_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        data = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        assert rational_rank(data) == rank_by_minors(data)


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert rational_rank(m) == rational_rank(list(zip(*m)))


def test_rank_row_scaling_and_swaps():
    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randrange(2, 5)
        cols = rng.randrange(1, 5)
        data = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        base = rational_rank(data)
        i = rng.randrange(rows)
        scaled = [list(r) for r in data]
        scale = rng.choice([1, 2, 3, -1, -5, 14])
        scaled[i] = [scale * x for x in scaled[i]]
        assert rational_rank(scaled) == base
        j = rng.randrange(rows)
        swapped = [list(r) for r in data]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert rational_rank(swapped) == base


def test_matrix_validation():
    with pytest.raises(ValueError, match="ragged rows"):
        rational_rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        rational_rank([[1], [3, 4]])
    with pytest.raises(ValueError, match="ragged rows"):
        left_kernel_basis([[1, 2], [3]])
    # rows with denominators are cleared before they reach the elimination
    # (BundleData does it once); a Fraction there would be floor-divided,
    # even an integral one
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 2.0, True, "2"):
        message = re.escape(f"matrix entry {bad!r} is not an int")
        with pytest.raises(ValueError, match=message):
            rational_rank([[1, 1], [1, bad]])
        with pytest.raises(ValueError, match=message):
            left_kernel_basis([[1, bad]])


def test_left_kernel_basis_random():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 5)
        data = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        if rows > 2:
            # a row combined from two others, so the rank drops
            i, j, k = rng.sample(range(rows), 3)
            a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
            data[i] = [a * x + b * y for x, y in zip(data[j], data[k])]
        kernel = left_kernel_basis(data)
        assert len(kernel) == rows - rank_by_minors(data)
        assert rank_by_minors(kernel) == len(kernel)
        for v in kernel:
            assert next(x for x in v if x) == 1
            for c in range(cols):
                assert sum(v[r] * data[r][c] for r in range(rows)) == 0


def test_left_kernel_basis_empty_matrices():
    assert left_kernel_basis([]) == []
    assert left_kernel_basis([[], []]) == [[1, 0], [0, 1]]
