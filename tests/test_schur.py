import pytest

from tvbcox import schur
from tvbcox.poly import CapExceeded
from tvbcox.schur import (
    CAUCHY_CAP,
    cauchy_table,
    check_cauchy_cap,
    cauchy_verify,
    normalize_partition,
    partitions_bounded,
    schur_dim,
    sym_power_dim,
)
from oracles import count_ssyt, partitions_brute


def test_partitions_bounded_examples():
    assert partitions_bounded(2, 2) == [(2,), (1, 1)]
    assert partitions_bounded(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions_bounded(0, 0) == [()]
    assert partitions_bounded(3, 0) == []
    # a negative bound is an input error, not "no bound": every partition
    # of 3 would make the Cauchy sums fail at negative dimensions
    with pytest.raises(ValueError, match="row bound must be at least 0, got -1"):
        partitions_bounded(3, -1)


def test_partitions_bounded_matches_brute():
    for d in range(0, 9):
        for rows in range(0, 5):
            got = partitions_bounded(d, rows)
            assert set(got) == partitions_brute(d, rows) if d else {()}
            # reverse-lexicographic: first part weakly decreasing along the list
            assert got == sorted(got, reverse=True)


def test_normalize_partition():
    assert normalize_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        normalize_partition([1, 2])
    with pytest.raises(ValueError):
        normalize_partition([2, -1])


def test_schur_dim_examples():
    for n in range(1, 7):
        assert schur_dim((1,), n) == n
    assert schur_dim((1, 1), 2) == 1
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((1, 1, 1), 2) == 0


def test_schur_dim_refuses_a_hook_product_that_does_not_divide(monkeypatch):
    # with no partition check, (2, 0, 0, 1) reaches the hook content
    # formula, whose quotient 20 / -3 is no integer
    monkeypatch.setattr(schur, "normalize_partition", tuple)
    with pytest.raises(AssertionError, match="not integral"):
        schur_dim((2, 0, 0, 1), 4)


def test_schur_dim_matches_ssyt_count():
    for d in range(0, 7):
        for n in range(1, 5):
            for shape in partitions_bounded(d, 4):
                assert schur_dim(shape, n) == count_ssyt(shape, n)


def test_cauchy_examples():
    assert cauchy_verify(2, 2, 2) == (True, 10, 10)
    assert cauchy_verify(2, 2, 1) == (True, 3, 3)
    assert cauchy_verify(0, 4, 5) == (True, 1, 1)


def test_cauchy_sweep():
    for d in range(0, 9):
        for e in range(1, 6):
            for v in range(1, 6):
                equal, lhs, rhs = cauchy_verify(d, e, v)
                assert equal, (d, e, v, lhs, rhs)


def test_cauchy_table():
    rows = cauchy_table(4, 2, 3)
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    assert all(r[3] for r in rows)
    assert rows[1][1] == 6  # dim of the tensor space itself
    # dimension 0 is a space with only Sym^0; a negative one is rejected
    assert cauchy_table(2, 0, 3) == [(0, 1, 1, True), (1, 0, 0, True), (2, 0, 0, True)]
    for e, v in ((-1, -1), (-2, 3), (2, -1)):
        with pytest.raises(ValueError, match=f"got dim_e = {e}, dim_v = {v}"):
            cauchy_table(2, e, v)


@pytest.mark.parametrize("max_degree, max_rows", [(0, 0), (5, 0), (6, 1), (9, 2), (12, 3), (14, 20)])
def test_cauchy_cap_counts_every_partition(monkeypatch, max_degree, max_rows):
    # the cap holds exactly at the enumerated count, a degree with no
    # partition counted as one, and fails one below it
    count = sum(max(1, len(partitions_bounded(d, max_rows))) for d in range(max_degree + 1))
    monkeypatch.setattr(schur, "CAUCHY_CAP", count)
    check_cauchy_cap(max_degree, max_rows)
    monkeypatch.setattr(schur, "CAUCHY_CAP", count - 1)
    with pytest.raises(CapExceeded, match=f"over the cap {count - 1}"):
        check_cauchy_cap(max_degree, max_rows)


def test_cauchy_cap_at_one_row():
    # one partition per degree: degrees 0 to CAUCHY_CAP - 1 fit, one more does not
    check_cauchy_cap(CAUCHY_CAP - 1, 1)
    with pytest.raises(CapExceeded, match=f"at least {CAUCHY_CAP + 1} partitions"):
        check_cauchy_cap(CAUCHY_CAP, 1)


@pytest.mark.parametrize("max_degree, e, v", [(40, 20, 20), (10**12, 20, 20), (10**12, 0, 5)])
def test_cauchy_table_over_the_cap_builds_no_partition(monkeypatch, max_degree, e, v):
    def unreachable(*args):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(schur, "partitions_bounded", unreachable)
    with pytest.raises(CapExceeded, match=f"over the cap {CAUCHY_CAP}"):
        cauchy_table(max_degree, e, v)


def test_sym_power_dim():
    assert sym_power_dim(4, 0) == 1
    assert sym_power_dim(4, 2) == 10
    assert sym_power_dim(1, 5) == 1


def test_highest_weight_line_count():
    # the count of distinct shapes in the degree-d slice, truncated at
    # min(rank, summands) rows, is the same whichever side truncates
    for r in range(1, 5):
        for ell in range(1, 5):
            for d in range(0, 7):
                bound = min(r, ell)
                count = len(partitions_bounded(d, bound))
                both = [
                    shape
                    for shape in partitions_bounded(d, r)
                    if len(shape) <= ell
                ]
                assert count == len(both)

