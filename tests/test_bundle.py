import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from tvbcox import bundle
from tvbcox.bundle import (
    BundleData,
    NotCompleteIntersection,
    ci_stability,
    classify,
    common_minimal_columns,
    example_514_bundle,
    is_complete_intersection,
    make_bundle,
    rank_table,
    region_csv,
    region_svg,
    region_table,
    restricted_rank,
    tangent_bundle,
    uniform_sparse_bundle,
    uniform_sparse_stability,
)
from tvbcox.poly import CapExceeded


@pytest.fixture(scope="module")
def ex514():
    return example_514_bundle()


def test_common_minimal_columns_example(ex514):
    assert common_minimal_columns(ex514, [1]) == {2, 3}
    assert common_minimal_columns(ex514, [2]) == {1, 3}
    assert common_minimal_columns(ex514, [3]) == {1, 2}
    assert common_minimal_columns(ex514, [1, 2, 3]) == set()


def test_common_minimal_columns_tangent():
    t2 = tangent_bundle(2)
    assert common_minimal_columns(t2, [1]) == {2, 3}


def test_common_minimal_columns_errors(ex514):
    with pytest.raises(ValueError):
        common_minimal_columns(ex514, [])
    with pytest.raises(ValueError):
        common_minimal_columns(ex514, [4])


def test_restricted_rank_example(ex514):
    assert restricted_rank(ex514, [1, 2]) == 1
    assert restricted_rank(ex514, [1, 2, 3]) == 0
    assert restricted_rank(tangent_bundle(2), [1]) == 1


def test_complete_intersection_example(ex514):
    assert is_complete_intersection(ex514, 1)
    assert not is_complete_intersection(ex514, 2)
    assert is_complete_intersection(tangent_bundle(2), 1)
    with pytest.raises(ValueError):
        is_complete_intersection(ex514, 0)


def test_ci_monotone_in_summands(ex514):
    bundles = [ex514, tangent_bundle(3), uniform_sparse_bundle(2, 5)]
    for b in bundles:
        previous = True
        for ell in range(1, 8):
            current = is_complete_intersection(b, ell)
            assert previous or not current
            previous = current


def test_ci_stability_values(ex514):
    stab, witness = ci_stability(ex514)
    assert stab == 1
    assert witness == (1, (1, 2, 3))
    for n in range(2, 7):
        assert ci_stability(tangent_bundle(n))[0] == n - 1
    assert ci_stability(uniform_sparse_bundle(2, 6)) == (2, (1, (1, 2, 3, 4, 5, 6)))


def test_ci_stability_requires_ci():
    # disjoint minima with full single-ray rank: 1 + 2 < 2 + 0 already fails
    b = BundleData([[1, 1, 1, 1], [1, 2, 3, 4]], [[0, 0, 1, 1], [1, 1, 0, 0]])
    assert not is_complete_intersection(b, 1)
    with pytest.raises(NotCompleteIntersection):
        ci_stability(b)


def test_ci_stability_infinite():
    # a single ray has no subsets of size two, so nothing ever binds
    b = BundleData([[1, 1]], [[0, 1]])
    assert ci_stability(b) == (math.inf, None)


def test_ci_stability_cross_check_rejects_a_wrong_closed_form(monkeypatch):
    pair_bound = bundle._pair_bound
    for shift in (-1, 1):
        monkeypatch.setattr(bundle, "_pair_bound", lambda *t, k=shift: pair_bound(*t) + k)
        with pytest.raises(AssertionError, match="closed form"):
            ci_stability(tangent_bundle(3))


def test_ci_stability_reads_the_table_once(monkeypatch):
    class CountingTable(dict):
        passes = 0

        def items(self):
            CountingTable.passes += 1
            return super().items()

    def no_call(*args):
        raise AssertionError("ci_stability called is_complete_intersection")

    b = tangent_bundle(4)
    table = CountingTable(rank_table(b))
    monkeypatch.setattr(bundle, "rank_table", lambda _: table)
    monkeypatch.setattr(bundle, "is_complete_intersection", no_call)
    assert ci_stability(b) == (3, (1, (1, 2, 3, 4, 5)))
    assert CountingTable.passes == 1


def test_uniform_sparse_stability_closed_form():
    assert uniform_sparse_stability(4, 6) == 2
    assert uniform_sparse_stability(2, 4) == 1
    for r in range(1, 9):
        assert uniform_sparse_stability(r, r + 1) == r - 1
    with pytest.raises(ValueError):
        uniform_sparse_stability(4, 4)


def test_uniform_sparse_matches_iteration():
    for d in range(1, 4):
        for s in range(d + 2, 9):
            b = uniform_sparse_bundle(d, s)
            assert ci_stability(b)[0] == uniform_sparse_stability(s - d, s)


def test_uniform_sparse_closed_form_independent_of_placement():
    # one positive entry per row in distinct columns: any permutation and
    # any values give the same stability as the identity placement
    rng = random.Random(41)
    for _ in range(12):
        d = rng.randrange(1, 4)
        s = rng.randrange(d + 2, 9)
        cols = list(range(1, s + 1))
        rng.shuffle(cols)
        positions = [(c, rng.randrange(1, 5)) for c in cols]
        b = uniform_sparse_bundle(d, s, positions)
        assert ci_stability(b)[0] == uniform_sparse_stability(s - d, s)


def test_classify_tangent():
    for n in (2, 3, 4):
        cls = classify(tangent_bundle(n))
        assert cls.sparse and cls.uniform and cls.hypersurface
        assert cls.rank == n
        assert ci_stability(tangent_bundle(n))[0] == cls.rank - 1


def test_classify_example(ex514):
    cls = classify(ex514)
    assert cls.uniform and cls.hypersurface and not cls.sparse
    assert cls.rank == 5


def test_classify_zero_row_counts_as_sparse():
    b = uniform_sparse_bundle(1, 3, positions=[None, (2, 5)])
    assert classify(b).sparse


def test_classify_non_uniform():
    cls = classify(BundleData([[1, 0, 1], [0, 1, 0]], [[1, 0, 0]]))
    assert not cls.uniform


def test_classify_caps_column_subsets():
    b = uniform_sparse_bundle(9, 20)
    with pytest.raises(CapExceeded, match="167960 column subsets"):
        classify(b)


def test_make_bundle_kinds():
    t2 = make_bundle("tangent", 2)
    assert t2.m == ((1, 1, 1),)
    assert t2.diagram == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    k = make_bundle("kaneyama", [1, 1, 1])
    assert k.diagram == t2.diagram and k.m == t2.m
    us = make_bundle("uniform_sparse", 2, 6)
    cls = classify(us)
    assert cls.sparse and cls.uniform
    with pytest.raises(ValueError):
        make_bundle("kaneyama", [1, 0, 2])
    with pytest.raises(ValueError):
        make_bundle("uniform_sparse", 2, 4, positions=[(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        make_bundle("mystery")


def test_rank_monotonicity_over_subsets(ex514):
    rng = random.Random(17)
    instances = [ex514, tangent_bundle(3), uniform_sparse_bundle(2, 6)]
    for _ in range(5):
        s = rng.randrange(4, 7)
        positions = [(j, rng.randrange(1, 4)) for j in range(1, s + 1)]
        instances.append(uniform_sparse_bundle(rng.randrange(1, 3), s, positions))
    for b in instances:
        rays = range(1, b.n + 1)
        for size_a in range(1, b.n + 1):
            for a_set in combinations(rays, size_a):
                cols_a = common_minimal_columns(b, a_set)
                m_a = restricted_rank(b, a_set)
                for size_b in range(1, size_a + 1):
                    for b_set in combinations(a_set, size_b):
                        assert cols_a <= common_minimal_columns(b, b_set)
                        assert m_a <= restricted_rank(b, b_set)


def test_region_table_values():
    rows, lines = region_table(12, 14)
    table = {(r, s): stab for r, s, stab in rows}
    assert table[(4, 6)] == 2
    assert table[(6, 8)] == 3
    # the whole circled family (2k, 2k + 2) sits on the l = k boundary strip
    for k in range(2, 7):
        assert table[(2 * k, 2 * k + 2)] == k
    for r in range(1, 13):
        assert table[(r, r + 1)] == r - 1
    assert lines and lines[0][0] == 2
    # boundary line: l(s - r) = s - 1 rewritten as s = slope*r + intercept
    ell, slope, intercept = lines[0]
    r = 5
    s = slope * r + intercept
    assert ell * (s - r) == s - 1


def test_region_csv_and_svg():
    rows, lines = region_table(4, 6)
    csv = region_csv(rows)
    assert csv.splitlines()[0] == "r,s,stability"
    assert "4,6,2" in csv
    svg = region_svg(rows, lines)
    assert svg.startswith("<svg") and "circle" in svg


def test_bundle_stores_rows_as_tuples():
    b = BundleData([[Fraction(1, 2), 1, 2]], [[0, 1, 0], [2, 2, 1]])
    assert b.m == ((Fraction(1, 2), Fraction(1), Fraction(2)),)
    assert all(type(x) is Fraction for x in b.m[0])
    assert b.diagram == ((0, 1, 0), (2, 2, 1))
    assert b.minimal_columns == (frozenset({1, 3}), frozenset({3}))


def test_bundle_validation():
    cases = [
        ([[1, 1, 1], [2, 2, 2]], [[1, 0, 0]], "rank 1, expected full row rank 2"),
        ([[1, 0], [0, 1]], [[1, 0]], "need s > d"),
        ([[1, 1]], [[1, 0, 0]], "same number of columns"),
        ([[1, 2], [3]], [[1, 0]], "equal lengths"),
        ([[1, 1]], [[1, Fraction(1, 2)]], "diagram entry Fraction(1, 2) is not an integer"),
        ([[1, 1]], [[1, 0.0]], "diagram entry 0.0 is not an integer"),
        ([[1, 1]], [[True, False]], "diagram entry True is not an integer"),
        ([], [[1, 0]], "M must have at least one row"),
        ([[1, 1]], [], "the diagram needs at least one row"),
    ]
    for m, diagram, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            BundleData(m, diagram)
