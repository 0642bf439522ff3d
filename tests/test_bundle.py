import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from tvbcox import bundle, linalg
from tvbcox.bundle import (
    BundleData,
    NotCompleteIntersection,
    ci_stability,
    classify,
    common_minimal_columns,
    example_514_bundle,
    is_complete_intersection,
    rank_table,
    region_csv,
    region_svg,
    region_table,
    restricted_rank,
    tangent_bundle,
    uniform_sparse_bundle,
    uniform_sparse_stability,
)
from tvbcox.linalg import rational_rank
from tvbcox.poly import CapExceeded
from oracles import ci_profile_by_table, kaneyama_bundle, placed_sparse_bundle, rank_by_minors
from test_golden import golden_bundles


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
    # the profile is folded from rank_table as it streams: one rank for each
    # of the 2^5 - 1 ray subsets, and no second pass through the criterion.
    # Each restricted_rank takes its columns from one common_minimal_columns
    # and ranks them with one rational_rank, except for the full ray set,
    # whose common column set is empty (the bench tracer reads this wiring)
    t4 = tangent_bundle(4)
    calls = {"restricted_rank": [], "common_minimal_columns": [], "rational_rank": []}

    def logged(name):
        fn = getattr(bundle, name)
        return lambda *args: calls[name].append(args[-1]) or fn(*args)

    for name in calls:
        monkeypatch.setattr(bundle, name, logged(name))

    def no_call(*args):
        raise AssertionError("ci_stability called is_complete_intersection")

    monkeypatch.setattr(bundle, "is_complete_intersection", no_call)
    assert ci_stability(t4) == (3, (1, (1, 2, 3, 4, 5)))
    ranked = calls["restricted_rank"]
    assert len(ranked) == len(set(ranked)) == 31
    assert calls["common_minimal_columns"] == ranked
    assert len(calls["rational_rank"]) == 30


def random_bundles(seed, count):
    """Bundles of 3 to 11 rays with small random M and D: several ray ranks
    per bundle, and from 9 rays on, frozensets whose iteration order depends
    on the order their rays were added in."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, s = rng.randrange(3, 12), rng.randrange(3, 7)
        m = [[rng.randrange(-2, 3) for _ in range(s)] for _ in range(rng.randrange(1, s))]
        diagram = [[rng.randrange(0, 3) for _ in range(s)] for _ in range(n)]
        try:
            out.append(BundleData(m, diagram))
        except ValueError:  # M not of full row rank
            continue
    return out


def test_streamed_ci_profile_matches_the_table():
    instances = [b for _, b in golden_bundles()] + random_bundles(29, 12)
    assert any(b.n >= 9 for b in instances[-12:])
    for b in instances:
        assert list(bundle._ci_profile(b).items()) == list(ci_profile_by_table(b).items())


def test_rank_table_is_lazy_and_checks_its_cap_first(monkeypatch):
    def unreachable(b, rays):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(bundle, "restricted_rank", unreachable)
    ranks = rank_table(tangent_bundle(4))  # nothing ranked until it is read
    with pytest.raises(CapExceeded, match="131071 ray subsets"):
        rank_table(tangent_bundle(16))
    with pytest.raises(AssertionError, match="a rank was computed"):
        next(ranks)


def test_ci_stability_memory_does_not_grow_with_the_subsets():
    # 8,191 ray subsets; the whole table of them peaked at 6.45 MiB
    b = tangent_bundle(12)
    tracemalloc.start()
    try:
        assert ci_stability(b) == (11, (1, tuple(range(1, 14))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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
        b = placed_sparse_bundle(d, s, positions)
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
    b = placed_sparse_bundle(1, 3, [None, (2, 5)])
    assert classify(b).sparse


def test_classify_non_uniform():
    cls = classify(BundleData([[1, 0, 1], [0, 1, 0]], [[1, 0, 0]]))
    assert not cls.uniform


def test_classify_caps_column_subsets():
    b = uniform_sparse_bundle(9, 20)
    with pytest.raises(CapExceeded, match="167960 column subsets"):
        classify(b)


def test_bundle_builders():
    t2 = tangent_bundle(2)
    assert t2.m == ((1, 1, 1),)
    assert t2.diagram == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    k = kaneyama_bundle([1, 1, 1])
    assert k.diagram == t2.diagram and k.m == t2.m
    us = uniform_sparse_bundle(2, 6)
    cls = classify(us)
    assert cls.sparse and cls.uniform


def test_rank_monotonicity_over_subsets(ex514):
    rng = random.Random(17)
    instances = [ex514, tangent_bundle(3), uniform_sparse_bundle(2, 6)]
    for _ in range(5):
        s = rng.randrange(4, 7)
        positions = [(j, rng.randrange(1, 4)) for j in range(1, s + 1)]
        instances.append(placed_sparse_bundle(rng.randrange(1, 3), s, positions))
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


def test_region_table_caps_its_rows(monkeypatch):
    # the sum over r of s_max - r: 2 * 32769 - 3 = 65,535 rows fit under
    # the cap of 2^16, and one more row does not
    assert len(region_table(2, 32769)[0]) == 65535

    def unreachable(r, s):
        raise AssertionError("a row was built")

    monkeypatch.setattr(bundle, "uniform_sparse_stability", unreachable)
    for r_max, s_max, count in ((2, 32770, 65537), (3, 21848, 65538), (300, 2000, 554850)):
        with pytest.raises(CapExceeded, match=f"has {count} rows, over the cap 65536"):
            region_table(r_max, s_max)


@pytest.mark.parametrize("r_max, s_max", [(1, 5), (5, 5), (6, 5)])
def test_region_table_refuses_r_max_below_2_or_not_below_s_max(r_max, s_max):
    with pytest.raises(ValueError, match="need 2 <= r_max < s_max"):
        region_table(r_max, s_max)


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


# rows scaled by 4 and 6 to clear their denominators: (2, -3, 4, 0), (0, 4, 5, 6)
RATIONAL_M = [[Fraction(1, 2), Fraction(-3, 4), 1, 0], [0, Fraction(2, 3), Fraction(5, 6), 1]]


def test_bundle_stores_rows_as_tuples():
    b = BundleData([[Fraction(1, 2), 1, 2]], [[0, 1, 0], [2, 2, 1]])
    assert b.m == ((1, 2, 4),)
    assert all(type(x) is int for x in b.m[0])
    assert b.diagram == ((0, 1, 0), (2, 2, 1))
    assert b.minimal_columns == (frozenset({1, 3}), frozenset({3}))
    # each row is scaled by the lcm of its denominators, which keeps the
    # rank of every column selection
    b2 = BundleData(RATIONAL_M, [[0, 1, 1, 2]])
    assert b2.m == ((2, -3, 4, 0), (0, 4, 5, 6))
    for matrix, scaled in (([[Fraction(1, 2), 1, 2]], b.m), (RATIONAL_M, b2.m)):
        for size in range(1, len(matrix[0]) + 1):
            for cols in combinations(range(len(matrix[0])), size):
                assert rational_rank([[row[j] for j in cols] for row in scaled]) == (
                    rank_by_minors([[row[j] for j in cols] for row in matrix])
                )


def test_denominators_are_cleared_once(monkeypatch):
    # M's denominators are cleared when the bundle is built; no rank after
    # that, in the CI profile, classify or restricted_rank, clears one again
    b = BundleData(RATIONAL_M, [[2, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    expected = ci_stability(b), classify(b), restricted_rank(b, [2, 3, 4])
    assert expected == ((1, (1, (1, 2, 3))), (False, True, False, 2), 1)

    def no_clearing(*args):
        raise AssertionError("a denominator was cleared after the bundle was built")

    # math.lcm, and any lcm a tvbcox module imported by name
    monkeypatch.setattr(math, "lcm", no_clearing)
    for module in (bundle, linalg):
        if hasattr(module, "lcm"):
            monkeypatch.setattr(module, "lcm", no_clearing)
    assert (ci_stability(b), classify(b), restricted_rank(b, [2, 3, 4])) == expected


def test_bundle_validation():
    cases = [
        ([[1, 1, 1], [2, 2, 2]], [[1, 0, 0]], "rank 1, expected full row rank 2"),
        ([[1, 0], [0, 1]], [[1, 0]], "need s > d"),
        ([[1, 1]], [[1, 0, 0]], "same number of columns"),
        ([[1, 2], [3]], [[1, 0]], "equal lengths"),
        ([[1, 1]], [[1, Fraction(1, 2)]], "diagram entry Fraction(1, 2) is not an integer"),
        ([[1, 1]], [[1, 0.0]], "diagram entry 0.0 is not an integer"),
        ([[1, 1]], [[True, False]], "diagram entry True is not an integer"),
        ([[0.1, 1]], [[0, 1]], "entry 0.1 of M is not an integer or a Fraction"),
        ([[1, True]], [[0, 1]], "entry True of M is not an integer or a Fraction"),
        ([["1/2", 1]], [[0, 1]], "entry '1/2' of M is not an integer or a Fraction"),
        ([], [[1, 0]], "M must have at least one row"),
        ([[1, 1]], [], "the diagram needs at least one row"),
    ]
    for m, diagram, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            BundleData(m, diagram)
