"""Toric vector bundles given by a matrix pair (M, D).

M is a d x s rational matrix whose rows generate the linear ideal of the
fiber data; D is an n x s integer matrix (the diagram) with one row per ray
of the fan.  The bundle rank is r = s - d.  Both are plain rows.
"""

import math
from fractions import Fraction
from itertools import combinations, islice
from typing import NamedTuple

from .linalg import rational_rank
from .poly import CapExceeded

# Largest number of ray or column subsets rank_table and classify enumerate
# (one at a time: it bounds their time, not their memory), and of rows region_table builds.
SUBSET_CAP = REGION_CAP = 2**16


class BundleData:
    """The (M, D) pair, given as rows, with the checks on their shape and
    entries.  M (ints or Fractions) is kept as integer rows, each scaled by
    the lcm of its denominators, which keeps the rank of every column
    selection: rationals are cleared here, once.  D is kept as tuples of
    ints; minimal_columns[i - 1] is the set of 1-based columns where row i
    of D attains its minimum."""

    __slots__ = ("n", "s", "d", "m", "diagram", "minimal_columns", "label")

    def __init__(self, m, diagram, label=None):
        m = tuple(tuple(row) for row in m)
        diagram = tuple(tuple(row) for row in diagram)
        if not m:
            raise ValueError("M must have at least one row")
        if not diagram:
            raise ValueError("the diagram needs at least one row")
        s = len(m[0])
        if any(len(row) != s for row in m):
            raise ValueError("the rows of M must have equal lengths")
        if any(len(row) != s for row in diagram):
            raise ValueError("M and D must have the same number of columns")
        # a float would be taken at its binary value, a bool as 0 or 1
        for x in (x for row in m for x in row):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise ValueError(f"entry {x!r} of M is not an integer or a Fraction")
        for x in (x for row in diagram for x in row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"diagram entry {x!r} is not an integer")
        rows = []
        for row in m:
            scale = math.lcm(*(x.denominator for x in row))
            rows.append(tuple(x.numerator * (scale // x.denominator) for x in row))
        m = tuple(rows)
        d = rational_rank(m)
        if d != len(m):
            raise ValueError(f"M has rank {d}, expected full row rank {len(m)}")
        if s <= d:
            raise ValueError("need s > d so that the bundle rank s - d is positive")
        self.n = len(diagram)
        self.s = s
        self.d = d
        self.m = m
        self.diagram = diagram
        self.minimal_columns = tuple(
            frozenset(j for j, x in enumerate(row, 1) if x == low)
            for row, low in zip(diagram, map(min, diagram))
        )
        self.label = label

    @property
    def rank(self):
        return self.s - self.d

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"BundleData{tag}(n={self.n}, s={self.s}, d={self.d})"


class BundleClass(NamedTuple):
    sparse: bool
    uniform: bool
    hypersurface: bool
    rank: int


def common_minimal_columns(b, rays):
    """Columns where every row of D indexed by rays, a nonempty collection
    of 1-based ray indices, attains its row minimum: the frozenset
    intersection of those rays' minimal-column sets.  Raises ValueError on
    no rays (from min) and on an index out of range."""
    if min(rays) < 1 or max(rays) > b.n:
        raise ValueError(f"ray index out of range 1..{b.n}")
    return frozenset.intersection(*(b.minimal_columns[i - 1] for i in rays))


def restricted_rank(b, rays):
    """Rank of M on the common-minimal column set (0 when that set is empty);
    the order of the columns does not change the rank."""
    cols = common_minimal_columns(b, rays)
    if not cols:
        return 0
    return rational_rank([[row[j - 1] for j in cols] for row in b.m])


def rank_table(b):
    """(A, restricted_rank(b, A)) for each of the 2^n - 1 nonempty ray subsets
    A, a frozenset, sizes ascending and combinations order within a size, so
    the singletons come first.  A lazy iterator holding one subset at a time;
    CapExceeded comes when it is made, before any rank."""
    count = 2**b.n - 1
    if count > SUBSET_CAP:
        raise CapExceeded(
            f"{b.n} rays give {count} ray subsets, over the cap {SUBSET_CAP}", size=count
        )
    rays = range(1, b.n + 1)
    subsets = (a for size in rays for a in combinations(rays, size))
    return ((frozenset(a), restricted_rank(b, a)) for a in subsets)


def _ci_profile(b):
    """Each distinct (|A|, m_i, m_A) over ray subsets A with |A| >= 2 and
    i in A, the only thing the CI criterion reads, mapped to its first
    (i, A) in rank_table order, i in the iteration order of the frozenset A.
    Each subset is folded in and dropped, so it holds O(n + profile) items."""
    ranks = rank_table(b)
    m_ray = [None] + [m_i for _, m_i in islice(ranks, b.n)]
    profile = {}
    for subset, m_a in ranks:
        for i in subset:
            profile.setdefault((len(subset), m_ray[i], m_a), (i, subset))
    return profile


class NotCompleteIntersection(ValueError):
    """The bundle is not a complete intersection even at one summand."""


def _ci_holds(profile, summands):
    return all(1 + summands * m_i < size + summands * m_a for size, m_i, m_a in profile)


def _pair_bound(size, m_i, m_a):
    return -((size - 1) // -(m_i - m_a)) - 1  # ceil((size - 1)/(m_i - m_a)) - 1


def is_complete_intersection(b, summands):
    """Complete-intersection test for the bundle tensored with K^summands.

    The criterion quantifies over ray subsets A with |A| >= 2 and i in A:
    1 + l*m_{i} < |A| + l*m_A.  Singletons are excluded: for A = {i} the
    inequality degenerates to 1 + m < 1 + m, which is never true.
    """
    if summands < 1:
        raise ValueError("the number of summands must be at least 1")
    return _ci_holds(_ci_profile(b), summands)


def ci_stability(b):
    """(l, witness): the largest l such that the l-fold sum is still a
    complete intersection, and the first pair (i, A) that binds it.

    Computed two ways, which must agree: the closed form min over (i, A)
    with m_{i} > m_A of ceil((|A|-1)/(m_{i}-m_A)) - 1, and the criterion
    itself at every l up to one past it.  (math.inf, None) when no pair binds;
    NotCompleteIntersection when the bundle is not CI at l = 1.
    """
    profile = _ci_profile(b)
    if not _ci_holds(profile, 1):
        raise NotCompleteIntersection("not a complete intersection at l = 1")
    best = math.inf
    witness = None
    for (size, m_i, m_a), (i, subset) in profile.items():
        if m_i > m_a:
            bound = _pair_bound(size, m_i, m_a)
            if bound < best:
                best = bound
                witness = (i, tuple(sorted(subset)))
    if best is not math.inf:
        holds = [_ci_holds(profile, ell) for ell in range(1, best + 2)]
        if holds != [True] * best + [False]:
            raise AssertionError(f"closed form {best}, but CI at l = 1..{best + 1} is {holds}")
    return best, witness


def uniform_sparse_stability(r: int, s: int) -> int:
    """CI-stability of a sparse uniform bundle with matroid U^s_r.

    The largest l with l < (s-1)/(s-r), i.e. ceil((s-1)/(s-r)) - 1.
    """
    if not 1 <= r < s:
        raise ValueError("need 1 <= r < s")
    return -((s - 1) // -(s - r)) - 1


def classify(b):
    sparse = all(sum(1 for x in row if x != 0) <= 1 for row in b.diagram)
    count = math.comb(b.s, b.d)
    if count > SUBSET_CAP:
        raise CapExceeded(
            f"C({b.s}, {b.d}) = {count} column subsets, over the cap {SUBSET_CAP}", size=count
        )
    uniform = True
    for subset in combinations(range(b.s), b.d):
        if rational_rank([[row[j] for j in subset] for row in b.m]) < b.d:
            uniform = False
            break
    hypersurface = b.d == 1
    return BundleClass(sparse, uniform, hypersurface, b.rank)


def vandermonde_matrix(d: int, s: int):
    """d x s Vandermonde rows on nodes 1..s; all maximal minors are nonzero."""
    return [[node**k for node in range(1, s + 1)] for k in range(d)]


def tangent_bundle(n: int):
    """Tangent bundle of P^n: M the all-ones row, D the identity.
    BundleData refuses n < 1: no row at n < 0, and rank 0 at n = 0."""
    identity = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return BundleData([[1] * (n + 1)], identity, label=f"tangent(P^{n})")


def uniform_sparse_bundle(d, s):
    """Uniform bundle with the s x s identity diagram; M is the Vandermonde
    matrix, hence no vanishing minors."""
    identity = [[int(i == j) for j in range(s)] for i in range(s)]
    return BundleData(vandermonde_matrix(d, s), identity, label=f"uniform-sparse(d={d}, s={s})")


def example_514_bundle():
    """The rank-5 bundle over P^2 with the all-ones row and the 3x6 diagram."""
    diagram = [
        [4, 0, 0, 1, 3, 2],
        [0, 4, 0, 2, 1, 3],
        [0, 0, 4, 3, 2, 1],
    ]
    return BundleData([[1] * 6], diagram, label="example-5.14")


def region_table(r_max: int, s_max: int):
    """Stability of sparse U^s_r bundles over the (r, s) grid.

    Returns (rows, boundary_lines): rows are (r, s, stability) and each
    boundary line l*(s - r) = s - 1 is reported as (l, slope, intercept)
    for s as a function of r.  CapExceeded comes before any row is built.
    """
    if not (2 <= r_max < s_max):
        raise ValueError("need 2 <= r_max < s_max")
    count = r_max * s_max - r_max * (r_max + 1) // 2  # sum of s_max - r over r
    if count > REGION_CAP:
        raise CapExceeded(
            f"the (r, s) grid has {count} rows, over the cap {REGION_CAP}", size=count
        )
    rows = []
    max_stab = 1
    for r in range(1, r_max + 1):
        for s in range(r + 1, s_max + 1):
            stab = uniform_sparse_stability(r, s)
            max_stab = max(max_stab, stab)
            rows.append((r, s, stab))
    lines = []
    for ell in range(2, max_stab + 2):
        # l(s - r) = s - 1  <=>  s = (l r - 1)/(l - 1)
        lines.append((ell, Fraction(ell, ell - 1), Fraction(-1, ell - 1)))
    return rows, lines


def region_csv(rows):
    out = ["r,s,stability"]
    for r, s, stab in rows:
        out.append(f"{r},{s},{stab}")
    return "\n".join(out) + "\n"


def region_svg(rows, lines):
    """Scatter of the stability region with the boundary lines."""
    cell, margin = 32, 40
    r_max = max(r for r, _, _ in rows)
    s_max = max(s for _, s, _ in rows)
    width = margin * 2 + cell * r_max
    height = margin * 2 + cell * s_max

    def x(r):
        return margin + cell * r

    def y(s):
        return height - margin - cell * s

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(r_max)}" y2="{y(0)}" stroke="black"/>',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(0)}" y2="{y(s_max)}" stroke="black"/>',
    ]
    for ell, slope, intercept in lines:
        r0, r1 = 1, r_max
        s0 = slope * r0 + intercept
        s1 = slope * r1 + intercept
        parts.append(
            f'<line x1="{x(r0)}" y1="{y(float(s0))}" x2="{x(r1)}" y2="{y(float(s1))}" '
            f'stroke="gray" stroke-dasharray="4"/>'
            f'<text x="{x(r1) + 4}" y="{y(float(s1))}" font-size="10">l = {ell}</text>'
        )
    for r, s, stab in rows:
        parts.append(
            f'<circle cx="{x(r)}" cy="{y(s)}" r="3" fill="black"/>'
            f'<text x="{x(r) + 4}" y="{y(s) - 4}" font-size="8">{stab}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
