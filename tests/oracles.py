"""Independent brute-force oracles the tests check library results against.

These deliberately use different algorithms from the library: permutation
sums instead of Laplace expansion over shared sub-minors, minor
enumeration instead of elimination, tableau enumeration instead of hook
contents, subset
enumeration instead of branch and bound, sign search through the
presentation map instead of the Laplace expansion, and textbook monomial
comparisons instead of matrix-order keys, division that compares
exponents term by term instead of filtering divisors by support masks,
column sets enumerated by size instead of read off the marked flags,
generators enumerated as negated variables and then flags instead of as
marks on column sets of every size, and column permutations applied to
the presentation matrix instead of to a table of minors, and the left
inverses of the presentation maps in closed form instead of read off a
table of minors, and pair products multiplied by Polynomial * on exponent
tuples instead of on packed terms, and the presentations and their maps
built by Polynomial operators, each minor its own determinant, instead
of written as exponent tuples.  It also holds
helpers that only tests use.
"""

import json
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

from tvbcox import bundle, poly
from tvbcox.cox import (
    lemma_ring,
    maximal_minors,
    presentation_variables,
    t_name,
    w_name,
    x_name,
    y_name,
    yy_name,
)
from tvbcox.gz import MarkedGenerator, p_name


def det_permutation_sum(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term * sign
        total = term if total is None else total + term
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def rank_by_minors(rows):
    """Largest k with some nonzero k x k minor, determinants over Fraction."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                minor = [[Fraction(rows[i][j]) for j in csel] for i in rsel]
                if det_permutation_sum(minor) != 0:
                    return k
    return 0


def monomial_dimension_brute(monomials, nvars):
    """Largest coordinate subspace avoiding every generator support."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    if any(not s for s in supports):
        return -1
    best = -1
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return best


def count_ssyt(shape, max_entry):
    """Semistandard Young tableaux of the given shape, entries in 1..max_entry."""
    shape = [r for r in shape if r]
    if not shape:
        return 1
    rows = len(shape)

    def fill(cells, idx, tableau):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, tableau[(i, j - 1)])
        if i > 0:
            lo = max(lo, tableau[(i - 1, j)] + 1)
        total = 0
        for value in range(lo, max_entry + 1):
            tableau[(i, j)] = value
            total += fill(cells, idx + 1, tableau)
        tableau.pop((i, j), None)
        return total

    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    return fill(cells, 0, {})


def partitions_brute(d, max_rows):
    """All weakly decreasing tuples of positive parts summing to d."""
    found = set()

    def rec(remaining, cap, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        if len(prefix) >= max_rows:
            return
        for part in range(1, min(cap, remaining) + 1):
            rec(remaining - part, part, prefix + [part])

    rec(d, d, [])
    return found


def flag_column_sets_by_size(n):
    """The column sets of the flag-ring variables enumerated size by size:
    the nonempty strict subsets of [n], then {0} | tau for tau in [n] with
    |tau| <= n - 2, sorted by size and then by sorted columns."""
    sets = []
    for size in range(1, n):
        for tau in combinations(range(1, n + 1), size):
            sets.append(frozenset(tau))
    for size in range(0, n - 1):
        for tau in combinations(range(1, n + 1), size):
            sets.append(frozenset({0}) | frozenset(tau))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def generators_by_kind(n):
    """The generators at n: [-0]..[-n], then each nonempty strict subset of
    [n], size by size, with mark 0 and then every mark a >= 1 whose prefix
    {1..a} lies inside it."""
    gens = [MarkedGenerator.neg(a) for a in range(n + 1)]
    for size in range(1, n):
        for tau in combinations(range(1, n + 1), size):
            sigma = frozenset(tau)
            gens.append(MarkedGenerator.flag(sigma, 0))
            mark = 1
            while frozenset(range(1, mark + 1)) <= sigma:
                gens.append(MarkedGenerator.flag(sigma, mark))
                mark += 1
    return gens


def sort_word(word):
    return tuple(sorted(word, key=MarkedGenerator.sort_key))


def permuted_columns(target, n, perm):
    """The map of the presentation target that moves matrix column j to
    column perm[j] and t_j to t_perm[j]: y_ij goes to the (i, perm[j])
    entry of the matrix whose column 0 is -sum_k y_ik, read off the matrix
    itself rather than off a table of minors."""
    images = {t_name(j): target.var(t_name(p)) for j, p in enumerate(perm)}
    for i in range(1, (target.nvars - n - 1) // n + 1):
        y = [target.var(yy_name(i, j)) for j in range(1, n + 1)]
        columns = [-sum(y, target.zero())] + y
        images.update({yy_name(i, j): columns[perm[j]] for j in range(1, n + 1)})
    return poly.RingMap(target, target, images)


def left_inverse_images(kind, source, n):
    """The images of the left inverse of phi at m = n (kind "phi") or of
    psi (kind "psi") on the source ring of the map, by their closed forms:
    t_j -> 1/x_j, and y_ij -> x_j Y_ij for phi; for psi y_ij -> x_j
    P_{[i-1]+j} / P_{[i-1]} when j >= i, P_{[0]} read as 1, and y_ij -> 0
    below the diagonal."""
    images = {t_name(j): source.var(x_name(j)) ** -1 for j in range(n + 1)}
    for i in range(1, n + 1 if kind == "phi" else n):
        head = set(range(1, i))
        for j in range(1, n + 1):
            x = source.var(x_name(j))
            if kind == "phi":
                images[yy_name(i, j)] = x * source.var(y_name(i, j))
            elif j < i:
                images[yy_name(i, j)] = source.zero()
            else:
                image = x * source.var(p_name(head | {j}))
                if head:
                    image = image * source.var(p_name(head)) ** -1
                images[yy_name(i, j)] = image
    return images


def euler_relations_by_products(ring, n, m):
    """cox.euler_generators by Polynomial operators: each Euler relation a
    sum of products x_j Y_ij."""
    var = ring.var
    return [sum((var(x_name(j)) * var(y_name(i, j)) for j in range(n + 1)), ring.zero())
            for i in range(1, m + 1)]


def tangent_cox_gens_by_products(n, m):
    """The generators of cox.tangent_cox_ideal(n, m), 1 <= m <= n, built by
    Polynomial operators: the Euler relations, and at m = n each
    det Y(j) - (-1)^j x_j W with x_j W a product of variables."""
    ring = poly.PolyRing([name for name, _ in presentation_variables(n, m)])
    gens = euler_relations_by_products(ring, n, m)
    if m == n:
        gens += [minor - (-1) ** j * ring.var(x_name(j)) * ring.var(w_name())
                 for j, minor in enumerate(maximal_minors(ring, n))]
    return gens


def quiver_gens_by_products(n):
    """The generators of cox.quiver_ideal(n): the Euler relations by
    Polynomial operators, then the maximal minors det Y(j)."""
    ring = poly.PolyRing([name for name, _ in presentation_variables(n, n)])
    return euler_relations_by_products(ring, n, n) + maximal_minors(ring, n)


def presentation_images_by_products(target, n, minors):
    """The images of cox.minor_map on a minor table, by Polynomial
    operators: x_j -> t_j ** -1, and each (name, rows, cols) to the
    determinant of its rows and square columns, the last |rows| of cols,
    in the matrix whose column 0 is -sum_j y_ij and column j is y_ij, times
    t_j for each j in cols.  Each minor is its own poly.symbolic_det, not
    read off a pass over its rows shared with other minors."""
    images = {x_name(j): target.var(t_name(j)) ** -1 for j in range(n + 1)}
    for name, rows, cols in minors:
        cols = sorted(cols)
        matrix = []
        for i in rows:
            y = [target.var(yy_name(i, j)) for j in range(1, n + 1)]
            full = [-sum(y, target.zero())] + y
            matrix.append([full[c] for c in cols[len(cols) - len(rows):]])
        image = poly.symbolic_det(matrix)
        for j in cols:
            image = image * target.var(t_name(j))
        images[name] = image
    return images


def zero_set_dimension(ideal):
    """Dimension of the zero set, via the leads of the ideal's grevlex
    Groebner basis (the dimension does not depend on the order)."""
    order = poly.grevlex(ideal.ring)
    leads = poly.leading_monomials(ideal.groebner(order), order)
    return poly.monomial_dimension(leads, ideal.ring.nvars)


def minors_only_dimension(n):
    """Zero-set dimension of the ideal of all maximal minors of [Y_ij]."""
    ring = lemma_ring(n)
    return zero_set_dimension(poly.Ideal(ring, maximal_minors(ring, n)))


def euler_quadric_by_sign_search(n, tau, psi):
    """The Euler-type quadric over tau with its signs found by search: the
    first sign vector, +1 on x_0 P_{0+tau}, whose presentation image
    vanishes; None when no sign vector does."""
    source = psi.source
    tau = frozenset(tau)
    cols_j = [0] + [j for j in range(1, n + 1) if j not in tau]
    terms = [source.var(x_name(j)) * source.var(p_name({j} | tau)) for j in cols_j]
    for bits in range(2 ** (len(terms) - 1)):
        signs = [1] + [1 if (bits >> i) & 1 else -1 for i in range(len(terms) - 1)]
        candidate = source.zero()
        for sign, term in zip(signs, terms):
            candidate = candidate + sign * term
        if psi(candidate) == 0:
            return candidate
    return None


def lex_greater(a, b, perm):
    """a > b in lex over the variables perm, most significant first: the
    first nonzero entry of a - b, read along perm, is positive."""
    for i in perm:
        if a[i] != b[i]:
            return a[i] > b[i]
    return False


def grevlex_greater(a, b, perm):
    """a > b in grevlex over perm: the higher degree wins; at equal degree
    the last nonzero entry of a - b, read along perm, is negative."""
    deg_a = sum(a[i] for i in perm)
    deg_b = sum(b[i] for i in perm)
    if deg_a != deg_b:
        return deg_a > deg_b
    for i in reversed(perm):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def block_greater(a, b, blocks):
    """a > b in the product of grevlex orders on the blocks, first block
    first: a later block decides only when the earlier ones tie."""
    for block in blocks:
        if grevlex_greater(a, b, block):
            return True
        if grevlex_greater(b, a, block):
            return False
    return False


def min_weight_greater(a, b, weights, tie_break):
    """a > b when a has the smaller weight; equal weights go to tie_break."""
    w_a = sum(w * e for w, e in zip(weights, a))
    w_b = sum(w * e for w, e in zip(weights, b))
    if w_a != w_b:
        return w_a < w_b
    return tie_break(a, b)


def normal_form_by_division(f, gens, greater):
    """Textbook multivariate division, with no support masks and no order
    keys: the largest remaining term (under the comparison greater) is
    reduced against the first generator, in list order, whose lead term
    divides it, or else moves to the remainder."""
    key = cmp_to_key(lambda a, b: 1 if greater(a, b) else -1 if greater(b, a) else 0)
    ring = f.ring
    divisors = [(max(g.terms, key=key), g) for g in gens if g]
    rest, remainder = f, ring.zero()
    while rest:
        m = max(rest.terms, key=key)
        c = rest.terms[m]
        for lead, g in divisors:
            if all(a <= b for a, b in zip(lead, m)):
                shift = [a - b for a, b in zip(m, lead)]
                rest = rest - ring.monomial(shift, Fraction(c) / g.terms[lead]) * g
                break
        else:
            term = ring.monomial(m, c)
            rest, remainder = rest - term, remainder + term
    return remainder


def rows_by_polynomial_products(factors, groups, key=None):
    """poly.product_rows by Polynomial *: for each group of index pairs, the
    pair products as rows over the union of the group's product terms,
    sorted by key (by the exponent tuples themselves when None)."""
    out = []
    for pairs in groups:
        products = [factors[i] * factors[j] for i, j in pairs]
        support = sorted({m for f in products for m in f.terms}, key=key)
        out.append([[f.terms.get(m, 0) for m in support] for f in products])
    return out


def from_terms(ring, terms):
    """The polynomial with the given (exponents, coefficient) terms: the sum
    of their ring.monomial, so repeated exponents add up and zeros drop."""
    return sum((ring.monomial(exps, c) for exps, c in terms), ring.zero())


def serialize_bundle(b):
    """The bundle file text of b, as `tvbcox analyze` reads it."""
    payload = {
        "n": b.n,
        "s": b.s,
        "M": [[str(x) for x in row] for row in b.m],
        "D": [list(row) for row in b.diagram],
    }
    if b.label is not None:
        payload["label"] = b.label
    return json.dumps(payload, indent=2) + "\n"


def ci_profile_by_table(b):
    """bundle._ci_profile read off a whole table: a dict of the restricted
    rank of every nonempty ray subset, built first, then one pass over its
    items."""
    rays = range(1, b.n + 1)
    table = {}
    for size in rays:
        for subset in combinations(rays, size):
            table[frozenset(subset)] = bundle.restricted_rank(b, subset)
    m_ray = [None] + [table[frozenset((i,))] for i in rays]
    profile = {}
    for subset, m_a in table.items():
        if len(subset) >= 2:
            for i in subset:
                profile.setdefault((len(subset), m_ray[i], m_a), (i, subset))
    return profile


def kaneyama_bundle(weights):
    """Sparse hypersurface bundle with the positive diagonal entries weights."""
    n = len(weights)
    diagonal = [[a if i == j else 0 for j in range(n)] for i, a in enumerate(weights)]
    return bundle.BundleData([[1] * n], diagonal, label="kaneyama")


def placed_sparse_bundle(d, s, positions):
    """The uniform sparse bundle with one diagram row per entry of
    positions: None for a zero row, or a 1-based (column, value) pair."""
    rows = [[0] * s for _ in positions]
    for row, pos in zip(rows, positions):
        if pos is not None:
            col, value = pos
            row[col - 1] = value
    return bundle.BundleData(
        bundle.vandermonde_matrix(d, s), rows, label=f"uniform-sparse(d={d}, s={s})"
    )
